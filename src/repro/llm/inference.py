"""Quantisation-aware inference path (pure numpy, no autograd).

This module re-implements the transformer forward pass on top of a plain
``{name: ndarray}`` state dict so that every operator the paper quantises can
be intercepted:

* **linear layers** (Query / Key / Value / Proj / FC1 / FC2 / Gate / Up / Down
  / LM head): both the weight and the input activation pass through the
  scheme's quantisers, blocked along the reduction axis exactly like the
  BBAL PE array consumes them;
* **nonlinear operators** (softmax over attention scores, SiLU / GELU in the
  MLP): dispatched through the scheme so the BBFP segmented-LUT nonlinear
  unit of :mod:`repro.nonlinear` can replace the FP32 reference (Table IV);
* **activation recording**: a hook collects the inputs of selected linear
  layers for Fig. 3 (per-layer quantisation MSE) and for the calibration of
  the SmoothQuant / OmniQuant baselines.

Norms, residual additions and embeddings stay in floating point, matching the
paper's accelerator (the FP adder / FP encoder path in Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fp_formats import fp16_round
from repro.llm import activations as ref_act
from repro.llm.activations import log_softmax
from repro.llm.attention import causal_mask
from repro.llm.config import ModelConfig

__all__ = ["QuantizationScheme", "InferenceModel", "LINEAR_LAYER_KINDS"]

#: The linear-layer kinds recognised by layer-name matching (used by Fig. 3
#: and by baselines that treat e.g. the LM head differently).
LINEAR_LAYER_KINDS = ("q_proj", "k_proj", "v_proj", "out_proj", "gate_proj", "up_proj",
                      "down_proj", "fc1", "fc2", "lm_head")


def _identity_weight(name: str, w: np.ndarray) -> np.ndarray:
    return w


def _identity_activation(name: str, x: np.ndarray) -> np.ndarray:
    return x


def _reference_nonlinear(kind: str, x: np.ndarray) -> np.ndarray:
    try:
        return ref_act.ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown nonlinear kind {kind!r}") from None


@dataclass
class QuantizationScheme:
    """Bundle of quantisers applied during inference.

    Attributes
    ----------
    name:
        Display name used in result tables (e.g. ``"BBFP(4,2)"``).
    weight_fn:
        ``(layer_name, weight) -> weight_hat`` fake-quantiser; the weight has
        shape ``(in_features, out_features)`` and should be quantised along
        the reduction axis (axis 0).
    activation_fn:
        ``(layer_name, activation) -> activation_hat`` fake-quantiser; the
        activation has shape ``(..., in_features)`` and should be quantised
        along the last axis.
    softmax_fn:
        Replacement for the attention softmax (``(scores, axis) -> probs``).
    nonlinear_fn:
        Replacement for elementwise nonlinearities
        (``(kind, x) -> y`` with ``kind`` in ``{"silu", "gelu", "relu", "sigmoid"}``).
    quantize_lm_head:
        Whether the final vocabulary projection is quantised (the paper keeps
        it in the same format as the other linears; disable for ablations).
    """

    name: str
    weight_fn: callable = field(default=_identity_weight)
    activation_fn: callable = field(default=_identity_activation)
    softmax_fn: callable = field(default=ref_act.softmax)
    nonlinear_fn: callable = field(default=_reference_nonlinear)
    quantize_lm_head: bool = True

    # ------------------------------------------------------------- factories
    @staticmethod
    def fp_reference(name: str = "FP32") -> "QuantizationScheme":
        """No quantisation anywhere — the accuracy baseline."""
        return QuantizationScheme(name=name)

    @staticmethod
    def fp16(name: str = "FP16") -> "QuantizationScheme":
        """IEEE half precision on weights and activations (the paper's Table II baseline)."""
        return QuantizationScheme(
            name=name,
            weight_fn=lambda _, w: fp16_round(w),
            activation_fn=lambda _, x: fp16_round(x),
        )

    @staticmethod
    def from_format(config, name: str = None) -> "QuantizationScheme":
        """Quantise weights and activations with any registered format.

        ``config`` may be a spec string (``"BBFP(4,2)"``, ``"int8"``, ...), a
        format configuration, or a :class:`repro.quant.Quantizer` — everything
        dispatches through the :mod:`repro.quant` registry, so a newly
        registered format needs no edits here.  Objects of unregistered types
        that expose a ``quantize_dequantize(x, axis)`` hook keep working as a
        fallback.  Weights are blocked along the reduction axis (axis 0) and
        activations along their last axis.  Formats without a blocking axis
        keep their own convention: per-tensor/per-channel INT scales and
        element-wise minifloat rounding are axis-independent (per-channel
        means one scale per *last-axis* channel — the output channel of a
        ``(in, out)`` weight — matching the usual per-output-channel rule).
        """
        from repro.quant import UnknownFormatError, get_quantizer

        try:
            quantizer = get_quantizer(config)
        except UnknownFormatError:
            if isinstance(config, str):
                raise  # keep the registry's message (incl. did-you-mean)
            if not hasattr(config, "quantize_dequantize"):
                raise TypeError(f"unsupported format config {config!r}") from None
            weight = lambda _, w: config.quantize_dequantize(w, axis=0)
            act = lambda _, x: config.quantize_dequantize(x, axis=-1)
            default_name = getattr(config, "name", type(config).__name__)
            return QuantizationScheme(name=name or default_name,
                                      weight_fn=weight, activation_fn=act)
        weight = lambda _, w: quantizer.quantize_dequantize(w, axis=0)
        act = lambda _, x: quantizer.quantize_dequantize(x, axis=-1)
        return QuantizationScheme(name=name or quantizer.name,
                                  weight_fn=weight, activation_fn=act)

    def with_nonlinear(self, softmax_fn=None, nonlinear_fn=None, name: str = None) -> "QuantizationScheme":
        """Return a copy with the nonlinear operators replaced (Table IV experiments)."""
        return QuantizationScheme(
            name=name or self.name,
            weight_fn=self.weight_fn,
            activation_fn=self.activation_fn,
            softmax_fn=softmax_fn or self.softmax_fn,
            nonlinear_fn=nonlinear_fn or self.nonlinear_fn,
            quantize_lm_head=self.quantize_lm_head,
        )


class InferenceModel:
    """Numpy forward pass over a trained state dict with pluggable quantisation."""

    def __init__(self, config: ModelConfig, state_dict: dict, scheme: QuantizationScheme = None):
        self.config = config
        self.state = {k: np.asarray(v, dtype=np.float64) for k, v in state_dict.items()}
        self.scheme = scheme or QuantizationScheme.fp_reference()
        self._weight_cache = {}
        self._recorder = None
        self._validate_state()

    # ----------------------------------------------------------------- setup
    def _validate_state(self):
        required = ["token_embedding.weight", "position_embedding.weight", "lm_head.weight"]
        for key in required:
            if key not in self.state:
                raise KeyError(f"state dict is missing {key!r}")
        for i in range(self.config.n_layers):
            if f"blocks.{i}.attention.q_proj.weight" not in self.state:
                raise KeyError(f"state dict is missing block {i}")

    def set_scheme(self, scheme: QuantizationScheme):
        """Switch quantisation scheme (clears the quantised-weight cache)."""
        self.scheme = scheme
        self._weight_cache = {}

    # ------------------------------------------------------------- recording
    class _Recorder:
        def __init__(self, model, layer_kinds):
            self.model = model
            self.layer_kinds = layer_kinds
            self.records = {}

        def __enter__(self):
            self.model._recorder = self
            return self.records

        def __exit__(self, exc_type, exc, tb):
            self.model._recorder = None
            return False

    def record_activations(self, layer_kinds=LINEAR_LAYER_KINDS):
        """Context manager collecting linear-layer inputs keyed by layer name.

        Example
        -------
        >>> with model.record_activations(("q_proj", "fc1")) as records:  # doctest: +SKIP
        ...     model.forward(tokens)
        >>> records["blocks.0.attention.q_proj"].shape  # doctest: +SKIP
        """
        return InferenceModel._Recorder(self, tuple(layer_kinds))

    # --------------------------------------------------------------- helpers
    def _linear(self, name: str, x: np.ndarray) -> np.ndarray:
        """``x @ W + b`` as one 2-D GEMM over all rows and positions of ``x``.

        numpy runs a stacked ``(rows, 1, in) @ (in, out)`` as one GEMV per row,
        reading ``W`` once per row; flattened, a decode step reads it once.  A
        batched row's logits may then differ in the last bits from the row alone
        (BLAS sums in a row-count-dependent order).  Padding a lone row would
        not make them exact, as attention reduces over the batch's longest
        context, and costs 8-16% per batch-1 step: tokens stay batch-invariant.
        """
        if self._recorder is not None and name.rsplit(".", 1)[-1] in self._recorder.layer_kinds:
            self._recorder.records.setdefault(name, []).append(np.array(x, copy=True))
        if name not in self._weight_cache:
            quantize = self.scheme.quantize_lm_head or name.rsplit(".", 1)[-1] != "lm_head"
            weight = self.state[f"{name}.weight"]
            weight = self.scheme.weight_fn(name, weight) if quantize else weight
            self._weight_cache[name] = weight, self.state.get(f"{name}.bias"), quantize
        weight, bias, quantize = self._weight_cache[name]
        if quantize:
            x = self.scheme.activation_fn(name, x)
        out = x.reshape(-1, weight.shape[0]) @ weight
        if bias is not None:
            out += bias
        return out.reshape(x.shape[:-1] + weight.shape[1:])

    def _norm(self, prefix: str, x: np.ndarray) -> np.ndarray:
        gain = self.state[f"{prefix}.gain"]
        if self.config.norm == "rmsnorm":
            mean_square = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
            return x / np.sqrt(mean_square + 1e-5) * gain
        bias = self.state[f"{prefix}.bias"]
        mu = x.mean(axis=-1, keepdims=True)
        var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * gain + bias

    def _qkv_heads(self, prefix: str, x: np.ndarray) -> tuple:
        """Project ``x`` to per-head Q/K/V, each ``(batch, heads, seq, head_dim)``."""
        cfg = self.config
        batch, seq_len, _ = x.shape

        def split(t):
            return t.reshape(batch, seq_len, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)

        return (split(self._linear(f"{prefix}.q_proj", x)),
                split(self._linear(f"{prefix}.k_proj", x)),
                split(self._linear(f"{prefix}.v_proj", x)))

    def _attend(self, prefix: str, scores: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Masked scores -> softmax -> context -> merged heads -> out_proj."""
        attn = self.scheme.softmax_fn(scores, axis=-1)
        context = attn @ v
        batch, _, seq_len, _ = context.shape
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.config.d_model)
        return self._linear(f"{prefix}.out_proj", context)

    def _attention(self, index: int, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        _, seq_len, _ = x.shape
        prefix = f"blocks.{index}.attention"
        q, k, v = self._qkv_heads(prefix, x)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(cfg.head_dim)
        scores = scores + causal_mask(seq_len)
        return self._attend(prefix, scores, v)

    def _attention_step(self, index: int, x: np.ndarray, cache, rows: np.ndarray,
                        context_len: int, mask: np.ndarray) -> np.ndarray:
        """Append the new positions' K/V to ``cache``, then attend over its context.

        Queries see each row's first ``context_len`` positions under ``mask``; on a
        fresh, unquantised cache this computes exactly :meth:`_attention`.
        """
        prefix = f"blocks.{index}.attention"
        q, k, v = self._qkv_heads(prefix, x)
        cache.append(index, rows, k, v)
        k_ctx, v_ctx = cache.context(index, rows, context_len)
        scores = q @ k_ctx.transpose(0, 1, 3, 2) / np.sqrt(self.config.head_dim)
        scores += mask  # in place: a second scores array would raise the heap's peak
        return self._attend(prefix, scores, v_ctx)

    def _mlp(self, index: int, x: np.ndarray) -> np.ndarray:
        prefix = f"blocks.{index}.mlp"
        if self.config.uses_gated_mlp:
            gate = self._linear(f"{prefix}.gate_proj", x)
            up = self._linear(f"{prefix}.up_proj", x)
            hidden = self.scheme.nonlinear_fn("silu", gate) * up
            return self._linear(f"{prefix}.down_proj", hidden)
        hidden = self._linear(f"{prefix}.fc1", x)
        hidden = self.scheme.nonlinear_fn(self.config.activation, hidden)
        return self._linear(f"{prefix}.fc2", hidden)

    def _token_batch(self, tokens) -> np.ndarray:
        """``(batch, seq)`` int64 ids; raises on an id a lookup would wrap or overrun."""
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ValueError(f"token ids must lie in the vocabulary [0, {self.config.vocab_size})")
        return tokens

    # ---------------------------------------------------------------- public
    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Return logits ``(batch, seq, vocab)`` for integer ``tokens``."""
        tokens = self._token_batch(tokens)
        _, seq_len = tokens.shape
        if seq_len > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_seq_len {self.config.max_seq_len}"
            )
        x = self.state["token_embedding.weight"][tokens] + self.state["position_embedding.weight"][
            np.arange(seq_len)
        ]
        for i in range(self.config.n_layers):
            x = x + self._attention(i, self._norm(f"blocks.{i}.attn_norm", x))
            x = x + self._mlp(i, self._norm(f"blocks.{i}.mlp_norm", x))
        x = self._norm("final_norm", x)
        return self._linear("lm_head", x)

    def forward_step(self, tokens: np.ndarray, cache, rows=None) -> np.ndarray:
        """Incremental forward: embed only the new ``tokens``, attend over ``cache``.

        ``tokens`` is ``(batch, n_new)`` (or 1-D for a single sequence) of new
        token ids; ``cache`` is a :class:`repro.serve.PagedKVCache` holding the
        already-processed context of each sequence.  ``rows`` selects which
        cache slots the batch rows correspond to (all slots by default), so a
        continuous-batching engine can prefill one request and batch-decode
        another set in interleaved calls; rows must be distinct slots.  Keys/values
        of the new positions are appended to the cache — through the cache's
        quantiser when one is configured — and the cache lengths advance by ``n_new``.

        Returns logits ``(batch, n_new, vocab)`` for the new positions only.
        A fresh cache plus one call over a whole prompt computes exactly
        :meth:`forward`; subsequent single-token calls continue it in O(1)
        forward cost per token instead of re-running the full prefix.
        """
        tokens = self._token_batch(tokens)
        batch, n_new = tokens.shape
        if n_new == 0:
            raise ValueError("forward_step needs at least one new token")
        if rows is None:
            if batch != cache.batch_size:
                raise ValueError(
                    f"token batch ({batch}) does not match the cache batch "
                    f"({cache.batch_size}); pass rows= to address a subset of slots"
                )
            rows = np.arange(cache.batch_size)
        else:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size != batch:
                raise ValueError(f"rows ({rows.size}) must match the token batch ({batch})")
            slots = rows.tolist()
            if len(set(slots)) < batch or not all(0 <= r < cache.batch_size for r in slots):
                raise ValueError(f"rows {slots} must be distinct slots in [0, {cache.batch_size})")
        start = cache.lengths[rows]
        context_len = int(start.max()) + n_new
        limit = min(cache.max_seq_len, self.config.max_seq_len)
        if context_len > limit:
            raise ValueError(f"context of {context_len} positions exceeds max_seq_len {limit}")
        positions = start[:, None] + np.arange(n_new)[None, :]
        # Causal mask over a cached context: key j is visible to the query at
        # absolute position p iff j <= p.  causal_mask's 0 / -1e9 values, so a
        # prefill on a fresh cache reproduces the forward() numerics.
        mask = (np.arange(context_len) > positions[:, None, :, None]) * -1e9
        x = self.state["token_embedding.weight"][tokens] + \
            self.state["position_embedding.weight"][positions]
        for i in range(self.config.n_layers):
            x = x + self._attention_step(i, self._norm(f"blocks.{i}.attn_norm", x),
                                         cache, rows, context_len, mask)
            x = x + self._mlp(i, self._norm(f"blocks.{i}.mlp_norm", x))
        x = self._norm("final_norm", x)
        logits = self._linear("lm_head", x)
        cache.advance(rows, n_new)
        return logits

    def negative_log_likelihood(self, tokens: np.ndarray) -> float:
        """Mean next-token NLL (nats) of a batch of ``(batch, seq+1)`` token windows."""
        tokens = self._token_batch(tokens)
        logits = self.forward(tokens[:, :-1])
        targets = tokens[:, 1:]
        log_probs = log_softmax(logits, axis=-1)
        picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
        return float(-picked.mean())
