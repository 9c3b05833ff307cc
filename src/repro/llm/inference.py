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
from typing import Optional

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
    batch_separable:
        Whether ``activation_fn`` quantises each token's activation vector on
        its own (see :attr:`repro.quant.Quantizer.batch_separable`), so a
        linear over several sequences' tokens gives each the values it gets
        alone.  The serving engine packs requests into one forward, and
        splits a prompt, only when it does.  ``None`` resolves to true for
        the identity activation and to false for any other function.
    """

    name: str
    weight_fn: callable = field(default=_identity_weight)
    activation_fn: callable = field(default=_identity_activation)
    softmax_fn: callable = field(default=ref_act.softmax)
    nonlinear_fn: callable = field(default=_reference_nonlinear)
    quantize_lm_head: bool = True
    batch_separable: Optional[bool] = None

    def __post_init__(self):
        if self.batch_separable is None:
            self.batch_separable = self.activation_fn is _identity_activation

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
            batch_separable=True,
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
                                      weight_fn=weight, activation_fn=act,
                                      batch_separable=getattr(config, "batch_separable", False))
        weight = lambda _, w: quantizer.quantize_dequantize(w, axis=0)
        act = lambda _, x: quantizer.quantize_dequantize(x, axis=-1)
        return QuantizationScheme(name=name or quantizer.name,
                                  weight_fn=weight, activation_fn=act,
                                  batch_separable=quantizer.batch_separable)

    def with_nonlinear(self, softmax_fn=None, nonlinear_fn=None, name: str = None) -> "QuantizationScheme":
        """Return a copy with the nonlinear operators replaced (Table IV experiments)."""
        return QuantizationScheme(
            name=name or self.name,
            weight_fn=self.weight_fn,
            activation_fn=self.activation_fn,
            softmax_fn=softmax_fn or self.softmax_fn,
            nonlinear_fn=nonlinear_fn or self.nonlinear_fn,
            quantize_lm_head=self.quantize_lm_head,
            batch_separable=self.batch_separable,
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
        self._names = [_block_names(i) for i in range(config.n_layers)]
        self._attention_scale = np.sqrt(config.head_dim)

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
        if x.ndim == 2:  # forward_step's packed tokens: already the GEMM's rows
            out = x @ weight
        else:
            out = (x.reshape(-1, weight.shape[0]) @ weight).reshape(x.shape[:-1]
                                                                   + weight.shape[1:])
        if bias is not None:
            out += bias
        return out

    def _norm(self, prefix: str, x: np.ndarray) -> np.ndarray:
        """RMS or layer norm of ``x`` into one new array, in the textbook operation order."""
        gain = self.state[prefix + ".gain"]
        if self.config.norm == "rmsnorm":
            out = x * x
            scale = np.add.reduce(out, axis=-1, keepdims=True)
            scale /= x.shape[-1]
            scale += 1e-5
            np.divide(x, np.sqrt(scale, out=scale), out=out)
            out *= gain
            return out
        out = x - x.mean(axis=-1, keepdims=True)
        scale = np.mean(out ** 2, axis=-1, keepdims=True)
        scale += 1e-5
        out /= np.sqrt(scale, out=scale)
        out *= gain
        out += self.state[prefix + ".bias"]
        return out

    def _qkv_heads(self, names: dict, x: np.ndarray) -> tuple:
        """Project ``x`` to per-head Q/K/V, each ``(batch, heads, seq, head_dim)``."""
        cfg = self.config
        batch, seq_len, _ = x.shape

        def split(t):
            return t.reshape(batch, seq_len, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)

        return (split(self._linear(names["q_proj"], x)),
                split(self._linear(names["k_proj"], x)),
                split(self._linear(names["v_proj"], x)))

    def _attend(self, scores: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Masked scores -> softmax -> context, heads merged: ``(batch, seq, d_model)``."""
        attn = self.scheme.softmax_fn(scores, axis=-1)
        context = attn @ v
        batch, _, seq_len, _ = context.shape
        return context.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.config.d_model)

    def _attention(self, index: int, x: np.ndarray) -> np.ndarray:
        names = self._names[index]
        q, k, v = self._qkv_heads(names, x)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores /= self._attention_scale
        scores += causal_mask(x.shape[1])
        return self._linear(names["out_proj"], self._attend(scores, v))

    def _attention_step(self, index: int, x: np.ndarray, cache, groups: list) -> np.ndarray:
        """Append the step's K/V to ``cache``, then attend each group over its context.

        ``x`` is ``(tokens, d_model)``, every row's new positions packed in row
        order.  Every group appends before any group reads, so each query sees
        the quantised K/V of its own chunk, as a whole prefill's queries do.
        """
        cfg = self.config
        names = self._names[index]
        q = self._linear(names["q_proj"], x)
        k = self._linear(names["k_proj"], x)
        v = self._linear(names["v_proj"], x)
        for group in groups:
            cache.append(index, group.rows, group.heads(k), group.heads(v))
        merged = np.empty_like(x) if len(groups) > 1 else None
        for group in groups:
            k_ctx, v_ctx = cache.context(index, group.read, group.context_len)
            scores = group.queries(q) @ k_ctx.transpose(0, 1, 3, 2)
            # in place: a second scores array would raise the heap's peak
            scores /= self._attention_scale
            scores += group.mask
            context = self._attend(scores, v_ctx)
            if group.members is not None:
                context = context[group.members]
            if merged is None:
                merged = context.reshape(x.shape)
            else:
                merged[group.take] = context.reshape(-1, cfg.d_model)
        return self._linear(names["out_proj"], merged)

    def _mlp(self, index: int, x: np.ndarray) -> np.ndarray:
        names = self._names[index]
        if self.config.uses_gated_mlp:
            gate = self._linear(names["gate_proj"], x)
            hidden = self._linear(names["up_proj"], x)
            hidden *= self.scheme.nonlinear_fn("silu", gate)  # silu(gate) * up, in up's array
            return self._linear(names["down_proj"], hidden)
        hidden = self._linear(names["fc1"], x)
        hidden = self.scheme.nonlinear_fn(self.config.activation, hidden)
        return self._linear(names["fc2"], hidden)

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
        for i, names in enumerate(self._names):
            x = x + self._attention(i, self._norm(names["attn_norm"], x))
            x = x + self._mlp(i, self._norm(names["mlp_norm"], x))
        x = self._norm("final_norm", x)
        return self._linear("lm_head", x)

    def forward_step(self, tokens, cache, rows=None):
        """Incremental forward: embed only the new ``tokens``, attend over ``cache``.

        ``tokens`` is ``(batch, n_new)`` (or 1-D for a single sequence) of new
        token ids, or *ragged*: a list with one 1-D id array per row, of unequal
        lengths.  ``cache`` is a :class:`repro.serve.PagedKVCache` holding the
        already-processed context of each sequence.  ``rows`` selects which
        cache slots the batch rows correspond to (all slots by default), so a
        continuous-batching engine can run decode rows and prefill chunks of
        different slots in one call; rows must be distinct slots.  Keys/values
        of the new positions are appended to the cache — through the cache's
        quantiser when one is configured — and each row's cache length
        advances by its number of new tokens.

        Embeddings, norms and linears run once over all of the step's tokens.
        Attention runs per group: rows of one new token (decode rows) attend
        together over the consecutive slot range they span, which the cache
        serves as one view of its page pool; a slot in that range that is not
        among them gets a zero query and its output is dropped.  A ragged
        row of several tokens (a prefill chunk) attends over its own slot
        under a causal mask; a rectangular batch of several tokens per row
        attends as one batch, as a multi-row prefill always has.

        Returns logits ``(batch, n_new, vocab)`` for the new positions of a
        rectangular batch, and a list of ``(n_i, vocab)`` arrays for ragged
        rows.  A fresh cache plus one call over a whole prompt computes exactly
        :meth:`forward`; subsequent single-token calls continue it in O(1)
        forward cost per token instead of re-running the full prefix.
        """
        ids, counts = self._step_tokens(tokens)
        batch = len(counts)
        if rows is None:
            if batch != cache.batch_size:
                raise ValueError(
                    f"token batch ({batch}) does not match the cache batch "
                    f"({cache.batch_size}); pass rows= to address a subset of slots"
                )
            rows = np.arange(cache.batch_size)
            slots = list(range(batch))
        else:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.size != batch:
                raise ValueError(f"rows ({rows.size}) must match the token batch ({batch})")
            slots = rows.tolist()
            if len(set(slots)) < batch or not all(0 <= r < cache.batch_size for r in slots):
                raise ValueError(f"rows {slots} must be distinct slots in [0, {cache.batch_size})")
        start = cache.lengths[rows]
        heads = (self.config.n_heads, self.config.head_dim)
        if ids.ndim == 2:
            positions = start[:, None] + np.arange(ids.shape[1])
            groups = [_StepGroup(rows, slots, None, positions, cache.lengths, heads)]
        else:
            offsets = np.cumsum(counts) - counts
            positions = np.arange(ids.size) - np.repeat(offsets - start, counts)
            groups = _ragged_groups(rows, slots, counts, offsets, positions, cache.lengths,
                                    heads)
        context_len = max(group.context_len for group in groups)
        limit = min(cache.max_seq_len, self.config.max_seq_len)
        if context_len > limit:
            raise ValueError(f"context of {context_len} positions exceeds max_seq_len {limit}")
        x = self.state["token_embedding.weight"][ids.ravel()] + \
            self.state["position_embedding.weight"][positions.ravel()]
        for i, names in enumerate(self._names):
            x = x + self._attention_step(i, self._norm(names["attn_norm"], x), cache, groups)
            x = x + self._mlp(i, self._norm(names["mlp_norm"], x))
        x = self._norm("final_norm", x)
        logits = self._linear("lm_head", x)
        for group in groups:
            cache.advance(group.rows, group.n_new)
        if ids.ndim == 2:
            return logits.reshape(ids.shape + logits.shape[-1:])
        return np.split(logits, offsets[1:])

    def _step_tokens(self, tokens) -> tuple:
        """``(ids, counts)``: the ``(batch, n_new)`` ids, or ragged rows' ids packed 1-D.

        Ragged rows are a list of 1-D id arrays of unequal lengths; ``counts``
        holds every row's number of new tokens.
        """
        if (isinstance(tokens, (list, tuple)) and len(tokens) > 1
                and np.ndim(tokens[0]) == 1 and len({len(row) for row in tokens}) > 1):
            rows = [np.asarray(row, dtype=np.int64) for row in tokens]
            if any(row.ndim != 1 or not row.size for row in rows):
                raise ValueError("ragged rows must each be a non-empty 1-D id array")
            return self._token_batch(np.concatenate(rows))[0], np.array([row.size for row in rows])
        tokens = self._token_batch(tokens)
        batch, n_new = tokens.shape
        if n_new == 0:
            raise ValueError("forward_step needs at least one new token")
        return tokens, [n_new] * batch

    def negative_log_likelihood(self, tokens: np.ndarray) -> float:
        """Mean next-token NLL (nats) of a batch of ``(batch, seq+1)`` token windows."""
        tokens = self._token_batch(tokens)
        logits = self.forward(tokens[:, :-1])
        targets = tokens[:, 1:]
        log_probs = log_softmax(logits, axis=-1)
        picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
        return float(-picked.mean())


def _block_names(index: int) -> dict:
    """State-dict prefixes of decoder block ``index``, keyed by their last part."""
    block = f"blocks.{index}"
    names = {"attn_norm": f"{block}.attn_norm", "mlp_norm": f"{block}.mlp_norm"}
    names.update((kind, f"{block}.attention.{kind}")
                 for kind in ("q_proj", "k_proj", "v_proj", "out_proj"))
    names.update((kind, f"{block}.mlp.{kind}")
                 for kind in ("gate_proj", "up_proj", "down_proj", "fc1", "fc2"))
    return names


class _StepGroup:
    """Rows of one ``forward_step`` that attend together, ``n_new`` tokens each.

    ``take`` selects the group's tokens in the step's packed token axis
    (``None``: all of them, in order).
    ``read`` holds the slots whose context the group reads: its own rows, or
    for one-token rows the consecutive range ``[lo, hi)`` they span (one view
    of the page pool instead of a gather of every page); ``members`` then
    picks the group's rows out of that range, and every other slot in it
    gets a zero query.  ``mask`` is the causal mask over ``context_len``
    positions of every read slot.
    """

    __slots__ = ("rows", "n_new", "take", "shape", "read", "members", "context_len", "mask")

    def __init__(self, rows, slots, take, positions, lengths, heads):
        """``positions``: ``(rows, n_new)`` absolute positions of the group's new tokens."""
        self.rows, self.take = rows, take
        self.n_new = positions.shape[1]
        self.shape = positions.shape + heads
        self.context_len = int(positions[:, -1].max()) + 1
        self.read, self.members = rows, None
        lo = min(slots)
        if self.n_new == 1 and slots != list(range(lo, lo + len(slots))):
            self.read, self.members = np.arange(lo, max(slots) + 1), rows - lo
            positions = lengths[self.read][:, None]
        # Causal mask over a cached context: key j is visible to the query at
        # absolute position p iff j <= p.  causal_mask's 0 / -1e9 values, so a
        # prefill on a fresh cache reproduces the forward() numerics.
        self.mask = (np.arange(self.context_len) > positions[:, None, :, None]) * -1e9

    def heads(self, t: np.ndarray) -> np.ndarray:
        """The group's rows of packed ``(tokens, d_model)`` as ``(rows, heads, n_new, head_dim)``."""
        t = t if self.take is None else t[self.take]
        return t.reshape(self.shape).transpose(0, 2, 1, 3)

    def queries(self, q: np.ndarray) -> np.ndarray:
        """Queries for every read slot: the group's own, zero for the others."""
        own = self.heads(q)
        if self.members is None:
            return own
        queries = np.zeros((self.read.size,) + own.shape[1:])
        queries[self.members] = own
        return queries


def _ragged_groups(rows, slots, counts, offsets, positions, lengths, heads) -> list:
    """Decode rows (one token each) as one group, then each chunk as its own."""
    groups = []
    single = np.flatnonzero(counts == 1)
    if single.size:
        take = offsets[single]
        if take[-1] - take[0] == take.size - 1:
            take = slice(int(take[0]), int(take[-1]) + 1)
        groups.append(_StepGroup(rows[single], [slots[i] for i in single.tolist()], take,
                                 positions[take][:, None], lengths, heads))
    for index in np.flatnonzero(counts > 1).tolist():
        take = slice(int(offsets[index]), int(offsets[index] + counts[index]))
        groups.append(_StepGroup(rows[index:index + 1], slots[index:index + 1], take,
                                 positions[take][None, :], lengths, heads))
    return groups
