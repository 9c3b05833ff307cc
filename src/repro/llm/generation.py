"""Auto-regressive text generation over the quantisation-aware inference path.

Perplexity (Table II / IV) measures quantisation damage in aggregate; sampling
actual continuations from a quantised model is the complementary check a user
performs before deploying a format — does the model still produce coherent
text at BBFP(4,2), or has the quantisation noise broken generation?  This
module provides greedy and temperature/top-k sampling on top of
:class:`repro.llm.inference.InferenceModel`, so any
:class:`~repro.llm.inference.QuantizationScheme` (BBFP, BFP, baselines,
layer-wise mixes) can be compared on the same prompt.

The decode loop is a thin single-sequence wrapper over the KV-cached
incremental path (:meth:`~repro.llm.inference.InferenceModel.forward_step` +
:class:`repro.serve.PagedKVCache`): the prompt is prefilled once and each new
token costs one token's forward.  Only when the context outgrows the model's
positional window does the loop fall back to the historical full recompute
over the truncated context (a sliding window shifts every cached position, so
the cache cannot be reused there).  Multi-request serving lives in
:mod:`repro.serve`; the *hardware* cost of cached decode is modelled
separately by :mod:`repro.accelerator.generation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.llm.dataset import SyntheticCorpus
from repro.llm.inference import InferenceModel
from repro.llm.sampling import sample_token

__all__ = ["GenerationConfig", "generate_tokens", "generate_text", "sequence_log_likelihood"]


@dataclass(frozen=True)
class GenerationConfig:
    """Sampling parameters for auto-regressive generation.

    Parameters
    ----------
    max_new_tokens:
        Number of tokens appended to the prompt.
    temperature:
        Softmax temperature; ``0`` selects the argmax (greedy decoding).
    top_k:
        Restrict sampling to the ``top_k`` most likely tokens (``0`` keeps the
        full distribution).
    seed:
        Seed of the sampling generator (ignored for greedy decoding).
    """

    max_new_tokens: int = 64
    temperature: float = 0.0
    top_k: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")


def generate_tokens(model: InferenceModel, prompt_tokens,
                    config: GenerationConfig = None) -> np.ndarray:
    """Generate ``config.max_new_tokens`` continuation tokens after ``prompt_tokens``.

    While the context fits the positional window the continuation is decoded
    incrementally over a KV cache (prompt prefilled once, then one token per
    forward step).  Beyond the window the context is truncated to the
    ``max_seq_len - 1`` most recent tokens and recomputed in full each step,
    so arbitrarily long generations remain possible on the fixed-length
    positional embedding.

    Greedy decoding is token-identical to the historical full-recompute loop
    for the reference scheme and for schemes whose activation quantisers
    scale within one position (BBFP/BFP/MX blocked along the feature axis).
    A scheme with *per-tensor* activation scales (plain INT) sees each
    decode step's activations quantised on their own rather than alongside
    the whole context — the semantics a serving system actually has — so its
    tokens may differ slightly from a full recompute.

    Returns the full token sequence (prompt + continuation) as an int64 array.
    """
    # default built per call: a shared module-level dataclass instance would
    # leak between callers that introspect or compare configs
    config = config or GenerationConfig()
    prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64).ravel()
    if prompt_tokens.size == 0:
        raise ValueError("prompt_tokens must contain at least one token")
    if np.any(prompt_tokens < 0) or np.any(prompt_tokens >= model.config.vocab_size):
        raise ValueError("prompt contains token ids outside the model vocabulary")

    from repro.serve.kv_cache import PagedKVCache  # serve layers above llm; import lazily

    rng = np.random.default_rng(config.seed)
    window = model.config.max_seq_len - 1
    tokens = list(prompt_tokens)
    cache = None
    for _ in range(config.max_new_tokens):
        if len(tokens) <= window:
            if cache is None:
                cache = PagedKVCache(model.config, batch_size=1)
                new_tokens = np.array(tokens, dtype=np.int64)  # prefill the whole prefix
            else:
                new_tokens = np.array(tokens[-1:], dtype=np.int64)
            logits = model.forward_step(new_tokens[None, :], cache)[0, -1]
        else:
            # sliding window: every cached position would shift — full recompute
            context = np.array(tokens[-window:], dtype=np.int64)
            logits = model.forward(context[None, :])[0, -1]
        tokens.append(sample_token(logits, temperature=config.temperature,
                                   top_k=config.top_k, rng=rng))
    return np.array(tokens, dtype=np.int64)


def generate_text(model: InferenceModel, corpus: SyntheticCorpus, prompt: str,
                  config: GenerationConfig = None) -> str:
    """Generate a text continuation of ``prompt`` using the corpus tokenizer."""
    prompt_tokens = corpus.tokenizer.encode(prompt)
    tokens = generate_tokens(model, prompt_tokens, config)
    return corpus.tokenizer.decode(tokens)


def sequence_log_likelihood(model: InferenceModel, tokens) -> float:
    """Total log-likelihood (nats) the model assigns to a token sequence.

    Useful for comparing how plausible different schemes find the *same*
    continuation (e.g. one generated by the FP reference).
    """
    tokens = np.asarray(tokens, dtype=np.int64).ravel()
    if tokens.size < 2:
        raise ValueError("need at least two tokens to score a sequence")
    window = model.config.max_seq_len
    total = 0.0
    # Score in overlapping windows so sequences longer than max_seq_len work.
    position = 0
    while position + 1 < tokens.size:
        chunk = tokens[position : position + window]
        nll = model.negative_log_likelihood(chunk[None, :])
        total -= nll * (chunk.size - 1)
        position += window - 1
    return float(total)
