"""Decode throughput with and without the KV cache (the repro.serve speedup).

The seed decode loop re-runs the full forward over the whole context for
every generated token (O(n^2) per sequence); the serve subsystem's
incremental path embeds only the new position and attends over cached K/V.
This suite records decode tokens/s for both paths on a fast-model setting
and asserts the cached path is at least 5x faster at seq_len >= 64 — the
acceptance bar for the serving layer being a real optimisation rather than
bookkeeping.  Beside the timed bar it counts the token positions each loop
sends through the model, which is exact and needs no clock.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.reporting import ExperimentResult
from repro.llm.config import ModelConfig
from repro.llm.inference import InferenceModel
from repro.llm.transformer import TransformerLM
from repro.serve.kv_cache import PagedKVCache

from conftest import emit

PROMPT_LEN = 96
DECODE_TOKENS = 32


@pytest.fixture(scope="module")
def bench_model():
    """A fast-model-sized random-weight checkpoint (throughput only, untrained)."""
    config = ModelConfig(name="serve-bench", vocab_size=64, d_model=128, n_heads=4,
                         n_layers=3, d_ff=384, max_seq_len=PROMPT_LEN + DECODE_TOKENS + 8,
                         arch="llama", seed=0)
    return InferenceModel(config, TransformerLM(config).state_dict())


class _PositionCounter:
    """Passes calls on to ``model``, counting the token positions sent through it."""

    def __init__(self, model):
        self.model, self.config, self.positions = model, model.config, 0

    def forward(self, tokens):
        self.positions += np.asarray(tokens).size
        return self.model.forward(tokens)

    def forward_step(self, tokens, cache, rows=None):
        self.positions += np.asarray(tokens).size
        return self.model.forward_step(tokens, cache, rows)


def _decode_uncached(model, prompt, n_tokens):
    tokens = list(prompt)
    for _ in range(n_tokens):
        context = np.array(tokens, dtype=np.int64)
        logits = model.forward(context[None, :])[0, -1]
        tokens.append(int(np.argmax(logits)))
    return tokens


def _decode_cached(model, prompt, n_tokens):
    cache = PagedKVCache(model.config, batch_size=1)
    logits = model.forward_step(np.array(prompt, dtype=np.int64)[None, :], cache)
    tokens = list(prompt) + [int(np.argmax(logits[0, -1]))]
    for _ in range(n_tokens - 1):
        logits = model.forward_step(np.array([[tokens[-1]]], dtype=np.int64), cache)
        tokens.append(int(np.argmax(logits[0, -1])))
    return tokens


def _tokens_per_second(fn, model, prompt, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(model, prompt, DECODE_TOKENS)
        best = min(best, time.perf_counter() - start)
    return DECODE_TOKENS / best


def test_kv_cached_decode_is_at_least_5x_faster(bench_model):
    rng = np.random.default_rng(0)
    prompt = rng.integers(0, bench_model.config.vocab_size, size=PROMPT_LEN)
    # identical tokens first: the speedup must not come from different work
    uncached_model, cached_model = _PositionCounter(bench_model), _PositionCounter(bench_model)
    assert _decode_uncached(uncached_model, prompt, DECODE_TOKENS) == \
        _decode_cached(cached_model, prompt, DECODE_TOKENS)
    # the work behind the bar: the prompt once, then one position per new
    # token (127), against the whole growing context per token (3,568)
    assert cached_model.positions == PROMPT_LEN + DECODE_TOKENS - 1
    assert uncached_model.positions == sum(PROMPT_LEN + i for i in range(DECODE_TOKENS))
    uncached = _tokens_per_second(_decode_uncached, bench_model, prompt)
    cached = _tokens_per_second(_decode_cached, bench_model, prompt)
    speedup = cached / uncached
    emit(ExperimentResult(
        experiment_id="Serve-Throughput",
        title="Decode tokens/s with and without the KV cache",
        rows=[{
            "prompt_len": PROMPT_LEN,
            "decode_tokens": DECODE_TOKENS,
            "uncached_tokens_per_s": uncached,
            "cached_tokens_per_s": cached,
            "speedup": speedup,
        }],
        notes=(
            "The uncached loop re-runs the full forward over the whole context per token "
            "(the seed generate_tokens behaviour); the cached path embeds one position and "
            "attends over stored K/V.  The gap widens with context length — this row is the "
            "fast-model setting of the serve acceptance bar."
        ),
    ))
    assert speedup >= 5.0, f"KV-cached decode only {speedup:.1f}x faster"


def test_forward_step_throughput(benchmark, bench_model):
    """pytest-benchmark timing of one cached decode step at a warm context.

    Every round decodes one token on a freshly prefilled cache (the untimed
    setup), so each timed step attends over the same ``PROMPT_LEN``-token
    context whatever pages the pool hands out.
    """
    prompt = np.arange(PROMPT_LEN, dtype=np.int64)[None, :] % bench_model.config.vocab_size
    token = np.array([[1]], dtype=np.int64)

    def prefilled():
        cache = PagedKVCache(bench_model.config, batch_size=1)
        bench_model.forward_step(prompt, cache)
        return (token, cache), {}

    benchmark.pedantic(bench_model.forward_step, setup=prefilled, rounds=100)
