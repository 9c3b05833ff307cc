"""End-to-end throughput of radix prefix sharing (the paged-KV speedup).

With pages as long as ``max_seq_len`` every slot holds one page and no full
page is ever shareable, so every request prefills its whole prompt, even
when 80 % of the trace's prompt tokens are one of two shared prefixes.  With
short pages the cache serves every full page of a cached prefix from the
radix index and prefills only the unique suffix.  This suite replays one
80 %-shared-prefix trace at both page sizes under the *same* KV memory
budget and asserts that sharing reaches at least 2x the sharing-disabled
decode tokens/s — the acceptance bar for prefix sharing being a real
optimisation rather than bookkeeping.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.reporting import ExperimentResult
from repro.llm.config import ModelConfig
from repro.llm.inference import InferenceModel
from repro.llm.transformer import TransformerLM
from repro.serve.engine import EngineConfig, ServeEngine
from repro.serve.workload import SharedPrefixConfig, generate_shared_prefix_requests

from conftest import emit

PAGE_SIZE = 8
MAX_SEQ_LEN = 160
SPEEDUP_BAR = 2.0

#: Every request draws one of two 96-token shared prefixes plus a unique
#: suffix: 80 % of the trace's prompt tokens are shared prefix.
WORKLOAD = SharedPrefixConfig(num_requests=48, arrival_rate=0.0, num_prefixes=2,
                              prefix_tokens=96, unique_tokens=(16, 32),
                              new_tokens=(2, 3), shared_fraction=1.0, seed=0)


@pytest.fixture(scope="module")
def bench_model():
    """A fast-model-sized random-weight checkpoint (throughput only, untrained)."""
    config = ModelConfig(name="prefix-bench", vocab_size=64, d_model=128, n_heads=4,
                         n_layers=3, d_ff=384, max_seq_len=MAX_SEQ_LEN,
                         arch="llama", seed=0)
    return InferenceModel(config, TransformerLM(config).state_dict())


@pytest.fixture(scope="module")
def trace(bench_model):
    requests = generate_shared_prefix_requests(bench_model.config.vocab_size, WORKLOAD)
    shared = WORKLOAD.prefix_tokens * WORKLOAD.num_requests
    total = sum(len(r.prompt_tokens) for r in requests)
    assert 0.78 <= shared / total <= 0.82  # the trace is really ~80 % shared prefix
    return requests


def _timed_run(model, trace, page_size):
    """Wall time of one fresh engine draining ``trace``, plus its report.

    Equal memory budget at every page size: the pool defaults to
    max_batch_size * ceil(max_seq_len / page_size) pages, which is
    max_batch_size * max_seq_len token positions either way.
    """
    engine = ServeEngine(model, EngineConfig(max_batch_size=4, kv_page_size=page_size))
    start = time.perf_counter()
    report = engine.run(trace)
    return report, time.perf_counter() - start


def test_shared_prefix_trace_doubles_decode_throughput(bench_model, trace):
    # alternate page sizes across repeats so both see the same machine state,
    # then keep the best of each — robust to scheduling noise on a loaded
    # CI box, like the best-of measurement in test_serve_throughput.py
    unshared_s = paged_s = float("inf")
    for _ in range(3):
        unshared_report, elapsed = _timed_run(bench_model, trace, MAX_SEQ_LEN)
        unshared_s = min(unshared_s, elapsed)
        paged_report, elapsed = _timed_run(bench_model, trace, PAGE_SIZE)
        paged_s = min(paged_s, elapsed)
    unshared, paged = unshared_report.summary(), paged_report.summary()

    # both runs complete the identical trace with identical greedy tokens, and
    # one page per slot really shares nothing
    tokens = lambda report: {c.request.request_id: c.generated_tokens
                             for c in report.completed}
    assert tokens(paged_report) == tokens(unshared_report)
    assert unshared_report.reused_tokens == 0
    assert paged_report.decode_tokens == unshared_report.decode_tokens

    # identical decode-token counts over best-of wall times: the end-to-end
    # throughput ratio, insulated from one-off scheduling hiccups
    unshared_tps = unshared_report.decode_tokens / unshared_s
    paged_tps = paged_report.decode_tokens / paged_s
    speedup = paged_tps / unshared_tps
    emit(ExperimentResult(
        experiment_id="Bench-Prefix-Sharing",
        title="Paged KV prefix sharing vs full prefill on an 80%-shared-prefix trace",
        rows=[
            {"kv_cache_layout": f"paged (page={MAX_SEQ_LEN}, no sharing)",
             "kv_hit_rate": unshared["kv_hit_rate"],
             "decode_tokens_per_s": unshared_tps,
             "prefill_tokens": unshared_report.prefill_tokens,
             "wall_time_s": unshared_s, "speedup": 1.0},
            {"kv_cache_layout": f"paged (page={PAGE_SIZE})",
             "kv_hit_rate": paged["kv_hit_rate"],
             "decode_tokens_per_s": paged_tps,
             "prefill_tokens": paged_report.prefill_tokens,
             "wall_time_s": paged_s, "speedup": speedup},
        ],
        columns=["kv_cache_layout", "kv_hit_rate", "decode_tokens_per_s",
                 "prefill_tokens", "wall_time_s", "speedup"],
        notes=(
            "Identical trace, identical greedy tokens, equal KV memory budget; the "
            "only difference is the page size: short pages let the engine serve "
            "cached prefix pages from the radix index instead of re-prefilling them, "
            "while one page per slot leaves nothing to share.  decode_tokens_per_s "
            "divides the same decode-token count by the best-of-3 wall time of the "
            "whole run, so skipped prefill shows up directly as end-to-end speedup."
        ),
        metadata={"workload": {"num_requests": WORKLOAD.num_requests,
                               "num_prefixes": WORKLOAD.num_prefixes,
                               "prefix_tokens": WORKLOAD.prefix_tokens,
                               "shared_fraction": WORKLOAD.shared_fraction},
                  "page_size": PAGE_SIZE, "speedup_bar": SPEEDUP_BAR},
    ))
    assert paged_report.reused_tokens > 0
    # The count the speedup rests on.  Each 96-token prefix is 12 whole
    # pages of 8, so it is prefilled once, by the first request drawing it;
    # every other request adopts all 12 pages and prefills only its unique
    # suffix.  LRU eviction on this fixed trace only ever takes suffix
    # leaves, so no prefix is prefilled twice.
    prompt_tokens = sum(len(request.prompt_tokens) for request in trace)
    assert paged_report.prefill_tokens == prompt_tokens - (
        WORKLOAD.num_requests - WORKLOAD.num_prefixes) * WORKLOAD.prefix_tokens
    assert speedup >= SPEEDUP_BAR, (
        f"prefix sharing speedup {speedup:.2f}x below the {SPEEDUP_BAR}x bar "
        f"(no sharing {unshared_tps:.1f} tok/s, paged {paged_tps:.1f} tok/s)"
    )

