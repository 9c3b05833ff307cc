"""The ``serve_bench`` experiment: latency/throughput/accuracy per KV format.

One driver run replays the same synthetic Poisson trace through a
:class:`~repro.serve.engine.ServeEngine` once per KV-quantisation spec and
reports, per spec: decode/total tokens per second, time-to-first-token and
end-to-end latency percentiles (p50/p95), the KV storage cost per cached
token, and the teacher-forced perplexity under quantised KV attention.  The
rows read like a Table II for the serving path — how much KV memory a block
format saves and what that costs in accuracy, at measured throughput.

Registered as ``serve_bench`` in the experiment runner, so it runs under the
cached parallel pipeline (``repro run serve_bench --fast``) and is also
reachable directly as ``repro serve-bench``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentResult
from repro.llm.activations import log_softmax
from repro.llm.inference import InferenceModel
from repro.serve.engine import EngineConfig, ServeEngine, VirtualClock, WallClock
from repro.serve.kv_cache import PagedKVCache
from repro.serve.workload import WorkloadConfig, generate_trace

__all__ = ["DEFAULT_KV_SPECS", "default_workload", "default_engine_config",
           "kv_cached_negative_log_likelihood",
           "kv_cached_perplexity", "serve_bench", "run"]

#: KV storage formats compared by default: the FP16 baseline plus one block
#: float and one integer spec (``None`` means unquantised storage).
DEFAULT_KV_SPECS = (None, "bfp8@b32", "int8")

#: The engine clocks :func:`serve_bench` runs on, by name: ``"wall"`` measures
#: real compute time (machine-dependent rows), ``"virtual"`` advances
#: deterministically with processed tokens (byte-identical rows across runs
#: and machines).
_CLOCKS = {"wall": WallClock, "virtual": VirtualClock}


def default_workload(fast: bool) -> WorkloadConfig:
    """The benchmark's standard trace shape for the given mode."""
    if fast:
        return WorkloadConfig(num_requests=10, arrival_rate=40.0,
                              prompt_tokens=(6, 16), new_tokens=(3, 8), seed=0)
    return WorkloadConfig(num_requests=48, arrival_rate=16.0,
                          prompt_tokens=(16, 48), new_tokens=(8, 24), seed=0)


def default_engine_config(fast: bool) -> EngineConfig:
    """The benchmark's standard engine shape for the given mode.

    Fast mode uses a deliberately small KV page size so prompts span several
    pages and the paging paths (block tables, radix sharing, free-block
    admission) are genuinely exercised by CI, not just configured.
    """
    if fast:
        return EngineConfig(max_batch_size=4, token_budget=96, kv_page_size=4)
    return EngineConfig(max_batch_size=8, token_budget=512)


# ----------------------------------------------------------- KV-quant quality
def kv_cached_negative_log_likelihood(model: InferenceModel, tokens, kv_spec=None) -> float:
    """Mean next-token NLL with K/V routed through a (quantised) cache.

    Equivalent to :meth:`InferenceModel.negative_log_likelihood` when
    ``kv_spec`` is ``None``; with a spec, every key/value is quantised on
    append, so the returned NLL measures exactly the accuracy cost a serving
    system pays for storing its KV cache in that format.  Block formats scale
    within one position (blocked along ``head_dim``), so for them one
    whole-window call and a token-by-token decode produce identical values;
    per-tensor INT scales span each appended block instead.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    batch, seq = tokens.shape
    if seq < 2:
        raise ValueError("need at least two tokens to score next-token NLL")
    cache = PagedKVCache(model.config, batch, kv_spec=kv_spec)
    logits = model.forward_step(tokens[:, :-1], cache)
    log_probs = log_softmax(logits, axis=-1)
    picked = np.take_along_axis(log_probs, tokens[:, 1:, None], axis=-1)[..., 0]
    return float(-picked.mean())


def kv_cached_perplexity(model: InferenceModel, corpus, kv_spec=None,
                         eval_config=None) -> float:
    """Perplexity ``exp(mean NLL)`` with the KV cache stored in ``kv_spec``.

    Same evaluation loop as :func:`repro.llm.perplexity.evaluate_perplexity`
    (shared via its ``nll_fn`` hook), so the number is directly comparable to
    the offline Table II perplexities.
    """
    from repro.llm.perplexity import EvalConfig, evaluate_perplexity

    return evaluate_perplexity(
        model, corpus, eval_config or EvalConfig(),
        nll_fn=lambda batch: kv_cached_negative_log_likelihood(model, batch, kv_spec=kv_spec),
    )


# ------------------------------------------------------------------ benchmark
def serve_bench(model: InferenceModel, kv_specs=DEFAULT_KV_SPECS,
                workload=None, engine: EngineConfig = None,
                corpus=None, eval_config=None, clock=None) -> list:
    """Replay one trace per KV spec; returns the result rows.

    Every spec sees the identical request trace (same seeds, same arrivals),
    so differences between rows isolate the KV format: storage density,
    throughput, and — when ``corpus`` is given — quantised-KV perplexity.
    ``workload`` may be any :mod:`repro.serve.workload` config (Poisson,
    shared-prefix, multi-turn); ``clock`` names the engine clock, ``"wall"``
    (the default) or ``"virtual"``, which makes every latency/throughput
    column deterministic.  Each spec's run gets a fresh clock.
    """
    import dataclasses

    make_clock = _CLOCKS.get("wall" if clock is None else clock)
    if make_clock is None:
        raise ValueError(f"unknown clock {clock!r}; expected 'wall' or 'virtual'")
    workload = workload or WorkloadConfig()
    requests = generate_trace(model.config.vocab_size, workload)
    rows = []
    for spec in kv_specs:
        engine_config = engine or EngineConfig()
        if engine_config.kv_spec != spec:
            engine_config = dataclasses.replace(engine_config, kv_spec=spec)
        runner = ServeEngine(model, engine_config, clock=make_clock())
        report = runner.run(requests)
        summary = report.summary()
        row = {
            "kv_cache": runner.cache.kv_spec,
            "kv_bits_per_token": runner.cache.bits_per_token(),
            "kv_memory_efficiency": runner.cache.memory_efficiency(),
        }
        if corpus is not None:
            row["kv_perplexity"] = kv_cached_perplexity(model, corpus, kv_spec=spec,
                                                        eval_config=eval_config)
        for key in ("requests", "decode_tokens_per_s", "total_tokens_per_s",
                    "ttft_p50_ms", "ttft_p95_ms", "latency_p50_ms", "latency_p95_ms",
                    "peak_active", "kv_hit_rate", "peak_pages_in_use",
                    "kv_peak_memory_mib"):
            row[key] = summary[key]
        rows.append(row)
    return rows


def run(fast=None, kv_specs=None, num_requests=None, arrival_rate=None,
        virtual_clock=None, kv_page_size=None) -> ExperimentResult:
    """Continuous-batching serve benchmark: TTFT/latency/throughput per KV-cache format.

    The registered ``serve_bench`` experiment driver (the pipeline calls it
    with ``fast`` only).  Fast mode serves a short trace against the Llama-1B
    zoo model; the full run uses Llama-7B and a longer, heavier trace.  The
    keyword overrides back the ``repro serve-bench`` CLI flags: alternative
    KV specs (``None`` entries mean unquantised), ad-hoc trace shapes, and
    the clock.  ``virtual_clock`` defaults to the fast flag: fast/CI rows are
    deterministic (machine-independent) under :class:`VirtualClock`, full
    runs keep measuring real compute time unless asked otherwise.
    """
    from repro.experiments.common import eval_config, load_serving_model, replace_given

    fast_mode, model_name, corpus, model = load_serving_model(fast)
    workload = replace_given(default_workload(fast_mode), num_requests=num_requests,
                             arrival_rate=arrival_rate)
    engine = replace_given(default_engine_config(fast_mode), kv_page_size=kv_page_size)
    kv_specs = tuple(kv_specs) if kv_specs else DEFAULT_KV_SPECS
    if virtual_clock is None:
        virtual_clock = fast_mode
    clock = "virtual" if virtual_clock else "wall"
    rows = serve_bench(model, kv_specs=kv_specs, workload=workload,
                       engine=engine, corpus=corpus, eval_config=eval_config(fast_mode),
                       clock=clock)
    return ExperimentResult(
        experiment_id="Serve-Bench",
        title=f"Continuous-batching serving of {model_name}: KV-cache formats under one trace",
        rows=rows,
        columns=["kv_cache", "kv_bits_per_token", "kv_memory_efficiency", "kv_perplexity",
                 "requests", "decode_tokens_per_s", "total_tokens_per_s", "ttft_p50_ms",
                 "ttft_p95_ms", "latency_p50_ms", "latency_p95_ms", "peak_active",
                 "kv_hit_rate", "peak_pages_in_use", "kv_peak_memory_mib"],
        notes=(
            "Every row replays the identical Poisson trace; only the KV-cache storage format "
            "changes.  Quantised KV shrinks the dominant per-request memory (kv_bits_per_token) "
            "at a small perplexity cost — the serving-side analogue of the paper's Table II "
            "weight/activation sweep.  On the wall clock, quantised rows also pay the "
            "fake quantiser's own cost on every append (perfbench/ measures it); under "
            "the deterministic virtual clock throughput differences vanish.  The "
            "memory column is what a deployment trades against kv_perplexity."
        ),
        metadata={
            "fast": fast_mode,
            "model": model_name,
            "workload": {"num_requests": workload.num_requests,
                         "arrival_rate": workload.arrival_rate,
                         "prompt_tokens": list(workload.prompt_tokens),
                         "new_tokens": list(workload.new_tokens),
                         "seed": workload.seed},
            "engine": {"max_batch_size": engine.max_batch_size,
                       "token_budget": engine.token_budget,
                       "kv_page_size": engine.kv_page_size},
            "clock": clock,
            "kv_specs": [spec or "fp16" for spec in kv_specs],
        },
    )
