"""In-process workloads: offline BBFP batch decode and open-loop shared prefixes.

Both drive a :class:`~repro.serve.engine.ServeEngine` through its public
``submit``/``step`` loop.  A run repeats *reps* — each a
fresh engine serving a fresh trace drawn from ``(seed, rep)`` — until the
measuring time is spent, after one untimed warm-up rep, so lazy set-up and
cold caches stay out of the numbers.  Idle gaps of the open-loop trace
fast-forward on the engine clock, so a rep's time is the time the engine
was busy.

Untraced reps run on a :class:`~hostspeed.ReferenceClock`: their times are
reference seconds, scaled by the host's speed over the same moments (see
``hostspeed.py``).  Traced reps run on the engine's own ``WallClock``.
"""

from __future__ import annotations

import dataclasses
import time

from harness import build_model, median, percentile
from hostspeed import ReferenceClock
from spans import (SpanRecorder, add_request_spans, instrument, layer_metrics,
                   uninstrument)

DECODE_BBFP = "decode-bbfp"
PREFIX_SHARED = "prefix-shared"

#: Open-loop arrival rate of prefix-shared, in requests per engine-clock
#: second: about half of what the engine absorbs, so no backlog grows.
PREFIX_RATE = 40.0

ENGINE_CONFIGS = {
    DECODE_BBFP: dict(max_batch_size=16, kv_spec="BBFP(4,2)", kv_page_size=16),
    PREFIX_SHARED: dict(max_batch_size=8, kv_spec=None, kv_page_size=16),
}

#: Requests per rep and in the warm-up rep, at full and at smoke size.
REP_SIZES = {
    DECODE_BBFP: {"full": (48, 16), "smoke": (4, 2)},
    PREFIX_SHARED: {"full": (300, 50), "smoke": (12, 4)},
}

#: Requests per run whose tokens are checked against a single-request decode.
REFERENCE_SAMPLE = 4

WARMUP_REP = 999


def make_trace(name: str, seed: int, rep: int, num_requests: int, smoke: bool = False):
    """The generated requests of one rep, with run-unique request ids."""
    from repro.serve.workload import (SharedPrefixConfig, WorkloadConfig,
                                      generate_trace)

    trace_seed = seed * 1000 + rep
    if name == DECODE_BBFP:
        config = WorkloadConfig(num_requests=num_requests, arrival_rate=0.0,
                                prompt_tokens=(32, 64),
                                new_tokens=(4, 8) if smoke else (64, 96),
                                seed=trace_seed)
    else:
        config = SharedPrefixConfig(num_requests=num_requests, arrival_rate=PREFIX_RATE,
                                    num_prefixes=4, prefix_tokens=96,
                                    unique_tokens=(8, 24), new_tokens=(4, 8),
                                    shared_fraction=0.8, seed=trace_seed)
    return [dataclasses.replace(request, request_id=rep * num_requests + request.request_id)
            for request in generate_trace(64, config)]


def make_engine(model, name: str, on_token=None, max_batch_size=None, clock=None):
    from repro.serve.engine import EngineConfig, ServeEngine, WallClock

    config = dict(ENGINE_CONFIGS[name])
    if max_batch_size is not None:
        config["max_batch_size"] = max_batch_size
    return ServeEngine(model, EngineConfig(**config), clock=clock or WallClock(),
                       on_token=on_token)


@dataclasses.dataclass
class Rep:
    """What one rep produced: the engine report plus client-side timings."""

    requests: list
    report: object
    wall_s: float           # busy seconds: reference seconds when untraced
    token_times: dict
    leaked_pages: int

    @property
    def generated(self) -> int:
        return sum(len(c.generated_tokens) for c in self.report.completed)

    @property
    def failed(self) -> int:
        """Requests that did not finish with reason ``length``, or never finished."""
        ok = sum(1 for c in self.report.completed if c.finish_reason == "length")
        return len(self.requests) - ok


def run_rep(model, name: str, requests, recorder=None, speed=None) -> Rep:
    """One rep: traced with ``recorder``, on reference seconds with ``speed``."""
    token_times = {}

    def on_token(request_id, token, now):
        token_times.setdefault(request_id, []).append(now)

    clock = ReferenceClock(speed) if speed is not None else None
    engine = make_engine(model, name, on_token=on_token, clock=clock)
    offsets = instrument(engine, recorder) if recorder is not None else None
    try:
        start = time.perf_counter()
        for request in requests:
            engine.submit(request)
        while engine.has_work:
            engine.step()
            if clock is not None:
                clock.tick()
        report = engine.report()
        wall = clock.busy_s if clock is not None else time.perf_counter() - start
    finally:
        uninstrument(model)
    if recorder is not None:
        add_request_spans(recorder, report.completed, offsets)
    leaked = len(engine.audit_kv_pages()["leaked"])
    return Rep(requests, report, wall, token_times, leaked)


def run_phase(model, name, seed, seconds, smoke, recorders=(None,),
              between=None, speed=None) -> list:
    """Reps of fresh traces for about ``seconds``; one rep list per recorder.

    Each trace runs once per entry of ``recorders`` (``None`` = untraced),
    back to back, so traced and untraced reps of the same inputs alternate and
    slow spells of a shared host hit both alike.  ``speed`` puts the
    untraced reps on reference seconds.  ``between`` (if given) runs after
    every rep, outside its timing.  No rep starts that would likely end past
    ``seconds``.
    """
    size = REP_SIZES[name]["smoke" if smoke else "full"][0]
    runs = [[] for _ in recorders]
    start = time.perf_counter()
    while True:
        requests = make_trace(name, seed, len(runs[0]), size, smoke)
        for reps, recorder in zip(runs, recorders):
            reps.append(run_rep(model, name, requests, recorder,
                                speed if recorder is None else None))
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs[0]) + 1) / len(runs[0]) > seconds:
            return runs


def warm_up(model, name, seed, smoke) -> Rep:
    size = REP_SIZES[name]["smoke" if smoke else "full"][1]
    return run_rep(model, name, make_trace(name, seed, WARMUP_REP, size, smoke))


def reference_mismatches(model, name, rep: Rep) -> tuple:
    """Decode a fixed sample of ``rep``'s requests alone on fresh engines.

    Returns ``(checked, mismatched)``: a request mismatches when its batched
    tokens differ from a single-request decode with the same KV spec and
    sampling seed.
    """
    requests = rep.requests
    picks = sorted({round(i * (len(requests) - 1) / (REFERENCE_SAMPLE - 1))
                    for i in range(REFERENCE_SAMPLE)})
    batched = {c.request.request_id: c.generated_tokens for c in rep.report.completed}
    mismatched = 0
    for index in picks:
        request = requests[index]
        alone = dataclasses.replace(request, request_id=0, arrival_time=0.0)
        engine = make_engine(model, name, max_batch_size=1)
        tokens = engine.run([alone]).completed[0].generated_tokens
        mismatched += tokens != batched.get(request.request_id)
    return len(picks), mismatched


def latency_samples(rep: Rep) -> tuple:
    """TTFT and inter-token gaps (ms) of one rep, on the engine clock."""
    ttft = [(record.first_token_time - record.arrival_time) * 1e3
            for record in rep.report.completed if record.first_token_time is not None]
    itl = [(b - a) * 1e3 for times in rep.token_times.values()
           for a, b in zip(times, times[1:])]
    return ttft, itl


def end_to_end(reps, require_tail: bool) -> dict:
    """Medians take per-rep values; tails pool the samples of every rep.

    A median of per-rep values moves little when a slow spell of the host
    hits a few reps.  A tail percentile of one rep rests on a handful of
    samples (15 beyond ITL p99 in a prefix-shared rep, fewer than 5 beyond
    TTFT p90 in a decode-bbfp batch), so tails pool.  Values are
    ``(value, samples)``.
    """
    per_rep = [latency_samples(rep) for rep in reps]
    metrics = {"decode_tok_s": (median(rep.generated / rep.wall_s for rep in reps),
                                f"{len(reps)} reps")}
    for key, which, q in (("ttft_p50_ms", 0, 50), ("ttft_p90_ms", 0, 90),
                          ("itl_p50_ms", 1, 50), ("itl_p99_ms", 1, 99)):
        if q > 50:
            metrics[key] = percentile([v for rep in per_rep for v in rep[which]], q,
                                      require_tail)
            continue
        values = [percentile(rep[which], q) for rep in per_rep]
        metrics[key] = (median(value for value, _ in values),
                        f"{len(reps)} reps x >={min(n for _, n in values)}")
    return metrics


def traced_metrics(untraced, traced, recorder: SpanRecorder) -> dict:
    """Per-layer metrics of the traced reps plus the tracing overhead."""
    reports = [rep.report for rep in traced]
    layers = layer_metrics(recorder.spans, reports,
                           sum(report.elapsed_s for report in reports))
    layers["trace.overhead_frac"] = median(
        t.wall_s / u.wall_s for u, t in zip(untraced, traced)) - 1.0
    return layers


def setup_probe(name: str, seed: int) -> None:
    """Everything a run does before its first request: model, engine, trace."""
    model = build_model()
    make_engine(model, name)
    make_trace(name, seed, 0, REP_SIZES[name]["full"][0])
