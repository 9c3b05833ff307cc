"""Gateway server process of the gateway-stream workload.

``repro gateway`` loads a zoo checkpoint and has no KV-spec flag, so the
benchmark serves its own random-weight model with ``bfp8@b32`` KV through
:class:`~repro.gateway.driver.Gateway` and
:class:`~repro.gateway.server.GatewayServer` on an ephemeral loopback port.

Protocol on stdout, one JSON object per line: ``{"event": "ready", ...}``
once the socket is bound (carrying ``origin``, the ``perf_counter`` instant
of engine-clock zero, so the client can place the engine's token instants on
its own ``perf_counter`` clock), then, after SIGTERM has drained the gateway,
``{"event": "done", ...}`` with the KV audit, CPU time, peak memory and,
with ``--trace 1``, the per-layer metrics.  SIGUSR1 marks the end of the
client's warm-up: CPU time, token counts and spans are measured from the
last mark, which the server acknowledges with ``{"event": "marked"}``.
Traced spans go to ``--spans-out``.  An untraced server runs a burst of the
reference kernel of ``hostspeed.py`` between engine steps once the engine
has been busy for ``WARM_S`` and ``BURST_PERIOD_S`` have passed since the
last burst, and reports the bursts (start, end, seconds per unit) so the
client can put its timings on reference seconds.  Burst CPU time is left
out of the reported CPU time.

Run: ``python3 perfbench/gateway_server.py --trace 0`` from a checkout root.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import time
from types import SimpleNamespace

import harness
from hostspeed import BURST_PERIOD_S, HostSpeed
from spans import SpanRecorder, add_request_spans, instrument, layer_metrics

KV_SPEC = "bfp8@b32"
LAG_PROBE_S = 0.005

#: A burst runs only after the engine has stepped without an idle gap
#: longer than ``IDLE_GAP_S`` for ``WARM_S``: the kernel runs slow for a
#: while after the CPU wakes from idle, and the engine's slowdown is
#: measured on a busy CPU, as in the in-process workloads.
WARM_S = 0.02
IDLE_GAP_S = 0.002


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


async def lag_probe(samples: list) -> None:
    """Record how late the event loop wakes a sleeper (its blocking time)."""
    loop = asyncio.get_running_loop()
    while True:
        before = loop.time()
        await asyncio.sleep(LAG_PROBE_S)
        samples.append(loop.time() - before - LAG_PROBE_S)


def calibrate_between_steps(engine, speed: HostSpeed, bursts: list, cpu: list) -> None:
    """Wrap ``engine.step`` to run reference-kernel bursts between busy steps."""
    step = engine.step
    last = {"end": float("-inf"), "busy_since": 0.0, "burst": float("-inf")}

    def stepping():
        start = time.perf_counter()
        if start - last["end"] > IDLE_GAP_S:
            last["busy_since"] = start
        records = step()
        now = last["end"] = time.perf_counter()
        if now - last["busy_since"] >= WARM_S and now - last["burst"] >= BURST_PERIOD_S:
            cpu_start = time.process_time()
            unit_s = speed.burst()
            last["end"] = last["burst"] = time.perf_counter()
            cpu[0] += time.process_time() - cpu_start
            bursts.append((now, last["end"], unit_s))
        return records

    engine.step = stepping


async def serve(args) -> None:
    from repro.gateway.driver import Gateway
    from repro.gateway.server import GatewayServer
    from repro.serve.engine import EngineConfig, ServeEngine, WallClock

    engine = ServeEngine(harness.build_model(), EngineConfig(kv_spec=KV_SPEC),
                         clock=WallClock())
    gateway = Gateway(engine)
    recorder = SpanRecorder() if args.trace else None
    offsets = instrument(engine, recorder) if recorder is not None else {}
    server = GatewayServer(gateway, host="127.0.0.1", port=0)
    await server.start()
    loop = asyncio.get_running_loop()
    lags = []
    mark = {}
    bursts, burst_cpu = [], [0.0]
    if not args.trace:
        calibrate_between_steps(engine, HostSpeed(), bursts, burst_cpu)

    def set_mark(ack=True):
        # runs on the loop between engine steps, so no span is open
        report = engine.report()
        mark.update(cpu=time.process_time(), completed=len(report.completed),
                    prefill=report.prefill_tokens, decode=report.decode_tokens,
                    reused=report.reused_tokens)
        if recorder is not None:
            recorder.spans.clear()
        offsets.clear()
        lags.clear()
        bursts.clear()
        burst_cpu[0] = 0.0
        if ack:
            emit({"event": "marked"})

    set_mark(ack=False)
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGUSR1, set_mark)
    probe = loop.create_task(lag_probe(lags)) if args.trace else None
    origin = time.perf_counter() - engine.clock.now()
    emit({"event": "ready", "port": server.port, "origin": origin,
          "ready_at": time.perf_counter()})
    await stop.wait()
    cpu_s = time.process_time() - mark["cpu"] - burst_cpu[0]
    if probe is not None:
        probe.cancel()
        try:
            await probe
        except asyncio.CancelledError:
            pass
    stats = await server.shutdown()
    full = engine.report()
    report = SimpleNamespace(completed=full.completed[mark["completed"]:],
                             prefill_tokens=full.prefill_tokens - mark["prefill"],
                             decode_tokens=full.decode_tokens - mark["decode"],
                             reused_tokens=full.reused_tokens - mark["reused"])
    done = {
        "event": "done",
        "cpu_s": cpu_s,
        "generated": sum(len(c.generated_tokens) for c in report.completed),
        "not_length": sum(1 for c in full.completed if c.finish_reason != "length"),
        "leaked_pages": stats["kv_leaked_pages"],
        "peak_rss_mib": harness.peak_rss_mib(),
        "bursts": bursts,
    }
    if recorder is not None:
        add_request_spans(recorder, report.completed, offsets)
        span_s = (max(c.finish_time for c in report.completed)
                  - min(c.arrival_time for c in report.completed)
                  if report.completed else 0.0)
        done["layers"] = layer_metrics(recorder.spans, [report], span_s)
        done["layers"]["gateway.loop_lag_p99_ms"] = harness.percentile(
            [lag * 1e3 for lag in lags] or [0.0], 99, require_tail=False)[0]
        with open(args.spans_out, "w") as handle:
            json.dump(recorder.spans, handle)
    emit(done)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="where --trace 1 writes its spans (JSON)")
    args = parser.parse_args()
    if args.trace and not args.spans_out:
        parser.error("--trace 1 needs --spans-out")
    harness.use_source_tree()
    asyncio.run(serve(args))


if __name__ == "__main__":
    main()
