"""Serving benchmark: BBFP batch decode, shared-prefix TTFT and streamed-gateway latency.

Run from the root of a checkout (``repro`` is imported from its ``src/``)::

    python3 perfbench/run.py --workload decode-bbfp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload gateway-stream --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke        # every workload at a tiny size

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` spends half the time untraced and half with span wrappers on
every layer, reports the per-layer metrics plus the tracing overhead, and
writes the spans as Chrome trace-event JSON under ``perfbench/out/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, as listed in
``BENCHMARK.json``).  ``perfbench/README.md`` describes each workload and
metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import harness
from hostspeed import HostSpeed, scaled

WORKLOADS = ("decode-bbfp", "prefix-shared", "gateway-stream")

#: Fresh processes whose set-up time is measured per run (median reported).
SETUP_PROBES = 9

#: Per-layer metrics of the gateway layers, zero on the in-process workloads.
GATEWAY_LAYERS = ("gateway.loop_lag_p99_ms", "gateway.deliver_ms_p50",
                  "gateway.deliver_ms_p99", "gateway.accept_ms_p50", "gateway.shed",
                  "gateway.http_errors", "loadgen.send_lag_p99_ms",
                  "loadgen.inflight_max")


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first request being ready."""
    spawned = time.perf_counter()
    out = subprocess.run([sys.executable, __file__, "--setup-probe", workload,
                          "--seed", str(seed)], cwd=harness.ROOT, text=True,
                         capture_output=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - spawned


def _export_trace(workload: str, seed: int, groups, origin: float) -> dict:
    """Write, validate and render the traced run's spans."""
    from repro.obs.report import render_report

    from spans import write_chrome_trace

    path = harness.OUT_DIR / f"{workload}-seed{seed}.trace.json"
    stats = write_chrome_trace(path, groups, origin)
    return {"path": str(path.relative_to(harness.ROOT)), "events": stats["events"],
            "report": render_report(path)}


def run_engine_workload(workload: str, seed: int, seconds: float, trace: bool,
                        smoke: bool) -> dict:
    import engine_runs
    from spans import SpanRecorder

    model = harness.build_model()
    warm = engine_runs.warm_up(model, workload, seed, smoke)
    result = {"trace_file": None}
    if not trace:
        # set-up probes run between reps, spaced over the run, so they sample
        # the host over its whole length rather than one moment of it
        speed = HostSpeed()
        wanted = 1 if smoke else SETUP_PROBES
        probes, last = [], [float("-inf")]

        def probe():
            if len(probes) < wanted and time.perf_counter() - last[0] >= seconds / wanted:
                last[0] = time.perf_counter()
                probes.append(scaled(speed, lambda: _probe_setup(workload, seed)))

        reps, = engine_runs.run_phase(model, workload, seed, seconds, smoke,
                                      between=probe, speed=speed)
        probes += [scaled(speed, lambda: _probe_setup(workload, seed))
                   for _ in range(wanted - len(probes))]
        result["slowdown"] = speed.mean_slowdown
        metrics = engine_runs.end_to_end(reps, require_tail=not smoke)
        metrics["setup_s"] = (harness.median(probes), len(probes))
    else:
        recorder = SpanRecorder()
        untraced, traced = engine_runs.run_phase(model, workload, seed, seconds, smoke,
                                                 recorders=(None, recorder))
        metrics = engine_runs.traced_metrics(untraced, traced, recorder)
        metrics.update(dict.fromkeys(GATEWAY_LAYERS, 0))
        result["trace_file"] = _export_trace(workload, seed, [("s", recorder.spans)],
                                             min(span[1] for span in recorder.spans))
        reps = untraced + traced
    checked, mismatched = engine_runs.reference_mismatches(model, workload, reps[0])
    metrics["peak_rss_mib"] = (harness.peak_rss_mib(), 1)
    result.update(
        metrics=metrics,
        attempted=sum(len(rep.requests) for rep in reps),
        failed=sum(rep.failed for rep in reps) + mismatched,
        checks={"reference_checked": checked, "reference_mismatched": mismatched,
                "leaked_pages": sum(rep.leaked_pages for rep in reps + [warm]),
                "not_length": sum(rep.failed for rep in reps + [warm]), "problems": []},
    )
    return result


def run_gateway_workload(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import gateway_client as client

    # set-up probes before and after the load, never during it
    probes = [] if trace else client.setup_samples(1 if smoke else SETUP_PROBES // 2 + 1)
    # more requests than a run can serve: the closed loop stops on time
    window = float("inf") if smoke else seconds / 2 if trace else seconds
    requests = client.make_trace(seed, 6 if smoke else round(window * client.MAX_RATE))
    warmup = client.make_trace(seed, 1 if smoke else client.WARMUP_REQUESTS, rep=999)
    spans_out = harness.OUT_DIR / f"gateway-stream-seed{seed}.spans.json"
    runs = []
    # traced: an untraced server, then a traced one, serving the same requests
    for traced in ([False, True] if trace else [False]):
        if traced:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
        server = client.ServerProcess(trace=traced, spans_out=spans_out if traced else None)
        try:
            outcomes, inflight_max = client.run_load(server, requests, warmup, window)
        finally:
            done = server.stop()
        runs.append({"origin": server.origin, "outcomes": outcomes,
                     "inflight_max": inflight_max, "done": done})
    last = runs[-1]
    valid = client.validity(last["outcomes"], last["inflight_max"])
    result = {"trace_file": None}
    if not trace:
        metrics = client.end_to_end(last["outcomes"], last["done"], require_tail=not smoke)
        result["slowdown"] = client.host_slowdown(last["done"])
        probes += client.setup_samples(0 if smoke else SETUP_PROBES // 2)
        metrics["setup_s"] = (harness.median(probes), len(probes))
    else:
        base, done = runs[0]["done"], last["done"]
        metrics = dict(done["layers"])
        metrics.update(client.client_layers(last["outcomes"], last["origin"]))
        metrics["loadgen.send_lag_p99_ms"] = valid["loadgen.send_lag_p99_ms"]
        metrics["loadgen.inflight_max"] = valid["loadgen.inflight_max"]
        metrics["trace.overhead_frac"] = ((done["cpu_s"] / done["generated"])
                                          / (base["cpu_s"] / base["generated"]) - 1.0)
        server_spans = json.loads(spans_out.read_text())
        spans_out.unlink()
        result["trace_file"] = _export_trace(
            "gateway-stream", seed,
            [("s", server_spans), ("c", client.http_spans(last["outcomes"]))],
            min(outcome.due for outcome in last["outcomes"]))
    metrics["peak_rss_mib"] = (last["done"]["peak_rss_mib"], 1)
    checked, mismatched = client.reference_mismatches(harness.build_model(),
                                                      runs[0]["outcomes"])
    all_outcomes = [outcome for run in runs for outcome in run["outcomes"]]
    result.update(
        metrics=metrics,
        attempted=len(all_outcomes),
        failed=sum(not outcome.ok for outcome in all_outcomes) + mismatched,
        checks={"reference_checked": checked, "reference_mismatched": mismatched,
                "leaked_pages": sum(run["done"]["leaked_pages"] for run in runs),
                "not_length": sum(run["done"]["not_length"] for run in runs),
                "problems": valid["problems"]},
    )
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    if workload == "gateway-stream":
        result = run_gateway_workload(seed, seconds, trace, smoke)
    else:
        result = run_engine_workload(workload, seed, seconds, trace, smoke)
    checks = result["checks"]
    result["correct"] = (result["failed"] == 0 and checks["leaked_pages"] == 0
                         and checks["not_length"] == 0 and checks["reference_checked"] > 0
                         and not checks["problems"])
    result.update(workload=workload, seed=seed, trace=int(trace))
    return result


def contract_units(contract: dict, trace: bool) -> dict:
    return {metric["name"]: metric["unit"]
            for metric in contract["per_layer" if trace else "end_to_end"]}


def render(result: dict, units: dict) -> tuple:
    """Human-readable lines and the final JSON line of one run."""
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    lines = [f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}",
             "meta " + json.dumps(result["meta"], sort_keys=True),
             "checks " + json.dumps(result["checks"], sort_keys=True)]
    if result.get("slowdown"):
        lines.append(f"host slowdown {result['slowdown']:.4f}: timings below are "
                     f"reference seconds (hostspeed.py)")
    values = {}
    for name, unit in units.items():
        value, samples = (metrics[name] if isinstance(metrics[name], tuple)
                          else (metrics[name], None))
        values[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:28s} {value:14.4f} {unit:9s}"
                     + (f" n={samples}" if samples is not None else ""))
    if result["trace_file"]:
        lines.append(f"trace {result['trace_file']['path']} "
                     f"({result['trace_file']['events']} events)")
        lines.append(result["trace_file"]["report"].rstrip())
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": values}
    return lines, json.dumps(final)


def check_layer_map(contract: dict) -> None:
    """``layers.json`` describes exactly the per-layer metrics, with valid targets."""
    layer_map = json.loads((harness.BENCH_DIR / "layers.json").read_text())["per_layer"]
    names = [metric["name"] for metric in contract["per_layer"]]
    if list(layer_map) != names:
        raise RuntimeError("layers.json and BENCHMARK.json list different per-layer metrics")
    targets = {metric["name"] for metric in contract["end_to_end"]} | {"failed"}
    for name, entry in layer_map.items():
        for move in entry["moves"]:
            if move["metric"] not in targets or move["workload"] not in WORKLOADS:
                raise RuntimeError(f"layers.json: {name} moves an unknown metric or workload")


def smoke(contract: dict) -> int:
    """Every workload at a tiny size, traced and untraced: names, units, gate."""
    check_layer_map(contract)
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, 0, 0.5, trace, smoke=True)
            result["meta"] = {}
            lines, final = render(result, contract_units(contract, trace))
            parsed = json.loads(final)
            units = {name: entry["unit"] for name, entry in parsed["metrics"].items()}
            if units != contract_units(contract, trace):
                raise RuntimeError(f"{workload}: metric names or units differ from "
                                   f"BENCHMARK.json")
            if not result["correct"]:
                print("\n".join(lines))
                print(f"smoke: {workload} trace={int(trace)} failed its correctness gate")
                return 1
            print(f"smoke: {workload} trace={int(trace)} ok "
                  f"({result['checks']['reference_checked']} requests checked)")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: every workload at a tiny size")
    parser.add_argument("--setup-probe", choices=WORKLOADS[:2], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    harness.use_source_tree()
    if args.setup_probe:
        import engine_runs

        engine_runs.setup_probe(args.setup_probe, args.seed)
        print(time.perf_counter())
        return 0
    contract = harness.load_contract()
    if args.smoke:
        return smoke(contract)
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["meta"] = harness.metadata()
    lines, final = render(result, contract_units(contract, bool(args.trace)))
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (harness.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.txt").write_text(
        "\n".join(lines + [final]) + "\n")
    print("\n".join(lines))
    print(final)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
