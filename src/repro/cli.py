"""Command-line interface of the BBAL reproduction.

The CLI wraps the pieces a user touches most often so nothing requires writing
Python for a first look at the library::

    python -m repro list                       # experiment catalog
    python -m repro run table1 fig3 --fast     # regenerate selected artefacts
    python -m repro run --fast --jobs 4        # parallel, cached, resumable
    python -m repro formats                    # format comparison table
    python -m repro formats --formats "BBFP(4,2)" BFP6 INT8
    python -m repro quantize --format "BBFP(4,2)" --size 4096
    python -m repro simulate --strategy "BBFP(4,2)" --seq-len 1024
    python -m repro serve-bench --fast         # continuous-batching serve benchmark
    python -m repro cluster-bench --fast       # multi-replica fleet benchmark
    python -m repro chaos-bench --fast         # fault injection + recovery sweep
    python -m repro gateway --fast --port 8100 # HTTP streaming front door (SIGTERM drains)
    python -m repro gateway-bench --fast       # open-loop saturation sweep over HTTP
    python -m repro chaos-bench --fast --trace-out /tmp/chaos.trace.json
    python -m repro obs-report /tmp/chaos.trace.json  # summarise an exported trace

``run`` delegates to the parallel cached pipeline (:mod:`repro.pipeline`,
argument handling shared with :mod:`repro.experiments.runner`); the other
subcommands are thin, dependency-free views over :mod:`repro.core`,
:mod:`repro.hardware` and :mod:`repro.accelerator`.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.reporting import format_table
from repro.quant import parse_spec

__all__ = ["main", "build_parser"]


_DEFAULT_FORMATS = ("FP16", "INT8", "BFP8", "BFP6", "BFP4", "BBFP(6,3)", "BBFP(4,2)",
                    "BBFP(3,1)", "MXFP4", "MXFP8", "BiE4")


def _cmd_list(args) -> int:
    from repro.experiments.runner import print_catalog

    print_catalog()
    return 0


def _cmd_run(args) -> int:
    from repro.pipeline.cli import run_from_args

    return run_from_args(args)


def _cmd_formats(args) -> int:
    from repro.hardware.mac import mac_unit_for_format
    from repro.hardware.pe import pe_for_strategy
    from repro.quant import get_quantizer

    rows = []
    for name in args.formats:
        quantizer = get_quantizer(name)
        row = {"format": quantizer.name, "spec": quantizer.spec}
        row["equivalent_bits"] = quantizer.bits_per_element()
        row["memory_efficiency"] = quantizer.memory_efficiency()
        try:
            row["mac_area_um2"] = mac_unit_for_format(quantizer.config).area_um2()
        except (TypeError, ValueError):
            row["mac_area_um2"] = float("nan")
        try:
            row["pe_area_um2"] = pe_for_strategy(quantizer.config).area_um2()
        except (TypeError, ValueError):
            row["pe_area_um2"] = float("nan")
        rows.append(row)
    print(format_table(rows))
    return 0


def _cmd_quantize(args) -> int:
    from repro.quant import get_quantizer

    quantizer = get_quantizer(args.format)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(args.size)
    if args.outlier_stride > 0:
        x[:: args.outlier_stride] *= args.outlier_scale

    encoded = quantizer.quantize(x)
    x_hat = encoded.dequantize()
    mse = float(np.mean((x - x_hat) ** 2))
    sqnr = 10.0 * np.log10(float(np.mean(x**2)) / mse) if mse > 0 else float("inf")
    rows = [{
        "format": quantizer.name,
        "elements": args.size,
        "mse": mse,
        "sqnr_db": sqnr,
        "max_abs_error": float(np.max(np.abs(x - x_hat))),
        "memory_bits": encoded.memory_bits(),
    }]
    print(format_table(rows))
    return 0


def _cmd_simulate(args) -> int:
    from repro.accelerator.config import AcceleratorConfig
    from repro.accelerator.simulator import AcceleratorSimulator
    from repro.accelerator.workloads import decoder_workload
    from repro.experiments.fig1_runtime import LLAMA_7B_DIMENSIONS

    config = AcceleratorConfig(strategy=args.strategy, pe_rows=args.pe_rows, pe_cols=args.pe_cols)
    simulator = AcceleratorSimulator(config, nonlinear_style=args.nonlinear)
    workload = decoder_workload(LLAMA_7B_DIMENSIONS, args.seq_len, phase=args.phase)
    report = simulator.run(workload)
    rows = [{
        "strategy": config.strategy_name,
        "phase": args.phase,
        "seq_len": args.seq_len,
        "total_cycles": report.total_cycles,
        "runtime_ms": report.runtime_s * 1e3,
        "throughput_gmacs": report.throughput_gmacs,
        "nonlinear_share": report.nonlinear_cycles / max(1, report.total_cycles),
        "energy_mj": report.energy.total_j * 1e3,
    }]
    print(format_table(rows))
    return 0


def _parse_strategy(name: str):
    """CLI type for ``--strategy``: a named baseline (``Oltron``, ``Olive``) or any spec.

    An unknown spec becomes a clean argparse usage error, as for ``--format``.
    """
    return name if name in ("Oltron", "Olive") else parse_spec(name)


def _parse_kv_spec(name: str):
    """CLI type for ``--kv-specs``: ``fp16``/``none`` (unquantised) or any spec string.

    Returns ``None`` for the unquantised baseline, otherwise the validated
    spec string; unknown specs become clean argparse usage errors like every
    other format option.
    """
    if name.lower() in ("fp16", "none"):
        return None
    parse_spec(name)  # raises UnknownFormatError (an ArgumentTypeError) if bad
    return name


def _int_at_least(low: int, what: str):
    """CLI type for an integer flag that must be ``>= low``; ``what`` names it in the error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value", as with type=int
    return parse


def _cmd_bench(args) -> int:
    """Run one serving benchmark, print its result and save it under ``--output-dir``."""
    from repro.analysis.reporting import save_result

    result = args.bench(args, fast=args.fast or None, num_requests=args.num_requests)
    print(result.to_text())
    if args.output_dir:
        save_result(result, args.output_dir)
    return 0


def _serve_bench(args, **common):
    from repro.serve.bench import run

    # the same driver the pipeline registers; the flags are keyword overrides,
    # so ad-hoc traces keep the full row shape (incl. the kv_perplexity column)
    return run(**common, kv_specs=args.kv_specs, arrival_rate=args.arrival_rate,
               virtual_clock=True if args.virtual_clock else None,
               kv_page_size=args.kv_page_size)


def _parse_policy(name: str) -> str:
    """CLI type for ``--policies``: validated routing-policy name."""
    from repro.cluster import get_policy

    return get_policy(name).name  # raises UnknownPolicyError (usage error) if bad


def _cluster_bench(args, **common):
    from repro.cluster.bench import run

    return run(**common, policies=args.policies, replica_counts=args.replicas,
               kv_specs=args.kv_specs, arrival_rate=args.arrival_rate,
               workload_kind=args.workload.replace("-", "_"),
               kv_page_size=args.kv_page_size)


def _parse_chaos_profile(name: str) -> str:
    """CLI type for ``--profiles``: validated chaos-profile name."""
    from repro.cluster import get_profile

    return get_profile(name).name  # raises UnknownProfileError (usage error) if bad


def _chaos_bench(args, **common):
    from repro.cluster.chaos_bench import run

    return run(**common, profiles=args.profiles, policies=args.policies,
               replica_counts=args.replicas, max_retries=args.max_retries,
               seed=args.seed, trace_path=args.trace_out)


def _cmd_obs_report(args) -> int:
    import json

    from repro.obs.report import render_report

    try:
        print(render_report(args.path))
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(f"repro obs-report: error: {error}", file=sys.stderr)
        return 2
    return 0


def _parse_shed_policy(name: str) -> str:
    """CLI type for ``--shed-policy``: validated admission policy name."""
    from repro.gateway.shedding import SHED_POLICIES

    if name not in SHED_POLICIES:
        raise argparse.ArgumentTypeError(
            f"unknown shedding policy {name!r}; expected one of "
            f"{', '.join(SHED_POLICIES)}")
    return name


def _cmd_gateway(args) -> int:
    import asyncio

    from repro.experiments.common import load_serving_model, replace_given
    from repro.gateway.bench import default_gateway_config
    from repro.gateway.driver import Gateway
    from repro.gateway.server import serve_gateway
    from repro.serve.bench import default_engine_config
    from repro.serve.engine import ServeEngine, WallClock

    fast, model_name, _, model = load_serving_model(args.fast or None)
    engine_config = replace_given(default_engine_config(fast), kv_page_size=args.kv_page_size)
    gateway_config = replace_given(default_gateway_config(fast, args.shed_policy),
                                   max_queue_depth=args.max_queue_depth,
                                   default_timeout_s=args.timeout_s)
    engine = ServeEngine(model, engine_config, clock=WallClock())
    gateway = Gateway(engine, gateway_config)
    print(f"serving {model_name} (KV page size {engine_config.kv_page_size}, "
          f"shed policy {gateway_config.shed_policy}); SIGTERM drains gracefully")
    asyncio.run(serve_gateway(gateway, host=args.host, port=args.port))
    return 0


def _gateway_bench(args, **common):
    from repro.gateway.bench import run

    return run(**common, rates=args.rates, shed_policy=args.shed_policy,
               cancel_every=args.cancel_every, timeout_s=args.timeout_s,
               max_queue_depth=args.max_queue_depth)


def _bench_parser(sub, name: str, help: str, fast_help: str, bench):
    """A benchmark subcommand with the flags every serving benchmark takes.

    ``bench(args, fast=..., num_requests=...)`` maps the subcommand's own
    flags onto its driver's ``run()`` keywords and returns the result that
    :func:`_cmd_bench` prints and saves.
    """
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--fast", action="store_true", help=fast_help)
    parser.add_argument("--num-requests", type=int, default=None,
                        help="length of the synthetic request trace")
    parser.add_argument("--output-dir", default=None,
                        help="also save the result as JSON + text under this directory")
    parser.set_defaults(func=_cmd_bench, bench=bench)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    page_size = _int_at_least(1, "KV page size")
    replica_count = _int_at_least(1, "fleet size")

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate paper tables/figures (parallel, cached)")
    from repro.pipeline.cli import add_run_arguments

    add_run_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_formats = sub.add_parser("formats", help="compare number formats (bits, memory, MAC/PE area)")
    p_formats.add_argument("--formats", nargs="+", type=parse_spec,
                           default=list(_DEFAULT_FORMATS))
    p_formats.set_defaults(func=_cmd_formats)

    p_quant = sub.add_parser("quantize", help="quantise a synthetic tensor and report the error")
    p_quant.add_argument("--format", required=True, type=parse_spec,
                         help='spec string, e.g. "BBFP(4,2)", bfp8@b32, int8, fp8_e4m3, mxfp4, bie4')
    p_quant.add_argument("--size", type=int, default=4096)
    p_quant.add_argument("--outlier-stride", type=int, default=128)
    p_quant.add_argument("--outlier-scale", type=float, default=30.0)
    p_quant.add_argument("--seed", type=int, default=0)
    p_quant.set_defaults(func=_cmd_quantize)

    p_sim = sub.add_parser("simulate", help="simulate one Llama-7B decoder layer stack")
    p_sim.add_argument("--strategy", default="BBFP(4,2)", type=_parse_strategy,
                       help='number format or named baseline ("Oltron", "Olive")')
    p_sim.add_argument("--seq-len", type=int, default=1024)
    p_sim.add_argument("--phase", choices=("prefill", "decode"), default="prefill")
    p_sim.add_argument("--pe-rows", type=int, default=32)
    p_sim.add_argument("--pe-cols", type=int, default=32)
    p_sim.add_argument("--nonlinear", choices=("bbal", "fp32"), default="bbal")
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = _bench_parser(
        sub, "serve-bench",
        help="continuous-batching serve benchmark (KV cache formats, TTFT/latency/tokens-per-s)",
        fast_help="small zoo model and short request trace", bench=_serve_bench)
    p_serve.add_argument("--kv-specs", nargs="+", default=None, type=_parse_kv_spec,
                         help='KV storage formats to compare, e.g. fp16 "bfp8@b32" int8')
    p_serve.add_argument("--arrival-rate", type=float, default=None,
                         help="offered load in requests per second (Poisson arrivals)")
    p_serve.add_argument("--virtual-clock", action="store_true",
                         help="deterministic token-rate clock instead of wall time "
                              "(the default in fast mode)")
    p_serve.add_argument("--kv-page-size", type=page_size, default=None,
                         help="tokens per KV page (fast mode defaults to a small "
                              "page so paging paths are exercised; a page of at "
                              "least max_seq_len disables prefix sharing)")

    p_cluster = _bench_parser(
        sub, "cluster-bench",
        help="multi-replica fleet benchmark (routing policies, SLO attainment, imbalance)",
        fast_help="small zoo model, small fleets and a short trace", bench=_cluster_bench)
    p_cluster.add_argument("--policies", nargs="+", default=None, type=_parse_policy,
                           help="routing policies to sweep, e.g. round_robin least_loaded")
    p_cluster.add_argument("--replicas", nargs="+", default=None, type=replica_count,
                           help="fleet sizes to sweep, e.g. 1 2 4 8")
    p_cluster.add_argument("--kv-specs", nargs="+", default=None, type=_parse_kv_spec,
                           help='KV storage formats per fleet, e.g. fp16 "bfp8@b32" int8')
    p_cluster.add_argument("--arrival-rate", type=float, default=None,
                           help="offered load in requests per second "
                                "(default: derived from the roofline cost model)")
    p_cluster.add_argument("--workload", choices=("poisson", "shared-prefix"),
                           default="poisson",
                           help="trace shape: independent Poisson prompts, or "
                                "shared-prefix traffic that exercises radix "
                                "prefix sharing and prefix_affinity routing")
    p_cluster.add_argument("--kv-page-size", type=page_size, default=None,
                           help="tokens per KV page on every replica")

    p_chaos = _bench_parser(
        sub, "chaos-bench",
        help="fleet chaos benchmark (crash/slow/partition faults, retry-with-reroute, "
             "recovery and zero-loss audits)",
        fast_help="small zoo model, none+crash profiles, small fleets", bench=_chaos_bench)
    p_chaos.add_argument("--profiles", nargs="+", default=None, type=_parse_chaos_profile,
                         help="chaos profiles to sweep: none crash slow partition mixed")
    p_chaos.add_argument("--policies", nargs="+", default=None, type=_parse_policy,
                         help="routing policies to compare under identical faults")
    p_chaos.add_argument("--replicas", nargs="+", default=None, type=replica_count,
                         help="fleet sizes to sweep, e.g. 2 4 8")
    p_chaos.add_argument("--max-retries", type=_int_at_least(0, "max retries"), default=2,
                         help="reroute budget per crash-orphaned request "
                              "(0 = no-retry baseline, orphans are reported lost)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="seed for the fault schedules (and routing RNG)")
    p_chaos.add_argument("--trace-out", default=None,
                         help="also export a Chrome trace-event JSON of one crash run "
                              "(open in Perfetto, or summarise with 'repro obs-report')")

    p_obs = sub.add_parser(
        "obs-report",
        help="summarise an exported observability artefact (Chrome trace JSON "
             "from --trace-out, or a profiler hot-spot snapshot)")
    p_obs.add_argument("path", help="path to the trace/profile JSON file")
    p_obs.set_defaults(func=_cmd_obs_report)

    p_gateway = sub.add_parser(
        "gateway",
        help="serve one engine over HTTP (SSE streaming, cancellation, load shedding)")
    p_gateway.add_argument("--fast", action="store_true",
                           help="small zoo model and CI-sized engine")
    p_gateway.add_argument("--host", default="127.0.0.1")
    p_gateway.add_argument("--port", type=int, default=8100,
                           help="TCP port to listen on (0 = ephemeral)")
    p_gateway.add_argument("--shed-policy", type=_parse_shed_policy, default="reject",
                           help="admission policy: reject, drop_oldest or deadline")
    p_gateway.add_argument("--max-queue-depth", type=int, default=None,
                           help="bounded engine queue beyond which requests shed")
    p_gateway.add_argument("--timeout-s", type=float, default=None,
                           help="default per-request deadline in seconds")
    p_gateway.add_argument("--kv-page-size", type=page_size, default=None,
                           help="tokens per KV page of the served engine")
    p_gateway.set_defaults(func=_cmd_gateway)

    p_gwbench = _bench_parser(
        sub, "gateway-bench",
        help="open-loop HTTP saturation sweep (goodput knee, shed rate, cancel reclaim)",
        fast_help="small zoo model, short traces, four offered rates", bench=_gateway_bench)
    p_gwbench.add_argument("--rates", nargs="+", type=float, default=None,
                           help="offered loads to sweep in requests per second")
    p_gwbench.add_argument("--shed-policy", type=_parse_shed_policy, default=None,
                           help="admission policy under overload")
    p_gwbench.add_argument("--cancel-every", type=int, default=None,
                           help="cancel every N-th request mid-stream (0 = never; "
                                "default: every 4th)")
    p_gwbench.add_argument("--timeout-s", type=float, default=None,
                           help="per-request deadline attached by the load generator")
    p_gwbench.add_argument("--max-queue-depth", type=int, default=None,
                           help="bounded engine queue beyond which requests shed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
