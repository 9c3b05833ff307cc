"""The ``gateway_bench`` experiment: saturation-knee sweep of the async gateway.

One run boots a fresh in-process :class:`~repro.gateway.server.GatewayServer`
per offered rate (real sockets on a loopback port, ephemeral), replays the
same open-loop Poisson trace shape through the HTTP front door at increasing
arrival rates, and reports per rate: client-measured goodput, TTFT and
inter-token-latency percentiles, the shed (429) rate, cancel-reclaim round
trips, and the gateway's own drain-time KV page audit.  The rows trace the
saturation knee — the offered load where goodput stops growing — and show
the property load shedding buys: past the knee the 429 rate climbs while
goodput holds near the pre-knee peak instead of collapsing into queueing.

Every rate's server is drained at the end of its run and the run **fails**
if the KV page audit reports a single leaked page — cancelled and timed-out
requests must return every page to the pool or the radix index.

Registered as ``gateway_bench`` in the experiment runner and reachable
directly as ``repro gateway-bench``.
"""

from __future__ import annotations

import asyncio

from repro.analysis.reporting import ExperimentResult
from repro.gateway.driver import Gateway, GatewayConfig
from repro.gateway.loadgen import (LoadGenConfig, find_saturation_knee,
                                   sweep_arrival_rates)
from repro.gateway.server import GatewayServer
from repro.serve.bench import default_engine_config
from repro.serve.engine import ServeEngine, WallClock
from repro.serve.workload import WorkloadConfig

__all__ = ["default_gateway_workload", "default_rates", "default_gateway_config",
           "gateway_sweep", "run"]


def default_gateway_workload(fast: bool) -> WorkloadConfig:
    """The per-rate trace shape (its ``arrival_rate`` is the sweep base)."""
    if fast:
        return WorkloadConfig(num_requests=12, arrival_rate=20.0,
                              prompt_tokens=(6, 16), new_tokens=(3, 8), seed=0)
    return WorkloadConfig(num_requests=64, arrival_rate=8.0,
                          prompt_tokens=(16, 48), new_tokens=(8, 24), seed=0)


def default_rates(fast: bool) -> tuple:
    """Offered loads swept per mode, straddling the saturation knee."""
    if fast:
        return (10.0, 40.0, 160.0, 640.0)
    return (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def default_gateway_config(fast: bool, shed_policy: str = "reject") -> GatewayConfig:
    """The front-door shape per mode (queue bound sized to force shedding)."""
    depth = 6 if fast else 24
    return GatewayConfig(max_queue_depth=depth, shed_policy=shed_policy,
                         drain_timeout_s=5.0 if fast else 30.0)


async def gateway_sweep(model, rates, workload: WorkloadConfig,
                        engine_config=None, gateway_config: GatewayConfig = None,
                        cancel_every: int = 0, timeout_s: float = None) -> list:
    """One server per rate, one open-loop replay each; returns summary rows.

    Each row is the client-side :meth:`~repro.gateway.loadgen.LoadReport.summary`
    plus the server's drain stats — flattened into ``kv_leaked_pages`` and
    ``server_shed`` columns.  Raises :class:`RuntimeError` if any drain audit
    reports leaked KV pages: the invariant this benchmark exists to enforce.
    """
    base = LoadGenConfig(workload=workload, cancel_every=cancel_every,
                         cancel_after_tokens=1, timeout_s=timeout_s)

    async def make_server():
        engine = ServeEngine(model, engine_config, clock=WallClock())
        server = GatewayServer(Gateway(engine, gateway_config), host="127.0.0.1",
                               port=0)
        await server.start()
        return server

    rows = await sweep_arrival_rates(make_server, model.config.vocab_size, base, rates)
    for row in rows:
        stats = row.pop("server")
        row["kv_leaked_pages"] = stats["kv_leaked_pages"]
        row["server_shed"] = stats["shed"]
        row["server_completed"] = stats["completed"]
        if stats["kv_leaked_pages"]:
            raise RuntimeError(
                f"KV page leak at rate {row['arrival_rate']}: audit reported "
                f"{stats['kv_leaked_pages']} leaked pages ({stats['kv_audit']})"
            )
    return rows


def run(fast=None, rates=None, num_requests=None, shed_policy=None,
        cancel_every=None, timeout_s=None, max_queue_depth=None) -> ExperimentResult:
    """Async-gateway saturation sweep: goodput, shedding and cancel-reclaim over HTTP.

    The registered ``gateway_bench`` experiment driver (the pipeline calls it
    with ``fast`` only).  Fast mode serves the Llama-1B zoo model through an
    ephemeral loopback server at four offered loads; the full run sweeps a
    finer rate grid against Llama-7B.  The keyword overrides back the
    ``repro gateway-bench`` CLI flags.  Numbers are wall-clock (open-loop
    arrivals are real ``asyncio`` sleeps), so rows vary across machines; the
    structural claims — the knee exists, goodput holds past it, zero pages
    leak — are machine-independent and asserted.
    """
    from repro.experiments.common import load_serving_model, replace_given

    fast_mode, model_name, _, model = load_serving_model(fast)
    workload = replace_given(default_gateway_workload(fast_mode), num_requests=num_requests)
    rates = tuple(float(r) for r in rates) if rates else default_rates(fast_mode)
    engine_config = default_engine_config(fast_mode)
    gateway_config = replace_given(default_gateway_config(fast_mode, shed_policy or "reject"),
                                   max_queue_depth=max_queue_depth)
    if cancel_every is None:
        cancel_every = 4
    rows = asyncio.run(gateway_sweep(
        model, rates, workload, engine_config=engine_config,
        gateway_config=gateway_config, cancel_every=cancel_every,
        timeout_s=timeout_s))
    goodputs = [row["goodput_rps"] for row in rows]
    knee = find_saturation_knee([row["arrival_rate"] for row in rows], goodputs)
    peak = max(goodputs[: knee + 1])
    post_knee = goodputs[knee:]
    return ExperimentResult(
        experiment_id="Gateway-Bench",
        title=f"Async gateway saturation sweep serving {model_name} over HTTP",
        rows=rows,
        columns=["arrival_rate", "requests", "completed", "shed", "cancelled",
                 "errors", "goodput_rps", "shed_rate", "ttft_p50_ms", "ttft_p95_ms",
                 "itl_p50_ms", "itl_p95_ms", "cancel_reclaim_p50_ms",
                 "kv_leaked_pages"],
        notes=(
            "Open-loop Poisson arrivals over real loopback HTTP: offered load does not "
            "slow down when the engine falls behind, so past the saturation knee the "
            "admission gate sheds the excess (shed_rate climbs) and goodput holds near "
            "the pre-knee peak instead of collapsing into unbounded queueing.  Every "
            "fourth request is cancelled mid-stream by default; cancel_reclaim "
            "percentiles measure the cancel round trip, after which the engine has "
            "already returned the request's KV pages (kv_leaked_pages is asserted 0 "
            "at every rate's drain).  Rows are wall-clock and machine-dependent."
        ),
        metadata={
            "fast": fast_mode,
            "model": model_name,
            "rates": list(rates),
            "knee_rate": rows[knee]["arrival_rate"],
            "peak_goodput_rps": peak,
            "post_knee_goodput_ratio": (min(post_knee) / peak) if peak > 0 else 0.0,
            "kv_leaked_pages": sum(row["kv_leaked_pages"] for row in rows),
            "cancel_every": cancel_every,
            "timeout_s": timeout_s,
            "workload": {"num_requests": workload.num_requests,
                         "prompt_tokens": list(workload.prompt_tokens),
                         "new_tokens": list(workload.new_tokens),
                         "seed": workload.seed},
            "engine": {"max_batch_size": engine_config.max_batch_size,
                       "token_budget": engine_config.token_budget,
                       "kv_page_size": engine_config.kv_page_size},
            "gateway": {"max_queue_depth": gateway_config.max_queue_depth,
                        "shed_policy": gateway_config.shed_policy,
                        "load_factor": gateway_config.load_factor},
        },
    )
