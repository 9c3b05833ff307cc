"""The ``chaos_bench`` experiment: chaos profile x routing policy x fleet size.

One driver run replays the *same* saturating trace through a simulated fleet
once per (chaos profile, policy, replica count) combination.  Each non-empty
profile draws a :class:`~repro.cluster.chaos.FaultSchedule` deterministically
from the sweep seed and the run's expected busy period, so crashes, slow
replicas and router partitions land mid-trace — and the schedules are
serialised into the result metadata, making any row replayable bit-for-bit.

The rows answer the recovery questions the happy-path ``cluster_bench``
cannot: how much goodput survives a crash once retry-with-reroute re-prefills
the orphans elsewhere (``goodput_recovered`` is the fraction of the same
fleet's fault-free goodput), how long the slowest fault takes to fully
recover (``max_recovery_s``), and — the invariants — that ``requests_lost``
stays 0 with retries enabled and ``kv_leaked_pages`` stays 0 on every
surviving replica.

Registered as ``chaos_bench`` in the experiment runner (cached parallel
pipeline, ``repro run chaos_bench --fast``) and reachable directly as
``repro chaos-bench``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.analysis.reporting import ExperimentResult
from repro.cluster.autoscaler import AutoscalerConfig
from repro.cluster.bench import _mean_tokens, default_replica, default_workload, fleet_trace
from repro.cluster.chaos import FaultSchedule, get_profile, list_profiles
from repro.cluster.replica import ReplicaConfig, decode_time_per_token
from repro.cluster.simulation import ClusterConfig, ClusterSimulation
from repro.obs import Observability

__all__ = ["DEFAULT_PROFILES", "DEFAULT_POLICIES", "DEFAULT_REPLICA_COUNTS",
           "fault_horizon", "chaos_bench", "export_chaos_trace", "run"]

#: Chaos profiles swept by default (full mode sweeps the whole registry);
#: ``"none"`` anchors the ``goodput_recovered`` column.
DEFAULT_PROFILES = ("none", "crash", "slow", "partition", "mixed")

#: Routing policies compared by default under chaos.
DEFAULT_POLICIES = ("round_robin", "least_loaded")

#: Fleet sizes compared by default.
DEFAULT_REPLICA_COUNTS = (2, 4)


def fault_horizon(model_config, replica: ReplicaConfig, workload,
                  num_replicas: int) -> float:
    """Virtual seconds the run is expected to stay busy.

    Anchors a profile's fractional fault windows to the run: the larger of
    the trace's arrival span and the fleet's roofline-priced service time,
    so generated faults strike while the fleet is working rather than after
    it has drained.
    """
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    time_per_token = decode_time_per_token(model_config, replica)
    _, mean_total = _mean_tokens(workload)
    service_s = workload.num_requests * mean_total * time_per_token / num_replicas
    arrival_span = (workload.num_requests / workload.arrival_rate
                    if getattr(workload, "arrival_rate", None) else 0.0)
    return max(service_s, arrival_span, 1e-9)


#: Summary columns copied into each benchmark row, in display order.
_ROW_METRICS = ("requests", "goodput_rps", "slo_attainment",
                "faults_injected", "requests_orphaned", "requests_retried",
                "requests_lost", "max_recovery_s", "kv_leaked_pages",
                "decode_tokens_per_s", "ttft_p95_ms", "latency_p95_ms")


def chaos_bench(model, profiles=DEFAULT_PROFILES, policies=DEFAULT_POLICIES,
                replica_counts=DEFAULT_REPLICA_COUNTS, workload=None,
                replica: ReplicaConfig = None, utilization: float = 3.0,
                slo_slack: float = 4.0, arrival_rate: float = None,
                max_retries: int = 2, seed: int = 0,
                schedules: dict = None) -> list:
    """Sweep chaos profile x policy x fleet size over one replayed trace.

    The trace is generated once and every fleet replays it, so row
    differences isolate the chaos profile, the policy and the fleet size.
    Each (profile, fleet size) pair draws one :class:`FaultSchedule` from
    ``seed`` — identical across policies, so policies are compared under
    literally the same faults.  ``goodput_recovered`` divides each row's
    goodput by the same (policy, fleet size) row under the ``"none"``
    profile when that baseline is part of the sweep.

    Pass a dict as ``schedules`` to receive the generated schedules keyed
    ``"<profile>x<count>"`` (serialised form; what :func:`run` stores in the
    result metadata for replay).
    """
    template = replica or ReplicaConfig()
    baseline, workload, slo, requests = fleet_trace(model, workload, template, utilization,
                                                    slo_slack, arrival_rate)
    rows = []
    baselines = {}  # (policy, count) -> fault-free goodput
    for profile_name in profiles:
        profile = get_profile(profile_name)
        for count in replica_counts:
            horizon = fault_horizon(model.config, baseline, workload, count)
            schedule = FaultSchedule.generate(profile, count, horizon, seed=seed)
            if schedules is not None:
                schedules[f"{profile.name}x{count}"] = schedule.to_dict()
            for policy in policies:
                fleet = tuple(template for _ in range(count))
                simulation = ClusterSimulation(
                    model, ClusterConfig(replicas=fleet, policy=policy, slo=slo,
                                         seed=seed, faults=schedule,
                                         max_retries=max_retries))
                summary = simulation.run(requests).summary()
                if profile.name == "none":
                    baselines[(policy, count)] = summary["goodput_rps"]
                baseline_goodput = baselines.get((policy, count))
                row = {
                    "chaos_profile": profile.name,
                    "policy": summary["policy"],
                    "replicas": count,
                }
                row.update((key, summary[key]) for key in _ROW_METRICS)
                row["goodput_recovered"] = (
                    summary["goodput_rps"] / baseline_goodput
                    if baseline_goodput else None)
                rows.append(row)
    return rows


def export_chaos_trace(model, path=None, workload=None,
                       replica: Optional[ReplicaConfig] = None,
                       num_replicas: int = 2, policy: str = "least_loaded",
                       max_retries: int = 2, seed: int = 0,
                       utilization: float = 3.0, slo_slack: float = 4.0) -> tuple:
    """One fully-observed crash run; optionally write its Chrome trace JSON.

    Replays the same saturating-trace construction as :func:`chaos_bench`
    through a single fleet under the ``crash`` profile, with a full
    :class:`~repro.obs.Observability` bundle attached and an autoscaler
    pinned at ``min_replicas=num_replicas`` — so the crash repair shows up
    as explicit ``scale:up`` events.  The export puts the router's instants
    (faults, reroutes, scale decisions) and every replica's per-request
    spans on one shared virtual timeline that Perfetto loads directly.

    Returns ``(report, obs)``; when ``path`` is given the trace-event JSON
    is also written there (the ``repro chaos-bench --trace-out`` artifact,
    readable by ``repro obs-report``).
    """
    template = replica or ReplicaConfig()
    baseline, workload, slo, requests = fleet_trace(model, workload, template, utilization,
                                                    slo_slack)
    horizon = fault_horizon(model.config, baseline, workload, num_replicas)
    schedule = FaultSchedule.generate(get_profile("crash"), num_replicas,
                                      horizon, seed=seed)
    obs = Observability.enabled()
    fleet = tuple(template for _ in range(num_replicas))
    autoscaler = AutoscalerConfig(min_replicas=num_replicas,
                                  max_replicas=num_replicas + 2)
    simulation = ClusterSimulation(
        model, ClusterConfig(replicas=fleet, policy=policy, slo=slo, seed=seed,
                             faults=schedule, max_retries=max_retries,
                             autoscaler=autoscaler), obs=obs)
    report = simulation.run(requests)
    if path is not None:
        obs.tracer.write(path)
    return report, obs


def run(fast=None, profiles=None, policies=None, replica_counts=None,
        num_requests=None, max_retries: int = 2, seed: int = 0,
        trace_path=None) -> ExperimentResult:
    """Fleet chaos recovery: crash/slow/partition faults x routing policy x fleet size.

    The registered ``chaos_bench`` experiment driver (the pipeline calls it
    with ``fast`` only).  Fast mode runs the ``none`` and ``crash`` profiles
    over small Llama-1B fleets; the full run sweeps every registered chaos
    profile over larger Llama-7B fleets.  The keyword overrides back the
    ``repro chaos-bench`` CLI flags.  With the default ``max_retries`` the
    sweep must end with ``requests_lost`` 0 and ``kv_leaked_pages`` 0 in
    every row — CI greps the saved JSON for exactly that.
    """
    from repro.experiments.common import load_serving_model, replace_given

    fast_mode, model_name, _, model = load_serving_model(fast)
    if profiles is None:
        profiles = ("none", "crash") if fast_mode else list_profiles()
    if policies is None:
        policies = ("least_loaded",) if fast_mode else DEFAULT_POLICIES
    if replica_counts is None:
        replica_counts = (2, 4) if fast_mode else DEFAULT_REPLICA_COUNTS
    workload = replace_given(default_workload(fast_mode, "poisson"),
                             num_requests=num_requests)
    template = default_replica(fast_mode)
    schedules = {}
    rows = chaos_bench(model, profiles=tuple(profiles), policies=tuple(policies),
                       replica_counts=tuple(replica_counts), workload=workload,
                       replica=template, max_retries=max_retries, seed=seed,
                       schedules=schedules)
    extra_metadata = {}
    if trace_path is not None:
        export_chaos_trace(model, trace_path, workload=workload, replica=template,
                           num_replicas=min(replica_counts),
                           policy=tuple(policies)[0],
                           max_retries=max_retries, seed=seed)
        extra_metadata["trace_path"] = str(trace_path)
    return ExperimentResult(
        experiment_id="Chaos-Bench",
        title=f"Fleet chaos recovery of {model_name}: fault profile x policy x fleet size",
        rows=rows,
        columns=["chaos_profile", "policy", "replicas"] + list(_ROW_METRICS)
                + ["goodput_recovered"],
        notes=(
            "Every row replays the identical saturating trace; each (profile, fleet "
            "size) pair draws one seeded FaultSchedule, replayed under every policy, "
            "so policies are compared under literally the same faults.  A crash "
            "orphans the victim's queue and decode slots and destroys its KV pages; "
            "retry-with-reroute re-prefills each orphan on a surviving replica "
            "(bounded by max_retries), which is why goodput_recovered under the "
            "crash profile stays high while requests_lost stays 0.  Slow replicas "
            "drag the latency percentiles without orphaning anything; partitions "
            "starve a replica of new work while it keeps decoding.  max_recovery_s "
            "is the slowest fault's time until everything it orphaned reached a "
            "terminal state.  kv_leaked_pages audits every surviving replica's "
            "paged cache after the run — any non-zero value is a refcounting bug, "
            "not a tuning problem."
        ),
        metadata={
            "fast": fast_mode,
            "model": model_name,
            "profiles": [get_profile(p).name for p in profiles],
            "policies": list(policies),
            "replica_counts": list(replica_counts),
            "max_retries": max_retries,
            "seed": seed,
            "workload": dataclasses.asdict(workload),
            "schedules": schedules,
            "profile_shapes": {get_profile(p).name: get_profile(p).to_dict()
                               for p in profiles},
            **extra_metadata,
        },
    )
