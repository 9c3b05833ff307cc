"""The ``cluster_bench`` experiment: routing policy x fleet size x KV format.

One driver run replays the *same* Poisson trace through a simulated fleet
once per (policy, replica count, KV spec) combination and reports fleet
goodput, SLO attainment, load imbalance and latency percentiles per row.
Every quantity is derived on virtual clocks priced by the roofline cost
model (:func:`repro.cluster.replica.decode_time_per_token`), so rows are
deterministic, machine-independent, and reflect hardware cost: a denser KV
format makes every replica faster *and* admits more concurrent context.

The offered load and the SLO thresholds are derived from the same roofline:
the trace arrives at ``utilization`` times what one FP16 replica can sustain,
and the SLO allows ``slo_slack`` times the no-queueing service time.  Small
fleets are therefore overloaded (low attainment, high queueing), large
fleets comfortable — the sweep shows where each policy's goodput curve
saturates.

Registered as ``cluster_bench`` in the experiment runner (cached parallel
pipeline, ``repro run cluster_bench --fast``) and reachable directly as
``repro cluster-bench``.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.reporting import ExperimentResult
from repro.cluster.replica import ReplicaConfig, decode_time_per_token
from repro.cluster.simulation import (
    ClusterConfig,
    ClusterSimulation,
    SLOConfig,
    homogeneous_fleet,
)
from repro.serve.workload import (
    MultiTurnConfig,
    SharedPrefixConfig,
    WorkloadConfig,
    generate_trace,
)

__all__ = ["DEFAULT_POLICIES", "DEFAULT_REPLICA_COUNTS", "DEFAULT_KV_SPECS",
           "WORKLOAD_KINDS", "default_workload", "default_replica",
           "saturating_arrival_rate", "derived_slo", "fleet_trace",
           "cluster_bench", "run"]

#: Routing policies compared by default (full mode sweeps the whole registry).
DEFAULT_POLICIES = ("round_robin", "least_loaded", "join_shortest_queue",
                    "power_of_two", "prefix_affinity")

#: Fleet sizes compared by default.
DEFAULT_REPLICA_COUNTS = (1, 2, 4)

#: KV storage formats compared by default (``None`` = FP16 baseline).
DEFAULT_KV_SPECS = (None, "int8")

#: Trace shapes the benchmark can sweep under (see :mod:`repro.serve.workload`).
WORKLOAD_KINDS = ("poisson", "shared_prefix")


def default_workload(fast: bool, kind: str = "poisson"):
    """The benchmark's trace shape for a workload kind (arrival rate derived
    separately).

    ``"poisson"`` is the classic independent-prompt mix;
    ``"shared_prefix"`` opens 80 % of the prompts with one of a few shared
    prefixes, the workload class prefix-sharing caches (and the
    ``prefix_affinity`` policy's measured-reuse routing) exist for.
    """
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"workload kind must be one of {WORKLOAD_KINDS}, got {kind!r}")
    if kind == "shared_prefix":
        if fast:
            return SharedPrefixConfig(num_requests=16, num_prefixes=2,
                                      prefix_tokens=16, unique_tokens=(2, 6),
                                      new_tokens=(3, 8), shared_fraction=0.8, seed=0)
        return SharedPrefixConfig(num_requests=64, num_prefixes=4,
                                  prefix_tokens=32, unique_tokens=(4, 12),
                                  new_tokens=(6, 16), shared_fraction=0.8, seed=0)
    if fast:
        return WorkloadConfig(num_requests=16, prompt_tokens=(4, 12),
                              new_tokens=(3, 8), seed=0)
    return WorkloadConfig(num_requests=64, prompt_tokens=(12, 32),
                          new_tokens=(6, 16), seed=0)


def default_replica(fast: bool) -> ReplicaConfig:
    """The replica template every fleet of the sweep is built from.

    Fast mode shrinks the KV page so short CI prompts still span several
    pages and the paged admission/sharing paths run for real.
    """
    return ReplicaConfig(max_batch_size=4 if fast else 8,
                         kv_page_size=4 if fast else 16)


def _mean_tokens(workload) -> tuple:
    """(mean prompt tokens, mean total tokens) of a trace shape."""
    if isinstance(workload, SharedPrefixConfig):
        prompt = workload.prefix_tokens + sum(workload.unique_tokens) / 2.0
    elif isinstance(workload, MultiTurnConfig):
        # turn t's prompt is system + t user messages; averaged over the
        # turns of a mean-length conversation
        mean_turns = sum(workload.turns) / 2.0
        mean_user = sum(workload.user_tokens) / 2.0
        prompt = workload.system_tokens + mean_user * (mean_turns + 1) / 2.0
    else:
        prompt = sum(workload.prompt_tokens) / 2.0
    total = prompt + sum(workload.new_tokens) / 2.0
    return prompt, total


def saturating_arrival_rate(model_config, replica: ReplicaConfig,
                            workload, utilization: float = 3.0) -> float:
    """Offered load (requests/s) at ``utilization`` x one replica's capacity.

    One replica sustains roughly ``1 / (time_per_token * mean tokens per
    request)`` requests per second on its roofline-priced clock; the trace is
    generated at a multiple of that, so the single-replica row of the sweep
    queues heavily while a ``>= utilization``-replica fleet keeps up.
    """
    if utilization <= 0:
        raise ValueError("utilization must be positive")
    time_per_token = decode_time_per_token(model_config, replica)
    _, mean_total = _mean_tokens(workload)
    return utilization / (time_per_token * mean_total)


def derived_slo(model_config, replica: ReplicaConfig, workload,
                slo_slack: float = 4.0) -> SLOConfig:
    """SLOs at ``slo_slack`` x the no-queueing service time of a mean request.

    TTFT must beat ``slack x`` the pure prefill time of a mean prompt;
    end-to-end latency must beat ``slack x`` the full service time.  Both are
    priced on the template replica's roofline clock, so attainment measures
    queueing and placement quality, not the absolute hardware speed.
    """
    if slo_slack <= 0:
        raise ValueError("slo_slack must be positive")
    time_per_token = decode_time_per_token(model_config, replica)
    mean_prompt, mean_total = _mean_tokens(workload)
    return SLOConfig(ttft_s=slo_slack * time_per_token * mean_prompt,
                     latency_s=slo_slack * time_per_token * mean_total)


def fleet_trace(model, workload, replica: ReplicaConfig, utilization: float,
                slo_slack: float, arrival_rate: float = None) -> tuple:
    """What every fleet of a sweep shares: ``(baseline, workload, slo, requests)``.

    ``baseline`` is ``replica`` with unquantised KV and weights.  The offered
    load (``arrival_rate``, or :func:`saturating_arrival_rate` at
    ``utilization``) and the SLOs (:func:`derived_slo` at ``slo_slack``) are
    priced on it, so every KV format of a sweep faces the same load and the
    same bar.  The returned ``workload`` (default :class:`WorkloadConfig`)
    carries that arrival rate, and ``requests`` is its one generated trace.
    """
    workload = workload or WorkloadConfig()
    baseline = dataclasses.replace(replica, kv_spec=None, weight_spec=None)
    if arrival_rate is None:
        arrival_rate = saturating_arrival_rate(model.config, baseline, workload,
                                               utilization=utilization)
    workload = dataclasses.replace(workload, arrival_rate=arrival_rate)
    slo = derived_slo(model.config, baseline, workload, slo_slack=slo_slack)
    return baseline, workload, slo, generate_trace(model.config.vocab_size, workload)


#: Summary columns copied into each benchmark row, in display order.
_ROW_METRICS = ("requests", "goodput_rps", "slo_attainment", "load_imbalance",
                "prefix_hit_rate", "peak_pages_in_use",
                "decode_tokens_per_s", "total_tokens_per_s",
                "ttft_p50_ms", "ttft_p95_ms", "latency_p50_ms", "latency_p95_ms")


def cluster_bench(model, policies=DEFAULT_POLICIES, replica_counts=DEFAULT_REPLICA_COUNTS,
                  kv_specs=DEFAULT_KV_SPECS, workload=None,
                  replica: ReplicaConfig = None, utilization: float = 3.0,
                  slo_slack: float = 4.0, arrival_rate: float = None,
                  seed: int = 0) -> list:
    """Sweep policy x fleet size x KV spec over one replayed trace; returns rows.

    The trace (arrivals, prompts, per-request seeds) is generated once —
    every fleet of the sweep replays it identically, so row differences
    isolate the policy, the fleet size and the KV format.  ``workload`` may
    be any :mod:`repro.serve.workload` config (Poisson, shared-prefix,
    multi-turn); ``arrival_rate`` overrides the roofline-derived offered
    load (:func:`saturating_arrival_rate`) for ad-hoc traces.
    """
    template = replica or ReplicaConfig()
    _, _, slo, requests = fleet_trace(model, workload, template, utilization, slo_slack,
                                      arrival_rate)
    rows = []
    for kv_spec in kv_specs:
        for policy in policies:
            for count in replica_counts:
                fleet = tuple(dataclasses.replace(template, kv_spec=kv_spec)
                              for _ in range(count))
                simulation = ClusterSimulation(
                    model, ClusterConfig(replicas=fleet, policy=policy, slo=slo,
                                         seed=seed))
                report = simulation.run(requests)
                summary = report.summary()
                row = {
                    "policy": summary["policy"],
                    "replicas": count,
                    "kv_cache": report.replicas[0]["kv_spec"],
                }
                row.update((key, summary[key]) for key in _ROW_METRICS)
                rows.append(row)
    return rows


def run(fast=None, policies=None, replica_counts=None, kv_specs=None,
        num_requests=None, arrival_rate=None, workload_kind: str = "poisson",
        kv_page_size=None) -> ExperimentResult:
    """Multi-replica cluster serving: routing policy x fleet size x KV format under one trace.

    The registered ``cluster_bench`` experiment driver (the pipeline calls
    it with ``fast`` only).  Fast mode simulates small fleets of the
    Llama-1B zoo model over a short trace; the full run sweeps every
    registered routing policy over larger Llama-7B fleets.  The keyword
    overrides back the ``repro cluster-bench`` CLI flags: ``workload_kind``
    selects the trace shape (``shared_prefix`` makes the prefix-hit-rate
    column meaningful) and ``kv_page_size`` resizes the replicas' KV pages.
    """
    from repro.experiments.common import load_serving_model, replace_given

    fast_mode, model_name, _, model = load_serving_model(fast)
    if policies is None:
        policies = ("round_robin", "least_loaded") if fast_mode else DEFAULT_POLICIES
    if replica_counts is None:
        replica_counts = (1, 4) if fast_mode else DEFAULT_REPLICA_COUNTS
    if kv_specs is None:
        kv_specs = DEFAULT_KV_SPECS
    workload = replace_given(default_workload(fast_mode, workload_kind),
                             num_requests=num_requests)
    template = replace_given(default_replica(fast_mode), kv_page_size=kv_page_size)
    # the offered load at cluster_bench's default utilization, kept for the metadata
    arrival_rate = fleet_trace(model, workload, template, 3.0, 4.0,
                               arrival_rate)[1].arrival_rate
    rows = cluster_bench(model, policies=tuple(policies),
                         replica_counts=tuple(replica_counts),
                         kv_specs=tuple(kv_specs), workload=workload,
                         replica=template, arrival_rate=arrival_rate)
    return ExperimentResult(
        experiment_id="Cluster-Bench",
        title=f"Multi-replica serving of {model_name}: policy x fleet size x KV format",
        rows=rows,
        columns=["policy", "replicas", "kv_cache"] + list(_ROW_METRICS),
        notes=(
            "Every row replays the identical Poisson trace through a simulated fleet on "
            "roofline-priced virtual clocks.  The offered load is a fixed multiple of one "
            "FP16 replica's capacity, so single-replica rows queue heavily (low "
            "slo_attainment, high ttft_p95) while larger fleets saturate their goodput.  "
            "Load-aware policies (least_loaded, join_shortest_queue, power_of_two) "
            "balance *projected* work at each arrival; load_imbalance measures "
            "*realised* decode tokens, so on short uniform traces blind rotation can "
            "look tighter, while prefix_affinity routes each request to the replica "
            "whose paged KV cache measurably holds the longest prompt prefix "
            "(prefix_hit_rate shows the reuse it wins, especially under the "
            "shared_prefix workload), trading balance for placement locality.  "
            "Quantised KV makes every replica faster (denser formats lift the "
            "memory roof of the decode roofline), which shows up directly in "
            "goodput."
        ),
        metadata={
            "fast": fast_mode,
            "model": model_name,
            "policies": list(policies),
            "replica_counts": list(replica_counts),
            "kv_specs": [spec or "fp16" for spec in kv_specs],
            "workload": {"kind": workload_kind, **dataclasses.asdict(workload)},
            "arrival_rate": arrival_rate,
            "replica": {"max_batch_size": template.max_batch_size,
                        "kv_page_size": template.kv_page_size,
                        "pe_rows": template.pe_rows, "pe_cols": template.pe_cols,
                        "dram_gbytes_per_s": template.dram_gbytes_per_s},
        },
    )
