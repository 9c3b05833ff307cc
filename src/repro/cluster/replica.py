"""One serving replica: an engine plus a roofline-priced virtual clock.

A :class:`Replica` wraps a :class:`~repro.serve.engine.ServeEngine` (its own
KV cache, queue and batching state) around a shared model, optionally
re-wrapped with a per-replica weight-quantisation scheme.  Its clock is a
:class:`~repro.serve.engine.VirtualClock` whose seconds-per-token rate is
derived from the :mod:`repro.accelerator.roofline` cost model, so simulated
time reflects what the hardware would charge for this replica's number
formats: decode is memory bound, weight-resident GEMMs move bytes at the
weight format's width and the attention GEMMs (reads of the KV cache) at the
KV format's width — a denser format lifts the memory roof and the replica
ticks faster.  Heterogeneous fleets (different ``kv_spec`` / ``weight_spec``
per replica) therefore run at genuinely different speeds in simulation, not
just with different memory accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.accelerator.roofline import RooflineModel, matmul_arithmetic_intensity
from repro.accelerator.workloads import decoder_workload
from repro.hardware.technology import TSMC28_LIKE
from repro.llm.inference import InferenceModel, QuantizationScheme
from repro.obs import Observability
from repro.serve.engine import EngineConfig, ServeEngine, VirtualClock

__all__ = ["ReplicaConfig", "Replica", "decode_time_per_token"]

#: Storage width of an unquantised tensor, matching the serving layer's
#: FP16 KV baseline (:data:`repro.serve.kv_cache.UNQUANTIZED_KV_BITS`).
UNQUANTIZED_BITS = 16.0


@dataclass(frozen=True)
class ReplicaConfig:
    """Shape and hardware cost model of one replica.

    ``kv_spec`` / ``weight_spec`` are :mod:`repro.quant` spec strings
    (``None`` = unquantised FP16): the KV spec quantises the replica's cache
    storage, the weight spec re-wraps the model with a
    :meth:`~repro.llm.inference.QuantizationScheme.from_format` scheme.
    ``max_batch_size`` / ``token_budget`` / ``max_seq_len`` /
    ``kv_page_size`` mirror :class:`~repro.serve.engine.EngineConfig`
    (paged KV with radix prefix sharing).  The remaining fields
    parameterise the roofline that prices this replica's decode tokens:
    PE-array geometry, DRAM bandwidth, and the KV context length one decode
    token is priced at.
    """

    kv_spec: Optional[str] = None
    weight_spec: Optional[str] = None
    max_batch_size: int = 4
    token_budget: Optional[int] = None
    max_seq_len: Optional[int] = None
    kv_page_size: int = 16
    pe_rows: int = 32
    pe_cols: int = 32
    dram_gbytes_per_s: float = 25.6
    decode_context: int = 64

    def __post_init__(self):
        if self.pe_rows < 1 or self.pe_cols < 1:
            raise ValueError("PE array dimensions must be positive")
        if self.dram_gbytes_per_s <= 0:
            raise ValueError("dram_gbytes_per_s must be positive")
        if self.decode_context < 1:
            raise ValueError("decode_context must be >= 1")

    def engine_config(self) -> EngineConfig:
        return EngineConfig(max_batch_size=self.max_batch_size,
                            token_budget=self.token_budget,
                            kv_spec=self.kv_spec,
                            max_seq_len=self.max_seq_len,
                            kv_page_size=self.kv_page_size)


def _storage_bits(spec) -> float:
    """Average storage bits per element of a quant spec (16.0 when ``None``)."""
    if spec is None:
        return UNQUANTIZED_BITS
    from repro.quant import get_quantizer

    return float(get_quantizer(spec).bits_per_element())


def decode_time_per_token(model_config, config: Optional[ReplicaConfig] = None) -> float:
    """Roofline seconds one decode token costs on a replica's hardware.

    Builds the decode-phase operator list of one decoder layer stack
    (:func:`~repro.accelerator.workloads.decoder_workload` at the config's
    ``decode_context``) and sums each GEMM's attainable runtime under a
    two-ceiling roofline.  Weight-resident GEMMs stream their operands at the
    weight format's bits per element; the attention score/context GEMMs read
    the KV cache, so they stream at the KV format's width.  Decode sits left
    of the ridge (memory bound) for every format, which is why denser
    formats translate almost linearly into faster replicas.
    """
    config = config or ReplicaConfig()
    roofline = RooflineModel(
        peak_macs_per_s=config.pe_rows * config.pe_cols * TSMC28_LIKE.clock_frequency_hz,
        dram_bandwidth_bytes_per_s=config.dram_gbytes_per_s * 1e9,
        name="replica",
    )
    workload = decoder_workload(model_config, config.decode_context, phase="decode")
    weight_bits = _storage_bits(config.weight_spec)
    kv_bits = _storage_bits(config.kv_spec)
    total = 0.0
    for op in workload.matmuls:
        bits = weight_bits if op.weight_resident else kv_bits
        attainable = roofline.attainable_macs_per_s(matmul_arithmetic_intensity(op, bits))
        total += workload.repeat * op.macs / attainable
    return total


class Replica:
    """One engine of a cluster, stepped externally on its own virtual clock."""

    def __init__(self, replica_id: int, model: InferenceModel,
                 config: Optional[ReplicaConfig] = None, start_time: float = 0.0,
                 obs: Optional[Observability] = None):
        self.replica_id = int(replica_id)
        self.config = config or ReplicaConfig()
        if self.config.weight_spec is not None:
            model = InferenceModel(model.config, model.state,
                                   scheme=QuantizationScheme.from_format(self.config.weight_spec))
        self.model = model
        self.time_per_token = decode_time_per_token(model.config, self.config)
        self.clock = VirtualClock(time_per_token=self.time_per_token)
        self.clock.wait_until(start_time)
        self.start_time = float(start_time)
        self.obs = obs
        if obs is not None and obs.tracer is not None:
            obs.tracer.name_track(obs.track, f"replica {self.replica_id}")
        self.engine = ServeEngine(model, self.config.engine_config(),
                                  clock=self.clock, obs=obs)
        self.draining = False
        self.retired = False
        self.crashed = False
        self.crash_time = None
        self.speed_factor = 1.0
        self._partitions = []

    # -------------------------------------------------------- engine facade
    def submit(self, request, not_before: Optional[float] = None) -> None:
        self.engine.submit(request, not_before=not_before)

    def step(self) -> list:
        return self.engine.step()

    @property
    def has_work(self) -> bool:
        return self.engine.has_work

    @property
    def queue_depth(self) -> int:
        return self.engine.queue_depth

    @property
    def num_active(self) -> int:
        return self.engine.num_active

    @property
    def projected_load(self) -> int:
        return self.engine.projected_load

    @property
    def next_event_time(self) -> float:
        return self.engine.next_event_time

    def cached_prefix_tokens(self, request) -> int:
        """Measured reuse: prompt tokens this replica's cache would serve.

        A radix-index peek (no pages are claimed), 0 when pages are at least
        ``max_seq_len`` long (one page per slot, nothing shareable) — the
        signal ``prefix_affinity`` routes on, so placement follows where a
        prefix is *actually* cached rather than where a hash says it should
        be.
        """
        return self.engine.cache.match_prefix(request.prompt_tokens)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prompt tokens served from cached prefixes so far."""
        return self.engine.kv_hit_rate

    @property
    def now(self) -> float:
        return self.clock.now()

    # -------------------------------------------------------------- faults
    def crash(self, time_s: Optional[float] = None) -> list:
        """Kill the replica and return its orphaned in-flight requests.

        Everything the replica held dies with it: active decode slots,
        queued admissions, and every KV page — there is nothing to audit
        because the machine is gone, which is exactly why orphans must
        re-prefill from token zero wherever they are retried.  Returns the
        orphans in deterministic order (active slots first, then the queue
        in admission order).  A crashed replica must never be stepped or
        submitted to again.
        """
        if self.crashed:
            return []
        self.crashed = True
        self.crash_time = self.now if time_s is None else float(time_s)
        return self.engine.inflight_requests()

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore) the roofline clock by a multiplier.

        ``factor`` scales seconds-per-token: 4.0 makes the replica four
        times slower, 1.0 restores nominal speed.  Work already admitted
        keeps running — just on a slower clock — so a slow replica drags
        latency without orphaning anything.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.speed_factor = float(factor)
        self.clock.time_per_token = self.time_per_token * self.speed_factor

    def partition(self, start: float, end: float) -> None:
        """Make the replica unreachable from the router over ``[start, end)``."""
        if end <= start:
            raise ValueError("partition interval must have end > start")
        self._partitions.append((float(start), float(end)))

    def reachable(self, at: float) -> bool:
        """Whether the router can reach this replica at instant ``at``."""
        return not any(start <= at < end for start, end in self._partitions)

    def partition_end_after(self, at: float) -> float:
        """Earliest instant the replica heals if partitioned at ``at`` (else inf)."""
        ends = [end for start, end in self._partitions if start <= at < end]
        return min(ends) if ends else math.inf

    @property
    def kv_spec(self) -> str:
        return self.engine.cache.kv_spec

    @property
    def weight_spec(self) -> str:
        return self.config.weight_spec or "fp16"

    def __repr__(self) -> str:
        return (f"Replica(id={self.replica_id}, kv={self.kv_spec!r}, "
                f"weights={self.weight_spec!r}, load={self.projected_load}, "
                f"now={self.now:.6f}{', draining' if self.draining else ''})")

    # ------------------------------------------------------------ reporting
    def describe(self) -> dict:
        """Per-replica breakdown row for the :class:`ClusterReport`."""
        report = self.engine.report()
        return {
            "replica_id": self.replica_id,
            "kv_spec": self.kv_spec,
            "weight_spec": self.weight_spec,
            "time_per_token_s": self.time_per_token,
            "start_time_s": self.start_time,
            "finish_time_s": self.now,
            "requests": len(report.completed),
            "prefill_tokens": report.prefill_tokens,
            "decode_tokens": report.decode_tokens,
            "peak_active": report.peak_active,
            "reused_prefix_tokens": report.reused_tokens,
            "prefix_hit_rate": report.kv_hit_rate,
            "peak_pages_in_use": report.peak_pages_in_use,
            "kv_peak_memory_mib": report.kv_peak_memory_bits / 8.0 / 2**20,
            "status": ("crashed" if self.crashed
                       else "retired" if self.retired
                       else "draining" if self.draining else "active"),
        }
