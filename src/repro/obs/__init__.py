"""Unified observability for the serve/cluster/gateway stack.

One :class:`Observability` bundle carries the four instruments a run may
want — a metrics :class:`~repro.obs.metrics.MetricsRegistry`, a span
:class:`~repro.obs.tracing.SpanTracer`, a decode-path
:class:`~repro.obs.profiler.PhaseProfiler`, and a
:class:`~repro.obs.recorder.FlightRecorder` — and is threaded through
``ServeEngine``, the cluster simulation, and the gateway.  Components are
independently optional: ``Observability(tracer=SpanTracer())`` traces
without metering.

Pay-for-what-you-use is the contract (a prior attempt at this layer was
reverted at 12.7 % overhead; the budget is ≤5 % fully enabled):

* a **disabled** bundle (:meth:`Observability.disabled`, or simply passing
  ``obs=None`` to any constructor) has ``tracer``/``profiler``/``recorder``
  of ``None`` — uses guard with one ``is not None`` test, and an engine
  attaches a profiler only when there is one — and the shared
  :data:`~repro.obs.metrics.NULL_REGISTRY`, whose metrics are no-op
  objects, so setup code resolves its counters unconditionally;
* metric objects are resolved **once at setup** and updated by plain
  attribute arithmetic — never looked up, formatted, or wrapped in a
  closure per token;
* aggregation (snapshots, Prometheus text, hot-spot ranking, trace JSON)
  happens only when asked for.

A fleet shares one bundle across replicas via :meth:`Observability.for_track`,
which reuses every component but gives each replica its own trace track and
label set — all spans land on one timeline, all series in one registry.
"""

from __future__ import annotations

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               NullMetric, NullRegistry, NULL_REGISTRY,
                               DEFAULT_LATENCY_BUCKETS)
from repro.obs.profiler import PhaseProfiler, PHASES
from repro.obs.recorder import (FlightRecorder, InvariantViolation,
                                invariant_violation)
from repro.obs.tracing import SpanTracer, TraceSchemaError, validate_trace

__all__ = ["Observability", "MetricsRegistry", "Counter", "Gauge", "Histogram",
           "NullMetric", "NullRegistry", "NULL_REGISTRY",
           "DEFAULT_LATENCY_BUCKETS", "SpanTracer", "TraceSchemaError",
           "validate_trace", "PhaseProfiler", "PHASES", "FlightRecorder",
           "InvariantViolation", "invariant_violation"]


class Observability:
    """A bundle of observability instruments shared by one run.

    ``registry`` is never ``None`` (a disabled bundle holds the null
    registry), so call sites resolve metrics unconditionally.  ``tracer``,
    ``profiler`` and ``recorder`` are ``None`` when off — a single ``is not
    None`` guard around each use (an engine's around attaching the profiler,
    see :meth:`PhaseProfiler.attach`).  ``track``
    and ``labels`` tell an engine *where* to emit: which trace ``tid`` its
    spans belong on and which label set (e.g. ``{"replica": "r0"}``) its
    series carry.
    """

    __slots__ = ("registry", "tracer", "profiler", "recorder", "track", "labels")

    def __init__(self, registry=None, tracer=None, profiler=None,
                 recorder=None, track: int = 0, labels=None):
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer
        self.profiler = profiler
        self.recorder = recorder
        self.track = int(track)
        self.labels = dict(labels) if labels else {}

    @classmethod
    def enabled(cls, trace: bool = True, profile: bool = True,
                record: bool = True, recorder_capacity: int = 512,
                track: int = 0, labels=None) -> "Observability":
        """A live bundle: real registry, plus whichever extras are requested."""
        return cls(registry=MetricsRegistry(),
                   tracer=SpanTracer() if trace else None,
                   profiler=PhaseProfiler() if profile else None,
                   recorder=FlightRecorder(recorder_capacity) if record else None,
                   track=track, labels=labels)

    @classmethod
    def disabled(cls) -> "Observability":
        """An inert bundle: null registry, no tracer/profiler/recorder."""
        return cls()

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The registry's counter under this bundle's labels plus ``labels``.

        A null registry gives a standalone :class:`Counter`, so an owner that
        reads counts back (a report, ``/stats``) has them with metrics off.
        """
        counter = self.registry.counter(name, help, dict(self.labels, **labels))
        return Counter(name, help) if isinstance(counter, NullMetric) else counter

    @property
    def is_enabled(self) -> bool:
        """Whether any instrument is live."""
        return (self.registry is not NULL_REGISTRY or self.tracer is not None
                or self.profiler is not None or self.recorder is not None)

    def for_track(self, track: int, **labels) -> "Observability":
        """A view sharing every instrument but emitting on its own track.

        The fleet hands each replica ``obs.for_track(tid, replica=name)``:
        spans interleave on one tracer timeline (distinct ``tid`` rows) and
        series share the registry, split by the added labels.
        """
        merged = dict(self.labels)
        merged.update({key: str(value) for key, value in labels.items()})
        return Observability(registry=self.registry, tracer=self.tracer,
                             profiler=self.profiler, recorder=self.recorder,
                             track=track, labels=merged)
