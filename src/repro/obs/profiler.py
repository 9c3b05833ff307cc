"""Phase profiler for the decode hot path.

Answers the ROADMAP's blocking question for the batched array-kernel
overhaul: *where does a serve step actually spend its wall time?*  Each
phase is the wall time spent in one method of a
:class:`~repro.serve.engine.ServeEngine` or of its paged KV cache — the
``_SITES`` table below is the one place that says which — and
:meth:`PhaseProfiler.attach` wraps each of those methods on one engine.
The engine attaches its bundle's profiler, if it has one, at construction,
so with telemetry off no timing code runs at all.

``page_gather`` and ``quantize_append`` are *nested* inside the forward
phase (the cache is called per layer from within ``forward_step``), so the
ranked table reports them with ``within="forward"`` and computes ``share``
over the top-level phases only — the shares of top-level phases sum to 1.
``quantize_append`` is booked for unquantised caches too, where
``_quantize_rows`` only transposes.

Phase timings are always wall-clock (``perf_counter``), even under a
virtual engine clock: the profiler's job is accounting for *real compute*,
which is precisely what the virtual clock abstracts away.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["PhaseProfiler", "PHASES", "ADMISSION", "FORWARD", "PAGE_GATHER",
           "QUANT_APPEND", "SAMPLING", "RELEASE"]

#: ``(phase, owner, method)`` in phase-id order: the one method whose calls
#: each phase times, on the engine or on its cache.
_SITES = (
    ("admission", "engine", "_admit"),          # queue pops, budget/page checks, prefix adoption
    ("forward", "engine", "_forward"),          # the step's one forward: decode rows + prefill chunks
    ("page_gather", "cache", "context"),        # the KV context read: pool view or gather
    ("quantize_append", "cache", "_quantize_rows"),  # quantise-on-append of new K/V
    ("sampling", "engine", "_sample"),          # logits -> token, stop checks, on_token
    ("release", "engine", "_release"),          # radix indexing, page release, the record
)

#: Integer phase ids — list indices into the profiler's preallocated slots.
(ADMISSION, FORWARD, PAGE_GATHER, QUANT_APPEND, SAMPLING, RELEASE) = range(len(_SITES))

#: Display names, indexed by phase id.
PHASES = tuple(phase for phase, _owner, _method in _SITES)

#: Phases measured inside a forward call (excluded from the share basis).
_NESTED = frozenset(phase for phase, (_name, owner, _method) in enumerate(_SITES)
                    if owner == "cache")


class PhaseProfiler:
    """Accumulate wall seconds and call counts per fixed phase slot."""

    __slots__ = ("total_s", "calls")

    def __init__(self):
        self.total_s = [0.0] * len(PHASES)
        self.calls = [0] * len(PHASES)

    def add(self, phase: int, dt: float) -> None:
        """Book ``dt`` wall seconds against ``phase`` (one timed call)."""
        self.total_s[phase] += dt
        self.calls[phase] += 1

    def attach(self, engine) -> None:
        """Time every phase's method on ``engine`` and on its cache.

        Each method is shadowed by an instance attribute that calls it and
        books the wall time it took, so only this engine is affected.  An
        engine attaches its bundle's profiler at construction; a fleet's
        engines all attach the one profiler they share.
        """
        owners = {"engine": engine, "cache": engine.cache}
        for phase, (_name, owner, method) in enumerate(_SITES):
            target = owners[owner]
            setattr(target, method, self._timed(phase, getattr(target, method)))

    def _timed(self, phase: int, method):
        add = self.add

        def timed(*args, **kwargs):
            start = perf_counter()
            result = method(*args, **kwargs)
            add(phase, perf_counter() - start)
            return result

        return timed

    @property
    def top_level_s(self) -> float:
        """Wall seconds across the non-nested phases (the share basis)."""
        return sum(t for phase, t in enumerate(self.total_s)
                   if phase not in _NESTED)

    def hotspots(self) -> list:
        """Ranked hot-spot rows, hottest first — the kernel-overhaul shopping list.

        Each row: ``phase``, ``calls``, ``total_s``, ``mean_us`` (per call),
        ``share`` of top-level wall time, and ``within`` (``"forward"`` for
        the nested cache phases, ``"step"`` otherwise).  Phases never hit
        are omitted.
        """
        basis = max(self.top_level_s, 1e-12)
        rows = []
        for phase, name in enumerate(PHASES):
            if not self.calls[phase]:
                continue
            total = self.total_s[phase]
            rows.append({
                "phase": name,
                "within": "forward" if phase in _NESTED else "step",
                "calls": self.calls[phase],
                "total_s": total,
                "mean_us": total / self.calls[phase] * 1e6,
                "share": (total / basis) if phase not in _NESTED else None,
            })
        rows.sort(key=lambda row: -row["total_s"])
        return rows

    def snapshot(self) -> dict:
        """JSON-ready dump: per-phase totals plus the ranked table."""
        return {
            "phases": {name: {"calls": self.calls[phase],
                              "total_s": self.total_s[phase]}
                       for phase, name in enumerate(PHASES) if self.calls[phase]},
            "top_level_s": self.top_level_s,
            "hotspots": self.hotspots(),
        }
