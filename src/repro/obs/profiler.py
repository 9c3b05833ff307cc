"""Phase profiler for the decode hot path.

Answers the ROADMAP's blocking question for the batched array-kernel
overhaul: *where does a serve step actually spend its wall time?*  The
engine and the paged KV cache bracket a fixed set of phases around
``perf_counter()`` pairs:

===================  ==========================================================
phase                what it times
===================  ==========================================================
``admission``        queue pops, budget/page-capacity checks, prefix adoption
``prefill_forward``  the prompt-suffix ``forward_step`` call
``decode_forward``   the batched one-token-per-request ``forward_step`` call
``page_gather``      the KV context read, view or gather (inside the forwards)
``quantize_append``  quantise-on-append of new K/V (inside the forwards)
``sampling``         logits → token sampling and stop-condition checks
``release``          retirement: radix indexing, page release, record building
===================  ==========================================================

``page_gather`` and ``quantize_append`` are *nested* inside the forward
phases (the cache is called per layer from within ``forward_step``), so the
ranked table reports them with ``within="forward"`` and computes ``share``
over the top-level phases only — the shares of top-level phases sum to 1.
``page_gather`` keeps its name but times the whole context read: a view of
the pool when consecutive slots read their home pages, a gather otherwise
(see :meth:`repro.serve.kv_cache.PagedKVCache.context`).

The implementation is a pair of preallocated fixed-size arrays indexed by
integer phase ids — ``add()`` is two list-index increments, no dict lookup,
no closure, no allocation — so a fully-enabled profiler stays inside the
serve layer's ≤5 % overhead budget.  Phase timings are always wall-clock
(``perf_counter``), even under a virtual engine clock: the profiler's job is
accounting for *real compute*, which is precisely what the virtual clock
abstracts away.
"""

from __future__ import annotations

__all__ = ["PhaseProfiler", "PHASES", "ADMISSION", "PREFILL_FORWARD",
           "DECODE_FORWARD", "PAGE_GATHER", "QUANT_APPEND", "SAMPLING",
           "RELEASE"]

#: Integer phase ids — list indices into the profiler's preallocated slots.
ADMISSION = 0
PREFILL_FORWARD = 1
DECODE_FORWARD = 2
PAGE_GATHER = 3
QUANT_APPEND = 4
SAMPLING = 5
RELEASE = 6

#: Display names, indexed by phase id.
PHASES = ("admission", "prefill_forward", "decode_forward", "page_gather",
          "quantize_append", "sampling", "release")

#: Phases measured inside a forward call (excluded from the share basis).
_NESTED = frozenset((PAGE_GATHER, QUANT_APPEND))


class PhaseProfiler:
    """Accumulate wall seconds and call counts per fixed phase slot."""

    __slots__ = ("total_s", "calls")

    def __init__(self):
        self.total_s = [0.0] * len(PHASES)
        self.calls = [0] * len(PHASES)

    def add(self, phase: int, dt: float) -> None:
        """Book ``dt`` wall seconds against ``phase`` (one timed bracket)."""
        self.total_s[phase] += dt
        self.calls[phase] += 1

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's slots into this one (fleet aggregation)."""
        for phase in range(len(PHASES)):
            self.total_s[phase] += other.total_s[phase]
            self.calls[phase] += other.calls[phase]

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
