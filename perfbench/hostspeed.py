"""Host-speed calibration: a fixed numpy kernel timed beside the workload.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by tens of percent over seconds to minutes.  A run
cannot average such a drift away, since a slow spell often covers the whole
run.  So the end-to-end runs also time a fixed reference kernel in short
bursts spread over the measuring window, and express their timings in
*reference seconds*: the time the work would take on a host that runs one
kernel unit in :data:`REFERENCE_UNIT_S`.  The kernel lives here, not in
``src/``, so a change to the program under test never changes it.

The kernel is a miniature of the serving hot path: a batch-16 decode step
of a three-layer, 128-wide model in plain numpy, with a block-floating-point
quantise-dequantise of the new keys, a gather of 64 cached positions per row
from a page pool and attention over them, then a scheduler's per-row page
bookkeeping in plain Python.  It mixes small-array numpy work, memory
traffic and interpreter overhead in about the proportions the engine does,
so a slow spell of the host slows both alike.  Over 1.7 s reps of
decode-bbfp on a drifting host, the log of the engine's throughput fell
1.15 to 1.45 times as steeply as the log of the numpy part's speed, and
0.65 to 0.8 times as steeply as that of a pure-Python loop; the mix of the
two sits between.

Bursts are timed on a busy CPU only: a kernel woken from an idle wait runs
up to half again slower for a while, which says nothing about the host.

:class:`ReferenceClock` is an engine clock on reference seconds, for the
in-process workloads: it advances by wall time divided by the host's recent
slowdown, and bursts run between engine steps with the clock stopped.
:func:`reference_time` does the same after the fact, for the gateway,
whose server runs its bursts between busy engine steps.
"""

from __future__ import annotations

import time

#: Seconds per kernel unit on the reference host: a round figure near what
#: ``python3 perfbench/hostspeed.py`` reads on a quiet 2-vCPU KVM guest of a
#: Xeon with AVX-512 (Python 3.11, numpy 2.4, BLAS on one thread).  It only
#: sets the scale of reference seconds; changing it rescales every timing.
REFERENCE_UNIT_S = 4.0e-3

#: Recent bursts whose mean sets :attr:`HostSpeed.slowdown`.
WINDOW = 8

#: Wall seconds of engine work between two bursts of the reference clock.
BURST_PERIOD_S = 0.06

PAGES, PAGE_ROWS, CONTEXT_PAGES = 256, 16, 4

#: Iterations of the kernel's interpreter-bound bookkeeping per unit.
BOOKKEEPING_STEPS = 1500


class HostSpeed:
    """Times bursts of the reference kernel; reports the host's slowdown."""

    def __init__(self, warm_bursts: int = 10):
        import numpy as np

        rng = np.random.default_rng(20240611)
        self._np = np
        self._x = rng.standard_normal((16, 128))
        self._w_qkv = rng.standard_normal((3, 128, 384)) * 0.05
        self._w_up = rng.standard_normal((3, 128, 384)) * 0.05
        self._w_down = rng.standard_normal((3, 384, 128)) * 0.05
        self._pool = rng.standard_normal((2, PAGES, PAGE_ROWS, 128))
        self._page_ids = rng.integers(0, PAGES, size=(3, 16, CONTEXT_PAGES))
        self._row_pages = {row: [] for row in range(16)}
        self._recent = []
        self._busy_s = 0.0
        self._units = 0
        for _ in range(warm_bursts):
            self.burst()
        self.reset()

    def _unit(self) -> float:
        np = self._np
        h = self._x
        rows = {}
        for layer in range(3):
            q, k, _ = np.split(h @ self._w_qkv[layer], 3, axis=1)
            blocks = k.reshape(16, 8, 16)
            exponent = np.frexp(np.abs(blocks).max(axis=2, keepdims=True))[1]
            scale = np.ldexp(1.0, exponent - 4)
            k = (np.clip(np.round(blocks / scale), -8, 7) * scale).reshape(16, 128)
            pages = self._page_ids[layer]
            keys = self._pool[0][pages].reshape(16, -1, 128)
            values = self._pool[1][pages].reshape(16, -1, 128)
            scores = np.einsum("bd,btd->bt", q, keys) * 0.0884
            scores = np.exp(scores - scores.max(axis=1, keepdims=True))
            scores /= scores.sum(axis=1, keepdims=True)
            h = h + 0.1 * np.einsum("bt,btd->bd", scores, values) + 0.01 * k
            h = h + np.maximum(h @ self._w_up[layer], 0.0) @ self._w_down[layer] * 0.1
            for row in range(16):
                rows[row] = rows.get(row, 0.0) + float(h[row, layer])
        freed = 0
        for step in range(BOOKKEEPING_STEPS):
            pages = self._row_pages[step & 15]
            if len(pages) > 8:
                freed += pages.pop(0)
            pages.append(step % PAGES)
        return sum(rows.values()) + freed

    def burst(self, units: int = 1) -> float:
        """Run ``units`` kernel units; returns their seconds per unit."""
        start = time.perf_counter()
        for _ in range(units):
            self._unit()
        elapsed = time.perf_counter() - start
        self._busy_s += elapsed
        self._units += units
        self._recent.append(elapsed / units)
        del self._recent[:-WINDOW]
        return elapsed / units

    def reset(self) -> None:
        """Start a new measuring window (the recent bursts are kept)."""
        self._busy_s = 0.0
        self._units = 0

    def hot_slowdown(self, bursts: int = 2 * WINDOW) -> float:
        """:attr:`slowdown` after ``bursts`` back-to-back bursts.

        A kernel woken from an idle wait runs up to half again slower for a
        few bursts, so the window is refilled by a busy CPU first.
        """
        for _ in range(bursts):
            self.burst()
        return self.slowdown

    @property
    def slowdown(self) -> float:
        """Recent seconds per unit relative to the reference host."""
        return sum(self._recent) / len(self._recent) / REFERENCE_UNIT_S

    @property
    def mean_slowdown(self) -> float:
        """Mean slowdown over every burst since the last reset."""
        if not self._units:
            return self.slowdown
        return self._busy_s / self._units / REFERENCE_UNIT_S


class ReferenceClock:
    """Engine clock in reference seconds, with idle gaps fast-forwarded.

    It offers what :class:`repro.serve.engine.WallClock` does (``now``,
    ``wait_until``, ``on_tokens``).  Wall time advances it at the rate of
    the host's recent slowdown; :meth:`tick` (called between engine steps)
    runs a burst every :data:`BURST_PERIOD_S` with the clock stopped, so
    the bursts cost the workload nothing on its own clock.
    """

    def __init__(self, speed: HostSpeed):
        self._speed = speed
        self._now = 0.0
        self.busy_s = 0.0       # reference seconds not fast-forwarded
        self._wall = self._last_burst = time.perf_counter()

    def now(self) -> float:
        wall = time.perf_counter()
        advance = (wall - self._wall) / self._speed.slowdown
        self._now += advance
        self.busy_s += advance
        self._wall = wall
        return self._now

    def wait_until(self, t: float) -> None:
        if t > self.now():
            self._now = t

    def on_tokens(self, n: int) -> None:
        """Compute time is observed directly; nothing to account."""

    def tick(self) -> None:
        if time.perf_counter() - self._last_burst >= BURST_PERIOD_S:
            self.now()
            self._speed.burst()
            self._wall = self._last_burst = time.perf_counter()


def scaled(speed: HostSpeed, measure) -> float:
    """``measure()`` seconds in reference seconds.

    The slowdown is the mean of the hot slowdowns just before and just
    after the measurement.
    """
    before = speed.hot_slowdown()
    seconds = measure()
    return seconds / ((before + speed.hot_slowdown()) / 2)


def stretch_slowdowns(units) -> list:
    """Slowdown of the stretch after each burst: a centred mean of ``WINDOW`` bursts."""
    half = WINDOW // 2
    slowdowns = [unit / REFERENCE_UNIT_S for unit in units]
    return [sum(window) / len(window) for window in
            (slowdowns[max(0, i - half + 1):i + half + 1] for i in range(len(slowdowns)))]


def reference_time(bursts):
    """Map ``perf_counter`` instants to reference seconds, after the fact.

    ``bursts`` are ``(start, end, seconds_per_unit)`` of bursts run between
    steps of a busy program.  Burst time is left out, and the wall time
    between two bursts counts at the slowdown around them, so a latency
    ``at(b) - at(a)`` reads as a :class:`ReferenceClock` would have read it.
    """
    import bisect

    if not bursts:
        return lambda t: t
    starts, ends, units = zip(*bursts)
    stretch = stretch_slowdowns(units)
    at_start = [0.0]
    for i in range(1, len(starts)):
        at_start.append(at_start[-1] + (starts[i] - ends[i - 1]) / stretch[i - 1])

    def at(t: float) -> float:
        i = bisect.bisect_right(starts, t) - 1
        if i < 0:
            return (t - starts[0]) / stretch[0]
        return at_start[i] + max(0.0, t - ends[i]) / stretch[i]

    return at


def time_unit(bursts: int = 200) -> float:
    """Mean seconds per unit over ``bursts`` one-unit bursts (sets the reference)."""
    speed = HostSpeed()
    for _ in range(bursts):
        speed.burst()
    return speed.mean_slowdown * REFERENCE_UNIT_S


if __name__ == "__main__":
    import os

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    print(f"{time_unit() * 1e3:.4f} ms per unit")
