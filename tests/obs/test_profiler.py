"""Decode-path phase profiler: slots, shares, and the ranked table."""

from __future__ import annotations

import pytest

from repro.obs.profiler import (ADMISSION, FORWARD, PAGE_GATHER,
                                PHASES, QUANT_APPEND, SAMPLING, PhaseProfiler)


def test_add_accumulates_per_slot():
    prof = PhaseProfiler()
    prof.add(FORWARD, 0.2)
    prof.add(FORWARD, 0.3)
    prof.add(SAMPLING, 0.1)
    assert prof.total_s[FORWARD] == pytest.approx(0.5)
    assert prof.calls[FORWARD] == 2
    assert prof.calls[SAMPLING] == 1


def test_nested_phases_are_excluded_from_the_share_basis():
    prof = PhaseProfiler()
    prof.add(FORWARD, 0.8)
    prof.add(SAMPLING, 0.2)
    prof.add(PAGE_GATHER, 0.5)      # inside the forward: not extra wall time
    prof.add(QUANT_APPEND, 0.1)
    assert prof.top_level_s == pytest.approx(1.0)
    rows = {row["phase"]: row for row in prof.hotspots()}
    assert rows["forward"]["share"] == pytest.approx(0.8)
    assert rows["sampling"]["share"] == pytest.approx(0.2)
    assert rows["page_gather"]["share"] is None
    assert rows["page_gather"]["within"] == "forward"
    assert rows["forward"]["within"] == "step"


def test_hotspots_ranked_hottest_first_and_omit_unhit_phases():
    prof = PhaseProfiler()
    prof.add(SAMPLING, 0.1)
    prof.add(FORWARD, 0.9)
    rows = prof.hotspots()
    assert [row["phase"] for row in rows] == ["forward", "sampling"]
    assert rows[0]["mean_us"] == pytest.approx(0.9e6)
    assert len(rows) == 2   # untouched phases do not appear


def test_snapshot_shape():
    prof = PhaseProfiler()
    prof.add(FORWARD, 0.4)
    snap = prof.snapshot()
    assert set(snap) == {"phases", "top_level_s", "hotspots"}
    assert snap["phases"] == {"forward": {"calls": 1, "total_s": 0.4}}
    assert snap["top_level_s"] == pytest.approx(0.4)


def test_phase_ids_index_the_display_names():
    assert PHASES[ADMISSION] == "admission"
    assert PHASES[FORWARD] == "forward"
    assert PHASES[QUANT_APPEND] == "quantize_append"
    assert len(PHASES) == 6
