"""The obs-report renderer over trace exports and profiler snapshots."""

from __future__ import annotations

import json

import pytest

from repro.obs.profiler import FORWARD, QUANT_APPEND, SAMPLING, PhaseProfiler
from repro.obs.report import (load_report_file, render_hotspot_report,
                              render_report, render_trace_report)
from repro.obs.tracing import SpanTracer


def _trace_doc():
    tracer = SpanTracer()
    tracer.name_track(0, "router")
    tracer.name_track(1, "replica 0")
    tracer.complete("decode", 0.0, 0.002, track=1)
    tracer.instant("reroute", 0.001, track=0)
    return json.loads(tracer.to_json())


class TestLoadReportFile:
    def test_recognises_trace_documents(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(_trace_doc()))
        assert load_report_file(path)["kind"] == "trace"

    def test_recognises_bare_event_lists(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(_trace_doc()["traceEvents"]))
        assert load_report_file(path)["kind"] == "trace"

    def test_recognises_profiler_snapshots(self, tmp_path):
        prof = PhaseProfiler()
        prof.add(SAMPLING, 0.1)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(prof.snapshot()))
        assert load_report_file(path)["kind"] == "profile"

    def test_rejects_unrelated_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError, match="not a trace export"):
            load_report_file(path)


class TestRenderers:
    def test_trace_report_names_tracks_and_ranks_spans(self):
        text = render_trace_report(_trace_doc())
        assert "2 tracks" in text
        assert "router" in text
        assert "replica 0" in text
        assert "decode" in text
        assert "reroute" in text

    def test_hotspot_report_ranks_and_marks_nested_phases(self):
        prof = PhaseProfiler()
        prof.add(FORWARD, 0.8)
        prof.add(SAMPLING, 0.2)
        prof.add(QUANT_APPEND, 0.3)
        text = render_hotspot_report(prof.snapshot())
        lines = [line for line in text.splitlines() if line]
        assert lines[0].startswith("decode-path profile: 1.0000s")
        body = "\n".join(lines)
        assert body.index("forward") < body.index("sampling")
        assert "80.0%" in body      # decode share of top-level time
        assert "forward" in body    # nested marker column

    def test_empty_profile(self):
        assert "no phases recorded" in render_hotspot_report(PhaseProfiler().snapshot())

    def test_render_report_dispatches(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(_trace_doc()))
        assert "tracks" in render_report(trace_path)
        prof = PhaseProfiler()
        prof.add(SAMPLING, 0.1)
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(prof.snapshot()))
        assert "decode-path profile" in render_report(profile_path)
