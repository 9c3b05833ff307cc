"""Render saved observability artifacts as plain-text reports.

Backs the ``repro obs-report`` CLI: point it at a file a run saved —
a Chrome trace-event JSON export (from ``chaos-bench --trace-out`` or
:meth:`~repro.obs.tracing.SpanTracer.write`) or a profiler/metrics dump —
and get an aligned-table summary on stdout.  The trace path validates the
file against the same schema checks the tests pin
(:func:`~repro.obs.tracing.validate_trace`), so a report doubles as a
lint of the export.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.obs.tracing import validate_trace

__all__ = ["load_report_file", "render_trace_report", "render_hotspot_report",
           "render_report"]


def load_report_file(path) -> dict:
    """Read a JSON artifact and tag what kind of report it supports.

    Returns ``{"kind": "trace" | "profile", "data": <parsed json>}``.
    Trace documents are recognised by their ``traceEvents`` key (or by being
    a bare event list); profiler snapshots
    (:meth:`~repro.obs.profiler.PhaseProfiler.snapshot`) by their top-level
    ``hotspots`` key.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, list) or (isinstance(data, dict) and "traceEvents" in data):
        return {"kind": "trace", "data": data}
    if isinstance(data, dict) and "hotspots" in data:
        return {"kind": "profile", "data": data}
    raise ValueError(
        f"{path}: not a trace export or profiler snapshot "
        "(expected 'traceEvents' or 'hotspots')")


def _track_names(events) -> dict:
    """``tid -> thread name`` from the export's metadata events."""
    names = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event["tid"]] = event.get("args", {}).get("name", "")
    return names


def render_trace_report(data) -> str:
    """Per-track and per-span-name summaries of a trace-event export."""
    stats = validate_trace(data)
    events = data["traceEvents"] if isinstance(data, dict) else data
    labels = _track_names(events)
    track_rows = []
    for (pid, tid), track in sorted(stats["tracks"].items()):
        track_rows.append({
            "track": labels.get(tid, f"pid{pid}/tid{tid}"),
            "spans": track["spans"],
            "instants": track["instants"],
            "start_ms": track["first_ts"] / 1000.0,
            "end_ms": track["last_ts"] / 1000.0,
        })
    name_rows = [
        {"name": name, "count": record["count"],
         "total_ms": record["total_us"] / 1000.0}
        for name, record in sorted(stats["names"].items(),
                                   key=lambda item: -item[1]["total_us"])
    ]
    return (f"trace: {stats['events']} events across "
            f"{len(stats['tracks'])} tracks\n\n"
            f"{format_table(track_rows)}\n\n{format_table(name_rows)}\n")


def render_hotspot_report(data) -> str:
    """Ranked hot-spot table from a saved profiler snapshot."""
    rows = data.get("hotspots", [])
    if not rows:
        return "profile: no phases recorded\n"
    rendered = [
        {"phase": row["phase"], "within": row["within"], "calls": row["calls"],
         "total_s": row["total_s"], "mean_us": row["mean_us"],
         "share": "-" if row.get("share") is None else f"{row['share']:.1%}"}
        for row in rows
    ]
    total = data.get("top_level_s", 0.0)
    return (f"decode-path profile: {total:.4f}s across top-level phases\n\n"
            f"{format_table(rendered)}\n")


def render_report(path) -> str:
    """Dispatch on artifact kind; the body of ``repro obs-report``."""
    loaded = load_report_file(path)
    if loaded["kind"] == "trace":
        return render_trace_report(loaded["data"])
    return render_hotspot_report(loaded["data"])
