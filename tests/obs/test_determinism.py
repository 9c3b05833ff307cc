"""Determinism of telemetry under virtual clocks, and the chaos-trace export.

The contract the docs promise: telemetry derived from virtual-clock
timestamps — metric snapshots and trace exports — is a pure function of the
schedule, so two identical runs serialise byte-identically.  (The phase
profiler is deliberately excluded: it times *real* compute with
``perf_counter`` and is expected to vary run to run.)
"""

from __future__ import annotations

import json

from repro.cluster.chaos_bench import export_chaos_trace
from repro.obs import Observability, validate_trace
from repro.serve.engine import EngineConfig, Request, ServeEngine, VirtualClock
from repro.serve.workload import WorkloadConfig


def _run_engine_schedule():
    obs = Observability.enabled()
    engine = ServeEngine(
        tiny_model(),
        EngineConfig(max_batch_size=2, kv_page_size=4),
        clock=VirtualClock(time_per_token=0.001),
        obs=obs,
    )
    for index in range(6):
        engine.submit(Request(request_id=index,
                              prompt_tokens=[1 + index % 3, 2, 3, 4],
                              max_new_tokens=5, arrival_time=0.002 * index))
    engine.run()
    return obs


_MODEL = None


def tiny_model():
    """One shared tiny model so both runs execute identical weights."""
    global _MODEL
    if _MODEL is None:
        from repro.llm.config import ModelConfig
        from repro.llm.inference import InferenceModel
        from repro.llm.transformer import TransformerLM

        config = ModelConfig(name="det", vocab_size=32, d_model=32, n_heads=4,
                             n_layers=2, d_ff=64, max_seq_len=32, arch="llama",
                             seed=0)
        _MODEL = InferenceModel(config, TransformerLM(config).state_dict())
    return _MODEL


def test_identical_runs_serialise_byte_identically():
    first, second = _run_engine_schedule(), _run_engine_schedule()
    snap_a = json.dumps(first.registry.snapshot(), sort_keys=True)
    snap_b = json.dumps(second.registry.snapshot(), sort_keys=True)
    assert snap_a == snap_b
    assert snap_a != "{}"   # the runs really recorded something
    assert first.tracer.to_json() == second.tracer.to_json()
    assert len(first.tracer.events()) > 0


def test_engine_profiler_times_real_compute_not_virtual_time():
    obs = _run_engine_schedule()
    hot = {row["phase"]: row for row in obs.profiler.hotspots()}
    # virtual seconds per token is 1ms; real decode forward on a tiny model
    # is far from that — nonzero wall time booked per call proves the
    # profiler read perf_counter, not the engine clock
    assert hot["forward"]["calls"] > 0
    assert hot["forward"]["total_s"] > 0.0
    assert "admission" in hot and "release" in hot and "sampling" in hot


def test_chaos_export_is_schema_valid_and_deterministic(tiny_inference_model,
                                                        tmp_path):
    workload = WorkloadConfig(num_requests=10, prompt_tokens=(4, 8),
                              new_tokens=(3, 6), seed=1)

    def export(path):
        report, obs = export_chaos_trace(tiny_inference_model, path,
                                         workload=workload, num_replicas=2,
                                         seed=0)
        return report, obs, json.loads(path.read_text())

    report, obs, doc = export(tmp_path / "a.json")
    stats = validate_trace(doc)
    # the single shared timeline: router instants + every replica's spans
    track_names = {event["tid"]: event["args"]["name"]
                   for event in doc["traceEvents"] if event["ph"] == "M"}
    assert track_names[0] == "router"
    assert any(name.startswith("replica") for name in track_names.values())
    assert stats["names"]["fault:crash"]["count"] >= 1
    assert "queued" in stats["names"] and "decode" in stats["names"]
    router = stats["tracks"][(1, 0)]
    assert router["instants"] >= 1
    # a second identical export must serialise byte-identically
    _report2, _obs2, doc2 = export(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert doc == doc2


def test_chaos_export_crash_repair_appears_as_scale_up(tiny_inference_model,
                                                       tmp_path):
    workload = WorkloadConfig(num_requests=10, prompt_tokens=(4, 8),
                              new_tokens=(3, 6), seed=1)
    path = tmp_path / "trace.json"
    report, obs = export_chaos_trace(tiny_inference_model, path,
                                     workload=workload, num_replicas=2, seed=0)
    stats = validate_trace(json.loads(path.read_text()))
    summary = report.summary()
    if summary["faults_injected"] and summary["scale_ups"]:
        # repair replicas get their own named tracks on the shared timeline
        assert "scale:up" in stats["names"]
        assert len(stats["tracks"]) > 2     # router + original fleet + repairs
    # regardless of the schedule drawn, nothing may be lost or leaked
    assert summary["requests_lost"] == 0
    assert summary["kv_leaked_pages"] == 0
