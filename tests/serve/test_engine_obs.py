"""Engine telemetry: metric series, request spans, and decode-path profiling."""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.obs.profiler import PAGE_GATHER
from repro.serve.engine import EngineConfig, Request, ServeEngine, VirtualClock


def _engine(model, obs, **overrides):
    overrides.setdefault("max_batch_size", 2)
    overrides.setdefault("kv_page_size", 4)
    return ServeEngine(model, EngineConfig(**overrides),
                       clock=VirtualClock(time_per_token=0.001), obs=obs)


def _requests(n=4, max_new_tokens=5):
    return [Request(request_id=index, prompt_tokens=[1 + index % 3, 2, 3, 4],
                    max_new_tokens=max_new_tokens, arrival_time=0.0)
            for index in range(n)]


class TestEngineMetrics:
    def test_token_and_finish_counters(self, tiny_inference_model):
        obs = Observability.enabled()
        engine = _engine(tiny_inference_model, obs)
        for request in _requests():
            engine.submit(request)
        report = engine.run()
        snap = obs.registry.snapshot()
        assert snap["engine_prefill_tokens_total"] == report.prefill_tokens
        assert snap["engine_decode_tokens_total"] == report.decode_tokens
        assert snap["engine_requests_finished_total{reason=length}"] == 4
        assert snap["engine_steps_total"] >= 1
        # terminal gauges: everything drained
        assert snap["engine_queue_depth"] == 0
        assert snap["engine_active_requests"] == 0

    def test_latency_histograms_record_each_request(self, tiny_inference_model):
        obs = Observability.enabled()
        engine = _engine(tiny_inference_model, obs)
        for request in _requests():
            engine.submit(request)
        engine.run()
        snap = obs.registry.snapshot()
        assert snap["engine_ttft_seconds"]["count"] == 4
        assert snap["engine_request_latency_seconds"]["count"] == 4
        assert snap["engine_ttft_seconds"]["sum"] > 0

    def test_prefix_reuse_counter(self, tiny_inference_model):
        obs = Observability.enabled()
        engine = _engine(tiny_inference_model, obs)
        prompt = [1, 2, 3, 4, 5, 6, 7, 8]
        engine.submit(Request(request_id=0, prompt_tokens=prompt,
                              max_new_tokens=3, arrival_time=0.0))
        engine.run()
        engine.submit(Request(request_id=1, prompt_tokens=prompt,
                              max_new_tokens=3, arrival_time=engine.clock.now()))
        engine.run()
        snap = obs.registry.snapshot()
        assert snap["engine_reused_tokens_total"] == engine.reused_tokens
        assert engine.reused_tokens > 0

    def test_disabled_obs_records_nothing(self, tiny_inference_model):
        engine = _engine(tiny_inference_model, None)
        for request in _requests():
            engine.submit(request)
        engine.run()
        assert engine.obs.registry.snapshot() == {}
        assert engine.obs.tracer is None


class TestEngineSpans:
    def test_three_spans_per_completed_request(self, tiny_inference_model):
        obs = Observability.enabled()
        engine = _engine(tiny_inference_model, obs)
        for request in _requests(n=3):
            engine.submit(request)
        engine.run()
        spans = [e for e in obs.tracer.events() if e["ph"] == "X"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert {name: len(group) for name, group in by_name.items()} == {
            "queued": 3, "prefill": 3, "decode": 3}
        decode = by_name["decode"][0]
        assert decode["args"]["finish_reason"] == "length"
        assert decode["args"]["tokens"] == 5
        # lifecycle phases tile the request's latency on the engine clock
        for request_id in range(3):
            phases = sorted((s for s in spans
                             if s["args"]["request_id"] == request_id),
                            key=lambda s: s["ts"])
            for earlier, later in zip(phases, phases[1:]):
                assert earlier["ts"] + earlier["dur"] == later["ts"]

    def test_cancelled_queued_request_gets_single_queued_span(
            self, tiny_inference_model):
        obs = Observability.enabled()
        engine = _engine(tiny_inference_model, obs, max_batch_size=1)
        engine.submit(Request(request_id=0, prompt_tokens=[1, 2, 3],
                              max_new_tokens=32, arrival_time=0.0))
        engine.step()                       # admit 0; request 1 still queued
        engine.submit(Request(request_id=1, prompt_tokens=[1, 2, 3],
                              max_new_tokens=4,
                              arrival_time=engine.clock.now()))
        engine.cancel(1)
        spans = [e for e in obs.tracer.events() if e["ph"] == "X"
                 and e["args"].get("request_id") == 1]
        assert [s["name"] for s in spans] == ["queued"]
        assert spans[0]["args"]["finish_reason"] == "cancelled"
        snap = obs.registry.snapshot()
        assert snap["engine_requests_finished_total{reason=cancelled}"] == 1


class TestEngineProfiler:
    def test_all_phases_booked_on_a_quantised_paged_run(self, tiny_inference_model):
        obs = Observability.enabled()
        engine = _engine(tiny_inference_model, obs, kv_spec="bfp8@b32")
        for request in _requests():
            engine.submit(request)
        engine.run()
        phases = {row["phase"] for row in obs.profiler.hotspots()}
        assert phases == {"admission", "forward", "page_gather", "quantize_append",
                          "sampling", "release"}
        shares = [row["share"] for row in obs.profiler.hotspots()
                  if row["share"] is not None]
        assert sum(shares) == pytest.approx(1.0)

    def test_profiler_reaches_the_kv_cache(self, tiny_inference_model):
        """attach wraps the engine's own cache, not the cache class."""
        obs = Observability.enabled()
        engine = _engine(tiny_inference_model, obs)
        bare = _engine(tiny_inference_model, None)
        wrapped = {"context", "_quantize_rows"}
        assert wrapped <= set(vars(engine.cache))
        assert not wrapped & set(vars(bare.cache))
        engine.cache.context(0, [0], 0)
        bare.cache.context(0, [0], 0)
        assert obs.profiler.calls[PAGE_GATHER] == 1

    def test_metric_labels_flow_from_the_bundle(self, tiny_inference_model):
        obs = Observability.enabled(labels={"replica": "r7"})
        engine = _engine(tiny_inference_model, obs)
        for request in _requests(n=1):
            engine.submit(request)
        engine.run()
        snap = obs.registry.snapshot()
        assert snap["engine_decode_tokens_total{replica=r7}"] > 0
