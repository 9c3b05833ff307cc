"""The open-loop load generator: config, knee detection, end-to-end replay."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.gateway.driver import Gateway, GatewayConfig
from repro.gateway.loadgen import (
    LoadGenConfig,
    RequestOutcome,
    find_saturation_knee,
    loadgen,
    run_loadgen,
)
from repro.gateway.server import GatewayServer
from repro.serve.engine import EngineConfig, ServeEngine, WallClock
from repro.serve.workload import WorkloadConfig
from tests.gateway import shutdown


class TestConfig:
    def test_open_loop_requires_a_positive_rate(self):
        with pytest.raises(ValueError, match="> 0"):
            LoadGenConfig(workload=WorkloadConfig(arrival_rate=0.0))
        with pytest.raises(ValueError, match="arrival_rate"):
            LoadGenConfig(workload=WorkloadConfig(arrival_rate=float("nan")))

    def test_validation(self):
        with pytest.raises(ValueError, match="cancel_every"):
            LoadGenConfig(cancel_every=-1)
        with pytest.raises(ValueError, match="cancel_after_tokens"):
            LoadGenConfig(cancel_after_tokens=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            LoadGenConfig(timeout_s=0.0)
        with pytest.raises(ValueError, match="time_scale"):
            LoadGenConfig(time_scale=0.0)


class TestOutcome:
    def test_latency_views(self):
        outcome = RequestOutcome(request_id=0, status=200, state="DONE",
                                 tokens=(1, 2, 3), token_times=(0.1, 0.15, 0.25))
        assert outcome.ok and not outcome.shed
        assert outcome.ttft_s == 0.1
        np.testing.assert_allclose(outcome.inter_token_s, [0.05, 0.1])

    def test_shed_covers_429_and_displaced_streams(self):
        assert RequestOutcome(request_id=0, status=429).shed
        assert RequestOutcome(request_id=0, status=200, state="SHED").shed
        assert not RequestOutcome(request_id=0, status=200, state="DONE").shed


class TestKneeDetection:
    def test_monotone_goodput_has_no_knee_yet(self):
        assert find_saturation_knee([1, 2, 4, 8], [1.0, 2.0, 3.9, 7.5]) == 3

    def test_plateau_is_the_knee(self):
        assert find_saturation_knee([1, 2, 4, 8], [1.0, 2.0, 2.05, 2.0]) == 2

    def test_goodput_collapse_is_the_knee(self):
        assert find_saturation_knee([1, 2, 4], [5.0, 2.0, 1.0]) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            find_saturation_knee([1, 2], [1.0])
        with pytest.raises(ValueError, match="non-empty"):
            find_saturation_knee([], [])
        with pytest.raises(ValueError, match="sorted"):
            find_saturation_knee([2, 1], [1.0, 2.0])


class TestEndToEnd:
    def test_replay_with_cancels_measures_reclaim_and_leaks_nothing(
            self, tiny_inference_model):
        async def scenario():
            engine = ServeEngine(tiny_inference_model,
                                 EngineConfig(max_batch_size=2, kv_page_size=4),
                                 clock=WallClock())
            server = GatewayServer(Gateway(engine,
                                           GatewayConfig(drain_timeout_s=5.0)),
                                   port=0)
            await server.start()
            config = LoadGenConfig(
                workload=WorkloadConfig(num_requests=8, arrival_rate=200.0,
                                        prompt_tokens=(3, 8), new_tokens=(3, 6),
                                        seed=2),
                cancel_every=4, cancel_after_tokens=1)
            report = await loadgen(server.host, server.port,
                                   tiny_inference_model.config.vocab_size, config)
            stats = await shutdown(server)
            return report, stats

        report, stats = asyncio.run(scenario())
        summary = report.summary()
        assert summary["requests"] == 8
        assert summary["errors"] == 0
        assert summary["completed"] + summary["cancelled"] + summary["shed"] == 8
        assert summary["goodput_rps"] > 0
        assert np.isfinite(summary["ttft_p50_ms"])
        # every 4th request issued a cancel; its round trip was measured
        measured = [o for o in report.outcomes if o.cancel_latency_s is not None]
        assert len(measured) == 2
        assert stats["kv_leaked_pages"] == 0

    def test_run_loadgen_blocking_entry(self, tiny_inference_model):
        # run_loadgen spins its own event loop, so the server lives on a
        # second loop in a background thread for the duration of the replay
        started = threading.Event()
        box = {}

        def serve():
            async def main():
                engine = ServeEngine(tiny_inference_model,
                                     EngineConfig(max_batch_size=2,
                                                  kv_page_size=4),
                                     clock=WallClock())
                server = GatewayServer(
                    Gateway(engine, GatewayConfig(drain_timeout_s=5.0)), port=0)
                await server.start()
                box["host"], box["port"] = server.host, server.port
                box["loop"] = asyncio.get_running_loop()
                box["stop"] = asyncio.Event()
                started.set()
                await box["stop"].wait()
                box["stats"] = await shutdown(server)

            asyncio.run(main())

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            assert started.wait(timeout=10)
            config = LoadGenConfig(
                workload=WorkloadConfig(num_requests=3, arrival_rate=100.0,
                                        prompt_tokens=(3, 6), new_tokens=(2, 4)))
            report = run_loadgen(box["host"], box["port"],
                                 tiny_inference_model.config.vocab_size, config)
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(timeout=10)
        assert all(o.ok for o in report.outcomes)
        assert box["stats"]["completed"] == 3

    def test_time_scale_compresses_the_replay(self, tiny_inference_model):
        async def scenario():
            engine = ServeEngine(tiny_inference_model,
                                 EngineConfig(max_batch_size=2, kv_page_size=4),
                                 clock=WallClock())
            server = GatewayServer(Gateway(engine,
                                           GatewayConfig(drain_timeout_s=5.0)),
                                   port=0)
            await server.start()
            base = WorkloadConfig(num_requests=4, arrival_rate=20.0,
                                  prompt_tokens=(3, 5), new_tokens=(2, 3))
            config = LoadGenConfig(workload=base, time_scale=0.05)
            report = await loadgen(server.host, server.port,
                                   tiny_inference_model.config.vocab_size, config)
            await shutdown(server)
            return report

        report = asyncio.run(scenario())
        # 4 arrivals at 20 rps span ~0.1s of trace time; scaled by 0.05 the
        # whole replay (including service) finishes far inside one second
        assert report.elapsed_s < 1.0
        assert report.offered_rate == pytest.approx(400.0)
