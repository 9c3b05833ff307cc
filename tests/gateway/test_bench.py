"""The gateway_bench driver: sweep rows, leak enforcement, catalog and CLI wiring."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.gateway.bench import (
    default_gateway_config,
    default_gateway_workload,
    default_rates,
    gateway_sweep,
)
from repro.gateway.driver import GatewayConfig
from repro.serve.engine import EngineConfig
from repro.serve.workload import WorkloadConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

ROW_KEYS = ("arrival_rate", "requests", "completed", "shed", "cancelled",
            "errors", "goodput_rps", "shed_rate", "ttft_p50_ms", "ttft_p95_ms",
            "itl_p50_ms", "itl_p95_ms", "cancel_reclaim_p50_ms",
            "kv_leaked_pages", "server_shed", "server_completed")


class TestDefaults:
    def test_model_names_track_the_mode(self):
        from repro.experiments.common import serving_model_name

        assert serving_model_name(True) == "Llama-1B"
        assert serving_model_name(False) == "Llama-7B"

    def test_rate_grids_are_sorted_for_knee_detection(self):
        for fast in (True, False):
            rates = default_rates(fast)
            assert list(rates) == sorted(rates)

    def test_default_shapes_construct(self):
        assert default_gateway_workload(True).num_requests == 12
        assert default_gateway_config(True).max_queue_depth == 6
        assert default_gateway_config(False, "drop_oldest").shed_policy == \
            "drop_oldest"


class TestSweep:
    def test_two_rate_sweep_produces_full_rows_without_leaks(
            self, tiny_inference_model):
        rows = asyncio.run(gateway_sweep(
            tiny_inference_model,
            rates=(50.0, 200.0),
            workload=WorkloadConfig(num_requests=6, arrival_rate=50.0,
                                    prompt_tokens=(3, 8), new_tokens=(2, 5),
                                    seed=0),
            engine_config=EngineConfig(max_batch_size=2, kv_page_size=4),
            gateway_config=GatewayConfig(max_queue_depth=16,
                                         drain_timeout_s=5.0),
            cancel_every=3,
        ))
        assert [row["arrival_rate"] for row in rows] == [50.0, 200.0]
        for row in rows:
            for key in ROW_KEYS:
                assert key in row, key
            assert row["requests"] == 6
            assert row["errors"] == 0
            assert row["kv_leaked_pages"] == 0
            assert np.isfinite(row["goodput_rps"])


class TestCatalogWiring:
    def test_model_dependency_is_declared_for_the_scheduler(self):
        from repro.experiments.common import experiment_model_specs

        assert experiment_model_specs("gateway_bench", fast=True) == ("Llama-1B",)
        assert experiment_model_specs("gateway_bench", fast=False) == ("Llama-7B",)

    def test_driver_is_registered_in_the_catalog(self):
        from repro.experiments.runner import EXPERIMENTS, experiment_descriptions

        assert "gateway_bench" in EXPERIMENTS
        assert experiment_descriptions()["gateway_bench"]


class TestCLISmoke:
    def _run_repro(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", "")
        env["REPRO_FAST"] = "1"
        return subprocess.run([sys.executable, "-m", "repro", *args],
                              capture_output=True, text=True, timeout=300,
                              cwd=REPO_ROOT, env=env)

    def test_gateway_bench_fast_subprocess(self, tmp_path):
        result = self._run_repro("gateway-bench", "--fast", "--num-requests", "4",
                                 "--rates", "50", "200", "--cancel-every", "0",
                                 "--output-dir", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert "Gateway-Bench" in result.stdout
        assert "goodput_rps" in result.stdout
        assert (tmp_path / "out" / "gateway-bench.json").exists()
