"""The serve_bench driver: quantised-KV quality, rows, pipeline and CLI wiring."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.llm.perplexity import EvalConfig, evaluate_perplexity
import repro.serve.bench
from repro.serve.bench import kv_cached_perplexity, serve_bench
from repro.serve.engine import EngineConfig, ServeEngine, VirtualClock, WallClock
from repro.serve.workload import WorkloadConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

_EVAL = EvalConfig(batch_size=4, seq_len=32, max_batches=2)


class TestQuantisedKVPerplexity:
    def test_unquantised_kv_matches_the_offline_perplexity(
        self, tiny_inference_model, small_corpus
    ):
        offline = evaluate_perplexity(tiny_inference_model, small_corpus, _EVAL)
        cached = kv_cached_perplexity(tiny_inference_model, small_corpus, kv_spec=None,
                                      eval_config=_EVAL)
        assert cached == pytest.approx(offline, rel=1e-9)

    def test_perplexity_degrades_monotonically_with_kv_precision(
        self, tiny_inference_model, small_corpus
    ):
        """Smoke: harsher KV quantisation can only hurt (int8 -> int4, bfp8 -> bfp4)."""
        ppl = {spec: kv_cached_perplexity(tiny_inference_model, small_corpus, kv_spec=spec,
                                          eval_config=_EVAL)
               for spec in (None, "int8", "int4", "bfp8@b32", "bfp4")}
        assert ppl["int4"] > ppl[None]
        assert ppl["int4"] > ppl["int8"]
        assert ppl["bfp4"] > ppl["bfp8@b32"]
        # 8-bit KV storage is near lossless on the tiny model
        assert ppl["int8"] == pytest.approx(ppl[None], rel=5e-3)
        assert ppl["bfp8@b32"] == pytest.approx(ppl[None], rel=5e-3)


class TestServeBenchRows:
    def test_rows_cover_every_spec_with_metrics(self, tiny_inference_model, small_corpus):
        rows = serve_bench(
            tiny_inference_model,
            kv_specs=(None, "int8"),
            workload=WorkloadConfig(num_requests=6, arrival_rate=100.0,
                                    prompt_tokens=(3, 8), new_tokens=(2, 5), seed=0),
            engine=EngineConfig(max_batch_size=3),
            corpus=small_corpus,
            eval_config=_EVAL,
        )
        assert [row["kv_cache"] for row in rows] == ["fp16", "INT8"]
        for row in rows:
            assert row["requests"] == 6
            for key in ("decode_tokens_per_s", "total_tokens_per_s", "ttft_p50_ms",
                        "ttft_p95_ms", "latency_p50_ms", "latency_p95_ms",
                        "kv_bits_per_token", "kv_perplexity"):
                assert np.isfinite(row[key]), key
        assert rows[1]["kv_bits_per_token"] < rows[0]["kv_bits_per_token"]
        assert rows[1]["kv_memory_efficiency"] > 1.0

    def test_every_spec_replays_the_identical_trace(self, tiny_inference_model):
        workload = WorkloadConfig(num_requests=5, arrival_rate=100.0,
                                  prompt_tokens=(3, 6), new_tokens=(2, 4), seed=1)
        rows = serve_bench(tiny_inference_model, kv_specs=(None, None),
                           workload=workload, engine=EngineConfig(max_batch_size=2))
        assert rows[0]["requests"] == rows[1]["requests"]
        assert rows[0]["kv_cache"] == rows[1]["kv_cache"] == "fp16"


class TestDeterministicClock:
    """The serve-bench clock option: virtual rows are machine-independent."""

    _WORKLOAD = WorkloadConfig(num_requests=6, arrival_rate=200.0,
                               prompt_tokens=(3, 8), new_tokens=(2, 5),
                               temperature=0.8, top_k=8, seed=2)

    def test_clock_names_resolve_and_unknown_names_raise(self, tiny_inference_model,
                                                         monkeypatch):
        clocks = []

        class RecordingEngine(ServeEngine):
            def __init__(self, *args, clock=None, **kwargs):
                clocks.append(type(clock))
                super().__init__(*args, clock=clock, **kwargs)

        monkeypatch.setattr(repro.serve.bench, "ServeEngine", RecordingEngine)
        for clock, expected in ((None, WallClock), ("wall", WallClock),
                                ("virtual", VirtualClock)):
            clocks.clear()
            rows = serve_bench(tiny_inference_model, kv_specs=(None,),
                               workload=self._WORKLOAD,
                               engine=EngineConfig(max_batch_size=3), clock=clock)
            assert clocks == [expected], clock
            assert rows[0]["requests"] == self._WORKLOAD.num_requests
        with pytest.raises(ValueError, match="unknown clock"):
            serve_bench(tiny_inference_model, clock="sundial")

    def test_virtual_clock_rows_are_identical_across_runs(self, tiny_inference_model):
        """Same seed + trace => byte-identical summary rows, run to run."""
        runs = [serve_bench(tiny_inference_model, kv_specs=(None, "int8"),
                            workload=self._WORKLOAD,
                            engine=EngineConfig(max_batch_size=3), clock="virtual")
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_trace_replay_is_invariant_across_kv_specs(self, tiny_inference_model):
        """Scheduling/latency columns depend only on the trace, not the KV spec.

        The fake-quantised cache stores dequantised values, so the virtual
        clock charges every spec the same token count: all scheduling-side
        columns must be bit-identical between specs, isolating the KV format
        to the memory/accuracy columns.
        """
        rows = serve_bench(tiny_inference_model, kv_specs=(None, "int8", "bfp8@b32"),
                           workload=self._WORKLOAD,
                           engine=EngineConfig(max_batch_size=3), clock="virtual")
        scheduling_keys = ("requests", "decode_tokens_per_s", "total_tokens_per_s",
                           "ttft_p50_ms", "ttft_p95_ms", "latency_p50_ms",
                           "latency_p95_ms", "peak_active")
        for row in rows[1:]:
            for key in scheduling_keys:
                assert row[key] == rows[0][key], key

    def test_driver_defaults_to_virtual_clock_in_fast_mode(self):
        from repro.serve.bench import run as serve_bench_run

        results = [serve_bench_run(fast=True, kv_specs=(None,), num_requests=4,
                                   arrival_rate=500.0) for _ in range(2)]
        assert results[0].metadata["clock"] == "virtual"
        assert results[0].rows == results[1].rows


class TestPipelineIntegration:
    def test_serve_bench_runs_under_the_cached_pipeline(self, tmp_path):
        """`repro run serve_bench` works: cached, manifest-tracked, resumable."""
        from repro.pipeline.run import run_experiments

        output_dir = tmp_path / "results"
        results = run_experiments(["serve_bench"], fast=True, output_dir=str(output_dir),
                                  jobs=1, verbose=False)
        assert "serve_bench" in results
        result = results["serve_bench"]
        assert len(result.rows) >= 2  # at least two KV-quantisation specs
        for row in result.rows:
            for key in ("ttft_p50_ms", "latency_p50_ms", "latency_p95_ms",
                        "decode_tokens_per_s"):
                assert np.isfinite(row[key])
        assert (output_dir / "serve-bench.json").exists()
        assert (output_dir / "manifest.json").exists()
        # second invocation must be served from the content-addressed cache
        second = run_experiments(["serve_bench"], fast=True,
                                 output_dir=str(tmp_path / "results2"), jobs=1,
                                 verbose=False)
        assert second["serve_bench"].rows == result.rows

    def test_model_dependency_is_declared_for_the_scheduler(self):
        from repro.experiments.common import experiment_model_specs

        assert experiment_model_specs("serve_bench", fast=True) == ("Llama-1B",)
        assert experiment_model_specs("serve_bench", fast=False) == ("Llama-7B",)

    def test_driver_is_registered_in_the_catalog(self):
        from repro.experiments.runner import EXPERIMENTS, experiment_descriptions

        assert "serve_bench" in EXPERIMENTS
        assert experiment_descriptions()["serve_bench"]


class TestCLISmoke:
    def _run_repro(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FAST"] = "1"
        return subprocess.run([sys.executable, "-m", "repro", *args],
                              capture_output=True, text=True, timeout=300,
                              cwd=REPO_ROOT, env=env)

    def test_serve_bench_fast_subprocess(self, tmp_path):
        result = self._run_repro("serve-bench", "--fast", "--num-requests", "5",
                                 "--arrival-rate", "100", "--kv-specs", "fp16", "int8",
                                 "--output-dir", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert "Serve-Bench" in result.stdout
        assert "decode_tokens_per_s" in result.stdout
        assert "INT8" in result.stdout
        # overrides must not lose the accuracy column of the registered driver
        assert "kv_perplexity" in result.stdout
        assert (tmp_path / "out" / "serve-bench.json").exists()

    def test_unknown_kv_spec_is_a_clean_usage_error(self):
        result = self._run_repro("serve-bench", "--fast", "--kv-specs", "fancy13")
        assert result.returncode != 0
        assert "unknown format" in result.stderr
        assert "Traceback" not in result.stderr
