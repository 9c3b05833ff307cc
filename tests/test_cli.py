"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.bbfp import BBFPConfig
from repro.core.bie import BiEConfig
from repro.core.blockfp import BFPConfig
from repro.core.floatspec import FloatSpec
from repro.core.integer import IntQuantConfig
from repro.core.microscaling import MXConfig
from repro.quant import UnknownFormatError, parse_spec


class TestParseFormat:
    """The spec parser behind ``--formats``, ``--format`` and ``--strategy``."""

    @pytest.mark.parametrize(
        "text, expected_type",
        [
            ("BBFP(4,2)", BBFPConfig),
            ("bbfp(6,3)", BBFPConfig),
            ("BFP6", BFPConfig),
            ("INT8", IntQuantConfig),
            ("BiE4", BiEConfig),
            ("MXFP8", MXConfig),
            ("FP16", FloatSpec),
        ],
    )
    def test_recognised_spellings(self, text, expected_type):
        assert isinstance(parse_spec(text), expected_type)

    def test_bbfp_fields(self):
        config = parse_spec("BBFP(4,2)")
        assert (config.mantissa_bits, config.overlap_bits) == (4, 2)

    def test_unknown_format_raises(self):
        # UnknownFormatError is a ValueError, so argparse type= callables turn
        # it into a clean usage error.
        with pytest.raises(UnknownFormatError, match="unknown format"):
            parse_spec("FANCY13")

    def test_unknown_format_suggests_close_spec(self):
        with pytest.raises(UnknownFormatError, match="did you mean"):
            parse_spec("bffp(4,2)")


class TestIntegerFlags:
    @pytest.mark.parametrize("argv, message", [
        (["serve-bench", "--kv-page-size", "0"],
         "argument --kv-page-size: KV page size must be >= 1, got 0"),
        (["cluster-bench", "--replicas", "0"],
         "argument --replicas: fleet size must be >= 1, got 0"),
        (["chaos-bench", "--max-retries", "-1"],
         "argument --max-retries: max retries must be >= 0, got -1"),
        (["serve-bench", "--kv-page-size", "abc"],
         "argument --kv-page-size: invalid int value: 'abc'"),
    ])
    def test_out_of_range_or_non_integer_values_are_usage_errors(self, argv, message,
                                                                 capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"repro {argv[0]}: error: {message}")


class TestListCommand:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert "table2" in printed
        assert "fig8" in printed
        assert "ext_roofline" in printed

    def test_each_experiment_carries_a_description(self, capsys):
        assert main(["list"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) >= 22
        for line in lines:
            name, _, description = line.partition(" ")
            assert description.strip(), f"experiment {name!r} has no description"

    def test_run_dash_dash_list_prints_the_same_catalog(self, capsys):
        assert main(["list"]) == 0
        catalog = capsys.readouterr().out
        assert main(["run", "--list"]) == 0
        assert capsys.readouterr().out == catalog


class TestFormatsCommand:
    def test_default_table_mentions_bbfp_and_fp16(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "BBFP(4,2)" in out
        assert "FP16" in out
        assert "memory_efficiency" in out

    def test_explicit_format_selection(self, capsys):
        assert main(["formats", "--formats", "BBFP(6,3)", "BFP8"]) == 0
        out = capsys.readouterr().out
        assert "BBFP(6,3)" in out
        assert "BFP8" in out
        assert "FP16" not in out


class TestQuantizeCommand:
    def test_reports_error_metrics(self, capsys):
        assert main(["quantize", "--format", "BBFP(4,2)", "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "sqnr_db" in out
        assert "BBFP(4,2)" in out

    def test_supports_extension_formats(self, capsys):
        assert main(["quantize", "--format", "MXFP8", "--size", "256"]) == 0
        assert "MXFP8" in capsys.readouterr().out


class TestSimulateCommand:
    def test_simulates_bbfp_prefill(self, capsys):
        assert main(["simulate", "--strategy", "BBFP(4,2)", "--seq-len", "128",
                     "--pe-rows", "16", "--pe-cols", "16"]) == 0
        out = capsys.readouterr().out
        assert "throughput_gmacs" in out
        assert "BBFP(4,2)" in out

    def test_simulates_named_baseline(self, capsys):
        assert main(["simulate", "--strategy", "Oltron", "--seq-len", "128",
                     "--pe-rows", "8", "--pe-cols", "8", "--phase", "decode"]) == 0
        assert "Oltron" in capsys.readouterr().out

    def test_unknown_strategy_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--strategy", "FANCY"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "repro simulate: error: argument --strategy: unknown format" in err
        assert "Traceback" not in err


class TestRunCommand:
    def test_runs_a_cheap_experiment_and_saves_results(self, capsys, tmp_path):
        assert main(["run", "table1", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table1" in out or "table1" in out.lower()
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["rows"]

    def test_second_invocation_is_served_from_the_cache(self, capsys, tmp_path):
        assert main(["run", "table1", "--output-dir", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(["run", "table1", "--output-dir", str(tmp_path / "b")]) == 0
        assert "cached" in capsys.readouterr().out
        a = json.loads((tmp_path / "a" / "table1.json").read_text())
        b = json.loads((tmp_path / "b" / "table1.json").read_text())
        assert a == b

    def test_no_cache_forces_execution(self, capsys, tmp_path):
        assert main(["run", "table1", "--no-cache", "--output-dir", str(tmp_path)]) == 0
        assert "completed" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiments"]["table1"]["status"] == "completed"

    def test_parallel_jobs_match_serial_results(self, capsys, tmp_path):
        assert main(["run", "table1", "table3", "--no-cache", "--jobs", "2",
                     "--output-dir", str(tmp_path / "par")]) == 0
        assert main(["run", "table1", "table3", "--no-cache",
                     "--output-dir", str(tmp_path / "ser")]) == 0
        capsys.readouterr()
        for name in ("table1", "table3"):
            par = json.loads((tmp_path / "par" / f"{name}.json").read_text())
            ser = json.loads((tmp_path / "ser" / f"{name}.json").read_text())
            assert par == ser


class TestObsReport:
    def test_renders_a_trace_export(self, capsys, tmp_path):
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        tracer.name_track(0, "router")
        tracer.complete("decode", 0.010, 0.014, track=0)
        path = tmp_path / "trace.json"
        tracer.write(path)
        assert main(["obs-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "router" in out and "decode" in out

    def test_missing_file_is_a_clean_usage_error(self, capsys, tmp_path):
        assert main(["obs-report", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro obs-report: error:")

    def test_unrecognised_document_is_a_clean_usage_error(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"rows": []}')
        assert main(["obs-report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not a trace export" in err
