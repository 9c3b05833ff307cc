"""Tests for the format registry, the spec-string grammar and memoization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bbfp import BBFPConfig
from repro.core.bie import BiEConfig
from repro.core.blockfp import BFPConfig
from repro.core.floatspec import FP8_E4M3, FP16, FloatSpec
from repro.core.integer import Granularity, IntQuantConfig
from repro.core.microscaling import MXFP4, MXFP6_E3M2, MXConfig
from repro.core.rounding import RoundingMode
from repro.quant import (
    Quantizer,
    UnknownFormatError,
    family_of,
    get_quantizer,
    list_formats,
    parse_spec,
    registered_families,
    spec_of,
)

#: Every example spec of every registered family (includes the lazy baselines).
ALL_EXAMPLE_SPECS = [
    spec for entry in list_formats() for spec in entry["example_specs"]
]

#: One representative config per core family, used by completeness checks.
CORE_CONFIGS = [
    BBFPConfig(4, 2),
    BFPConfig(6),
    IntQuantConfig(8),
    FP8_E4M3,
    MXFP4,
    BiEConfig(4),
]


class TestParseSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("BBFP(4,2)", BBFPConfig(4, 2)),
            ("bbfp(6,3)", BBFPConfig(6, 3)),
            ("BBFP(4,2,4)", BBFPConfig(4, 2, exponent_bits=4)),
            ("bbfp(4,2)@b16", BBFPConfig(4, 2, block_size=16)),
            ("BFP6", BFPConfig(6)),
            ("bfp8@b32", BFPConfig(8)),
            ("bfp8@b16@e4", BFPConfig(8, block_size=16, exponent_bits=4)),
            ("int8", IntQuantConfig(8)),
            ("INT8@pc", IntQuantConfig(8, granularity=Granularity.PER_CHANNEL)),
            ("int4@b64", IntQuantConfig(4, granularity=Granularity.PER_BLOCK, block_size=64)),
            ("int8@c0.9", IntQuantConfig(8, clip_ratio=0.9)),
            ("fp16", FP16),
            ("FP8_E4M3", FP8_E4M3),
            ("fp8", FP8_E4M3),
            ("mxfp4", MXFP4),
            ("MXFP6", MXFP6_E3M2),
            ("mxfp6_e3m2", MXFP6_E3M2),
            ("bie4", BiEConfig(4)),
            ("BiE4(k=2)", BiEConfig(4)),
            ("bie6@k3", BiEConfig(6, outlier_count=3)),
        ],
    )
    def test_grammar(self, spec, expected):
        assert parse_spec(spec) == expected

    def test_whitespace_and_case_insensitive(self):
        assert parse_spec(" bBfP( 4 , 2 ) ") == BBFPConfig(4, 2)

    @pytest.mark.parametrize("spec", ["FANCY13", "", "fp7", "bbfp(4)", "int8@zz9",
                                      "mxfp6_e9m9", "fp8_e9m9",
                                      # config-level validation errors funnel in too
                                      "bfp0", "int1", "mxfp8@b0",
                                      # float / bare values where ints are required
                                      "bfp8@b2.5", "bbfp(4,2)@e3.7", "bfp8@b",
                                      # contradictory or unsupported combinations
                                      "int8@pc@b32", "bbfp(4,2,6)@e3", "fp16@b32"])
    def test_malformed_or_unknown_raises_one_error_type(self, spec):
        with pytest.raises(UnknownFormatError, match="unknown format"):
            parse_spec(spec)

    def test_did_you_mean_suggestion(self):
        with pytest.raises(UnknownFormatError, match=r"did you mean 'bbfp\(4,2\)'"):
            parse_spec("bbpf(4,2)")

    def test_malformed_spec_errors_name_the_original_spelling(self):
        with pytest.raises(UnknownFormatError, match=r"'int8@zz9'.*unsupported modifiers"):
            parse_spec("int8@zz9")

    def test_lossless_clip_ratio_spec(self):
        config = IntQuantConfig(8, clip_ratio=0.123456789)
        assert parse_spec(config.spec) == config
        tiny = IntQuantConfig(8, clip_ratio=1e-05)
        assert parse_spec(tiny.spec) == tiny

    def test_non_string_rejected(self):
        with pytest.raises(UnknownFormatError):
            parse_spec(1234)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", ALL_EXAMPLE_SPECS)
    def test_parse_spec_of_canonical_spec_round_trips(self, spec):
        config = parse_spec(spec)
        assert parse_spec(spec_of(config)) == config

    @pytest.mark.parametrize("spec", ALL_EXAMPLE_SPECS)
    def test_quantizer_spec_matches_config_spec(self, spec):
        quantizer = get_quantizer(spec)
        assert quantizer.spec == spec_of(quantizer.config)
        assert parse_spec(quantizer.spec) == quantizer.config

    @pytest.mark.parametrize("config", CORE_CONFIGS, ids=lambda c: type(c).__name__)
    def test_config_spec_property(self, config):
        assert parse_spec(config.spec) == config

    def test_relabelled_specs_still_round_trip(self):
        # Display names are cosmetic: a FloatSpec (or MX element) with a
        # non-canonical label still gets a parseable, equal-config spec.
        relabelled = FloatSpec("E4M3", 4, 3)
        assert parse_spec(relabelled.spec) == relabelled
        assert relabelled == FP8_E4M3
        wrapped = MXConfig(FP16)
        assert wrapped.spec == "mxfp16_e5m10"
        assert parse_spec(wrapped.spec) == wrapped

    def test_non_default_fields_survive_the_round_trip(self):
        for config in (
            BBFPConfig(5, 2, block_size=16, exponent_bits=6),
            BFPConfig(7, block_size=8, exponent_bits=4),
            IntQuantConfig(6, granularity=Granularity.PER_BLOCK, block_size=16, clip_ratio=0.95),
            BiEConfig(5, outlier_count=4, block_size=16),
            MXConfig(FloatSpec("FP5_E2M2", 2, 2), block_size=16, scale_bits=6),
        ):
            assert parse_spec(config.spec) == config


class TestRegistry:
    def test_every_core_family_is_registered(self):
        families = registered_families()
        for family in ("bbfp", "bfp", "int", "minifloat", "mx", "bie"):
            assert family in families

    @pytest.mark.parametrize("config", CORE_CONFIGS, ids=lambda c: type(c).__name__)
    def test_every_core_config_type_dispatches(self, config):
        quantizer = get_quantizer(config)
        assert isinstance(quantizer, Quantizer)
        assert quantizer.config == config
        assert quantizer.bits_per_element() > 0

    def test_family_of(self):
        assert family_of(BBFPConfig(4, 2)) == "bbfp"
        assert family_of("mxfp8") == "mx"

    def test_list_formats_reports_example_specs(self):
        entries = {entry["family"]: entry for entry in list_formats()}
        assert "bbfp(4,2)" in entries["bbfp"]["example_specs"]
        assert entries["minifloat"]["config_type"] == "FloatSpec"

    def test_baseline_families_register_lazily(self):
        quantizer = get_quantizer("oltron4")
        assert quantizer.family == "oltron"
        assert get_quantizer("olive4").bits_per_element() == 4.0


class TestMemoization:
    def test_same_spec_returns_same_instance(self):
        assert get_quantizer("BBFP(4,2)") is get_quantizer("bbfp( 4,2 )")

    def test_config_and_spec_share_the_instance(self):
        assert get_quantizer(BBFPConfig(4, 2)) is get_quantizer("BBFP(4,2)")

    def test_quantizer_passthrough(self):
        quantizer = get_quantizer("bfp6")
        assert get_quantizer(quantizer) is quantizer

    def test_distinct_configs_get_distinct_instances(self):
        assert get_quantizer("bfp6") is not get_quantizer("bfp4")

    def test_relabelled_configs_keep_their_display_name(self):
        # Labels are excluded from config equality but the cache must not
        # merge them, or whichever label was seen first would win globally.
        canonical = get_quantizer(FP8_E4M3)
        custom = get_quantizer(FloatSpec("MyCustomFP8", 4, 3))
        assert canonical.name == "FP8_E4M3"
        assert custom.name == "MyCustomFP8"
        assert canonical is not custom
        assert canonical.config == custom.config


class TestBatchSeparable:
    @pytest.mark.parametrize(
        "spec", ALL_EXAMPLE_SPECS + [BBFPConfig(4, 2, rounding=RoundingMode.STOCHASTIC)]
    )
    def test_property_matches_stacked_versus_per_slice_quantisation(self, spec):
        """True exactly when one call on a stack equals per-slice calls bit for bit."""
        rng = np.random.default_rng(0)
        # (K/V side, rows, heads, positions, head_dim): a row slice is 240
        # elements, so Olive's 128-element groups straddle slices
        stack = rng.standard_normal((2, 3, 2, 3, 40))
        stack[1, 2] *= 1000.0  # one outlier-heavy slice
        quantizer = get_quantizer(spec)
        stacked = quantizer.quantize_dequantize(stack, axis=-1)
        per_slice = np.stack([
            np.stack([quantizer.quantize_dequantize(row, axis=-1) for row in side])
            for side in stack
        ])
        assert quantizer.batch_separable == np.array_equal(stacked, per_slice)
