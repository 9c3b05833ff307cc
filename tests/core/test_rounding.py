"""Tests for the mantissa rounding modes (repro.core.rounding)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bbfp import BBFPConfig, bbfp_quantize_dequantize, quantize_bbfp
from repro.core.block_kernel import BlockKernel
from repro.core.blockfp import BFPConfig, bfp_quantize_dequantize, quantize_bfp
from repro.core.rounding import RoundingMode, round_magnitudes, rounding_from_name
from repro.quant import get_quantizer


class TestRoundingFromName:
    def test_accepts_enum(self):
        assert rounding_from_name(RoundingMode.TRUNCATE) is RoundingMode.TRUNCATE

    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("nearest", RoundingMode.NEAREST),
            ("RNE", RoundingMode.NEAREST),
            ("truncate", RoundingMode.TRUNCATE),
            ("floor", RoundingMode.TRUNCATE),
            ("stochastic", RoundingMode.STOCHASTIC),
            ("sr", RoundingMode.STOCHASTIC),
        ],
    )
    def test_aliases(self, alias, expected):
        assert rounding_from_name(alias) is expected

    def test_unknown_alias_raises(self):
        with pytest.raises(ValueError, match="unknown rounding mode"):
            rounding_from_name("banker")


class TestRoundMagnitudes:
    def test_nearest_matches_rint(self, rng):
        mags = rng.random(256) * 15.0
        np.testing.assert_array_equal(
            round_magnitudes(mags, RoundingMode.NEAREST), np.rint(mags)
        )

    def test_truncate_matches_floor(self, rng):
        mags = rng.random(256) * 15.0
        np.testing.assert_array_equal(
            round_magnitudes(mags, RoundingMode.TRUNCATE), np.floor(mags)
        )

    def test_truncate_never_exceeds_nearest(self, rng):
        mags = rng.random(512) * 7.0
        trunc = round_magnitudes(mags, RoundingMode.TRUNCATE)
        near = round_magnitudes(mags, RoundingMode.NEAREST)
        assert np.all(trunc <= near)

    def test_stochastic_brackets_value(self, rng):
        mags = rng.random(512) * 7.0
        out = round_magnitudes(mags, RoundingMode.STOCHASTIC, rng=np.random.default_rng(3))
        assert np.all(out >= np.floor(mags))
        assert np.all(out <= np.ceil(mags))

    def test_stochastic_is_unbiased_in_expectation(self):
        value = np.full(200_000, 2.3)
        out = round_magnitudes(value, RoundingMode.STOCHASTIC, rng=np.random.default_rng(11))
        assert abs(out.mean() - 2.3) < 0.01

    def test_stochastic_default_rng_is_deterministic(self):
        mags = np.linspace(0.0, 5.0, 97)
        first = round_magnitudes(mags, RoundingMode.STOCHASTIC)
        second = round_magnitudes(mags, RoundingMode.STOCHASTIC)
        np.testing.assert_array_equal(first, second)

    def test_exact_integers_are_preserved_by_all_modes(self):
        mags = np.arange(16, dtype=np.float64)
        for mode in RoundingMode:
            np.testing.assert_array_equal(round_magnitudes(mags, mode), mags)

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            round_magnitudes(np.array([-0.5, 1.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_error_bounded_by_one_step(self, value):
        mags = np.array([value])
        for mode in RoundingMode:
            out = round_magnitudes(mags, mode, rng=np.random.default_rng(0))
            assert abs(out[0] - value) < 1.0 or abs(out[0] - value) == pytest.approx(0.5)


class TestQuantiserIntegration:
    def test_default_configs_use_nearest(self):
        assert BFPConfig(4).rounding is RoundingMode.NEAREST
        assert BBFPConfig(4, 2).rounding is RoundingMode.NEAREST

    def test_bfp_truncation_error_at_least_nearest(self, outlier_tensor):
        near = bfp_quantize_dequantize(outlier_tensor, BFPConfig(4))
        trunc = bfp_quantize_dequantize(
            outlier_tensor, BFPConfig(4, rounding=RoundingMode.TRUNCATE)
        )
        mse_near = float(np.mean((outlier_tensor - near) ** 2))
        mse_trunc = float(np.mean((outlier_tensor - trunc) ** 2))
        assert mse_trunc >= mse_near

    def test_bbfp_truncation_error_at_least_nearest(self, outlier_tensor):
        near = bbfp_quantize_dequantize(outlier_tensor, BBFPConfig(4, 2))
        trunc = bbfp_quantize_dequantize(
            outlier_tensor, BBFPConfig(4, 2, rounding=RoundingMode.TRUNCATE)
        )
        mse_near = float(np.mean((outlier_tensor - near) ** 2))
        mse_trunc = float(np.mean((outlier_tensor - trunc) ** 2))
        assert mse_trunc >= mse_near

    def test_truncated_codes_never_exceed_nearest_codes(self, rng):
        x = rng.standard_normal(4 * 32)
        near = quantize_bbfp(x, BBFPConfig(4, 2))
        trunc = quantize_bbfp(x, BBFPConfig(4, 2, rounding=RoundingMode.TRUNCATE))
        assert np.all(trunc.mantissas <= near.mantissas)

    def test_stochastic_bfp_stays_on_grid(self, rng):
        x = rng.standard_normal(8 * 32)
        config = BFPConfig(4, rounding=RoundingMode.STOCHASTIC)
        quantized = quantize_bfp(x, config, rng=np.random.default_rng(5))
        assert quantized.mantissas.max() <= config.max_mantissa_level
        assert quantized.mantissas.min() >= 0

    def test_stochastic_bbfp_expectation_close_to_value(self):
        # Averaging many stochastic quantisations should approach the input.
        x = np.full(32, 0.37)
        config = BBFPConfig(4, 2, rounding=RoundingMode.STOCHASTIC)
        reps = [
            bbfp_quantize_dequantize(x, config, rng=np.random.default_rng(seed))
            for seed in range(200)
        ]
        mean = np.mean(reps, axis=0)
        assert np.allclose(mean, x, rtol=0.05)

    def test_rounding_mode_participates_in_config_equality(self):
        assert BFPConfig(4) != BFPConfig(4, rounding=RoundingMode.TRUNCATE)
        assert BBFPConfig(4, 2) == BBFPConfig(4, 2, rounding=RoundingMode.NEAREST)


class TestExactTies:
    """``NEAREST`` is ``np.rint``: a code exactly halfway between two rounds to the even one."""

    @pytest.mark.parametrize("spec, encode, step", [
        # a block max of 1.75 sets the shared exponent: -2 for BBFP(4,2), whose
        # low group steps by 2**(-2 - 3); 0 for bfp8, which steps by 2**(0 - 7)
        ("BBFP(4,2)", quantize_bbfp, 2.0 ** -5),
        ("bfp8", quantize_bfp, 2.0 ** -7),
    ], ids=["BBFP(4,2)", "bfp8"])
    def test_encoder_and_fused_kernel_round_ties_to_even(self, spec, encode, step):
        config = get_quantizer(spec).config
        ties = np.array([0.5, 1.5, 2.5, 3.5])
        x = np.zeros(config.block_size)
        x[0] = 1.75
        x[1:5], x[5:9] = ties * step, -ties * step
        rounded = np.array([0.0, 2.0, 2.0, 4.0]) * step
        expected = x.copy()
        expected[1:5], expected[5:9] = rounded, -rounded
        np.testing.assert_array_equal(encode(x, config).dequantize(), expected)
        np.testing.assert_array_equal(BlockKernel(config).quantize_dequantize(x), expected)
        np.testing.assert_array_equal(get_quantizer(spec).quantize_dequantize(x), expected)
