"""Tests that registry dispatch is numerically identical to the legacy calls."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bbfp import BBFPConfig, bbfp_quantize_dequantize
from repro.core.bie import BiEConfig, bie_quantize_dequantize
from repro.core.blockfp import BFPConfig, bfp_quantize_dequantize
from repro.core.exponent_selection import ExponentStrategy
from repro.core.floatspec import FP8_E4M3
from repro.core.fp_formats import minifloat_quantize_dequantize
from repro.core.integer import Granularity, IntQuantConfig, int_quantize_dequantize
from repro.core.microscaling import MXFP4, mx_quantize_dequantize
from repro.core.rounding import RoundingMode
from repro.quant import QuantizedTensor, get_quantizer


@pytest.fixture
def activation(rng):
    x = rng.standard_normal((4, 128))
    x[:, ::32] *= 25.0
    return x


LEGACY_EQUIVALENTS = [
    (BBFPConfig(4, 2), lambda x: bbfp_quantize_dequantize(x, BBFPConfig(4, 2), axis=-1)),
    (BFPConfig(6), lambda x: bfp_quantize_dequantize(x, BFPConfig(6), axis=-1)),
    (BiEConfig(4), lambda x: bie_quantize_dequantize(x, BiEConfig(4), axis=-1)),
    (IntQuantConfig(8), lambda x: int_quantize_dequantize(x, IntQuantConfig(8))),
    (FP8_E4M3, lambda x: minifloat_quantize_dequantize(x, FP8_E4M3)),
    (MXFP4, lambda x: mx_quantize_dequantize(x, MXFP4, axis=-1)),
]


@st.composite
def block_float_configs(draw):
    """BBFP and BFP configs over every strategy, rounding mode and field width."""
    m = draw(st.integers(min_value=1, max_value=8))
    fields = dict(
        block_size=draw(st.sampled_from([1, 2, 3, 8, 16, 32])),
        exponent_bits=draw(st.integers(min_value=2, max_value=11)),
        exponent_strategy=draw(st.sampled_from(list(ExponentStrategy))),
        rounding=draw(st.sampled_from(list(RoundingMode))),
    )
    if draw(st.booleans()):
        return BBFPConfig(m, draw(st.integers(min_value=0, max_value=m - 1)), **fields)
    return BFPConfig(m, **fields)


#: Powers of two and their lower neighbours: the flag boundary
#: ``|x| >= 2**(E_shared + 1)`` and the rounding ties sit on them.
_POWERS = st.builds(lambda e, below, sign: sign * (np.nextafter(2.0 ** e, 0.0) if below
                                                  else 2.0 ** e),
                    st.integers(min_value=-20, max_value=20), st.booleans(),
                    st.sampled_from([-1.0, 1.0]))
_ELEMENTS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308]),
    _POWERS,
)


@st.composite
def block_float_inputs(draw):
    """``(x, axis)``: any rank up to 3, lengths that need not divide the block."""
    ndim = draw(st.integers(min_value=0, max_value=3))
    axis = draw(st.integers(min_value=-ndim, max_value=ndim - 1)) if ndim else -1
    shape = [draw(st.integers(min_value=0, max_value=4)) for _ in range(ndim)]
    if ndim:
        shape[axis] = draw(st.integers(min_value=0, max_value=70))
    x = draw(hnp.arrays(np.float64, tuple(shape), elements=_ELEMENTS))
    # powers of two keep the flag-boundary values on their boundaries
    x = x * draw(st.sampled_from([2.0 ** -34, 1.0, 2.0 ** 34]))
    # a zeroed prefix in C order: whole all-zero blocks when it covers them
    x.reshape(-1)[:draw(st.integers(min_value=0, max_value=x.size))] = 0.0
    return x, axis


class TestNumericalEquivalence:
    @pytest.mark.parametrize("config, legacy", LEGACY_EQUIVALENTS,
                             ids=lambda arg: getattr(arg, "name", ""))
    def test_quantize_dequantize_matches_legacy_free_function(self, activation, config, legacy):
        quantizer = get_quantizer(config)
        assert np.array_equal(quantizer.quantize_dequantize(activation, axis=-1),
                              legacy(activation))

    @pytest.mark.parametrize("config, legacy", LEGACY_EQUIVALENTS,
                             ids=lambda arg: getattr(arg, "name", ""))
    def test_encode_decode_matches_fused_path(self, activation, config, legacy):
        quantizer = get_quantizer(config)
        encoded = quantizer.quantize(activation, axis=-1)
        assert np.array_equal(encoded.dequantize(),
                              quantizer.quantize_dequantize(activation, axis=-1))

    @settings(max_examples=300, deadline=None)
    @given(config=block_float_configs(), data=block_float_inputs(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(config=BFPConfig(1, block_size=2, exponent_bits=10),
             data=(np.float64(1.2343753898694665e-136), -1), seed=0)
    def test_fused_kernel_matches_the_encoder_bit_for_bit(self, config, data, seed):
        """BBFP/BFP fake quantisation returns exactly ``quantize(x).dequantize()``.

        The int64 view makes -0.0 against +0.0 a mismatch; stochastic
        rounding runs on equal seeds.  The explicit example is a value below
        ``2**-127`` padded with a zero under a 10-bit exponent field, where
        the encoder's zero exponent sets the shared exponent.
        """
        x, axis = data
        quantizer = get_quantizer(config)
        fused = quantizer.quantize_dequantize(x, axis=axis, rng=np.random.default_rng(seed))
        free = (bbfp_quantize_dequantize if isinstance(config, BBFPConfig)
                else bfp_quantize_dequantize)(x, config, axis=axis,
                                              rng=np.random.default_rng(seed))
        encoded = quantizer.quantize(x, axis=axis, rng=np.random.default_rng(seed))
        decoded = encoded.dequantize()
        assert fused.shape == free.shape == decoded.shape == x.shape
        assert np.array_equal(fused.view(np.int64), decoded.view(np.int64))
        assert np.array_equal(free.view(np.int64), decoded.view(np.int64))

    def test_stochastic_rounding_threads_the_rng(self, activation):
        config = BBFPConfig(4, 2, rounding=RoundingMode.STOCHASTIC)
        quantizer = get_quantizer(config)
        a = quantizer.quantize_dequantize(activation, rng=np.random.default_rng(7))
        b = bbfp_quantize_dequantize(activation, config, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestQuantizedTensor:
    def test_container_reports_shape_spec_and_memory(self, activation):
        encoded = get_quantizer("BBFP(4,2)").quantize(activation)
        assert isinstance(encoded, QuantizedTensor)
        assert encoded.shape == activation.shape
        assert encoded.spec == "BBFP(4,2)"
        # m + sign + flag per element plus a 5-bit exponent per block of 32.
        elements = activation.size
        assert encoded.memory_bits() == elements * 6 + (elements // 32) * 5

    def test_int_payload_memory_accounts_for_scales(self, activation):
        per_block = IntQuantConfig(4, granularity=Granularity.PER_BLOCK, block_size=32)
        encoded = get_quantizer(per_block).quantize(activation, axis=-1)
        # 4 bits per code plus one FP16 scale per block of 32 — not per
        # element, even though int_quantize broadcasts the scale.
        blocks = activation.size // 32
        assert encoded.memory_bits() == activation.size * 4 + blocks * 16
        assert np.max(np.abs(encoded.dequantize() - activation)) < np.max(np.abs(activation))

    def test_per_tensor_int_stores_one_scale(self, activation):
        encoded = get_quantizer("int8").quantize(activation)
        assert encoded.memory_bits() == activation.size * 8 + 16

    def test_minifloat_payload_memory(self, activation):
        encoded = get_quantizer("fp8_e4m3").quantize(activation)
        assert encoded.memory_bits() == activation.size * 8

    def test_dequantize_restores_original_shape_along_any_axis(self, rng):
        x = rng.standard_normal((6, 40))
        for axis in (0, 1, -1):
            encoded = get_quantizer("bfp4").quantize(x, axis=axis)
            assert encoded.dequantize().shape == x.shape

    def test_int_per_block_blocks_along_requested_axis(self, rng):
        weight = rng.standard_normal((64, 8))
        weight[::16, :] *= 50.0
        per_block = IntQuantConfig(4, granularity=Granularity.PER_BLOCK, block_size=16)
        quantizer = get_quantizer(per_block)
        axis0 = quantizer.quantize_dequantize(weight, axis=0)
        axis_last = quantizer.quantize_dequantize(weight, axis=-1)
        assert np.array_equal(axis0, int_quantize_dequantize(weight.T, per_block).T)
        assert not np.array_equal(axis0, axis_last)


class TestSchemeIntegration:
    def test_scheme_from_spec_string_quantizes_along_the_right_axes(self, rng):
        from repro.llm.inference import QuantizationScheme

        scheme = QuantizationScheme.from_format("bbfp(4,2)")
        weight = rng.standard_normal((64, 8))
        expected = bbfp_quantize_dequantize(weight, BBFPConfig(4, 2), axis=0)
        assert np.array_equal(scheme.weight_fn("layer", weight), expected)

    def test_layerwise_scheme_accepts_spec_strings(self):
        from repro.search.layerwise import build_layerwise_scheme

        scheme = build_layerwise_scheme({"q_proj": "bfp6", "down_proj": "int8"})
        assert "BFP6" in scheme.name and "INT8" in scheme.name
