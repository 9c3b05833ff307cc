"""Tests for the block reshaping helpers."""

import numpy as np
import pytest

from repro.core.blocking import from_blocks, to_blocks


class TestToBlocks:
    def test_exact_multiple(self, rng):
        x = rng.standard_normal((4, 64))
        blocks, layout = to_blocks(x, 32)
        assert blocks.shape == (4, 2, 32)
        assert layout.padded_length == 64

    def test_padding(self, rng):
        x = rng.standard_normal((3, 40))
        blocks, layout = to_blocks(x, 32)
        assert blocks.shape == (3, 2, 32)
        assert layout.padded_length == 64
        # Padded tail is zero.
        assert np.all(blocks[:, 1, 8:] == 0)

    def test_axis_zero(self, rng):
        x = rng.standard_normal((40, 3))
        blocks, layout = to_blocks(x, 16, axis=0)
        assert blocks.shape == (3, 3, 16)
        assert layout.axis == 0

    def test_negative_axis_normalised(self, rng):
        x = rng.standard_normal((2, 3, 48))
        _, layout = to_blocks(x, 16, axis=-1)
        assert layout.axis == 2

    def test_scalar_promoted(self):
        blocks, layout = to_blocks(5.0, 4)
        assert blocks.shape == (1, 4)
        assert layout.original_shape == ()
        restored = from_blocks(blocks, layout)
        assert restored.shape == ()
        assert restored == 5.0

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            to_blocks(np.ones(8), 0)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            to_blocks(np.ones((2, 8)), 4, axis=5)


class TestRoundTrip:
    @pytest.mark.parametrize("shape,axis", [((64,), -1), ((5, 40), -1), ((7, 33), 0),
                                            ((2, 3, 50), 1), ((1, 1), -1)])
    def test_roundtrip_preserves_values(self, rng, shape, axis):
        x = rng.standard_normal(shape)
        blocks, layout = to_blocks(x, 16, axis=axis)
        assert np.array_equal(from_blocks(blocks, layout), x)

    def test_roundtrip_with_block_larger_than_axis(self, rng):
        x = rng.standard_normal((3, 5))
        blocks, layout = to_blocks(x, 32)
        assert blocks.shape == (3, 1, 32)
        assert np.array_equal(from_blocks(blocks, layout), x)
