"""Tests for the paged (optionally quantised) K/V cache's slot and storage surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import get_quantizer
from repro.serve.kv_cache import PagedKVCache


class TestConstruction:
    def test_starts_empty(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=3)
        np.testing.assert_array_equal(cache.lengths, np.zeros(3, dtype=np.int64))
        assert cache.memory_bits() == 0.0
        assert cache.kv_spec == "fp16"

    def test_max_seq_len_defaults_to_model_limit(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=1)
        assert cache.max_seq_len == tiny_model_config.max_seq_len

    def test_invalid_shapes_rejected(self, tiny_model_config):
        with pytest.raises(ValueError, match="batch_size"):
            PagedKVCache(tiny_model_config, batch_size=0)
        with pytest.raises(ValueError, match="max_seq_len"):
            PagedKVCache(tiny_model_config, batch_size=1,
                         max_seq_len=tiny_model_config.max_seq_len + 1)

    def test_unknown_kv_spec_raises(self, tiny_model_config):
        with pytest.raises(ValueError, match="unknown format"):
            PagedKVCache(tiny_model_config, batch_size=1, kv_spec="fancy13")


class TestAppendAdvance:
    def _kv(self, config, batch, n_new, seed=0):
        rng = np.random.default_rng(seed)
        shape = (batch, config.n_heads, n_new, config.head_dim)
        return rng.standard_normal(shape), rng.standard_normal(shape)

    def test_append_then_context_round_trips(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=2)
        k, v = self._kv(tiny_model_config, 2, 5)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0, 1], k, v)
        cache.advance([0, 1], 5)
        k_ctx, v_ctx = cache.context(0, [0, 1], 5)
        np.testing.assert_array_equal(k_ctx, k)
        np.testing.assert_array_equal(v_ctx, v)
        np.testing.assert_array_equal(cache.lengths, [5, 5])

    def test_rows_are_independent(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=3)
        k, v = self._kv(tiny_model_config, 1, 4)
        cache.append(0, [1], k, v)
        cache.advance([1], 4)
        np.testing.assert_array_equal(cache.lengths, [0, 4, 0])
        cache.reset(rows=[1])
        np.testing.assert_array_equal(cache.lengths, [0, 0, 0])

    def test_append_past_capacity_raises(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=1, max_seq_len=4)
        k, v = self._kv(tiny_model_config, 1, 5)
        with pytest.raises(ValueError, match="overflows"):
            cache.append(0, [0], k, v)

    def test_advance_past_capacity_raises(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=1, max_seq_len=4)
        with pytest.raises(ValueError, match="capacity"):
            cache.advance([0], 5)

    def test_negative_advance_raises_and_leaves_the_row_intact(self, tiny_model_config):
        """A negative count would move the write offset before position 0."""
        cache = PagedKVCache(tiny_model_config, batch_size=1, page_size=4)
        k, v = self._kv(tiny_model_config, 1, 2)
        cache.append(0, [0], k, v)
        cache.advance([0], 2)
        with pytest.raises(ValueError, match="negative"):
            cache.advance([0], -5)
        np.testing.assert_array_equal(cache.lengths, [2])
        k2, v2 = self._kv(tiny_model_config, 1, 1, seed=1)
        cache.append(0, [0], k2, v2)
        cache.advance([0], 1)
        k_ctx, _ = cache.context(0, [0], 3)
        np.testing.assert_array_equal(k_ctx, np.concatenate([k, k2], axis=2))

    @pytest.mark.parametrize("num_blocks", [None, 16], ids=["home_pool", "small_pool"])
    @pytest.mark.parametrize("context_len", [-1, 33])
    def test_context_len_outside_capacity_raises(self, tiny_model_config, num_blocks,
                                                 context_len):
        """Rejected on both read paths; a view would silently come back short."""
        cache = PagedKVCache(tiny_model_config, batch_size=2, max_seq_len=32,
                             page_size=4, num_blocks=num_blocks)
        k, v = self._kv(tiny_model_config, 2, 3)
        cache.append(0, [0, 1], k, v)
        with pytest.raises(ValueError, match="context_len"):
            cache.context(0, [0, 1], context_len)


class TestQuantisedStorage:
    @pytest.mark.parametrize("kv_spec", ["int4", "BBFP(4,2)", "bfp8@b32"])
    def test_appended_values_are_fake_quantised(self, tiny_model_config, kv_spec):
        cache = PagedKVCache(tiny_model_config, batch_size=1, kv_spec=kv_spec)
        rng = np.random.default_rng(0)
        shape = (1, tiny_model_config.n_heads, 3, tiny_model_config.head_dim)
        k, v = rng.standard_normal(shape), rng.standard_normal(shape)
        cache.append(0, [0], k, v)
        cache.advance([0], 3)
        # the encoder's values, so the check never compares the fused
        # fake-quantisation kernel with itself
        quantizer = get_quantizer(kv_spec)
        k_ctx, v_ctx = cache.context(0, [0], 3)
        np.testing.assert_array_equal(k_ctx[0], quantizer.quantize(k, axis=-1).dequantize()[0])
        np.testing.assert_array_equal(v_ctx[0], quantizer.quantize(v, axis=-1).dequantize()[0])
        assert not np.array_equal(k_ctx[0], k[0])  # quantised storage is lossy

    @pytest.mark.parametrize("kv_spec", ["int8", "int8@pc"])
    def test_co_batched_rows_never_share_a_scale(self, tiny_model_config, kv_spec):
        """Scales spanning a row stay per row (and per side) in a batched append."""
        cache = PagedKVCache(tiny_model_config, batch_size=2, kv_spec=kv_spec)
        rng = np.random.default_rng(1)
        shape = (2, tiny_model_config.n_heads, 3, tiny_model_config.head_dim)
        magnitude = np.array([1.0, 1000.0])[:, None, None, None]
        k = rng.standard_normal(shape) * magnitude
        v = 10.0 * rng.standard_normal(shape) * magnitude
        cache.append(0, [0, 1], k, v)
        cache.advance([0, 1], 3)
        quantizer = get_quantizer(kv_spec)
        k_ctx, v_ctx = cache.context(0, [0, 1], 3)
        for row in range(2):
            np.testing.assert_array_equal(k_ctx[row], quantizer.quantize_dequantize(k[row]))
            np.testing.assert_array_equal(v_ctx[row], quantizer.quantize_dequantize(v[row]))

    def test_memory_accounting_follows_the_format(self, tiny_model_config):
        fp = PagedKVCache(tiny_model_config, batch_size=1)
        q = PagedKVCache(tiny_model_config, batch_size=1, kv_spec="int8")
        per_token_fp = 2 * tiny_model_config.n_layers * tiny_model_config.d_model * 16.0
        assert fp.bits_per_token() == pytest.approx(per_token_fp)
        bpe = get_quantizer("int8").bits_per_element()
        assert q.bits_per_token() == pytest.approx(
            2 * tiny_model_config.n_layers * tiny_model_config.d_model * bpe)
        assert q.memory_efficiency() == pytest.approx(16.0 / bpe)
