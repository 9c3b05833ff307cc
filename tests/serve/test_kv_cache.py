"""Tests for the pre-allocated and paged (optionally quantised) K/V caches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import get_quantizer
from repro.serve.kv_cache import KVCache, PagedKVCache


class TestConstruction:
    def test_starts_empty(self, tiny_model_config):
        cache = KVCache(tiny_model_config, batch_size=3)
        np.testing.assert_array_equal(cache.lengths, np.zeros(3, dtype=np.int64))
        assert cache.memory_bits() == 0.0
        assert cache.kv_spec == "fp16"

    def test_max_seq_len_defaults_to_model_limit(self, tiny_model_config):
        cache = KVCache(tiny_model_config, batch_size=1)
        assert cache.max_seq_len == tiny_model_config.max_seq_len

    def test_invalid_shapes_rejected(self, tiny_model_config):
        with pytest.raises(ValueError, match="batch_size"):
            KVCache(tiny_model_config, batch_size=0)
        with pytest.raises(ValueError, match="max_seq_len"):
            KVCache(tiny_model_config, batch_size=1,
                    max_seq_len=tiny_model_config.max_seq_len + 1)

    def test_unknown_kv_spec_raises(self, tiny_model_config):
        with pytest.raises(ValueError, match="unknown format"):
            KVCache(tiny_model_config, batch_size=1, kv_spec="fancy13")


class TestAppendAdvance:
    def _kv(self, config, batch, n_new, seed=0):
        rng = np.random.default_rng(seed)
        shape = (batch, config.n_heads, n_new, config.head_dim)
        return rng.standard_normal(shape), rng.standard_normal(shape)

    def test_append_then_context_round_trips(self, tiny_model_config):
        cache = KVCache(tiny_model_config, batch_size=2)
        k, v = self._kv(tiny_model_config, 2, 5)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0, 1], k, v)
        cache.advance([0, 1], 5)
        k_ctx, v_ctx = cache.context(0, [0, 1], 5)
        np.testing.assert_array_equal(k_ctx, k)
        np.testing.assert_array_equal(v_ctx, v)
        np.testing.assert_array_equal(cache.lengths, [5, 5])

    def test_rows_are_independent(self, tiny_model_config):
        cache = KVCache(tiny_model_config, batch_size=3)
        k, v = self._kv(tiny_model_config, 1, 4)
        cache.append(0, [1], k, v)
        cache.advance([1], 4)
        np.testing.assert_array_equal(cache.lengths, [0, 4, 0])
        cache.reset(rows=[1])
        np.testing.assert_array_equal(cache.lengths, [0, 0, 0])

    def test_append_past_capacity_raises(self, tiny_model_config):
        cache = KVCache(tiny_model_config, batch_size=1, max_seq_len=4)
        k, v = self._kv(tiny_model_config, 1, 5)
        with pytest.raises(ValueError, match="overflows"):
            cache.append(0, [0], k, v)

    def test_advance_past_capacity_raises(self, tiny_model_config):
        cache = KVCache(tiny_model_config, batch_size=1, max_seq_len=4)
        with pytest.raises(ValueError, match="capacity"):
            cache.advance([0], 5)


class TestQuantisedStorage:
    def test_appended_values_are_fake_quantised(self, tiny_model_config):
        cache = KVCache(tiny_model_config, batch_size=1, kv_spec="int4")
        rng = np.random.default_rng(0)
        shape = (1, tiny_model_config.n_heads, 3, tiny_model_config.head_dim)
        k, v = rng.standard_normal(shape), rng.standard_normal(shape)
        cache.append(0, [0], k, v)
        cache.advance([0], 3)
        quantizer = get_quantizer("int4")
        k_ctx, v_ctx = cache.context(0, [0], 3)
        np.testing.assert_array_equal(k_ctx[0], quantizer.quantize_dequantize(k, axis=-1)[0])
        np.testing.assert_array_equal(v_ctx[0], quantizer.quantize_dequantize(v, axis=-1)[0])
        assert not np.array_equal(k_ctx[0], k[0])  # int4 storage is lossy

    @pytest.mark.parametrize("cache_cls", [KVCache, PagedKVCache])
    @pytest.mark.parametrize("kv_spec", ["int8", "int8@pc"])
    def test_co_batched_rows_never_share_a_scale(self, tiny_model_config, cache_cls,
                                                 kv_spec):
        """Scales spanning a row stay per row (and per side) in a batched append."""
        cache = cache_cls(tiny_model_config, batch_size=2, kv_spec=kv_spec)
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
        fp = KVCache(tiny_model_config, batch_size=1)
        q = KVCache(tiny_model_config, batch_size=1, kv_spec="int8")
        per_token_fp = 2 * tiny_model_config.n_layers * tiny_model_config.d_model * 16.0
        assert fp.bits_per_token() == pytest.approx(per_token_fp)
        bpe = get_quantizer("int8").bits_per_element()
        assert q.bits_per_token() == pytest.approx(
            2 * tiny_model_config.n_layers * tiny_model_config.d_model * bpe)
        assert q.memory_efficiency() == pytest.approx(16.0 / bpe)
        q.advance([0], 7)
        assert q.memory_bits() == pytest.approx(7 * q.bits_per_token())
