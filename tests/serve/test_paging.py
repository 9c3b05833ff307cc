"""Block pool, radix prefix index and paged-cache invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.kv_cache import KVCache, PagedKVCache
from repro.serve.paging import BlockPool, PoolExhaustedError, RadixIndex


@pytest.fixture
def pool(tiny_model_config):
    return BlockPool(tiny_model_config, num_blocks=16, page_size=4)


class TestBlockPool:
    def test_alloc_is_lowest_id_first_and_tracks_peak(self, pool):
        first, second = pool.alloc(), pool.alloc()
        assert (first, second) == (0, 1)
        assert pool.pages_in_use == 2 and pool.num_free == 14
        pool.release(first)
        assert pool.alloc() == 0  # freed page is reused, lowest id first
        assert pool.peak_pages_in_use == 2

    def test_refcounts_gate_the_free_list(self, pool):
        block = pool.alloc()
        pool.retain(block)
        pool.release(block)
        assert pool.refcount(block) == 1 and pool.num_free == 15
        pool.release(block)
        assert pool.refcount(block) == 0 and pool.num_free == 16

    def test_double_free_and_retain_of_free_block_raise(self, pool):
        block = pool.alloc()
        pool.release(block)
        with pytest.raises(ValueError, match="double free"):
            pool.release(block)
        with pytest.raises(ValueError, match="retain free"):
            pool.retain(block)

    def test_exhaustion_raises(self, tiny_model_config):
        pool = BlockPool(tiny_model_config, num_blocks=2, page_size=4)
        pool.alloc(), pool.alloc()
        assert pool.try_alloc() is None
        with pytest.raises(PoolExhaustedError):
            pool.alloc()

    def test_copy_block_clones_storage(self, pool, rng):
        block = pool.alloc()
        pool.k_store[0][block] = rng.standard_normal(pool.k_store[0][block].shape)
        clone = pool.copy_block(block)
        assert clone != block and pool.refcount(clone) == 1
        np.testing.assert_array_equal(pool.k_store[0][clone], pool.k_store[0][block])

    def test_invalid_shapes_rejected(self, tiny_model_config):
        with pytest.raises(ValueError, match="num_blocks"):
            BlockPool(tiny_model_config, num_blocks=0, page_size=4)
        with pytest.raises(ValueError, match="page_size"):
            BlockPool(tiny_model_config, num_blocks=4, page_size=0)


class TestBlockPoolStress:
    def test_randomized_alloc_fork_free_never_leaks_or_double_frees(
        self, tiny_model_config
    ):
        """Thousands of interleaved alloc/fork/free ops leave the pool clean.

        Invariants checked continuously: the tracked reference counts match
        the pool's, pages are never lost (free + in-use == capacity), and
        after retiring every holder the free list equals the capacity again.
        """
        pool = BlockPool(tiny_model_config, num_blocks=32, page_size=4)
        rng = np.random.default_rng(20260730)
        held = []  # one entry per outstanding reference
        for step in range(5000):
            action = rng.random()
            if action < 0.4 and pool.num_free:
                held.append(pool.alloc())
            elif action < 0.7 and held:
                # fork: share an existing reference (refcount + 1)
                held.append(pool.retain(held[int(rng.integers(len(held)))]))
            elif held:
                victim = int(rng.integers(len(held)))
                pool.release(held.pop(victim))
            if step % 500 == 0:
                expected = np.bincount(held, minlength=pool.capacity) if held else \
                    np.zeros(pool.capacity, dtype=np.int64)
                np.testing.assert_array_equal(pool._refcounts, expected)
                assert pool.num_free + len(set(held)) == pool.capacity
        for block in held:
            pool.release(block)
        assert pool.num_free == pool.capacity
        assert not pool._refcounts.any()
        assert sorted(pool._free) == list(range(pool.capacity))

    def test_stress_through_the_paged_cache_lifecycle(self, tiny_model_config):
        """Random begin/append/fork/retire/reset cycles leave no leaked pages."""
        cache = PagedKVCache(tiny_model_config, batch_size=4, max_seq_len=32,
                             page_size=4, num_blocks=48)
        rng = np.random.default_rng(7)
        lengths = [0, 0, 0, 0]

        def kv(n):
            shape = (1, tiny_model_config.n_heads, n, tiny_model_config.head_dim)
            return rng.standard_normal(shape), rng.standard_normal(shape)

        tokens = {row: () for row in range(4)}
        for _ in range(400):
            row = int(rng.integers(4))
            action = rng.random()
            if action < 0.35:
                prompt = tuple(int(t) for t in rng.integers(0, 16, size=rng.integers(2, 12)))
                cache.retire_request(row, tokens[row])
                matched = cache.begin_request(row, prompt)
                tokens[row] = prompt[:matched]
                lengths[row] = matched
            elif action < 0.7 and lengths[row] + 4 < 32:
                n = int(rng.integers(1, 4))
                k, v = kv(n)
                cache.append(0, [row], k, v)
                cache.append(1, [row], k, v)
                cache.advance([row], n)
                tokens[row] = tokens[row] + tuple(int(t) for t in rng.integers(0, 16, size=n))
                lengths[row] += n
            elif action < 0.85:
                other = int(rng.integers(4))
                cache.fork(row, other)
                tokens[other] = tokens[row]
                lengths[other] = lengths[row]
            else:
                cache.reset(rows=[row])
                tokens[row] = ()
                lengths[row] = 0
        for row in range(4):
            cache.reset(rows=[row])
        cache.index.clear()
        assert cache.pool.num_free == cache.pool.capacity
        assert not cache.pool._refcounts.any()


class TestRadixIndex:
    def test_match_is_full_pages_of_the_longest_prefix(self, pool):
        index = RadixIndex(pool)
        blocks = [pool.alloc(), pool.alloc(), pool.alloc()]
        tokens = tuple(range(12))  # 3 full pages of 4
        index.insert(tokens, blocks)
        assert len(index) == 3
        assert len(index.match(tokens)) == 3
        assert len(index.match(tokens[:11])) == 2          # partial page is not matched
        assert len(index.match(tokens, max_tokens=9)) == 2  # cap respects page bounds
        assert len(index.match((9, 9, 9, 9))) == 0

    def test_insert_takes_index_owned_references(self, pool):
        index = RadixIndex(pool)
        blocks = [pool.alloc(), pool.alloc()]
        index.insert(tuple(range(8)), blocks)
        assert [pool.refcount(b) for b in blocks] == [2, 2]
        for block in blocks:  # the caller retires: index refs keep pages alive
            pool.release(block)
        assert [pool.refcount(b) for b in blocks] == [1, 1]
        assert pool.num_free == 14

    def test_duplicate_insert_keeps_the_existing_chain(self, pool):
        index = RadixIndex(pool)
        first = [pool.alloc(), pool.alloc()]
        index.insert(tuple(range(8)), first)
        second = [pool.alloc(), pool.alloc()]
        inserted = index.insert(tuple(range(8)), second)
        assert inserted == 0 and len(index) == 2
        assert [pool.refcount(b) for b in second] == [1, 1]  # duplicates stay caller-owned

    def test_eviction_is_lru_and_leaf_first(self, pool):
        index = RadixIndex(pool)
        a = [pool.alloc(), pool.alloc()]
        b = [pool.alloc()]
        index.insert((0, 1, 2, 3, 4, 5, 6, 7), a)   # chain of two pages
        index.insert((9, 9, 9, 9), b)               # inserted later: more recent
        for block in a + b:
            pool.release(block)
        # acquire + release chain a (match alone is a pure peek): b becomes LRU
        for block in index.acquire(index.match((0, 1, 2, 3, 4, 5, 6, 7))):
            pool.release(block)
        assert index.evictable_blocks() == 3
        assert index.evict_one()
        assert len(index.match((9, 9, 9, 9))) == 0          # b went first (LRU)
        assert len(index.match((0, 1, 2, 3, 4, 5, 6, 7))) == 2
        assert index.evict_one()
        assert len(index.match((0, 1, 2, 3, 4, 5, 6, 7))) == 1  # leaf before parent
        assert index.evict_one() and not index.evict_one()
        assert pool.num_free == pool.capacity

    def test_acquired_chains_are_not_evictable(self, pool):
        index = RadixIndex(pool)
        blocks = [pool.alloc()]
        index.insert((1, 2, 3, 4), blocks)
        pool.release(blocks[0])  # the inserter retires: only the index holds it
        assert index.evictable_blocks() == 1
        nodes = index.match((1, 2, 3, 4, 5))
        acquired = index.acquire(nodes)  # an active request now holds the page
        assert index.evictable_blocks() == 0
        assert not index.evict_one()
        pool.release(acquired[0])  # the request retires: evictable again
        assert index.evictable_blocks() == 1 and index.evict_one()


class TestPagedKVCache:
    def _kv(self, config, batch, n_new, seed=0):
        rng = np.random.default_rng(seed)
        shape = (batch, config.n_heads, n_new, config.head_dim)
        return rng.standard_normal(shape), rng.standard_normal(shape)

    def test_append_context_round_trips_across_page_boundaries(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=2, page_size=4)
        k, v = self._kv(tiny_model_config, 2, 10)  # spans 3 pages
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0, 1], k, v)
        cache.advance([0, 1], 10)
        k_ctx, v_ctx = cache.context(0, [0, 1], 10)
        np.testing.assert_array_equal(k_ctx, k)
        np.testing.assert_array_equal(v_ctx, v)
        assert cache.pages_in_use == 6

    @pytest.mark.parametrize("kv_spec", [None, "BBFP(4,2)", "int8"])
    @pytest.mark.parametrize("page_size", [1, 3, 4, 16])
    def test_matches_dense_cache_values_exactly(self, tiny_model_config, kv_spec,
                                                page_size):
        dense = KVCache(tiny_model_config, batch_size=2, kv_spec=kv_spec)
        paged = PagedKVCache(tiny_model_config, batch_size=2, page_size=page_size,
                             kv_spec=kv_spec)
        # single-row prefills, then batched appends at unequal offsets; the
        # 5-position chunk starts mid-page (row 0 at 14) and crosses pages
        steps = [([0], 13), ([1], 2), ([0, 1], 1), ([0, 1], 5), ([1, 0], 1),
                 ([0], 5), ([0], 1), ([0], 1)]
        for step, (rows, n_new) in enumerate(steps):
            k, v = self._kv(tiny_model_config, len(rows), n_new, seed=step)
            for layer in range(tiny_model_config.n_layers):
                dense.append(layer, rows, k, v)
                paged.append(layer, rows, k, v)
            dense.advance(rows, n_new)
            paged.advance(rows, n_new)
        lengths = paged.lengths.tolist()
        assert lengths == dense.lengths.tolist() == [27, 9]
        for layer in range(tiny_model_config.n_layers):
            for rows in ([0, 1], [1, 0], [1]):
                context_len = max(lengths[row] for row in rows)
                k_d, v_d = dense.context(layer, rows, context_len)
                k_p, v_p = paged.context(layer, rows, context_len)
                assert k_p.shape == k_d.shape and v_p.shape == v_d.shape
                for index, row in enumerate(rows):  # past coverage is masked
                    np.testing.assert_array_equal(k_p[index, :, :lengths[row]],
                                                  k_d[index, :, :lengths[row]])
                    np.testing.assert_array_equal(v_p[index, :, :lengths[row]],
                                                  v_d[index, :, :lengths[row]])

    def test_prefix_reuse_skips_full_pages_only(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=2, page_size=4)
        prompt = tuple(range(10))
        cache.begin_request(0, prompt)
        k, v = self._kv(tiny_model_config, 1, 10)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0], k, v)
        cache.advance([0], 10)
        cache.commit_prefix(0, prompt)
        assert cache.match_prefix(prompt) == 8          # 2 full pages of the 10
        assert cache.match_prefix(prompt[:9]) == 8
        assert cache.match_prefix(prompt[:8]) == 4      # must leave one token to prefill
        matched = cache.begin_request(1, prompt)
        assert matched == 8 and int(cache.lengths[1]) == 8
        k_ctx, _ = cache.context(0, [1], 8)
        np.testing.assert_array_equal(k_ctx[0], k[0, :, :8])

    def test_fork_shares_pages_and_copy_on_write_isolates_divergence(
        self, tiny_model_config
    ):
        cache = PagedKVCache(tiny_model_config, batch_size=2, page_size=4)
        k, v = self._kv(tiny_model_config, 1, 6)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0], k, v)
        cache.advance([0], 6)
        cache.fork(0, 1)
        assert cache.pages_in_use == 2  # both rows address the same two pages
        k0, v0 = self._kv(tiny_model_config, 1, 1, seed=1)
        k1, v1 = self._kv(tiny_model_config, 1, 1, seed=2)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0], k0, v0)
            cache.append(layer, [1], k1, v1)  # same position: must copy the shared page
        cache.advance([0, 1], 1)
        assert cache.pages_in_use == 3
        ctx0, _ = cache.context(0, [0], 7)
        ctx1, _ = cache.context(0, [1], 7)
        np.testing.assert_array_equal(ctx0[0, :, :6], ctx1[0, :, :6])
        assert not np.array_equal(ctx0[0, :, 6], ctx1[0, :, 6])

    def test_allocation_evicts_lru_cached_chains(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=1, max_seq_len=16,
                             page_size=4, num_blocks=4)
        prompt = tuple(range(9))
        cache.begin_request(0, prompt)
        k, v = self._kv(tiny_model_config, 1, 9)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0], k, v)
        cache.advance([0], 9)
        cache.retire_request(0, prompt)
        assert cache.pages_in_use == 2 and len(cache.index) == 2
        # a fresh 16-token request needs all 4 pages: the cached chain must go
        cache.begin_request(0, tuple(range(20, 36)))
        k, v = self._kv(tiny_model_config, 1, 16, seed=3)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0], k, v)
        cache.advance([0], 16)
        assert cache.pages_in_use == 4 and len(cache.index) == 0
        assert cache.match_prefix(prompt) == 0

    def test_memory_accounting_is_page_granular(self, tiny_model_config):
        cache = PagedKVCache(tiny_model_config, batch_size=1, page_size=4,
                             kv_spec="int8")
        assert cache.memory_bits() == 0.0
        k, v = self._kv(tiny_model_config, 1, 5)
        for layer in range(tiny_model_config.n_layers):
            cache.append(layer, [0], k, v)
        cache.advance([0], 5)
        assert cache.pages_in_use == 2
        assert cache.memory_bits() == pytest.approx(8 * cache.bits_per_token())
        assert cache.peak_memory_bits() == cache.memory_bits()
        assert cache.memory_efficiency() > 1.0

    def test_pool_too_small_for_one_sequence_rejected(self, tiny_model_config):
        with pytest.raises(ValueError, match="num_blocks"):
            PagedKVCache(tiny_model_config, batch_size=1, max_seq_len=32,
                         page_size=4, num_blocks=4)
