"""Block pool, radix prefix index and paged-cache invariants."""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from repro.quant import get_quantizer
from repro.serve.engine import EngineConfig, ServeEngine, VirtualClock
from repro.serve.kv_cache import PagedKVCache
from repro.serve.paging import BlockPool, PoolExhaustedError, RadixIndex
from repro.serve.workload import (SharedPrefixConfig, WorkloadConfig, generate_requests,
                                  generate_shared_prefix_requests)


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

    def test_take_claims_a_chosen_block_that_plain_allocation_then_skips(self, pool):
        assert pool.take(2) and not pool.take(2)
        assert pool.refcount(2) == 1 and pool.num_free == 15
        assert [pool.alloc() for _ in range(3)] == [0, 1, 3]
        pool.release(2)
        assert pool.alloc() == 2  # back on the free list, lowest id first
        assert pool.peak_pages_in_use == 4

    def test_move_carries_values_and_references(self, pool):
        src, dst = pool.alloc(), pool.alloc()
        pool.retain(src)
        for store in pool.k_store + pool.v_store:
            store[src] = np.random.default_rng(0).standard_normal(store[src].shape)
        expected = [store[src].copy() for store in pool.k_store + pool.v_store]
        pool.move(src, dst)
        for store, page in zip(pool.k_store + pool.v_store, expected):
            np.testing.assert_array_equal(store[dst], page)
        assert (pool.refcount(src), pool.refcount(dst)) == (1, 2)
        assert pool.pages_in_use == 2

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
        assert [pool.alloc() for _ in range(pool.capacity)] == list(range(pool.capacity))

    def test_stress_through_the_paged_cache_lifecycle(self, tiny_model_config):
        """Random begin/append/retire/reset cycles leave no leaked pages."""
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
            else:
                cache.reset(rows=[row])
                tokens[row] = ()
                lengths[row] = 0
        for row in range(4):
            cache.reset(rows=[row])
        cache.index.clear()
        assert cache.pool.num_free == cache.pool.capacity
        assert not cache.pool._refcounts.any()

    @pytest.mark.parametrize("pool_size", ["below", "at", "above"])
    @pytest.mark.parametrize("page_size", [1, 3, 4, 16, 32])
    def test_relocation_keeps_every_value_and_reference(self, tiny_model_config,
                                                        page_size, pool_size):
        """Home placement moves pages between blocks; no holder sees a change.

        Random begin/append/advance/commit/retire/reset cycles over three
        slots, with prompts drawn from a few base sequences so prefixes hit
        and the index fills the pool until LRU eviction runs.  As in a real
        model, the K/V of a position is a function of the tokens up to it,
        so the independent model of a row's context is its token sequence.
        After every operation: every row reads back exactly its model's
        values, every refcount equals its table holders plus index owner,
        and ``context`` returns a read-only view of the pool exactly when
        the blocks it reads are a run of consecutive slots' home blocks
        (only pools with a home for every slot position have them).
        """
        config, batch, max_seq_len = tiny_model_config, 3, 32
        per_slot = -(-max_seq_len // page_size)
        num_blocks = {"below": 2 * per_slot, "at": batch * per_slot,
                      "above": (batch + 1) * per_slot}[pool_size]
        cache = PagedKVCache(config, batch_size=batch, max_seq_len=max_seq_len,
                             page_size=page_size, num_blocks=num_blocks)
        homed = pool_size != "below"
        rng = np.random.default_rng(page_size * 10 + len(pool_size))
        bases = [tuple(int(t) for t in rng.integers(0, 8, size=max_seq_len))
                 for _ in range(3)]
        values = {}

        def kv_of(tokens):
            """(layers, 2, heads, head_dim) K/V of the last of ``tokens``."""
            if tokens not in values:
                seed = hash(tokens) & 0xFFFFFFFF
                values[tokens] = np.random.default_rng(seed).standard_normal(
                    (config.n_layers, 2, config.n_heads, config.head_dim))
            return values[tokens]

        def expected(tokens):  # (2, layers, heads, positions, head_dim)
            kv = np.stack([kv_of(tokens[:i + 1]) for i in range(len(tokens))], axis=-2)
            return kv.transpose(1, 0, 2, 3, 4)

        tokens = {row: () for row in range(batch)}
        hits, views, moves, evictions = 0, 0, [], []
        move, evict = cache.pool.move, cache.index.evict_one
        cache.pool.move = lambda src, dst: (moves.append(src), move(src, dst))[1]
        cache.index.evict_one = lambda: (evictions.append(evict()), evictions[-1])[1]

        def read(rows, context_len, seqs=None):
            """One ``context`` read per layer, checked against the model."""
            nonlocal views
            seqs = seqs or [tokens[row] for row in rows]
            reads = []  # the blocks the read covers; past a table's end, home
            for row in rows:
                table = cache._tables[row]
                reads.append([table[p] if p < len(table) else row * per_slot + p
                              for p in range(-(-context_len // page_size))])
            lo = rows[0] if rows else 0
            home_run = homed and bool(rows) and lo + len(rows) <= batch and all(
                block == (lo + j) * per_slot + p
                for j, blocks in enumerate(reads) for p, block in enumerate(blocks))
            for layer in range(config.n_layers):
                k, v = cache.context(layer, rows, context_len)
                assert k.shape == v.shape == (len(rows), config.n_heads, context_len,
                                              config.head_dim)
                for side, store in ((k, cache.pool.k_store[layer]),
                                    (v, cache.pool.v_store[layer])):
                    assert side.flags.writeable != home_run
                    if side.size:  # an empty array shares no memory
                        assert np.shares_memory(side, store) == home_run
                for j, seq in enumerate(seqs):
                    if seq:
                        want = expected(seq)
                        np.testing.assert_array_equal(k[j, :, :len(seq)], want[0, layer])
                        np.testing.assert_array_equal(v[j, :, :len(seq)], want[1, layer])
            views += home_run

        def check():
            held = collections.Counter(
                block for row in range(batch) for block in cache._tables[row])
            held.update(cache.index.owned_blocks())
            refcounts = cache.pool._refcounts
            assert {int(b): int(refcounts[b]) for b in np.flatnonzero(refcounts)} == held
            full = max(len(seq) for seq in tokens.values())
            for lo in range(batch):
                for hi in range(lo + 1, batch + 1):
                    rows = list(range(lo, hi))
                    read(rows, max(len(tokens[row]) for row in rows))
            read([2, 0], full)
            read([1, 0], full)
            read([], full)

        def write(row, new):
            """Append ``new`` tokens' K/V on every layer, read it back, advance."""
            seq = tokens[row] + new
            kv = np.stack([kv_of(seq[:i + 1]) for i in range(len(tokens[row]), len(seq))],
                          axis=-2)
            if -(-len(seq) // page_size) - len(cache._tables[row]) > cache.available_blocks:
                with pytest.raises(PoolExhaustedError):
                    cache.append(0, [row], kv[0, 0][None], kv[0, 1][None])
                cache.reset(rows=[row])
                tokens[row] = ()
                return False
            for layer in range(config.n_layers):
                cache.append(layer, [row], kv[layer, 0][None], kv[layer, 1][None])
            read([row], len(seq), [seq])  # appended, not yet advanced
            cache.advance([row], len(new))
            tokens[row] = seq
            return True

        base_of = {row: bases[row] for row in range(batch)}
        for _ in range(200):
            row = int(rng.integers(batch))
            action = rng.random()
            if action < 0.3:  # admit: adopt the cached prefix, prefill the rest
                cache.retire_request(row, tokens[row])
                base_of[row] = bases[int(rng.integers(len(bases)))]
                prompt = base_of[row][:int(rng.integers(2, max_seq_len))]
                matched = cache.begin_request(row, prompt)
                hits += matched > 0
                tokens[row] = prompt[:matched]
                if write(row, prompt[matched:]) and rng.random() < 0.5:
                    cache.commit_prefix(row, prompt)
            elif action < 0.75 and len(tokens[row]) < max_seq_len:  # decode
                start = len(tokens[row])
                n = int(rng.integers(1, min(4, max_seq_len - start) + 1))
                write(row, base_of[row][start:start + n] if rng.random() < 0.7 else
                      tuple(int(t) for t in rng.integers(0, 8, size=n)))
            elif action < 0.85:
                cache.commit_prefix(row, tokens[row])
            elif action < 0.93:
                cache.retire_request(row, tokens[row])
                tokens[row] = ()
            else:
                cache.reset(rows=[row])
                tokens[row] = ()
            check()

        assert any(evictions)
        assert views > 0 if homed else views == 0
        assert bool(moves) == homed  # pages really were moved off home blocks
        if page_size < max_seq_len:
            assert hits > 0


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

    def test_repoint_follows_a_moved_page(self, pool):
        index = RadixIndex(pool)
        blocks = [pool.alloc(), pool.alloc()]
        index.insert(tuple(range(8)), blocks)
        moved = pool.alloc()
        index.repoint(blocks[1], moved)
        index.repoint(99, 98)  # a block no node owns: nothing to follow
        assert [node.block for node in index.match(tuple(range(8)))] == [blocks[0], moved]
        assert sorted(index.owned_blocks()) == sorted([blocks[0], moved])

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
        """Gathered pages equal each row's appends, quantised alone, end to end."""
        paged = PagedKVCache(tiny_model_config, batch_size=2, page_size=page_size,
                             kv_spec=kv_spec)
        quantizer = get_quantizer(kv_spec) if kv_spec is not None else None

        def solo(x):  # one quantiser call per row, side and append
            return quantizer.quantize_dequantize(x, axis=-1) if quantizer else x

        dense = {0: ([], []), 1: ([], [])}  # per row: K chunks, V chunks
        # single-row prefills, then batched appends at unequal offsets; the
        # 5-position chunk starts mid-page (row 0 at 14) and crosses pages
        steps = [([0], 13), ([1], 2), ([0, 1], 1), ([0, 1], 5), ([1, 0], 1),
                 ([0], 5), ([0], 1), ([0], 1)]
        for step, (rows, n_new) in enumerate(steps):
            k, v = self._kv(tiny_model_config, len(rows), n_new, seed=step)
            for layer in range(tiny_model_config.n_layers):
                paged.append(layer, rows, k, v)
            paged.advance(rows, n_new)
            for index, row in enumerate(rows):
                dense[row][0].append(solo(k[index]))
                dense[row][1].append(solo(v[index]))
        dense = {row: tuple(np.concatenate(chunks, axis=1) for chunks in sides)
                 for row, sides in dense.items()}
        lengths = paged.lengths.tolist()
        assert lengths == [27, 9]
        for layer in range(tiny_model_config.n_layers):
            for rows in ([0, 1], [1, 0], [1]):
                context_len = max(lengths[row] for row in rows)
                k_p, v_p = paged.context(layer, rows, context_len)
                expected_shape = (len(rows), tiny_model_config.n_heads, context_len,
                                  tiny_model_config.head_dim)
                assert k_p.shape == v_p.shape == expected_shape
                for index, row in enumerate(rows):  # past coverage is masked
                    k_d, v_d = dense[row]
                    np.testing.assert_array_equal(k_p[index, :, :lengths[row]], k_d)
                    np.testing.assert_array_equal(v_p[index, :, :lengths[row]], v_d)

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

    def test_page_longer_than_max_seq_len_is_clamped(self, tiny_model_config):
        """A page past ``max_seq_len`` would reserve positions no slot can use."""
        def pool_bytes(cache):
            return sum(store.nbytes for store in cache.pool.k_store + cache.pool.v_store)

        exact = PagedKVCache(tiny_model_config, batch_size=4, max_seq_len=40,
                             page_size=40)
        oversized = PagedKVCache(tiny_model_config, batch_size=4, max_seq_len=40,
                                 page_size=4096)
        assert oversized.page_size == exact.page_size == 40
        assert oversized.num_blocks == exact.num_blocks == 4
        assert pool_bytes(oversized) == pool_bytes(exact)


class TestAppendsWriteOnlyPrivatePages:
    """The invariant that lets shared pages go without copy-on-write.

    A request adopts only full prefix pages and appends past them, and the
    radix index only receives full pages their writer has moved past, so
    every page an append writes into is held by its own row alone.
    """

    @pytest.mark.parametrize("sampling", [dict(), dict(temperature=0.8, top_k=5)],
                             ids=["greedy", "top_k"])
    @pytest.mark.parametrize("page_size", [1, 4])
    def test_engine_appends_never_touch_a_shared_page(self, tiny_inference_model,
                                                      page_size, sampling):
        workload = SharedPrefixConfig(num_requests=16, arrival_rate=400.0,
                                      num_prefixes=2, prefix_tokens=10,
                                      unique_tokens=(1, 4), new_tokens=(4, 10),
                                      seed=3, **sampling)
        requests = generate_shared_prefix_requests(
            tiny_inference_model.config.vocab_size, workload)
        requests[5] = dataclasses.replace(
            requests[5], deadline=requests[5].arrival_time + 0.006)
        # 48 token positions of pool for 3 slots of 32: prefix chains must be
        # evicted to make room
        engine = ServeEngine(
            tiny_inference_model,
            EngineConfig(max_batch_size=3, max_seq_len=32, kv_page_size=page_size,
                         num_kv_blocks=48 // page_size),
            clock=VirtualClock())
        cache = engine.cache
        checked_pages = []
        append = cache.append

        def private_append(layer, rows, k_new, v_new):
            n_new = k_new.shape[2]
            for row in np.atleast_1d(rows).tolist():
                start = int(cache.lengths[row])
                # pages not allocated yet are fresh; the rest must be private
                covering = cache._tables[row][start // page_size:
                                              -(-(start + n_new) // page_size)]
                shared = [block for block in covering if cache.pool.refcount(block) != 1]
                assert not shared, (
                    f"layer {layer} append to row {row} at position {start} "
                    f"would write shared pages {shared}")
                checked_pages.append(len(covering))
            append(layer, rows, k_new, v_new)

        cache.append = private_append
        evict = cache.index.evict_one
        evictions = []

        def counted_evict():
            evictions.append(evict())
            return evictions[-1]

        cache.index.evict_one = counted_evict
        streamed = collections.Counter()
        engine.on_token = lambda request_id, token, now: streamed.update([request_id])
        for request in requests:
            engine.submit(request)
        cancelled = None
        while engine.has_work:
            engine.step()
            if cancelled is None:
                decoding = [request.request_id for request in engine.active_requests()
                            if streamed[request.request_id] >= 2]
                if decoding:
                    cancelled = decoding[0]
                    engine.cancel(cancelled)
            assert engine.audit_kv_pages()["leaked"] == []
        report = engine.report()
        assert report.cancelled == 1 and report.timed_out == 1
        assert report.reused_tokens > 0 and any(evictions)
        assert sum(checked_pages) > 0  # the check saw already-allocated pages


class TestHomePlacementReads:
    """Counts (not timings) behind the gather-free decode read.

    With a pool block for every slot position, each slot's own pages sit on
    its home blocks, so ``context`` over consecutive slots is a view of the
    pool; a slot reading an adopted prefix page elsewhere gathers.
    """

    @staticmethod
    def _record_reads(cache):
        """Wrap ``cache.context``; one record per read: rows, length, view?, off-home?"""
        per_slot = -(-cache.max_seq_len // cache.page_size)
        reads = []
        context = cache.context

        def recorded(layer, rows, context_len):
            k, v = context(layer, rows, context_len)
            rows = [int(row) for row in np.atleast_1d(rows)]
            pages = -(-context_len // cache.page_size)
            off_home = any(block != row * per_slot + page for row in rows
                           for page, block in enumerate(cache._tables[row][:pages]))
            view = np.may_share_memory(k, cache.pool.k_store[layer])
            assert np.may_share_memory(v, cache.pool.v_store[layer]) == view
            reads.append((rows, context_len, view, off_home))
            return k, v

        cache.context = recorded
        return reads

    @staticmethod
    def _tokens(report):
        return {c.request.request_id: c.generated_tokens for c in report.completed}

    def test_consecutive_slots_read_views_and_gather_nothing(self, tiny_inference_model):
        requests = generate_requests(
            tiny_inference_model.config.vocab_size,
            WorkloadConfig(num_requests=12, arrival_rate=0.0, prompt_tokens=(4, 12),
                           new_tokens=(4, 16), seed=2))
        engine = ServeEngine(tiny_inference_model,
                             EngineConfig(max_batch_size=4, kv_page_size=4),
                             clock=VirtualClock())
        reads = self._record_reads(engine.cache)
        report = engine.run(requests)
        assert report.reused_tokens == 0  # unique prompts: every page is a slot's own
        consecutive = [read for read in reads
                       if read[0] == list(range(read[0][0], read[0][0] + len(read[0])))]
        gathered = sum(len(rows) * context_len
                       for rows, context_len, view, _ in consecutive if not view)
        assert gathered == 0
        assert sum(len(rows) > 1 for rows, *_ in consecutive) > 0  # batched decodes
        assert engine.audit_kv_pages()["leaked"] == []

        # a pool one block short of a home per slot position gathers every read
        per_slot = -(-engine.cache.max_seq_len // 4)
        small = ServeEngine(tiny_inference_model,
                            EngineConfig(max_batch_size=4, kv_page_size=4,
                                         num_kv_blocks=4 * per_slot - 1),
                            clock=VirtualClock())
        small_reads = self._record_reads(small.cache)
        small_report = small.run(requests)
        assert not any(view for _, _, view, _ in small_reads)
        assert self._tokens(small_report) == self._tokens(report)
        assert small_report.summary() == report.summary()

    @pytest.mark.parametrize("page_size", [1, 4])
    def test_adopted_prefix_rows_gather_with_dense_layout_tokens(self, tiny_inference_model,
                                                                 page_size):
        workload = SharedPrefixConfig(num_requests=16, arrival_rate=0.0, num_prefixes=2,
                                      prefix_tokens=12, unique_tokens=(1, 4),
                                      new_tokens=(4, 10), seed=3)
        requests = generate_shared_prefix_requests(
            tiny_inference_model.config.vocab_size, workload)
        engine = ServeEngine(tiny_inference_model,
                             EngineConfig(max_batch_size=4, kv_page_size=page_size),
                             clock=VirtualClock())
        reads = self._record_reads(engine.cache)
        report = engine.run(requests)
        dense = ServeEngine(tiny_inference_model,
                            EngineConfig(max_batch_size=4,
                                         kv_page_size=tiny_inference_model.config.max_seq_len),
                            clock=VirtualClock()).run(requests)
        assert report.reused_tokens > 0 and dense.reused_tokens == 0
        assert self._tokens(report) == self._tokens(dense)
        off_home = [read for read in reads if read[3]]
        assert off_home and not any(view for _, _, view, _ in off_home)
        assert any(view for _, _, view, _ in reads)
        assert engine.audit_kv_pages()["leaked"] == []
