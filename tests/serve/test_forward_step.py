"""Equivalence of the incremental KV-cached forward path with full recompute."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.generation import GenerationConfig, generate_tokens
from repro.llm.inference import QuantizationScheme
from repro.serve.bench import kv_cached_negative_log_likelihood
from repro.serve.kv_cache import PagedKVCache

#: Short pages, so every prompt below spans several of them and each forward
#: step gathers and scatters across page boundaries.
PAGE_SIZE = 3


def full_recompute_greedy(model, prompt, max_new_tokens):
    """The seed decode loop: re-run forward over the whole context per token."""
    window = model.config.max_seq_len - 1
    tokens = list(prompt)
    for _ in range(max_new_tokens):
        context = np.array(tokens[-window:], dtype=np.int64)
        logits = model.forward(context[None, :])[0, -1]
        tokens.append(int(np.argmax(logits)))
    return np.array(tokens, dtype=np.int64)


class TestPrefillEquivalence:
    def test_single_sequence_prefill_matches_forward(self, tiny_inference_model):
        tokens = np.arange(1, 13, dtype=np.int64)[None, :]
        cache = PagedKVCache(tiny_inference_model.config, batch_size=1, page_size=PAGE_SIZE)
        step = tiny_inference_model.forward_step(tokens, cache)
        full = tiny_inference_model.forward(tokens)
        np.testing.assert_allclose(step, full, rtol=0, atol=1e-12)
        assert cache.lengths[0] == 12

    def test_batched_prefill_matches_forward(self, tiny_inference_model):
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, tiny_inference_model.config.vocab_size, size=(3, 10))
        cache = PagedKVCache(tiny_inference_model.config, batch_size=3, page_size=PAGE_SIZE)
        step = tiny_inference_model.forward_step(tokens, cache)
        full = tiny_inference_model.forward(tokens)
        np.testing.assert_allclose(step, full, rtol=0, atol=1e-12)

    def test_chunked_prefill_matches_one_shot(self, tiny_inference_model):
        tokens = np.arange(2, 18, dtype=np.int64)[None, :]
        full = tiny_inference_model.forward(tokens)
        cache = PagedKVCache(tiny_inference_model.config, batch_size=1, page_size=PAGE_SIZE)
        chunks = [tiny_inference_model.forward_step(tokens[:, :5], cache),
                  tiny_inference_model.forward_step(tokens[:, 5:11], cache),
                  tiny_inference_model.forward_step(tokens[:, 11:], cache)]
        np.testing.assert_allclose(np.concatenate(chunks, axis=1), full, atol=1e-10)


class TestGreedyDecodeEquivalence:
    def test_cached_decode_matches_full_recompute(self, tiny_inference_model):
        prompt = [3, 5, 7, 11]
        reference = full_recompute_greedy(tiny_inference_model, prompt, 24)
        cached = generate_tokens(tiny_inference_model, prompt,
                                 GenerationConfig(max_new_tokens=24))
        np.testing.assert_array_equal(cached, reference)

    def test_cached_decode_matches_for_batch_of_prompts(self, tiny_inference_model):
        # batch > 1: decode several sequences through one shared cache and
        # compare each against its own full-recompute loop
        prompts = [[1, 2, 3], [9, 8, 7, 6, 5], [4, 4, 4, 4]]
        max_new = 12
        cache = PagedKVCache(tiny_inference_model.config, batch_size=len(prompts),
                             page_size=PAGE_SIZE)
        sequences = []
        for row, prompt in enumerate(prompts):
            logits = tiny_inference_model.forward_step(
                np.array(prompt, dtype=np.int64)[None, :], cache, rows=[row])
            sequences.append(list(prompt) + [int(np.argmax(logits[0, -1]))])
        for _ in range(max_new - 1):
            last = np.array([[seq[-1]] for seq in sequences], dtype=np.int64)
            logits = tiny_inference_model.forward_step(last, cache)
            for row, seq in enumerate(sequences):
                seq.append(int(np.argmax(logits[row, -1])))
        for prompt, seq in zip(prompts, sequences):
            reference = full_recompute_greedy(tiny_inference_model, prompt, max_new)
            np.testing.assert_array_equal(np.array(seq), reference)

    def test_prompt_longer_than_one_step_chunked_prefill_decodes_identically(
        self, tiny_inference_model
    ):
        # prefill in multiple steps (a chunked-prefill scheduler), then decode
        prompt = list(range(1, 21))
        cache = PagedKVCache(tiny_inference_model.config, batch_size=1, page_size=PAGE_SIZE)
        tiny_inference_model.forward_step(np.array(prompt[:8])[None, :], cache)
        logits = tiny_inference_model.forward_step(np.array(prompt[8:])[None, :], cache)
        tokens = list(prompt) + [int(np.argmax(logits[0, -1]))]
        for _ in range(9):
            logits = tiny_inference_model.forward_step(
                np.array([[tokens[-1]]], dtype=np.int64), cache)
            tokens.append(int(np.argmax(logits[0, -1])))
        reference = full_recompute_greedy(tiny_inference_model, prompt, 10)
        np.testing.assert_array_equal(np.array(tokens), reference)

    def test_quantised_scheme_decodes_identically_with_cache(self, tiny_inference_model):
        original = tiny_inference_model.scheme
        try:
            tiny_inference_model.set_scheme(QuantizationScheme.from_format("bbfp(4,2)"))
            prompt = [2, 3, 5]
            reference = full_recompute_greedy(tiny_inference_model, prompt, 16)
            cached = generate_tokens(tiny_inference_model, prompt,
                                     GenerationConfig(max_new_tokens=16))
            np.testing.assert_array_equal(cached, reference)
        finally:
            tiny_inference_model.set_scheme(original)


class TestRaggedBatches:
    @pytest.mark.parametrize("kv_spec", [None, "BBFP(4,2)", "bfp8@b32"],
                             ids=["fp16", "bbfp42", "bfp8"])
    @pytest.mark.parametrize("batch", [2, 3, 8, 16])
    @pytest.mark.parametrize("model_fixture", ["tiny_inference_model", "bench_shaped_model"])
    def test_decode_with_unequal_cached_lengths_matches_solo_decode(
        self, request, model_fixture, batch, kv_spec
    ):
        # A batched row's logits may differ from its solo decode in the last
        # bits (attention reduces over the batch's longest context; the
        # linears' GEMM sums in a row-count-dependent order), its token must not.
        model = request.getfixturevalue(model_fixture)
        rng = np.random.default_rng(batch)
        prompts = [rng.integers(0, model.config.vocab_size, size=2 + (5 * row) % 13)
                   for row in range(batch)]
        shared = PagedKVCache(model.config, batch_size=batch, kv_spec=kv_spec,
                              page_size=PAGE_SIZE)
        solos = []
        for row, prompt in enumerate(prompts):
            solos.append(PagedKVCache(model.config, batch_size=1, kv_spec=kv_spec,
                                      page_size=PAGE_SIZE))
            np.testing.assert_allclose(model.forward_step(prompt[None, :], shared, rows=[row]),
                                       model.forward_step(prompt[None, :], solos[-1]),
                                       atol=1e-12)
        last = np.array([[prompt[-1]] for prompt in prompts], dtype=np.int64)
        batched = model.forward_step(last, shared)
        for row, solo in enumerate(solos):
            alone = model.forward_step(last[row:row + 1], solo)[0]
            np.testing.assert_allclose(batched[row], alone, atol=1e-10)
            assert np.argmax(batched[row, -1]) == np.argmax(alone[-1])


class TestPackedStep:
    """One forward over decode rows and prefill chunks of different slots."""

    @staticmethod
    def _state(model, cache):
        """Slots 0 and 3 decoding, slot 1 part-way through its prompt, slot 2 free."""
        rng = np.random.default_rng(3)
        vocab = model.config.vocab_size
        for row, length in ((0, 9), (3, 14), (1, 6)):
            model.forward_step(rng.integers(0, vocab, size=(1, length)), cache, rows=[row])
        return [rng.integers(0, vocab, size=1), rng.integers(0, vocab, size=1),
                rng.integers(0, vocab, size=5)]

    def test_decode_rows_read_their_slot_range_as_one_pool_view(self, bench_shaped_model):
        model = bench_shaped_model
        cache = PagedKVCache(model.config, batch_size=4, kv_spec="BBFP(4,2)",
                             page_size=PAGE_SIZE)
        tokens = self._state(model, cache)
        reads = []
        context = cache.context

        def recording_context(layer, rows, context_len):
            k, v = context(layer, rows, context_len)
            reads.append((list(rows), np.shares_memory(k, cache.pool.k_store[layer])))
            return k, v

        cache.context = recording_context
        logits = model.forward_step(tokens, cache, rows=[0, 3, 1])
        decode_reads = [view for rows, view in reads if rows == [0, 1, 2, 3]]
        assert decode_reads == [True] * model.config.n_layers
        np.testing.assert_array_equal(cache.lengths, [10, 11, 0, 15])

        # the same step on a pool too small for home placement gathers every
        # read; the decoding rows' logits must not move by a single bit
        gather = PagedKVCache(model.config, batch_size=4, kv_spec="BBFP(4,2)",
                              page_size=PAGE_SIZE, num_blocks=cache.num_blocks - 1)
        self._state(model, gather)
        gathered = model.forward_step(tokens, gather, rows=[0, 3, 1])
        for row in (0, 1):
            np.testing.assert_array_equal(logits[row], gathered[row])

    @pytest.mark.parametrize("kv_spec", [None, "BBFP(4,2)", "bfp8@b32"])
    def test_ragged_step_matches_separate_calls(self, bench_shaped_model, kv_spec):
        model = bench_shaped_model
        packed = PagedKVCache(model.config, batch_size=4, kv_spec=kv_spec, page_size=PAGE_SIZE)
        apart = PagedKVCache(model.config, batch_size=4, kv_spec=kv_spec, page_size=PAGE_SIZE)
        tokens = self._state(model, packed)
        self._state(model, apart)
        logits = model.forward_step(tokens, packed, rows=[0, 3, 1])
        decoded = model.forward_step(np.stack(tokens[:2]), apart, rows=[0, 3])
        chunk = model.forward_step(tokens[2][None, :], apart, rows=[1])
        np.testing.assert_allclose(logits[0], decoded[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(logits[1], decoded[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(logits[2], chunk[0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(packed.lengths, apart.lengths)
        for layer in range(model.config.n_layers):
            k_packed, v_packed = packed.context(layer, [0, 1, 2, 3], 15)
            k_apart, v_apart = apart.context(layer, [0, 1, 2, 3], 15)
            np.testing.assert_allclose(k_packed, k_apart, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v_packed, v_apart, rtol=0, atol=1e-12)

    def test_ragged_rows_are_validated(self, tiny_inference_model):
        model = tiny_inference_model
        cache = PagedKVCache(model.config, batch_size=2, page_size=PAGE_SIZE)
        with pytest.raises(ValueError, match="rows"):
            model.forward_step([np.array([1]), np.array([2, 3])], cache, rows=[0])
        with pytest.raises(ValueError, match="vocabulary"):
            model.forward_step([np.array([1]), np.array([2, -3])], cache, rows=[0, 1])
        with pytest.raises(ValueError, match="non-empty"):
            model.forward_step([np.array([], dtype=np.int64), np.array([2, 3])], cache,
                               rows=[0, 1])
        np.testing.assert_array_equal(cache.lengths, [0, 0])


class _NoPlans(dict):
    """A plan store that never hands a plan back: every call computes its own."""

    def get(self, key, default=None):
        return default


class TestPlanReuse:
    """Layers after the first reuse each group's write and read plan.

    Every case runs its steps twice, with plans reused and with reuse off,
    and needs the same logits and the same bytes in every page.
    """

    @staticmethod
    def _run(model, steps, reuse):
        cache = PagedKVCache(model.config, batch_size=3, kv_spec="BBFP(4,2)",
                             page_size=PAGE_SIZE)
        if not reuse:
            cache._writes, cache._reads = _NoPlans(), _NoPlans()
        logits = steps(model, cache)
        pages = [store.copy() for store in cache.pool.k_store + cache.pool.v_store]
        return logits, pages

    def _check(self, model, steps):
        reused, reused_pages = self._run(model, steps, reuse=True)
        fresh, fresh_pages = self._run(model, steps, reuse=False)
        assert len(reused) == len(fresh)
        for got, want in zip(reused, fresh):
            for got_row, want_row in zip(got, want):
                np.testing.assert_array_equal(got_row, want_row)
        for got, want in zip(reused_pages, fresh_pages):
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def _moved_prefix_page(model, cache):
        """A chunk's page allocation moves a prefix page an earlier group's slot holds."""
        rng = np.random.default_rng(11)
        vocab = model.config.vocab_size
        prefix = rng.integers(0, vocab, size=2 * PAGE_SIZE + 1)
        logits = [model.forward_step(prefix[None, :], cache, rows=[2])]
        # its two full pages stay in the index, on slot 2's home blocks
        cache.retire_request(2, prefix.tolist())
        prompt = np.concatenate([prefix[:2 * PAGE_SIZE], rng.integers(0, vocab, size=3)])
        reused = cache.begin_request(0, prompt.tolist())
        assert reused == 2 * PAGE_SIZE
        logits.append(model.forward_step(prompt[None, reused:], cache, rows=[0]))
        logits.append(model.forward_step(rng.integers(0, vocab, size=(1, 5)), cache, rows=[1]))
        shared = cache._tables[0][:2]
        assert shared == cache._home_ids[2, :2].tolist()
        # decode rows 0 and 1 form the first group; slot 2's chunk allocates its
        # home blocks, so the shared pages move and slot 0's table is repointed
        logits.append(model.forward_step(
            [rng.integers(0, vocab, size=1), rng.integers(0, vocab, size=1),
             rng.integers(0, vocab, size=5)], cache, rows=[0, 1, 2]))
        assert cache._tables[0][:2] != shared
        for _ in range(3):
            logits.append(model.forward_step(rng.integers(0, vocab, size=(3, 1)), cache))
        return logits

    @staticmethod
    def _readmitted_row(model, cache):
        """Two forwards over the same rows, with row 1 reset and begun again between them."""
        rng = np.random.default_rng(12)
        vocab = model.config.vocab_size
        prompt = rng.integers(0, vocab, size=3 * PAGE_SIZE + 1).tolist()
        logits = [model.forward_step(rng.integers(0, vocab, size=(1, 7)), cache, rows=[0]),
                  model.forward_step(np.array([prompt]), cache, rows=[1])]
        cache.commit_prefix(1, prompt)
        logits.append(model.forward_step(rng.integers(0, vocab, size=(2, 1)), cache,
                                         rows=[0, 1]))
        cache.reset([1])
        # one token left to prefill: the next forward has the last one's shape
        reused = cache.begin_request(1, prompt[:2 * PAGE_SIZE + 1])
        assert reused == 2 * PAGE_SIZE
        for _ in range(3):
            logits.append(model.forward_step(rng.integers(0, vocab, size=(2, 1)), cache,
                                             rows=[0, 1]))
        return logits

    def test_page_moved_by_a_later_group_mid_forward(self, tiny_inference_model):
        self._check(tiny_inference_model, self._moved_prefix_page)

    def test_row_reset_and_begun_between_forwards(self, tiny_inference_model):
        self._check(tiny_inference_model, self._readmitted_row)

    def test_read_follows_a_page_moved_by_another_rows_allocation(self, tiny_inference_model):
        # forward_step reads only after every group has appended; a direct
        # caller may read, let another row allocate, and read again
        model = tiny_inference_model
        cache = PagedKVCache(model.config, batch_size=3, page_size=PAGE_SIZE)
        prefix = np.arange(1, 2 * PAGE_SIZE + 2)
        model.forward_step(prefix[None, :], cache, rows=[2])
        cache.retire_request(2, prefix.tolist())
        assert cache.begin_request(0, prefix.tolist()) == 2 * PAGE_SIZE
        before = [np.array(side) for side in cache.context(0, [0], 2 * PAGE_SIZE)]
        shared = cache._tables[0][:2]
        new = np.ones((1, model.config.n_heads, 2 * PAGE_SIZE, model.config.head_dim))
        cache.append(0, [2], new, new)  # claims slot 2's home blocks: the prefix pages move
        assert cache._tables[0][:2] != shared
        after = cache.context(0, [0], 2 * PAGE_SIZE)
        for old, moved in zip(before, after):
            np.testing.assert_array_equal(old, moved)


class TestErrors:
    def test_overflow_beyond_capacity_raises(self, tiny_inference_model):
        cache = PagedKVCache(tiny_inference_model.config, batch_size=1, max_seq_len=6,
                             page_size=PAGE_SIZE)
        with pytest.raises(ValueError, match="max_seq_len"):
            tiny_inference_model.forward_step(np.arange(7)[None, :], cache)

    def test_row_count_must_match_batch(self, tiny_inference_model):
        cache = PagedKVCache(tiny_inference_model.config, batch_size=2, page_size=PAGE_SIZE)
        with pytest.raises(ValueError, match="rows"):
            tiny_inference_model.forward_step(np.arange(3)[None, :], cache, rows=[0, 1])

    def test_batch_must_match_cache_without_rows(self, tiny_inference_model):
        cache = PagedKVCache(tiny_inference_model.config, batch_size=2, page_size=PAGE_SIZE)
        with pytest.raises(ValueError, match="cache batch"):
            tiny_inference_model.forward_step(np.arange(3)[None, :], cache)

    def test_empty_step_rejected(self, tiny_inference_model):
        cache = PagedKVCache(tiny_inference_model.config, batch_size=1, page_size=PAGE_SIZE)
        with pytest.raises(ValueError, match="at least one"):
            tiny_inference_model.forward_step(np.zeros((1, 0), dtype=np.int64), cache)

    @pytest.mark.parametrize("tokens, rows, match", [
        ([[5], [7]], [0, 0], "distinct"),      # both rows would write slot 0's next position
        ([[5]], [-1], "slots in"),             # would silently address the last slot
        ([[5]], [2], "slots in"),              # past the cache batch
        ([[-1]], [1], "vocabulary"),           # would silently embed the last token
        ([[None]], [1], "vocabulary"),         # None: the vocabulary size itself
    ], ids=["repeated-row", "negative-row", "row-past-batch", "negative-token",
            "token-past-vocab"])
    def test_bad_rows_and_tokens_rejected_before_any_write(self, tiny_inference_model,
                                                           tokens, rows, match):
        model = tiny_inference_model
        cache = PagedKVCache(model.config, batch_size=2, page_size=PAGE_SIZE)
        model.forward_step(np.array([[1, 2, 3]]), cache, rows=[0])
        tokens = [[model.config.vocab_size if t is None else t for t in row] for row in tokens]
        with pytest.raises(ValueError, match=match):
            model.forward_step(np.array(tokens), cache, rows=rows)
        np.testing.assert_array_equal(cache.lengths, [3, 0])


class TestQuantisedKV:
    @pytest.mark.parametrize("spec", ["bfp8@b32", "bbfp(4,2)"])
    def test_kv_nll_is_chunk_invariant_for_block_formats(self, tiny_inference_model, spec):
        """Block formats scale within one position: one-shot == token-by-token.

        (Per-tensor INT specs are append-granular — their scale spans the
        appended block — so only the blocked formats carry this guarantee.)
        """
        from repro.llm.activations import log_softmax

        model = tiny_inference_model
        tokens = np.arange(1, 17, dtype=np.int64)
        one_shot = kv_cached_negative_log_likelihood(model, tokens, kv_spec=spec)
        cache = PagedKVCache(model.config, batch_size=1, kv_spec=spec, page_size=PAGE_SIZE)
        logits = [model.forward_step(np.array([[t]], dtype=np.int64), cache)[0]
                  for t in tokens[:-1]]
        log_probs = log_softmax(np.concatenate(logits, axis=0), axis=-1)
        picked = np.take_along_axis(log_probs, tokens[1:, None], axis=-1)[:, 0]
        assert one_shot == pytest.approx(float(-picked.mean()), rel=1e-12)

    def test_unquantised_kv_nll_matches_model_nll(self, tiny_inference_model):
        tokens = np.arange(1, 25, dtype=np.int64)
        direct = tiny_inference_model.negative_log_likelihood(tokens)
        cached = kv_cached_negative_log_likelihood(tiny_inference_model, tokens)
        assert cached == pytest.approx(direct, rel=1e-12)
