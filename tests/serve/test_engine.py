"""Scheduling invariants of the continuous-batching engine."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.llm.generation import GenerationConfig, generate_tokens
from repro.llm.inference import InferenceModel, QuantizationScheme
from repro.serve import engine as engine_module
from repro.serve.engine import EngineConfig, Request, ServeEngine, VirtualClock
from repro.serve.workload import WorkloadConfig, generate_requests


def make_engine(model, clock=None, **kwargs):
    return ServeEngine(model, EngineConfig(**kwargs), clock=clock or VirtualClock())


class TestCorrectness:
    def test_single_greedy_request_matches_generate_tokens(self, tiny_inference_model):
        request = Request(request_id=0, prompt_tokens=(3, 5, 7), max_new_tokens=10)
        report = make_engine(tiny_inference_model, max_batch_size=1).run([request])
        (done,) = report.completed
        expected = generate_tokens(tiny_inference_model, [3, 5, 7],
                                   GenerationConfig(max_new_tokens=10))
        np.testing.assert_array_equal(done.tokens, expected)
        assert done.finish_reason == "length"

    def test_concurrent_greedy_requests_each_match_their_solo_decode(self, tiny_inference_model):
        prompts = ((1, 2, 3), (9, 8, 7, 6), (4, 4), (2, 6, 10, 14, 18))
        requests = [Request(request_id=i, prompt_tokens=p, max_new_tokens=8)
                    for i, p in enumerate(prompts)]
        report = make_engine(tiny_inference_model, max_batch_size=4).run(requests)
        assert len(report.completed) == len(prompts)
        for done in report.completed:
            solo = generate_tokens(tiny_inference_model,
                                   np.array(done.request.prompt_tokens),
                                   GenerationConfig(max_new_tokens=8))
            np.testing.assert_array_equal(done.tokens, solo)

    def test_sampled_requests_reproduce_generate_tokens_with_same_seed(self, tiny_inference_model):
        request = Request(request_id=0, prompt_tokens=(1, 2, 3), max_new_tokens=12,
                          temperature=1.0, top_k=8, seed=42)
        report = make_engine(tiny_inference_model, max_batch_size=1).run([request])
        expected = generate_tokens(
            tiny_inference_model, [1, 2, 3],
            GenerationConfig(max_new_tokens=12, temperature=1.0, top_k=8, seed=42))
        np.testing.assert_array_equal(report.completed[0].tokens, expected)

    def test_stop_token_terminates_early(self, tiny_inference_model):
        # discover the greedy continuation, then stop on its second new token
        greedy = generate_tokens(tiny_inference_model, [3, 5, 7],
                                 GenerationConfig(max_new_tokens=10))
        stop = int(greedy[4])  # second generated token
        request = Request(request_id=0, prompt_tokens=(3, 5, 7), max_new_tokens=10,
                          stop_token=stop)
        report = make_engine(tiny_inference_model, max_batch_size=1).run([request])
        (done,) = report.completed
        assert done.finish_reason == "stop_token"
        assert done.generated_tokens[-1] == stop
        assert len(done.generated_tokens) <= 10


class TestScheduling:
    def test_deterministic_under_fixed_seed_and_virtual_clock(self, tiny_inference_model):
        workload = WorkloadConfig(num_requests=12, arrival_rate=200.0,
                                  prompt_tokens=(3, 9), new_tokens=(2, 6),
                                  temperature=0.8, seed=11)
        outcomes = []
        for _ in range(2):
            requests = generate_requests(tiny_inference_model.config.vocab_size, workload)
            report = make_engine(tiny_inference_model, max_batch_size=3,
                                 token_budget=48).run(requests)
            outcomes.append([
                (d.request.request_id, d.generated_tokens, d.first_token_time, d.finish_time)
                for d in report.completed
            ])
        assert outcomes[0] == outcomes[1]

    def test_token_budget_respected_at_every_step(self, tiny_inference_model):
        budget = 30
        engine = make_engine(tiny_inference_model, max_batch_size=4, token_budget=budget)
        for i in range(8):
            engine.submit(Request(request_id=i, prompt_tokens=(1, 2, 3, 4, 5, 6),
                                  max_new_tokens=6))
        while engine.has_work:
            engine.step()
            assert engine.active_projected_tokens <= budget
        assert len(engine.report().completed) == 8

    def test_no_starvation_under_heavy_load(self, tiny_inference_model):
        # far more requests than slots, mixed sizes: everything must finish,
        # and admission must follow arrival order (FIFO, head-of-line blocking)
        workload = WorkloadConfig(num_requests=20, arrival_rate=500.0,
                                  prompt_tokens=(2, 12), new_tokens=(1, 8), seed=3)
        requests = generate_requests(tiny_inference_model.config.vocab_size, workload)
        engine = make_engine(tiny_inference_model, max_batch_size=2, token_budget=40)
        report = engine.run(requests, max_steps=1000)
        assert sorted(d.request.request_id for d in report.completed) == list(range(20))
        # pairwise FIFO: an earlier arrival is never admitted after a later one
        # (admissions within one step share a timestamp, hence <=)
        done = report.completed
        for a in done:
            for b in done:
                if a.request.arrival_time < b.request.arrival_time:
                    assert a.admitted_time <= b.admitted_time

    def test_step_budget_bounds_every_forward(self, tiny_inference_model, monkeypatch):
        # prompts longer than the budget are prefilled in chunks, an idle
        # engine's first step included, and still decode their solo tokens
        monkeypatch.setattr(engine_module, "MAX_STEP_TOKENS", 10)
        engine = make_engine(tiny_inference_model, max_batch_size=3)
        sizes = []
        forward_step = engine.model.forward_step

        def counting(tokens, cache, rows=None):
            sizes.append(sum(len(row) for row in tokens))
            return forward_step(tokens, cache, rows)

        engine.model.forward_step = counting
        requests = [Request(request_id=i, prompt_tokens=tuple(range(1 + i, 4 + 7 * i)),
                            max_new_tokens=5) for i in range(4)]
        report = engine.run(requests)
        assert sizes[0] == 10 and max(sizes) <= 10
        assert report.prefill_tokens == sum(len(r.prompt_tokens) for r in requests)
        for done in report.completed:
            solo = generate_tokens(tiny_inference_model, np.array(done.request.prompt_tokens),
                                   GenerationConfig(max_new_tokens=5))
            np.testing.assert_array_equal(done.tokens, solo)

    def test_idle_engine_fast_forwards_to_next_arrival(self, tiny_inference_model):
        clock = VirtualClock(time_per_token=1e-3)
        engine = make_engine(tiny_inference_model, clock=clock, max_batch_size=2)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2), max_new_tokens=2,
                              arrival_time=5.0))
        report = engine.run()
        assert report.completed[0].first_token_time >= 5.0
        assert report.completed[0].time_to_first_token_s < 1.0

    def test_slots_are_recycled(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, max_batch_size=1)
        requests = [Request(request_id=i, prompt_tokens=(1 + i, 2), max_new_tokens=3)
                    for i in range(5)]
        report = engine.run(requests)
        assert len(report.completed) == 5
        assert report.peak_active == 1

    def test_report_counts_prefill_and_decode_tokens(self, tiny_inference_model):
        request = Request(request_id=0, prompt_tokens=(1, 2, 3, 4), max_new_tokens=5)
        report = make_engine(tiny_inference_model, max_batch_size=1).run([request])
        assert report.prefill_tokens == 4
        # first token comes from prefill; the remaining 4 from decode steps
        assert report.decode_tokens == 4
        summary = report.summary()
        assert summary["requests"] == 1
        assert summary["decode_tokens_per_s"] > 0


class TestUnpackedScheme:
    """A per-tensor INT activation quantiser: one scale spans a forward's tokens."""

    def test_prompts_run_whole_and_alone_and_their_first_tokens_match_solo(
        self, tiny_model_config, tiny_state_dict, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "MAX_STEP_TOKENS", 8)
        model = InferenceModel(tiny_model_config, tiny_state_dict,
                               scheme=QuantizationScheme.from_format("int4"))
        assert not model.scheme.batch_separable
        forwards = []
        forward_step = model.forward_step

        def recording(tokens, cache, rows=None):
            forwards.append([len(row) for row in tokens])
            return forward_step(tokens, cache, rows)

        model.forward_step = recording
        # prompts of 3, 9, 15 and 21 tokens, arriving while others decode
        requests = [Request(request_id=i, prompt_tokens=tuple(range(1 + i, 4 + 7 * i)),
                            max_new_tokens=5, arrival_time=0.002 * i) for i in range(4)]
        report = make_engine(model, max_batch_size=3).run(requests)
        # every forward is one whole prompt, or decode rows only
        assert sorted(sizes[0] for sizes in forwards if len(sizes) == 1 and sizes[0] > 1) == \
            [3, 9, 15, 21]
        assert all(len(sizes) == 1 or set(sizes) == {1} for sizes in forwards)
        model.forward_step = forward_step
        for done in report.completed:
            alone = dataclasses.replace(done.request, request_id=0, arrival_time=0.0)
            (solo,) = make_engine(model, max_batch_size=1).run([alone]).completed
            assert done.generated_tokens[0] == solo.generated_tokens[0]


class TestValidation:
    def test_prompt_outside_vocabulary_rejected(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model)
        with pytest.raises(ValueError, match="vocabulary"):
            engine.submit(Request(request_id=0, prompt_tokens=(10_000,), max_new_tokens=2))

    def test_request_larger_than_slot_capacity_rejected(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, max_seq_len=8)
        with pytest.raises(ValueError, match="capacity"):
            engine.submit(Request(request_id=0, prompt_tokens=tuple(range(1, 7)),
                                  max_new_tokens=4))

    def test_request_larger_than_token_budget_rejected(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, token_budget=6)
        with pytest.raises(ValueError, match="budget"):
            engine.submit(Request(request_id=0, prompt_tokens=(1, 2, 3, 4), max_new_tokens=4))

    def test_invalid_request_fields_rejected(self):
        with pytest.raises(ValueError, match="at least one token"):
            Request(request_id=0, prompt_tokens=(), max_new_tokens=2)
        # past this check each value crashed step() or wedged the queue head
        nan = float("nan")
        for field, value in (("max_new_tokens", 0), ("max_new_tokens", nan),
                             ("max_new_tokens", 2.5), ("temperature", -0.5),
                             ("temperature", nan), ("temperature", float("inf")),
                             ("top_k", -1), ("top_k", 2.5), ("seed", -1),
                             ("seed", 1.5), ("arrival_time", nan),
                             ("arrival_time", float("inf"))):
            with pytest.raises((TypeError, ValueError), match=field):
                Request(request_id=0, prompt_tokens=(1,), **{field: value})
        # ids used to be truncated or parsed by int(): [1.9] was served as token 1
        for prompt in ([1.9, 2.7], ["5"], [True, 3], np.array([1.0, 2.0])):
            with pytest.raises((TypeError, ValueError), match="prompt_tokens"):
                Request(request_id=0, prompt_tokens=prompt)
        numpy_ints = Request(request_id=0, prompt_tokens=np.array([1, 2], dtype=np.int32),
                             max_new_tokens=np.int64(2), top_k=np.int32(3),
                             seed=np.uint8(4))
        assert numpy_ints.prompt_tokens == (1, 2)
        assert numpy_ints.projected_tokens == 4
        assert Request(request_id=0, prompt_tokens=[np.int64(7), 8]).prompt_tokens == (7, 8)

    def test_stop_token_must_be_an_integer_id_in_the_vocabulary(self, tiny_inference_model):
        # each was stored and never stopped a request ("a", 2.7, -5, 10**9) or
        # stopped it at another id (True at id 1, 37.0 at id 37)
        for stop in ("a", 2.7, 37.0, True, np.float64(3.0)):
            with pytest.raises(TypeError, match="stop_token"):
                Request(request_id=0, prompt_tokens=(1,), stop_token=stop)
        engine = make_engine(tiny_inference_model)
        vocab = tiny_inference_model.config.vocab_size
        for stop in (-5, vocab, 10**9):
            with pytest.raises(ValueError, match="stop_token"):
                engine.submit(Request(request_id=0, prompt_tokens=(1,), stop_token=stop))
        assert engine.queue_depth == 0
        for request_id, stop in enumerate((0, np.int64(vocab - 1), None)):
            engine.submit(Request(request_id=request_id, prompt_tokens=(1,), stop_token=stop))
        assert engine.queue_depth == 3

    @pytest.mark.parametrize("field", ["max_batch_size", "token_budget", "max_seq_len",
                                       "kv_page_size", "num_kv_blocks"])
    def test_non_integer_engine_sizes_rejected(self, tiny_inference_model, field):
        # a float used to be truncated somewhere downstream: 2.5-token pages
        # served 2-token pages, 40.5 blocks built 40, a 20.5-token slot capped
        # at 20, and max_batch_size=2.5 failed later inside range()
        with pytest.raises(TypeError, match=field):
            EngineConfig(**{field: 2.5})
        engine = make_engine(tiny_inference_model, **{field: np.int64(40)})
        assert getattr(engine.config, field) == 40

    def test_per_tensor_kv_quantisation_is_isolated_per_request(self, tiny_inference_model):
        """A request's tokens must not depend on who shares its decode batch.

        Per-tensor INT scales are computed per cache row, so an outlier-heavy
        co-batched request cannot coarsen another request's stored K/V.
        """
        target = Request(request_id=0, prompt_tokens=(3, 5, 7, 9), max_new_tokens=8)
        noisy = Request(request_id=1, prompt_tokens=(1, 1, 2, 2, 3, 3), max_new_tokens=8)
        solo = make_engine(tiny_inference_model, max_batch_size=1,
                           kv_spec="int8").run([target])
        together = make_engine(tiny_inference_model, max_batch_size=2,
                               kv_spec="int8").run([target, noisy])
        solo_tokens = solo.completed[0].generated_tokens
        batched_tokens = next(d for d in together.completed
                              if d.request.request_id == 0).generated_tokens
        assert solo_tokens == batched_tokens

    def test_quantised_kv_engine_still_terminates_and_is_valid(self, tiny_inference_model):
        requests = [Request(request_id=i, prompt_tokens=(1, 2, 3), max_new_tokens=6)
                    for i in range(3)]
        report = make_engine(tiny_inference_model, max_batch_size=3,
                             kv_spec="bfp8@b32").run(requests)
        assert report.kv_spec != "fp16"
        vocab = tiny_inference_model.config.vocab_size
        for done in report.completed:
            assert len(done.generated_tokens) == 6
            assert all(0 <= t < vocab for t in done.generated_tokens)


class TestExternalDriveHooks:
    """The introspection surface an external co-simulator (repro.cluster) steps by."""

    def test_queue_depth_and_num_active_track_the_lifecycle(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, max_batch_size=2)
        assert engine.queue_depth == 0 and engine.num_active == 0
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2), max_new_tokens=3))
        engine.submit(Request(request_id=1, prompt_tokens=(4, 5), max_new_tokens=3))
        assert engine.queue_depth == 2 and engine.num_active == 0
        engine.step()  # admits + prefills both, first decode
        assert engine.queue_depth == 0 and engine.num_active == 2
        while engine.has_work:
            engine.step()
        assert engine.queue_depth == 0 and engine.num_active == 0

    def test_projected_load_counts_active_and_queued_tokens(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, max_batch_size=1)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2, 3), max_new_tokens=4))
        engine.submit(Request(request_id=1, prompt_tokens=(5, 6), max_new_tokens=2))
        assert engine.projected_load == 7 + 4
        engine.step()  # request 0 admitted (slot limit keeps 1 queued)
        assert engine.active_projected_tokens == 7
        assert engine.projected_load == 7 + 4

    def test_next_event_time_drives_event_ordering(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, max_batch_size=1)
        assert engine.next_event_time == float("inf")
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2), max_new_tokens=6,
                              arrival_time=0.5))
        assert engine.next_event_time == 0.5  # idle: the head-of-queue arrival
        engine.step()
        assert engine.next_event_time == engine.clock.now()  # decoding: now
        while engine.has_work:
            engine.step()
        assert engine.next_event_time == float("inf")


class TestPagedEngine:
    """Paged KV: token identity, prefix reuse, block admission.

    The dense baseline is a page of ``max_seq_len``: one page per slot,
    nothing shareable.
    """

    def _shared_prefix_requests(self, prefix_len=20, count=6, max_new=5):
        prefix = tuple(range(1, prefix_len + 1))
        return [Request(request_id=i, prompt_tokens=prefix + (30 + i, 31 + i),
                        max_new_tokens=max_new) for i in range(count)]

    def test_greedy_decode_is_token_identical_to_the_dense_cache(
        self, tiny_inference_model
    ):
        requests = self._shared_prefix_requests()
        seq = tiny_inference_model.config.max_seq_len
        reports = {
            page: make_engine(tiny_inference_model, max_batch_size=3,
                              kv_page_size=page).run(requests)
            for page in (seq, 4)
        }
        by_id = lambda report: sorted(report.completed,
                                      key=lambda c: c.request.request_id)
        for dense, paged in zip(by_id(reports[seq]), by_id(reports[4])):
            assert dense.generated_tokens == paged.generated_tokens

    def test_prefix_hits_skip_prefill_and_cut_virtual_time(self, tiny_inference_model):
        requests = self._shared_prefix_requests(prefix_len=24)
        dense = make_engine(tiny_inference_model, max_batch_size=3,
                            kv_page_size=tiny_inference_model.config.max_seq_len
                            ).run(requests)
        paged = make_engine(tiny_inference_model, max_batch_size=3,
                            kv_page_size=4).run(requests)
        assert paged.reused_tokens > 0
        assert paged.prefill_tokens + paged.reused_tokens == dense.prefill_tokens
        assert paged.kv_hit_rate > 0.5  # 24 of 26 prompt tokens shared
        assert paged.elapsed_s < dense.elapsed_s  # skipped prefill = skipped tokens
        assert dense.kv_hit_rate == 0.0 and dense.reused_tokens == 0

    @pytest.mark.parametrize("step_tokens", [64, 8])
    def test_same_prefix_newcomers_compute_the_shared_pages_once(
        self, tiny_inference_model, monkeypatch, step_tokens
    ):
        # both arrive together: the second waits until the first has committed
        # the shared pages (over several chunks at the 8-token budget), then
        # adopts all five of them
        monkeypatch.setattr(engine_module, "MAX_STEP_TOKENS", step_tokens)
        requests = self._shared_prefix_requests(count=2)
        report = make_engine(tiny_inference_model, max_batch_size=2,
                             kv_page_size=4).run(requests)
        assert report.reused_tokens == 20
        assert report.prefill_tokens == 22 + 2

    def test_quantised_paged_decode_matches_dense_for_block_formats(
        self, tiny_inference_model
    ):
        requests = self._shared_prefix_requests(count=4)
        dense = make_engine(tiny_inference_model, max_batch_size=2,
                            kv_page_size=tiny_inference_model.config.max_seq_len,
                            kv_spec="bfp8@b32").run(requests)
        paged = make_engine(tiny_inference_model, max_batch_size=2, kv_page_size=4,
                            kv_spec="bfp8@b32").run(requests)
        for d, p in zip(sorted(dense.completed, key=lambda c: c.request.request_id),
                        sorted(paged.completed, key=lambda c: c.request.request_id)):
            assert d.generated_tokens == p.generated_tokens

    def test_page_size_at_least_max_seq_len_reproduces_dense_rows(
        self, tiny_inference_model
    ):
        """One page per slot = no full pages to share = the dense schedule.

        Every prompt token is prefilled, each active request holds exactly
        one page, and any longer page reproduces the same report.
        """
        workload = WorkloadConfig(num_requests=10, arrival_rate=150.0,
                                  prompt_tokens=(3, 9), new_tokens=(2, 6), seed=4)
        requests = generate_requests(tiny_inference_model.config.vocab_size, workload)
        seq = tiny_inference_model.config.max_seq_len
        dense, longer = (make_engine(tiny_inference_model, max_batch_size=3,
                                     kv_page_size=page).run(requests)
                         for page in (seq, 4 * seq))
        assert dense.reused_tokens == 0
        assert dense.prefill_tokens == sum(len(r.prompt_tokens) for r in requests)
        assert dense.peak_pages_in_use == dense.peak_active
        assert longer.summary() == dense.summary()
        assert longer.kv_page_size == dense.kv_page_size == seq

    def test_free_block_accounting_blocks_head_of_line_until_pages_free(
        self, tiny_inference_model
    ):
        # 8 pages of 4 = 32 token positions; each request projects 12 tokens
        # (3 pages), so only two fit concurrently despite 4 slots
        engine = make_engine(tiny_inference_model, max_batch_size=4,
                             kv_page_size=4, num_kv_blocks=8, max_seq_len=16)
        for i in range(5):
            engine.submit(Request(request_id=i,
                                  prompt_tokens=tuple(range(1 + i, 9 + i)),
                                  max_new_tokens=4))
        while engine.has_work:
            engine.step()
            assert engine.cache.pages_in_use <= 8
            assert engine.num_active <= 2
        assert len(engine.report().completed) == 5

    def test_prompt_beyond_positional_window_rejected_at_submit(
        self, tiny_inference_model
    ):
        engine = make_engine(tiny_inference_model, max_seq_len=8)
        with pytest.raises(ValueError, match="positional window"):
            engine.submit(Request(request_id=0, prompt_tokens=tuple(range(1, 11)),
                                  max_new_tokens=1))

    def test_paged_run_is_deterministic_under_virtual_clock(self, tiny_inference_model):
        workload = WorkloadConfig(num_requests=12, arrival_rate=200.0,
                                  prompt_tokens=(3, 9), new_tokens=(2, 6),
                                  temperature=0.7, seed=11)
        summaries = []
        for _ in range(2):
            requests = generate_requests(tiny_inference_model.config.vocab_size, workload)
            report = make_engine(tiny_inference_model, max_batch_size=3,
                                 kv_page_size=4).run(requests)
            summaries.append((report.summary(),
                              [(c.request.request_id, c.generated_tokens,
                                c.first_token_time, c.finish_time)
                               for c in report.completed]))
        assert summaries[0] == summaries[1]

    def test_report_carries_the_paging_surface(self, tiny_inference_model):
        requests = self._shared_prefix_requests(count=3)
        report = make_engine(tiny_inference_model, max_batch_size=3,
                             kv_page_size=4).run(requests)
        assert report.kv_page_size == 4
        assert report.peak_pages_in_use > 0
        assert report.kv_peak_memory_bits > 0
        summary = report.summary()
        assert set(("kv_hit_rate", "peak_pages_in_use", "kv_peak_memory_mib")) <= \
            set(summary)


class TestWorkloadValidation:
    def test_negative_temperature_rejected(self):
        for temperature in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="temperature"):
                WorkloadConfig(temperature=temperature)

    def test_negative_top_k_rejected(self):
        for top_k in (-1, 2.5):
            with pytest.raises(ValueError, match="top_k"):
                WorkloadConfig(top_k=top_k)

    def test_zero_sampling_parameters_stay_valid(self):
        config = WorkloadConfig(temperature=0.0, top_k=0)
        assert config.temperature == 0.0 and config.top_k == 0
