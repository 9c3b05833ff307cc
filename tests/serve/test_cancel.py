"""Cancellation, deadlines and KV page-reclaim invariants of the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.inference import InferenceModel, QuantizationScheme
from repro.serve import engine as engine_module
from repro.serve.engine import EngineConfig, Request, ServeEngine, VirtualClock


def make_engine(model, **kwargs):
    kwargs.setdefault("max_batch_size", 2)
    return ServeEngine(model, EngineConfig(**kwargs), clock=VirtualClock())


def assert_clean_audit(engine):
    audit = engine.audit_kv_pages()
    assert audit["leaked"] == [], audit


#: Short pages (prompts span several, prefix pages get indexed) and one page
#: per slot (the tiny model's max_seq_len of 64: nothing is ever shareable,
#: the dense baseline).
PAGE_SIZES = [dict(kv_page_size=4), dict(kv_page_size=64)]
PAGE_IDS = ["paged", "dense"]


class TestCancelQueued:
    @pytest.mark.parametrize("pages", PAGE_SIZES, ids=PAGE_IDS)
    def test_cancel_before_admission_never_touches_the_cache(
            self, tiny_inference_model, pages):
        engine = make_engine(tiny_inference_model, **pages)
        engine.submit(Request(request_id=7, prompt_tokens=(1, 2, 3), max_new_tokens=4))
        record = engine.cancel(7)
        assert record.finish_reason == "cancelled"
        assert record.generated_tokens == ()
        assert record.admitted_time is None and record.first_token_time is None
        assert engine.queue_depth == 0 and not engine.has_work
        assert_clean_audit(engine)
        assert engine.cache.pages_in_use == 0

    def test_cancel_rebuilds_a_valid_heap(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model)
        for rid in range(4):
            engine.submit(Request(request_id=rid, prompt_tokens=(1 + rid,),
                                  max_new_tokens=2, arrival_time=float(rid)))
        engine.cancel(1)
        remaining = [r.request_id for r in engine.queued_requests()]
        assert remaining == [0, 2, 3]
        report = engine.run()
        ok = [c for c in report.completed if c.ok]
        assert sorted(c.request.request_id for c in ok) == [0, 2, 3]


class TestCancelActive:
    @pytest.mark.parametrize("pages", PAGE_SIZES, ids=PAGE_IDS)
    def test_cancel_just_after_prefill_reclaims_every_page(
            self, tiny_inference_model, pages):
        engine = make_engine(tiny_inference_model, **pages)
        engine.submit(Request(request_id=0, prompt_tokens=tuple(range(1, 11)),
                              max_new_tokens=30))
        engine.step()   # admits + prefills + one decode token
        assert engine.num_active == 1
        record = engine.cancel(0)
        assert record.finish_reason == "cancelled"
        assert record.admitted_time is not None
        assert engine.num_active == 0
        assert_clean_audit(engine)
        # prompt pages committed at prefill stay radix-owned (refcount 1,
        # evictable); everything else went back to the free list
        owned = set(engine.cache.index.owned_blocks())
        assert set(engine.cache.pool.allocated_blocks()) == owned
        assert all(engine.cache.pool.refcount(b) == 1 for b in owned)

    @pytest.mark.parametrize("pages", PAGE_SIZES, ids=PAGE_IDS)
    def test_cancel_mid_decode_frees_or_returns_pages_to_the_index(
            self, tiny_inference_model, pages):
        engine = make_engine(tiny_inference_model, **pages)
        engine.submit(Request(request_id=0, prompt_tokens=(2, 4, 6, 8), max_new_tokens=30))
        engine.submit(Request(request_id=1, prompt_tokens=(3, 5, 7), max_new_tokens=30))
        for _ in range(3):
            engine.step()
        assert engine.num_active == 2
        engine.cancel(0)
        # the survivor keeps decoding correctly after its neighbour vanishes
        assert engine.num_active == 1
        assert_clean_audit(engine)
        report = engine.run()
        ok = [c for c in report.completed if c.ok]
        assert [c.request.request_id for c in ok] == [1]
        assert_clean_audit(engine)

    def test_cancel_does_not_index_the_partial_generation(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, kv_page_size=4)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2, 3, 4, 5, 6, 7, 8),
                              max_new_tokens=20))
        engine.step()
        index_before = len(engine.cache.index)   # prompt pages committed at prefill
        engine.cancel(0)
        # cancellation must not add the partial generation's pages to the index
        assert len(engine.cache.index) <= index_before
        audit = engine.audit_kv_pages()
        assert audit["leaked"] == []
        # every surviving page is index-owned with refcount exactly 1
        for block in engine.cache.index.owned_blocks():
            assert engine.cache.pool.refcount(block) == 1

    @pytest.mark.parametrize("pages", PAGE_SIZES, ids=PAGE_IDS)
    def test_cancel_reclaim_is_observable_via_pages_in_use(
            self, tiny_inference_model, pages):
        engine = make_engine(tiny_inference_model, **pages)
        engine.submit(Request(request_id=0, prompt_tokens=tuple(range(1, 9)),
                              max_new_tokens=30))
        engine.step()
        assert engine.cache.pages_in_use > 0
        assert engine.cache._tables[0]  # the request genuinely holds pages
        engine.cancel(0)
        for block in set(engine.cache.pool.allocated_blocks()):
            assert engine.cache.pool.refcount(block) == 1
            assert block in set(engine.cache.index.owned_blocks())
        assert engine.cache.lengths[0] == 0

    def test_cancel_unknown_or_finished_id_raises_key_error(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model)
        with pytest.raises(KeyError, match="never submitted"):
            engine.cancel(99)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2), max_new_tokens=1))
        engine.run()
        with pytest.raises(KeyError):
            engine.cancel(0)

    def test_cancelled_requests_are_counted_but_not_in_percentiles(
            self, tiny_inference_model):
        engine = make_engine(tiny_inference_model)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2), max_new_tokens=30))
        engine.submit(Request(request_id=1, prompt_tokens=(3, 4), max_new_tokens=2))
        engine.step()
        engine.cancel(0)
        report = engine.run()
        summary = report.summary()
        assert summary["cancelled"] == 1
        assert summary["requests"] == 1    # only the ok request
        assert np.isfinite(summary["latency_p50_ms"])


class TestDuplicateIds:
    def test_duplicate_id_rejected_with_clear_message(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model)
        engine.submit(Request(request_id=5, prompt_tokens=(1, 2), max_new_tokens=2))
        with pytest.raises(ValueError, match="duplicate request id 5"):
            engine.submit(Request(request_id=5, prompt_tokens=(3, 4), max_new_tokens=2))

    def test_id_stays_claimed_after_completion(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model)
        engine.submit(Request(request_id=5, prompt_tokens=(1, 2), max_new_tokens=1))
        engine.run()
        with pytest.raises(ValueError, match="duplicate request id"):
            engine.submit(Request(request_id=5, prompt_tokens=(3, 4), max_new_tokens=1))


class TestDeadlines:
    def test_queued_past_deadline_times_out_without_prefill(self, tiny_inference_model):
        # one slot: request 1 waits while 0 prefills 8 tokens (0.008 virtual
        # seconds at the default token rate), blowing its 0.002 deadline
        engine = make_engine(tiny_inference_model, max_batch_size=1)
        engine.submit(Request(request_id=0, prompt_tokens=tuple(range(1, 9)),
                              max_new_tokens=8))
        engine.submit(Request(request_id=1, prompt_tokens=(3, 5), max_new_tokens=4,
                              deadline=0.002))
        engine.submit(Request(request_id=2, prompt_tokens=(2, 4), max_new_tokens=2))
        report = engine.run()
        by_id = {c.request.request_id: c for c in report.completed}
        assert by_id[0].ok and by_id[2].ok
        timed = by_id[1]
        assert timed.finish_reason == "timeout"
        assert timed.admitted_time is None and timed.generated_tokens == ()
        assert report.summary()["timed_out"] == 1
        assert_clean_audit(engine)

    def test_decode_past_deadline_finishes_with_timeout_reason(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2, 3), max_new_tokens=50,
                              deadline=0.006))
        report = engine.run()
        (done,) = report.completed
        assert done.finish_reason == "timeout"
        assert 0 < len(done.generated_tokens) < 50
        assert_clean_audit(engine)
        assert report.summary()["timed_out"] == 1

    def test_timed_out_decode_still_indexes_its_valid_prefix(self, tiny_inference_model):
        engine = make_engine(tiny_inference_model, kv_page_size=4)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2, 3, 4), max_new_tokens=50,
                              deadline=0.006))
        engine.run()
        # a timeout's K/V is valid: its pages stay cached for prefix reuse
        assert len(engine.cache.index) > 0
        assert_clean_audit(engine)

    def test_prefilling_request_without_a_chunk_times_out_at_the_step_boundary(
        self, tiny_inference_model, monkeypatch
    ):
        # request 3 is part-way through its prompt when three decode rows
        # fill a budget cut to 3: it gets no chunk, yet its deadline is
        # checked at that step's boundary like every active request's
        monkeypatch.setattr(engine_module, "MAX_STEP_TOKENS", 8)
        engine = make_engine(tiny_inference_model, max_batch_size=4)
        for rid in range(3):
            engine.submit(Request(request_id=rid, prompt_tokens=(rid + 1,),
                                  max_new_tokens=10))
        engine.submit(Request(request_id=3, prompt_tokens=tuple(range(1, 31)),
                              max_new_tokens=2, deadline=0.009))
        assert engine.step() == []  # three 1-token prompts and a 5-token chunk
        monkeypatch.setattr(engine_module, "MAX_STEP_TOKENS", 3)
        (timed,) = engine.step()  # the three decode rows alone
        assert timed.request.request_id == 3 and timed.finish_reason == "timeout"
        assert timed.first_token_time is None
        assert timed.finish_time == pytest.approx(0.011)
        assert_clean_audit(engine)

    def test_decode_row_left_out_of_a_prompt_step_times_out_at_its_boundary(
        self, tiny_model_config, tiny_state_dict
    ):
        # a per-tensor INT activation scheme runs request 1's prompt alone,
        # in a step with no decode row for request 0, whose deadline passes
        model = InferenceModel(tiny_model_config, tiny_state_dict,
                               scheme=QuantizationScheme.from_format("int4"))
        engine = make_engine(model)
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2, 3), max_new_tokens=20,
                              deadline=0.01))
        engine.submit(Request(request_id=1, prompt_tokens=tuple(range(1, 41)),
                              max_new_tokens=2, arrival_time=0.0035))
        by_id = {c.request.request_id: c for c in engine.run().completed}
        timed = by_id[0]
        assert timed.finish_reason == "timeout"
        # prefill and one decode step before the prompt step
        assert len(timed.generated_tokens) == 2
        assert timed.finish_time == by_id[1].first_token_time
        assert_clean_audit(engine)

    def test_non_finite_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            Request(request_id=0, prompt_tokens=(1,), deadline=float("nan"))
        with pytest.raises(ValueError, match="deadline"):
            Request(request_id=0, prompt_tokens=(1,), deadline=float("inf"))


class TestCallbacks:
    def test_on_admit_and_on_token_fire_in_order(self, tiny_inference_model):
        events = []
        engine = ServeEngine(
            tiny_inference_model, EngineConfig(max_batch_size=2),
            clock=VirtualClock(),
            on_admit=lambda rid, t: events.append(("admit", rid)),
            on_token=lambda rid, tok, t: events.append(("token", rid, tok)))
        engine.submit(Request(request_id=0, prompt_tokens=(1, 2, 3), max_new_tokens=3))
        report = engine.run()
        (done,) = report.completed
        assert events[0] == ("admit", 0)
        streamed = [e[2] for e in events if e[0] == "token"]
        assert tuple(streamed) == done.generated_tokens
