"""Randomized differential test: the batched engine against solo decodes.

Each case draws one serving scenario from its seed: Poisson arrivals behind
a first wave that fills the decode batch, short prompts beside prompts longer
than a step's token budget, shared prefixes, greedy and seeded top-k
sampling, stop tokens, deadlines, and cancels aimed at queued, mid-prefill
and decoding requests.  It serves the scenario on a ``VirtualClock`` engine
and checks that

* every request that finished with ``length`` or ``stop_token`` generated
  exactly the tokens a batch-1 engine generates for it alone (same KV spec
  and page size), and a cancelled or timed-out request's partial tokens are
  a prefix of them;
* no KV page leaks, audited after every step;
* a second run of the same scenario gives an identical report.

Per-tensor and per-channel ``int8`` K/V scales span a request's whole
appended prompt, so a page shared from another request's prompt holds other
values than a solo prefill computes.  For those specs every prompt opens
with its own token, so nothing is shared; the block formats and fp16 share.

Quantised linears are checked too.  A block-format weight spec quantises
each token's activations on its own, so the same checks hold.  Under a
per-tensor ``int4`` one, one activation scale spans a forward's tokens: the
engine runs each prompt whole and alone, so a request's first token still
equals its solo one, while its later tokens share a decode forward — and its
scale — with the rest of the batch, as they always have.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.llm.inference import InferenceModel, QuantizationScheme
from repro.quant import get_quantizer
from repro.serve.engine import EngineConfig, Request, ServeEngine, VirtualClock

KV_SPECS = [None, "BBFP(4,2)", "bfp8@b32", "int8", "int8@pc"]
PAGE_SIZES = [1, 4, 16, 160]
WEIGHT_SPECS = ["BBFP(4,2)", "int4"]

#: Decode steps a scenario may take before the run counts as wedged.
MAX_STEPS = 2_000


def _draw_scenario(seed: int, vocab: int, max_seq_len: int, shareable: bool):
    """``(max_batch_size, requests, cancels)``; ``cancels`` maps step -> kind."""
    rng = np.random.default_rng(seed)
    batch = int(rng.choice([2, 3, 4, 6]))
    num_requests = batch + int(rng.integers(5, 9))
    prefixes = [rng.integers(0, vocab, size=int(rng.integers(8, 70))).tolist()
                for _ in range(2)]
    requests = []
    clock = 0.0
    for rid in range(num_requests):
        first_wave = rid < batch
        if first_wave:
            # short prompts, long answers: the batch is full of decode rows
            # when the later arrivals come in
            length, new_tokens, arrival = int(rng.integers(2, 12)), int(rng.integers(10, 24)), 0.0
        else:
            clock += float(rng.exponential(0.012))
            long_prompt = rng.random() < 0.4
            length = int(rng.integers(70, 140) if long_prompt else rng.integers(2, 40))
            new_tokens, arrival = int(rng.integers(1, 16)), clock
        if shareable and rng.random() < 0.5:
            prefix = prefixes[int(rng.integers(len(prefixes)))]
            tail = rng.integers(0, vocab, size=max(1, length - len(prefix))).tolist()
            prompt = prefix + tail
        else:
            prompt = rng.integers(0, vocab, size=length).tolist()
            if not shareable:
                prompt[0] = rid  # a distinct first token: no page is ever shared
        new_tokens = min(new_tokens, max_seq_len - len(prompt))
        greedy = rng.random() < 0.5
        requests.append(Request(
            request_id=rid, prompt_tokens=prompt, max_new_tokens=new_tokens,
            arrival_time=arrival,
            temperature=0.0 if greedy else 0.8,
            top_k=0 if greedy else int(rng.choice([0, 8])),
            seed=int(rng.integers(0, 2**31)),
            stop_token=int(rng.integers(vocab)) if rng.random() < 0.3 else None,
            deadline=(arrival + float(rng.uniform(0.02, 0.4))
                      if rng.random() < 0.2 else None),
        ))
    cancel_steps = rng.choice(np.arange(1, 30), size=3, replace=False)
    kinds = rng.choice(["queued", "prefilling", "decoding"], size=3)
    return batch, requests, dict(zip(cancel_steps.tolist(), kinds.tolist()))


def _serve(model, config: EngineConfig, requests, cancels):
    """Serve ``requests``, firing ``cancels``; returns ``(report, cancelled kinds)``."""
    produced = set()

    def on_token(request_id, _token, _now):
        produced.add(request_id)

    engine = ServeEngine(model, config, clock=VirtualClock(), on_token=on_token)
    for request in requests:
        engine.submit(request)
    fired = []
    steps = 0
    while engine.has_work:
        kind = cancels.get(steps)
        if kind is not None:
            if kind == "queued":
                victims = [r.request_id for r in engine.queued_requests()]
            else:
                active = [r.request_id for r in engine.active_requests()]
                victims = [rid for rid in active
                           if (rid in produced) == (kind == "decoding")]
            if victims:
                engine.cancel(victims[0])
                fired.append(kind)
        engine.step()
        steps += 1
        assert engine.audit_kv_pages()["leaked"] == [], f"leak after step {steps}"
        assert steps < MAX_STEPS, "engine did not drain"
    return engine.report(), fired


def _fingerprint(report) -> tuple:
    records = tuple(
        (c.request.request_id, c.generated_tokens, c.finish_reason, c.arrival_time,
         c.admitted_time, c.first_token_time, c.finish_time)
        for c in report.completed)
    counts = (report.steps, report.prefill_tokens, report.decode_tokens,
              report.reused_tokens, report.peak_active, report.peak_pages_in_use,
              report.cancelled, report.timed_out)
    return records, counts, tuple(sorted(report.summary().items()))


def _solo_tokens(model, request: Request, kv_spec, page_size: int) -> tuple:
    engine = ServeEngine(model, EngineConfig(max_batch_size=1, kv_spec=kv_spec,
                                             kv_page_size=page_size),
                         clock=VirtualClock())
    alone = dataclasses.replace(request, request_id=0, arrival_time=0.0, deadline=None)
    (done,) = engine.run([alone]).completed
    assert done.ok
    return done.generated_tokens


def _check_against_solo(model, kv_spec, page_size: int, seed: int, shareable: bool,
                        whole_answers: bool = True) -> None:
    """Serve one drawn scenario twice and hold it against solo decodes.

    ``whole_answers=False`` holds only each request's first token to its
    solo decode.
    """
    batch, requests, cancels = _draw_scenario(
        seed, model.config.vocab_size, model.config.max_seq_len, shareable)
    config = EngineConfig(max_batch_size=batch, kv_spec=kv_spec, kv_page_size=page_size)

    report, fired = _serve(model, config, requests, cancels)
    again, fired_again = _serve(model, config, requests, cancels)
    assert _fingerprint(report) == _fingerprint(again)
    assert fired == fired_again

    by_id = {c.request.request_id: c for c in report.completed}
    assert sorted(by_id) == [r.request_id for r in requests]
    assert report.cancelled == len(fired)
    for request in requests:
        done = by_id[request.request_id]
        if not done.ok and not done.generated_tokens:
            continue
        solo = _solo_tokens(model, request, kv_spec, page_size)
        if not whole_answers:
            assert done.generated_tokens[:1] == solo[:1], (
                f"request {request.request_id}: first token diverged from its solo decode")
        elif done.ok:
            assert done.generated_tokens == solo, (
                f"request {request.request_id} ({done.finish_reason}) diverged "
                f"from its solo decode")
        else:
            partial = done.generated_tokens
            assert partial == solo[:len(partial)], (
                f"request {request.request_id} ({done.finish_reason}) produced "
                f"tokens its solo decode does not")


@pytest.mark.parametrize("page_size", PAGE_SIZES, ids=lambda p: f"page{p}")
@pytest.mark.parametrize("kv_spec", KV_SPECS, ids=lambda s: s or "fp16")
def test_batched_engine_matches_solo_decodes(bench_shaped_model, kv_spec, page_size):
    shareable = kv_spec is None or get_quantizer(kv_spec).batch_separable
    _check_against_solo(bench_shaped_model, kv_spec, page_size,
                        seed=1000 * KV_SPECS.index(kv_spec) + page_size, shareable=shareable)


@pytest.mark.parametrize("weight_spec", WEIGHT_SPECS)
def test_quantised_linears_match_solo_decodes(bench_shaped_state, weight_spec):
    model = InferenceModel(*bench_shaped_state,
                           scheme=QuantizationScheme.from_format(weight_spec))
    separable = model.scheme.batch_separable
    assert separable == (weight_spec != "int4")
    # a cached prefix would shorten the prefilled suffix, and with it the
    # span of a per-tensor scale: int4 prompts share nothing
    _check_against_solo(model, None, 16, seed=7000 + WEIGHT_SPECS.index(weight_spec),
                        shareable=separable, whole_answers=separable)
