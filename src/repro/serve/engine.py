"""Continuous-batching inference engine over the KV-cached forward path.

One :class:`ServeEngine` owns an :class:`~repro.llm.inference.InferenceModel`,
a :class:`~repro.serve.kv_cache.PagedKVCache` with one slot per concurrent
request, and a FIFO arrival queue.  Every :meth:`~ServeEngine.step` builds one
*plan* and runs it as a single ``forward_step``:

1. **decode rows**: every request past its prompt contributes its last
   sampled token;
2. **prefill chunks** fill what is left of the per-step token budget
   (:data:`MAX_STEP_TOKENS`, which counts decode rows and chunk tokens
   alike): first requests already part-way through their prompt, then newly
   **admitted** ones.  Admission takes queued requests whose arrival
   time has passed, in strict arrival order (head-of-line blocking — a large
   request cannot be starved by smaller ones overtaking it), while a free
   slot exists, the projected KV footprint stays within the token budget,
   and the request's worst-case page need plus what the already-active
   requests may still allocate fits the reclaimable page supply (free pages
   plus LRU-evictable cached prefix chains), so decode can never run the
   pool dry mid-request.  A newcomer adopts the longest cached prefix of its
   prompt (a radix-index hit skips straight past every shared full page) and
   prefills the rest in chunks; a prompt longer than what a step has left
   spans several steps;
3. **samples** the next token of every decode row and the first token of
   every prompt whose last chunk ran — the time-to-first-token moment; that
   request decodes from the next step on;
4. **retires** finished requests (length limit, stop token or deadline),
   freeing their slot and cache rows for the next admission.

A model whose activation quantiser is not batch-separable (one scale over
every token of a forward) runs each prompt whole and alone instead, in a step
of its own (see :meth:`ServeEngine._plan`).

Time comes from a pluggable clock: :class:`WallClock` measures real compute
time (and fast-forwards over idle gaps instead of sleeping, so light traffic
finishes instantly), while :class:`VirtualClock` advances deterministically
with the number of processed tokens — scheduling decisions, metrics and
sampled tokens are then exactly reproducible under a fixed seed.
"""

from __future__ import annotations

import heapq
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.stats import percentile_summary
from repro.llm.inference import InferenceModel
from repro.llm.sampling import sample_token
from repro.obs import Observability
from repro.serve.kv_cache import PagedKVCache

__all__ = ["Request", "CompletedRequest", "EngineConfig", "ServeEngine", "ServeReport",
           "WallClock", "VirtualClock", "OK_FINISH_REASONS", "MAX_STEP_TOKENS"]


# --------------------------------------------------------------------- clocks
class WallClock:
    """Real elapsed time, with idle gaps fast-forwarded instead of slept."""

    def __init__(self):
        self._origin = time.perf_counter()
        self._offset = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._origin + self._offset

    def wait_until(self, t: float) -> None:
        """Jump to ``t`` if it is in the future (simulated waiting, no sleep)."""
        gap = t - self.now()
        if gap > 0:
            self._offset += gap

    def on_tokens(self, n: int) -> None:
        """Compute time is observed directly; nothing to account."""


class VirtualClock:
    """Deterministic clock: time advances only with processed tokens."""

    def __init__(self, time_per_token: float = 1e-3):
        self.time_per_token = float(time_per_token)
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def wait_until(self, t: float) -> None:
        self._now = max(self._now, t)

    def on_tokens(self, n: int) -> None:
        self._now += n * self.time_per_token


# ------------------------------------------------------------------- requests
@dataclass(frozen=True)
class Request:
    """One generation request as it enters the queue.

    ``prompt_tokens`` are model-vocabulary token ids; ``max_new_tokens``
    bounds the continuation; ``arrival_time`` is the submission instant on
    the engine clock (0 = available immediately).  Sampling parameters
    mirror :class:`~repro.llm.generation.GenerationConfig`; ``stop_token``
    (an integer id, which :meth:`ServeEngine.submit` checks against the
    vocabulary) optionally terminates generation early when sampled.
    ``deadline`` is an absolute engine-clock instant: a request still queued
    past it is timed out without ever touching the cache, and an admitted one
    (prefilling or decoding) is finished with reason ``"timeout"`` at the
    first step boundary past it.
    """

    request_id: int
    prompt_tokens: tuple
    max_new_tokens: int = 16
    arrival_time: float = 0.0
    temperature: float = 0.0
    top_k: int = 0
    seed: int = 0
    stop_token: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self):
        # an object array keeps each id's own type, which a plain np.asarray
        # would unify ([True, 3] becomes an int array)
        tokens = np.asarray(self.prompt_tokens, dtype=object).ravel()
        if not tokens.size:
            raise ValueError("prompt_tokens must contain at least one token")
        for token in tokens:
            if not isinstance(token, (int, np.integer)) or isinstance(token, bool):
                raise TypeError(f"prompt_tokens must hold integer ids, got {token!r}")
        object.__setattr__(self, "prompt_tokens", tuple(map(int, tokens)))
        if not math.isfinite(self.arrival_time):
            raise ValueError(f"arrival_time must be a finite clock instant, "
                             f"got {self.arrival_time!r}")
        for name, low in (("max_new_tokens", 1), ("top_k", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        # a non-integer one never equals a sampled id, and True equals id 1
        if self.stop_token is not None and (not isinstance(self.stop_token, (int, np.integer))
                                            or isinstance(self.stop_token, bool)):
            raise TypeError(f"stop_token must be an integer id or None, got {self.stop_token!r}")
        if self.deadline is not None and not np.isfinite(self.deadline):
            raise ValueError("deadline must be a finite clock instant (or None)")

    @property
    def projected_tokens(self) -> int:
        """KV positions this request may occupy: prompt plus continuation."""
        return len(self.prompt_tokens) + self.max_new_tokens


#: Finish reasons of requests that produced their full answer — the records
#: latency percentiles and goodput are computed over.
OK_FINISH_REASONS = ("length", "stop_token")


@dataclass(frozen=True)
class CompletedRequest:
    """A finished request with its tokens and per-request latency metrics.

    ``finish_reason`` is ``"length"`` or ``"stop_token"`` for requests that
    ran to completion, ``"cancelled"`` for explicit :meth:`ServeEngine.cancel`
    victims and ``"timeout"`` for deadline expiries.  Requests terminated
    while still queued never held a slot: their ``admitted_time`` and
    ``first_token_time`` are ``None``.
    """

    request: Request
    generated_tokens: tuple
    finish_reason: str
    arrival_time: float
    admitted_time: Optional[float]
    first_token_time: Optional[float]
    finish_time: float

    @property
    def ok(self) -> bool:
        """Whether the request ran to completion (not cancelled or timed out)."""
        return self.finish_reason in OK_FINISH_REASONS

    @property
    def tokens(self) -> np.ndarray:
        """Full sequence (prompt + continuation) as an int64 array."""
        return np.array(self.request.prompt_tokens + self.generated_tokens, dtype=np.int64)

    @property
    def time_to_first_token_s(self) -> Optional[float]:
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def latency_s(self) -> float:
        return self.finish_time - self.arrival_time


class _ActiveRequest:
    """Mutable per-slot state: prompt tokens still to prefill, then decoding."""

    def __init__(self, request: Request, slot: int, admitted_time: float):
        self.request = request
        self.slot = slot
        self.admitted_time = admitted_time
        self.pending = None  # prompt ids not yet in the cache; None once decoding
        self.generated = []
        self.rng = (np.random.default_rng(request.seed)
                    if request.temperature > 0 else None)
        self.first_token_time = None
        self.finish_reason = None

    @property
    def last_token(self) -> int:
        return self.generated[-1]


# --------------------------------------------------------------------- engine
#: Tokens one step's forward processes at most: every decode row counts one,
#: every prefill chunk its length.  Decode rows run first and prefill chunks
#: take what is left, so a newcomer's prompt never stalls the decoding
#: requests for more than this many tokens, and an idle engine does not
#: prefill its whole queue in one forward.  From a sweep of 32/48/64/96/128
#: on the serving benchmarks (``docs/serving.md``).  A prompt that may not be
#: split runs whole (see :meth:`ServeEngine._plan`).
MAX_STEP_TOKENS = 64


@dataclass(frozen=True)
class EngineConfig:
    """Scheduling shape of a :class:`ServeEngine`.

    ``max_batch_size`` bounds concurrent requests (one KV slot each);
    ``token_budget`` bounds the *projected* KV occupancy — the sum of
    ``prompt + max_new_tokens`` over admitted requests — so admission can
    never overcommit cache memory (default: every slot full).  ``kv_spec``
    selects the KV-cache quantiser; ``max_seq_len`` shrinks the per-slot
    capacity below the model's limit.

    K/V lives in ``kv_page_size``-token pages with radix-tree prefix sharing
    and free-block admission accounting.  ``num_kv_blocks`` sizes the page
    pool (default ``max_batch_size * ceil(max_seq_len / kv_page_size)`` — the
    budget a dense layout would reserve, so page admission is never more
    restrictive than the slot and token-budget checks unless the pool is
    shrunk explicitly).  A ``kv_page_size`` of at least ``max_seq_len``
    gives each slot one page and leaves nothing shareable: the dense,
    sharing-disabled baseline.
    """

    max_batch_size: int = 8
    token_budget: Optional[int] = None
    kv_spec: Optional[str] = None
    max_seq_len: Optional[int] = None
    kv_page_size: int = 16
    num_kv_blocks: Optional[int] = None

    def __post_init__(self):
        for name in ("max_batch_size", "token_budget", "max_seq_len", "kv_page_size",
                     "num_kv_blocks"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.token_budget is not None and self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")
        if self.kv_page_size < 1:
            raise ValueError("kv_page_size must be >= 1")
        if self.num_kv_blocks is not None and self.num_kv_blocks < 1:
            raise ValueError("num_kv_blocks must be >= 1")


@dataclass
class ServeReport:
    """Outcome of an engine run: terminal request records plus aggregate counters.

    ``completed`` holds every terminal record — requests that ran to their
    stop condition *and* cancelled/timed-out ones (distinguished by
    ``finish_reason``); latency percentiles and the ``requests`` count cover
    only the former, so a run without cancellations reports exactly what it
    always did.
    """

    completed: list
    elapsed_s: float
    steps: int
    prefill_tokens: int
    decode_tokens: int
    kv_spec: str
    peak_active: int = 0
    reused_tokens: int = 0
    kv_page_size: Optional[int] = None
    peak_pages_in_use: int = 0
    kv_peak_memory_bits: float = 0.0
    cancelled: int = 0
    timed_out: int = 0

    @property
    def kv_hit_rate(self) -> float:
        """Fraction of prompt tokens served from cached prefixes (not prefilled).

        ``reused + prefill`` is the total prompt tokens the engine saw
        (``prefill_tokens`` counts only positions actually processed).
        """
        seen = self.reused_tokens + self.prefill_tokens
        return self.reused_tokens / seen if seen else 0.0

    def summary(self) -> dict:
        """Aggregate latency/throughput metrics (the serve-bench row shape)."""
        elapsed = max(self.elapsed_s, 1e-12)
        ok = [c for c in self.completed if c.ok]
        return {
            "requests": len(ok),
            "elapsed_s": self.elapsed_s,
            "prefill_tokens": self.prefill_tokens,
            "decode_tokens": self.decode_tokens,
            "decode_tokens_per_s": self.decode_tokens / elapsed,
            "total_tokens_per_s": (self.prefill_tokens + self.decode_tokens) / elapsed,
            **percentile_summary((c.time_to_first_token_s for c in ok),
                                 "ttft", scale=1e3, unit="ms"),
            **percentile_summary((c.latency_s for c in ok),
                                 "latency", scale=1e3, unit="ms"),
            "peak_active": self.peak_active,
            "kv_hit_rate": self.kv_hit_rate,
            "peak_pages_in_use": self.peak_pages_in_use,
            "kv_peak_memory_mib": self.kv_peak_memory_bits / 8.0 / 2**20,
            "cancelled": self.cancelled,
            "timed_out": self.timed_out,
        }


class ServeEngine:
    """Continuous-batching scheduler over one model and one KV cache.

    Beyond :meth:`run` (drive-to-drain, the benchmark loop) the engine can be
    driven externally one :meth:`step` at a time — the cluster simulator and
    the :mod:`repro.gateway` event loop both do — via ``next_event_time`` /
    ``queue_depth`` / ``projected_load``, and supports online control:
    :meth:`cancel` removes a queued or active request and releases its KV
    pages immediately, per-request deadlines are enforced at admission and at
    every step boundary, and the optional ``on_admit(request_id, now)`` /
    ``on_token(request_id, token, now)`` callbacks let a streaming front door
    observe admissions and sampled tokens as they happen.
    """

    def __init__(self, model: InferenceModel, config: Optional[EngineConfig] = None,
                 clock=None, on_admit=None, on_token=None,
                 obs: Optional[Observability] = None):
        self.model = model
        self.config = config or EngineConfig()
        max_seq_len = (self.config.max_seq_len if self.config.max_seq_len is not None
                       else model.config.max_seq_len)
        self.cache = PagedKVCache(model.config, self.config.max_batch_size,
                                  max_seq_len=max_seq_len, kv_spec=self.config.kv_spec,
                                  page_size=self.config.kv_page_size,
                                  num_blocks=self.config.num_kv_blocks)
        self.clock = clock or WallClock()
        self.token_budget = (self.config.token_budget
                             if self.config.token_budget is not None
                             else self.config.max_batch_size * self.cache.max_seq_len)
        self.on_admit = on_admit
        self.on_token = on_token
        # one activation scale across the step's tokens forbids packing
        # requests; a model object without a quantisation scheme has none
        scheme = getattr(model, "scheme", None)
        self._packable = scheme is None or scheme.batch_separable
        self._queue = []  # heap of (arrival_time, submit_seq, Request)
        self._submit_seq = 0
        self._active = {}  # slot -> _ActiveRequest
        self._free_slots = sorted(range(self.config.max_batch_size), reverse=True)
        self._completed = []
        self._seen_ids = set()
        self._peak_active = 0
        # observability: metrics are resolved ONCE here and updated by plain
        # attribute arithmetic; with a disabled bundle the counters (which
        # report() reads) still count, gauges and histograms are the no-op
        # metric, the tracer is None (one `is not None` test per terminal
        # record) and no profiler wraps any method — pay for what you use.
        self.obs = obs if obs is not None else Observability.disabled()
        self._tracer = self.obs.tracer
        if self.obs.profiler is not None:
            self.obs.profiler.attach(self)
        self._m_prefill = self.obs.counter(
            "engine_prefill_tokens_total", "Prompt tokens actually prefilled")
        self._m_decode = self.obs.counter(
            "engine_decode_tokens_total", "Tokens generated by batched decode")
        self._m_reused = self.obs.counter(
            "engine_reused_tokens_total", "Prompt tokens adopted from cached prefixes")
        self._m_steps = self.obs.counter("engine_steps_total", "Scheduler iterations")
        self._m_finished = {
            reason: self.obs.counter("engine_requests_finished_total",
                                     "Terminal request records by finish reason",
                                     reason=reason)
            for reason in OK_FINISH_REASONS + ("cancelled", "timeout")
        }
        registry = self.obs.registry
        labels = self.obs.labels
        self._m_queue_depth = registry.gauge(
            "engine_queue_depth", "Requests waiting for admission", labels)
        self._m_active = registry.gauge(
            "engine_active_requests", "Requests holding a cache slot", labels)
        self._m_kv_pages = registry.gauge(
            "engine_kv_pages_in_use", "Allocated KV pages", labels)
        self._m_ttft = registry.histogram(
            "engine_ttft_seconds", "Arrival to first sampled token", labels)
        self._m_latency = registry.histogram(
            "engine_request_latency_seconds",
            "Arrival to terminal record, completed requests", labels)

    # ------------------------------------------------------------ submission
    def submit(self, request: Request, not_before: Optional[float] = None) -> None:
        """Queue a request (:meth:`validate` first).

        ``not_before`` optionally floors the admission instant below which
        the request may not be scheduled, without touching the request's own
        ``arrival_time`` (which keeps anchoring its latency).  A cluster uses
        this for deliveries that physically happen after the arrival — a
        crash-orphaned request rerouted at the crash instant, or an arrival
        held at the router until a network partition heals — so a request can
        never be admitted before the router could have delivered it.
        """
        self.validate(request)
        available = (request.arrival_time if not_before is None
                     else max(request.arrival_time, float(not_before)))
        heapq.heappush(self._queue, (available, self._submit_seq, request))
        self._submit_seq += 1
        self._seen_ids.add(request.request_id)

    def validate(self, request: Request) -> None:
        """Raise ``ValueError`` if this engine can never serve ``request``; changes nothing."""
        if request.request_id in self._seen_ids:
            raise ValueError(
                f"duplicate request id {request.request_id}: ids key the engine's "
                f"queue, cancellation and completion records, so every request "
                f"submitted to one engine must carry a distinct id"
            )
        vocab = self.model.config.vocab_size
        prompt = np.asarray(request.prompt_tokens)
        if prompt.min() < 0 or prompt.max() >= vocab:
            raise ValueError("prompt contains token ids outside the model vocabulary")
        if request.stop_token is not None and not 0 <= request.stop_token < vocab:
            raise ValueError(f"stop_token {request.stop_token} lies outside the model "
                             f"vocabulary [0, {vocab})")
        window = min(self.cache.max_seq_len, self.model.config.max_seq_len)
        if len(request.prompt_tokens) > window:
            raise ValueError(
                f"request {request.request_id}: prompt length "
                f"({len(request.prompt_tokens)}) exceeds the engine's positional "
                f"window ({window}); truncate the prompt or raise max_seq_len"
            )
        if request.projected_tokens > self.cache.max_seq_len:
            raise ValueError(
                f"request {request.request_id}: prompt + max_new_tokens "
                f"({request.projected_tokens}) exceeds the per-slot capacity "
                f"({self.cache.max_seq_len})"
            )
        if request.projected_tokens > self.token_budget:
            raise ValueError(
                f"request {request.request_id}: projected tokens "
                f"({request.projected_tokens}) exceed the engine token budget "
                f"({self.token_budget})"
            )

    @property
    def has_work(self) -> bool:
        return bool(self._queue or self._active)

    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet admitted (the waiting line)."""
        return len(self._queue)

    @property
    def num_active(self) -> int:
        """Requests currently holding a cache slot (prefilled, decoding)."""
        return len(self._active)

    def queued_requests(self) -> list:
        """Waiting requests in admission order (the shedding policies' view)."""
        return [request for _, _, request in sorted(self._queue)]

    def active_requests(self) -> list:
        """Requests currently holding a cache slot, in slot order."""
        return [self._active[slot].request for slot in sorted(self._active)]

    def inflight_requests(self) -> list:
        """Every request submitted but not yet terminal: active, then queued.

        The crash-recovery hook: when a replica dies, this is exactly the
        set of requests the fleet must retry elsewhere or report lost —
        returned in deterministic order (decode slots, then the waiting
        line in admission order) so chaos runs replay bit-for-bit.
        """
        return self.active_requests() + self.queued_requests()

    @property
    def active_projected_tokens(self) -> int:
        """Projected KV occupancy of the currently admitted requests."""
        return sum(state.request.projected_tokens for state in self._active.values())

    @property
    def projected_load(self) -> int:
        """Projected KV tokens of everything on this engine: active plus queued.

        The load signal routing policies compare replicas by — unlike
        ``queue_depth`` it weighs a queued 500-token document more than a
        queued 10-token chat turn.
        """
        return self.active_projected_tokens + sum(
            request.projected_tokens for _, _, request in self._queue
        )

    @property
    def kv_hit_rate(self) -> float:
        """Running fraction of prompt tokens served from cached prefixes."""
        seen = self._m_reused.value + self._m_prefill.value
        return self._m_reused.value / seen if seen else 0.0

    @property
    def reused_tokens(self) -> int:
        """Prompt tokens adopted from cached prefixes so far."""
        return self._m_reused.value

    @property
    def peak_pages_in_use(self) -> int:
        """High-water mark of allocated KV pages."""
        return self.cache.peak_pages_in_use

    @property
    def next_event_time(self) -> float:
        """Engine-clock instant the next :meth:`step` would act at.

        ``now`` while requests are decoding, the head-of-queue arrival when
        the engine is idle with queued work, ``inf`` when fully drained.  An
        external driver co-simulating several engines on virtual clocks (the
        cluster simulator) steps whichever engine's event time is earliest,
        so cross-engine event order is deterministic.
        """
        if self._active:
            return self.clock.now()
        if self._queue:
            return max(self.clock.now(), self._queue[0][0])
        return float("inf")

    # ---------------------------------------------------------- cancellation
    def cancel(self, request_id: int) -> CompletedRequest:
        """Remove a queued or active request and reclaim its KV pages now.

        Queued requests are dropped before ever touching the cache; active
        ones release their slot's pages immediately — private pages return to
        the free list, pages adopted from the radix index drop back to being
        index-owned (refcount 1, evictable) — without indexing the partial
        generation for reuse, since nobody asked to keep it.  Returns the
        terminal :class:`CompletedRequest` record (``finish_reason
        "cancelled"``); raises :class:`KeyError` for ids this engine has never
        seen or has already finished.
        """
        for index, (_arrival, _seq, request) in enumerate(self._queue):
            if request.request_id == request_id:
                del self._queue[index]
                heapq.heapify(self._queue)
                return self._record_queued_termination(request, "cancelled")
        for state in self._active.values():
            if state.request.request_id == request_id:
                state.finish_reason = "cancelled"
                return self._release(state, index_pages=False)
        raise KeyError(
            f"request id {request_id} is not queued or active on this engine "
            f"(never submitted, or already finished)"
        )

    def _record_queued_termination(self, request: Request, reason: str) -> CompletedRequest:
        """Terminal record for a request that never held a slot (no KV to free)."""
        done = CompletedRequest(
            request=request,
            generated_tokens=(),
            finish_reason=reason,
            arrival_time=request.arrival_time,
            admitted_time=None,
            first_token_time=None,
            finish_time=self.clock.now(),
        )
        self._completed.append(done)
        self._m_finished[reason].inc()
        if self._tracer is not None:
            self._trace_terminal(done)
        return done

    def _expire_queued(self, now: float) -> list:
        """Time out every queued request whose deadline has passed.

        Swept at the top of each step so an expired request neither blocks
        the head of the line nor wastes prefill compute on an answer nobody
        is waiting for.
        """
        expired = [entry for entry in self._queue
                   if entry[2].deadline is not None and entry[2].deadline < now]
        if not expired:
            return []
        expired_ids = {entry[2].request_id for entry in expired}
        self._queue = [entry for entry in self._queue
                       if entry[2].request_id not in expired_ids]
        heapq.heapify(self._queue)
        records = []
        for _arrival, _seq, request in sorted(expired):
            records.append(self._record_queued_termination(request, "timeout"))
        return records

    def _kv_capacity_ok(self, request: Request) -> bool:
        """Free-block admission check.

        The request's worst-case page consumption plus the pages every active
        request may still allocate must fit the reclaimable supply (free pages
        plus evictable cached chains) — the invariant that keeps mid-decode
        allocation from ever exhausting the pool.  The supply scan is O(pool)
        per admission attempt, which is noise next to one model forward at
        this simulator's scale.
        """
        cost = self.cache.admission_block_cost(request.prompt_tokens,
                                               request.projected_tokens)
        outstanding = sum(
            self.cache.blocks_outstanding(state.slot, state.request.projected_tokens)
            for state in self._active.values()
        )
        return cost + outstanding <= self.cache.available_blocks

    # -------------------------------------------------------------- stepping
    def step(self) -> list:
        """One scheduling iteration, one forward; returns the requests it terminated."""
        if not self._active and self._queue:
            # idle engine: fast-forward to the next arrival instead of spinning
            self.clock.wait_until(self._queue[0][0])
        completed_now = self._expire_queued(self.clock.now())
        plan = self._plan(completed_now)
        self._peak_active = max(self._peak_active, len(self._active))
        if plan:
            logits = self._forward(plan)
            for (state, chunk), row_logits in zip(plan, logits):
                if state.pending is not None:
                    # a prompt's first token comes from its last chunk
                    state.pending = (state.pending[len(chunk):]
                                     if len(chunk) < state.pending.size else None)
                if state.pending is None:
                    self._sample(state, row_logits[-1])
        # every active request, not only the plan's: a request this step left
        # out still times out at the first step boundary past its deadline
        finish_time = self.clock.now()
        for slot in sorted(self._active):
            state = self._active[slot]
            deadline = state.request.deadline
            if (state.finish_reason is None and deadline is not None
                    and deadline < finish_time):
                state.finish_reason = "timeout"
            if state.finish_reason is not None:
                completed_now.append(self._release(state, finish_time))
        self._m_steps.inc()
        self._m_queue_depth.set(len(self._queue))
        self._m_active.set(len(self._active))
        self._m_kv_pages.set(self.cache.pages_in_use)
        return completed_now

    def _plan(self, completed_now: list) -> list:
        """This step's ``(state, new token ids)`` rows, within :data:`MAX_STEP_TOKENS`.

        Decode rows first, in slot order, then prefill chunks: requests
        part-way through their prompt, in admission order, then newly
        admitted ones, until the budget is spent.  A prompt is split only if
        its chunks store the K/V a whole one does
        (``PagedKVCache.split_invariant``); otherwise it runs whole, alone in
        the step's prefill share if it does not fit what is left.

        If the model's activation quantiser is not ``batch_separable`` (a
        per-tensor or per-channel INT scheme), one scale spans every token of
        a forward, so a prompt runs whole and alone, as on an idle engine:
        the step holds the next admission's prompt if there is one, and the
        decode rows otherwise.
        """
        plan = [(state, (state.last_token,)) for _slot, state in sorted(self._active.items())
                if state.pending is None]
        if not self._packable:
            state = self._admit(completed_now, 0, whole_ok=True) if self._free_slots else None
            return plan if state is None else [(state, state.pending)]
        decode_rows = len(plan)
        left = MAX_STEP_TOKENS - decode_rows
        for state in self._active.values():  # insertion order: admission order
            if state.pending is not None and left > 0:
                plan.append((state, state.pending[:left]))
                left -= len(plan[-1][1])
        while left > 0 and self._queue and self._free_slots:
            state = self._admit(completed_now, left, whole_ok=len(plan) == decode_rows)
            if state is None:
                break
            # a prompt is split only if its chunks store the K/V a whole one does
            chunk = state.pending[:left] if self.cache.split_invariant else state.pending
            plan.append((state, chunk))
            left -= len(chunk)
        return plan

    def _admit(self, completed_now: list, left: int, whole_ok: bool) -> Optional[_ActiveRequest]:
        """Admit the head of the line, or return ``None`` if it must wait.

        Expired heads are timed out onto ``completed_now`` first.  ``left`` is
        what the step's token budget still holds; a prompt that may not be
        split (see :meth:`_plan`) waits unless it fits or
        ``whole_ok`` (no other prompt in this step) lets it run whole.  A head
        that shares its next uncached page with a prompt still being
        prefilled waits too: that page is in the index once the other
        request's chunk completes it, so it is computed once.
        """
        while self._queue:
            now = self.clock.now()
            arrival, _seq, request = self._queue[0]
            if arrival > now:
                return None
            if request.deadline is not None and request.deadline < now:
                heapq.heappop(self._queue)
                completed_now.append(self._record_queued_termination(request, "timeout"))
                continue
            if (self.active_projected_tokens + request.projected_tokens > self.token_budget
                    or not self._kv_capacity_ok(request)):
                return None  # head-of-line blocks until budget/pages free up: no starvation
            prompt = request.prompt_tokens
            reusable = self.cache.match_prefix(prompt)
            if not self.cache.split_invariant and len(prompt) - reusable > left and not whole_ok:
                return None
            if self._in_flight_prefix(prompt, reusable + self.cache.page_size):
                return None
            heapq.heappop(self._queue)
            slot = self._free_slots.pop()
            state = _ActiveRequest(request, slot, admitted_time=now)
            self._active[slot] = state
            if self.on_admit is not None:
                self.on_admit(request.request_id, now)
            # adopt the longest cached prefix; prefill computes the rest
            reused = self.cache.begin_request(slot, prompt)
            state.pending = np.array(prompt[reused:], dtype=np.int64)
            self._m_reused.inc(reused)
            return state
        return None

    def _in_flight_prefix(self, prompt: tuple, upto: int) -> bool:
        """Whether a request still prefilling shares ``prompt``'s first ``upto`` tokens.

        ``upto`` ends the page after the prompt's cached prefix; only a page
        the radix index could later serve (the prompt's last token is always
        prefilled) counts.
        """
        if upto > len(prompt) - 1:
            return False
        head = prompt[:upto]
        return any(state.pending is not None and state.request.prompt_tokens[:upto] == head
                   for state in self._active.values())

    def _forward(self, plan: list) -> list:
        """Run the step's plan as one ``forward_step``; returns each row's logits.

        Rows of equal length go in as one 2-D array, others as ragged rows.
        Every chunk's full pages enter the radix index as soon as the forward
        has written them, and the clock is charged once for every token.
        """
        width = len(plan[0][1])
        ids = [chunk for _state, chunk in plan]
        if all(len(chunk) == width for chunk in ids):
            ids = np.array(ids, dtype=np.int64)
        logits = self.model.forward_step(ids, self.cache, rows=[state.slot for state, _ in plan])
        decoded = prefilled = 0
        for state, chunk in plan:
            if state.pending is None:
                decoded += 1
            else:
                prefilled += len(chunk)
                self.cache.commit_prefix(state.slot, state.request.prompt_tokens)
        self._m_decode.inc(decoded)
        self._m_prefill.inc(prefilled)
        self.clock.on_tokens(decoded + prefilled)
        return logits

    def _sample(self, state: _ActiveRequest, logits: np.ndarray) -> None:
        """Sample ``state``'s next token, check its stop conditions, report it."""
        request = state.request
        token = sample_token(logits, temperature=request.temperature,
                             top_k=request.top_k, rng=state.rng)
        state.generated.append(token)
        if token == request.stop_token:
            state.finish_reason = "stop_token"
        elif len(state.generated) >= request.max_new_tokens:
            state.finish_reason = "length"
        if state.first_token_time is None:
            state.first_token_time = self.clock.now()
        if self.on_token is not None:
            self.on_token(request.request_id, token, self.clock.now())

    def _release(self, state: _ActiveRequest, finish_time: Optional[float] = None,
                 index_pages: bool = True) -> CompletedRequest:
        """Retire an active request: build its record, free its slot and pages.

        ``index_pages`` keeps the sequence's full pages in the radix index for
        prefix reuse (normal completion and deadline timeouts — their K/V is
        valid); cancellation passes ``False`` so the pages are reclaimed
        outright instead of being cached on the cancelled requester's behalf.
        """
        done = CompletedRequest(
            request=state.request,
            generated_tokens=tuple(state.generated),
            finish_reason=state.finish_reason,
            arrival_time=state.request.arrival_time,
            admitted_time=state.admitted_time,
            first_token_time=state.first_token_time,
            finish_time=finish_time if finish_time is not None else self.clock.now(),
        )
        del self._active[state.slot]
        if index_pages:
            self.cache.retire_request(
                state.slot, state.request.prompt_tokens + tuple(state.generated))
        else:
            self.cache.reset(rows=[state.slot])
        self._free_slots.append(state.slot)
        self._free_slots.sort(reverse=True)
        self._completed.append(done)
        self._m_finished[done.finish_reason].inc()
        if done.first_token_time is not None:
            self._m_ttft.observe(done.first_token_time - done.arrival_time)
        if done.ok:
            self._m_latency.observe(done.latency_s)
        if self._tracer is not None:
            self._trace_terminal(done)
        return done

    def _trace_terminal(self, done: CompletedRequest) -> None:
        """Emit one terminal record's lifecycle spans (queued → prefill → decode).

        Runs once per request, entirely from timestamps the engine already
        tracks for its latency report — tracing adds nothing per token.
        """
        tracer = self._tracer
        track = self.obs.track
        rid = done.request.request_id
        if done.admitted_time is None:
            # never held a slot: one queued span ending at the terminal
            # instant (which may precede a future nominal arrival — a
            # cancel of a not-yet-due request — hence the clamp)
            start = min(done.arrival_time, done.finish_time)
            tracer.complete("queued", start, done.finish_time, track,
                            args={"request_id": rid,
                                  "finish_reason": done.finish_reason})
            return
        tracer.complete("queued", done.arrival_time, done.admitted_time, track,
                        args={"request_id": rid})
        if done.first_token_time is None:
            # cancelled or timed out part-way through its prompt
            tracer.complete("prefill", done.admitted_time, done.finish_time, track,
                            args={"request_id": rid, "finish_reason": done.finish_reason})
            return
        tracer.complete("prefill", done.admitted_time, done.first_token_time,
                        track, args={"request_id": rid})
        tracer.complete("decode", done.first_token_time, done.finish_time, track,
                        args={"request_id": rid,
                              "finish_reason": done.finish_reason,
                              "tokens": len(done.generated_tokens)})

    # ------------------------------------------------------------------- run
    def run(self, requests=None, max_steps: Optional[int] = None) -> ServeReport:
        """Drive the engine until the queue drains; returns the report."""
        for request in requests or ():
            self.submit(request)
        while self.has_work:
            if max_steps is not None and self._m_steps.value >= max_steps:
                raise RuntimeError(
                    f"engine did not drain within {max_steps} steps "
                    f"({len(self._active)} active, {len(self._queue)} queued)"
                )
            self.step()
        return self.report()

    def report(self) -> ServeReport:
        return ServeReport(
            completed=list(self._completed),
            elapsed_s=self.clock.now(),
            steps=self._m_steps.value,
            prefill_tokens=self._m_prefill.value,
            decode_tokens=self._m_decode.value,
            kv_spec=self.cache.kv_spec,
            peak_active=self._peak_active,
            reused_tokens=self._m_reused.value,
            kv_page_size=self.cache.page_size,
            peak_pages_in_use=self.cache.peak_pages_in_use,
            kv_peak_memory_bits=self.cache.peak_memory_bits(),
            cancelled=self._m_finished["cancelled"].value,
            timed_out=self._m_finished["timeout"].value,
        )

    # ----------------------------------------------------------------- audit
    def audit_kv_pages(self) -> dict:
        """Account for every allocated KV page; the leak detector.

        Each allocated block's reference count must equal the number of
        active block tables holding it plus one if the radix index owns a
        node for it — anything else is a leak (a cancel or retire that
        dropped references incorrectly).  Returns ``{"leaked": [...],
        "pages_in_use": n, "index_pages": m, "active_pages": k}`` where
        ``leaked`` is empty iff the audit passes.
        """
        expected = {}
        active_pages = set()
        for state in self._active.values():
            for block in self.cache._tables[state.slot]:
                expected[block] = expected.get(block, 0) + 1
                active_pages.add(block)
        for block in self.cache.index.owned_blocks():
            expected[block] = expected.get(block, 0) + 1
        pool = self.cache.pool
        leaked = sorted(
            block for block in set(pool.allocated_blocks()) | set(expected)
            if pool.refcount(block) != expected.get(block, 0)
        )
        return {
            "leaked": [int(b) for b in leaked],
            "pages_in_use": pool.pages_in_use,
            "index_pages": len(self.cache.index),
            "active_pages": len(active_pages),
        }
