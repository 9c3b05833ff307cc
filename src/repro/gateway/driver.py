"""The gateway core: a cooperative engine pump plus the request facade.

:class:`~repro.serve.engine.ServeEngine` is synchronous — ``step()`` runs one
admission+prefill+decode iteration to completion.  The :class:`Gateway` makes
it servable from an asyncio event loop without threads:

* **one pump task** (:meth:`Gateway.pump`) steps the engine whenever it has
  work and yields to the event loop between steps (two or more loop turns
  after each step, a real wait when idle), so socket reads/writes interleave
  with model compute at step granularity and a newcomer joins the next step;
* **everything else runs between steps**: HTTP handlers submit and cancel on
  the same loop, so no engine call ever races a ``step()`` — cancellation
  releases KV pages synchronously, before the response is written;
* the engine's ``on_admit``/``on_token`` callbacks fire *inside* ``step()``
  and land in per-session asyncio queues; waiting handler coroutines wake as
  soon as the step returns control to the loop.

Admission is guarded by the :class:`~repro.gateway.shedding.AdmissionGate`:
a refused newcomer gets a ``SHED`` session back (the server turns it into a
429), displaced victims are cancelled on the engine and marked ``SHED``.

Shutdown is graceful: :meth:`Gateway.drain` stops accepting work, lets the
active requests finish within ``drain_timeout_s``, cancels the stragglers,
and leaves behind a final stats report including the KV page-leak audit
(which must come back clean — the invariant the bench asserts).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from repro.gateway import session as session_states
from repro.gateway.session import Session, terminal_state_for
from repro.gateway.shedding import AdmissionGate, ShedConfig
from repro.obs import Observability
from repro.serve.engine import Request

__all__ = ["GatewayConfig", "Gateway", "GatewayDraining"]

#: Most loop turns the pump yields after a step (see :meth:`Gateway.pump`).
#: A new connection needs ~5 turns from ``accept()`` to ``submit()``; the cap
#: bounds what a client that never sends costs a step (~4 us a turn).
_MAX_TURNS_PER_STEP = 16


class GatewayDraining(RuntimeError):
    """Submit refused because the gateway is shutting down (HTTP 503)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Behaviour of the front door (engine shape lives in ``EngineConfig``).

    ``max_queue_depth`` / ``shed_policy`` / ``load_factor`` parameterise the
    admission gate; ``default_timeout_s`` is applied to requests that do not
    carry their own timeout (``None`` = no deadline); ``drain_timeout_s``
    bounds how long shutdown waits for active requests; ``idle_poll_s`` is
    the pump's wake-up granularity when the engine is idle.
    """

    max_queue_depth: int = 32
    shed_policy: str = "reject"
    load_factor: float = 2.0
    default_timeout_s: Optional[float] = None
    drain_timeout_s: float = 10.0
    idle_poll_s: float = 0.02

    def __post_init__(self):
        if self.default_timeout_s is not None and not self.default_timeout_s > 0:
            raise ValueError("default_timeout_s must be > 0 (or None)")
        if not self.drain_timeout_s >= 0:
            raise ValueError("drain_timeout_s must be >= 0")
        if not self.idle_poll_s > 0:
            raise ValueError("idle_poll_s must be > 0")

    def shed_config(self) -> ShedConfig:
        return ShedConfig(max_queue_depth=self.max_queue_depth,
                          policy=self.shed_policy, load_factor=self.load_factor)


class Gateway:
    """Async facade over one :class:`~repro.serve.engine.ServeEngine`."""

    def __init__(self, engine, config: Optional[GatewayConfig] = None,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.config = config or GatewayConfig()
        self.gate = AdmissionGate(self.config.shed_config())
        self.sessions = {}          # request_id -> Session
        self.draining = False
        self._next_id = 0
        self._wake = asyncio.Event()
        self._pump_task = None
        self._stopped = False
        # connections the HTTP server accepted whose request is not read yet
        self.pending_connections = 0
        # default to the engine's bundle so one registry carries both the
        # gateway_* counters and the engine_* series (one /metrics scrape)
        self.obs = obs if obs is not None else engine.obs
        self._tracer = self.obs.tracer
        # session counts by outcome, read by /stats and /metrics
        self.counters = {
            key: self.obs.counter(f"gateway_{key}_total", help_text)
            for key, help_text in (
                ("submitted", "Sessions opened (admitted or shed)"),
                ("completed", "Sessions that finished generation"),
                ("shed", "Sessions refused or displaced by the admission gate"),
                ("cancelled", "Sessions cancelled by the client or at drain"),
                ("timed_out", "Sessions that hit their deadline"),
            )
        }
        engine.on_admit = self._on_admit
        engine.on_token = self._on_token

    def _trace_session(self, session: Session, at: float) -> None:
        """One ``session`` span per terminal session, open→terminal.

        Emitted once at finish time from timestamps the session already
        carries; the engine separately traces the queued/prefill/decode
        breakdown of admitted requests on the same track.
        """
        if self._tracer is not None:
            self._tracer.complete(
                "session", min(session.created_at, at), at, self.obs.track,
                args={"request_id": session.request_id, "state": session.state})

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the pump task on the running event loop."""
        if self._pump_task is None or self._pump_task.done():
            self._stopped = False
            self._pump_task = asyncio.get_running_loop().create_task(self.pump())

    async def stop(self) -> None:
        """Stop the pump immediately (drain first for a graceful exit)."""
        self._stopped = True
        self._wake.set()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None

    async def drain(self) -> dict:
        """Graceful shutdown: refuse new work, finish or cancel the rest.

        Returns the final :meth:`stats` snapshot (including the page audit).
        """
        self.draining = True
        self._wake.set()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while self.engine.has_work and loop.time() < deadline:
            await asyncio.sleep(min(self.config.idle_poll_s, 0.05))
        for session in list(self.sessions.values()):
            if not session.is_terminal:
                self.cancel(session.request_id)
        await self.stop()
        return self.stats(audit=True)

    # ------------------------------------------------------------- submission
    def submit(self, prompt_tokens, max_new_tokens: int = 16, temperature: float = 0.0,
               top_k: int = 0, seed: int = 0, stop_token=None,
               timeout_s=None) -> Session:
        """Admit (or shed) one request; returns its :class:`Session`.

        The returned session is already ``SHED`` when the admission gate
        refused it (the server maps that to 429 without ever touching the
        engine).  Validation failures — bad token ids, prompts beyond the
        positional window — raise ``ValueError`` before the gate decides or
        any state changes: a request that can never succeed is not shed.
        """
        if self.draining:
            raise GatewayDraining("gateway is draining; not accepting new requests")
        now = self.engine.clock.now()
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        elif not timeout_s > 0:
            raise ValueError("timeout_s must be > 0 (or omitted)")
        request = Request(
            request_id=self._next_id,
            prompt_tokens=prompt_tokens,
            max_new_tokens=max_new_tokens,
            arrival_time=now,
            temperature=temperature,
            top_k=top_k,
            seed=seed,
            stop_token=stop_token,
            deadline=now + timeout_s if timeout_s is not None else None,
        )
        self.engine.validate(request)
        decision = self.gate.decide(self.engine, request, now)
        session = Session(request, created_at=now)
        if decision.admit:
            self.engine.submit(request)
        self._next_id += 1
        self.sessions[request.request_id] = session
        self.counters["submitted"].inc()
        if not decision.admit:
            self.counters["shed"].inc()
            session.finish(session_states.SHED, at=now)
            session.shed_reason = decision.reason
            self._trace_session(session, now)
            return session
        for victim_id in decision.victims:
            self._shed_queued(victim_id, now)
        self._wake.set()
        return session

    def _shed_queued(self, request_id: int, now: float) -> None:
        """Drop an admission-gate victim from the engine queue (state SHED)."""
        record = self.engine.cancel(request_id)
        session = self.sessions.get(request_id)
        self.counters["shed"].inc()
        if session is not None and not session.is_terminal:
            session.finish(session_states.SHED, record, at=now)
            self._trace_session(session, now)

    def cancel(self, request_id: int) -> bool:
        """Client-requested cancel; KV pages are released before this returns.

        True when a queued or active request was cancelled, False for ids
        that are unknown or already terminal (cancel is idempotent-ish: a
        second cancel of the same id is a no-op, not an error).
        """
        session = self.sessions.get(request_id)
        if session is None or session.is_terminal:
            return False
        record = self.engine.cancel(request_id)
        self.counters["cancelled"].inc()
        now = self.engine.clock.now()
        session.finish(session_states.CANCELLED, record, at=now)
        self._trace_session(session, now)
        return True

    # ------------------------------------------------------- engine callbacks
    def _on_admit(self, request_id: int, now: float) -> None:
        session = self.sessions.get(request_id)
        if session is not None:
            session.mark_admitted(now)

    def _on_token(self, request_id: int, token: int, now: float) -> None:
        session = self.sessions.get(request_id)
        if session is not None:
            session.push_token(token, now)

    def _dispatch(self, records) -> None:
        """Finish sessions for the step's terminal records."""
        for record in records:
            session = self.sessions.get(record.request.request_id)
            if session is None or session.is_terminal:
                continue    # cancelled/shed through the gateway: already final
            state = terminal_state_for(record.finish_reason)
            if state == session_states.DONE:
                self.counters["completed"].inc()
            elif state == session_states.TIMEOUT:
                self.counters["timed_out"].inc()
            elif state == session_states.CANCELLED:
                self.counters["cancelled"].inc()
            session.finish(state, record, at=record.finish_time)
            self._trace_session(session, record.finish_time)

    # ------------------------------------------------------------------ pump
    async def pump(self) -> None:
        """Step the engine cooperatively until stopped (see module docstring).

        After a step it yields two loop turns (a connection that arrived during
        the step is accepted in the first, counted by the second), then more
        while any is pending, up to ``_MAX_TURNS_PER_STEP``.
        """
        while not self._stopped:
            if self.engine.has_work:
                queued_before = self.engine.queue_depth
                records = self.engine.step()
                self._dispatch(records)
                made_progress = (records or self.engine.num_active
                                 or self.engine.queue_depth != queued_before)
                if made_progress:
                    turns = 0       # let I/O, and newcomers, run between steps
                    while turns < 2 or (self.pending_connections
                                        and turns < _MAX_TURNS_PER_STEP):
                        await asyncio.sleep(0)
                        turns += 1
                else:
                    # queued work the engine cannot admit yet (future arrival
                    # or blocked head-of-line): a real wait, not a busy spin
                    await self._idle_wait()
            elif self.draining:
                break
            else:
                await self._idle_wait()

    async def _idle_wait(self) -> None:
        self._wake.clear()
        if self.engine.has_work or self.draining:
            # something may become runnable on its own: poll at the idle rate
            try:
                await asyncio.wait_for(self._wake.wait(),
                                       timeout=self.config.idle_poll_s)
            except asyncio.TimeoutError:
                pass
        else:
            await self._wake.wait()

    # ------------------------------------------------------------------ stats
    def stats(self, audit: bool = False) -> dict:
        """Load signals + counters (the ``/stats`` payload).

        ``audit=True`` adds the KV page-leak audit (O(pool) — cheap here, but
        meant for shutdown reports and tests rather than per-request polling).
        """
        engine = self.engine
        payload = {
            "draining": self.draining,
            "queue_depth": engine.queue_depth,
            "num_active": engine.num_active,
            "projected_load": engine.projected_load,
            "token_budget": engine.token_budget,
            "kv_pages_in_use": engine.cache.pages_in_use,
            "kv_hit_rate": engine.kv_hit_rate,
            "reused_tokens": engine.reused_tokens,
            "peak_pages_in_use": engine.peak_pages_in_use,
            "sessions": len(self.sessions),
            **{key: counter.value for key, counter in self.counters.items()},
        }
        if audit:
            audit_report = engine.audit_kv_pages()
            payload["kv_audit"] = audit_report
            payload["kv_leaked_pages"] = len(audit_report["leaked"])
        return payload
