"""Open-loop HTTP load generator for the gateway.

A *closed-loop* client waits for its previous answer before sending the next
request, so an overloaded server automatically slows its own offered load —
latency looks fine right up to the cliff.  Real traffic is *open-loop*:
arrivals keep coming at the offered rate no matter how far the server falls
behind.  This module replays :mod:`repro.serve.workload` traces that way —
each request fires at its trace arrival time on the wall clock, over its own
connection, regardless of outstanding work — which is exactly the regime
load shedding exists for.

:func:`run_loadgen` replays one trace against a listening gateway and
returns a :class:`LoadReport`: per-request outcomes (streamed tokens with
arrival timestamps, shed/ok/cancelled status, cancel round-trip latency) and
an aggregate summary — goodput, TTFT/inter-token-latency percentiles, shed
rate.  A configurable slice of requests is cancelled mid-stream after a few
tokens, measuring *cancel-reclaim latency*: the round-trip from issuing
``POST /v1/cancel/<id>`` to the 200 that confirms the engine already freed
the KV pages.

:func:`sweep_arrival_rates` reruns the same trace shape at increasing
offered loads and :func:`find_saturation_knee` locates the knee — the rate
where goodput stops growing with offered load.  Past the knee a healthy
gateway holds goodput near the pre-knee peak by shedding the excess (the
429 rate climbs instead of the latency percentiles).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time

from repro.core.stats import percentile_summary
from repro.serve.workload import WorkloadConfig, generate_trace, validate_arrival_rate

__all__ = ["LoadGenConfig", "RequestOutcome", "LoadReport", "run_loadgen",
           "sweep_arrival_rates", "find_saturation_knee"]


@dataclasses.dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one load-generation run.

    ``workload`` is any :mod:`repro.serve.workload` config — its
    ``arrival_rate`` must be strictly positive (open-loop needs real
    inter-arrival gaps; the closed-loop ``0`` burst convention is rejected).
    ``cancel_every`` cancels every N-th request after ``cancel_after_tokens``
    streamed tokens (0 = never); ``timeout_s`` attaches a per-request
    deadline; ``time_scale`` compresses trace time (0.5 = replay twice as
    fast) so CI can replay a realistic trace shape in a fraction of a
    second.
    """

    workload: WorkloadConfig = dataclasses.field(default_factory=WorkloadConfig)
    cancel_every: int = 0
    cancel_after_tokens: int = 1
    timeout_s: float = None
    time_scale: float = 1.0

    def __post_init__(self):
        validate_arrival_rate(self.workload.arrival_rate, positive=True)
        if self.cancel_every < 0:
            raise ValueError("cancel_every must be >= 0 (0 = never cancel)")
        if self.cancel_after_tokens < 0:
            raise ValueError("cancel_after_tokens must be >= 0")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout_s must be > 0 (or None)")
        if not self.time_scale > 0:
            raise ValueError("time_scale must be > 0")


@dataclasses.dataclass
class RequestOutcome:
    """What one open-loop request experienced, measured at the client.

    ``status`` is the HTTP status (200, 429, ...); ``state`` the terminal
    session state from the ``end`` event (``DONE``/``CANCELLED``/...) or
    ``"SHED"`` for 429s.  ``token_times`` are client wall-clock receive
    instants relative to ``sent_at``; ``cancel_latency_s`` is the cancel
    round trip for requests this run cancelled (None otherwise).
    """

    request_id: int
    status: int = 0
    state: str = ""
    tokens: tuple = ()
    sent_at: float = 0.0
    token_times: tuple = ()
    finished_at: float = None
    shed_reason: str = ""
    cancel_latency_s: float = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.state == "DONE"

    @property
    def shed(self) -> bool:
        # 429 at the gate, or displaced mid-queue by a drop_oldest/deadline
        # newcomer (streamed end event carries state SHED on a 200 response)
        return self.status == 429 or self.state == "SHED"

    @property
    def ttft_s(self) -> float:
        return self.token_times[0] if self.token_times else None

    @property
    def inter_token_s(self) -> list:
        return [b - a for a, b in zip(self.token_times, self.token_times[1:])]


@dataclasses.dataclass
class LoadReport:
    """Aggregate view of one run: outcomes plus the offered/elapsed frame."""

    outcomes: list
    elapsed_s: float
    offered_rate: float

    def summary(self) -> dict:
        """The loadgen row shape: goodput, latency percentiles, shed rate."""
        ok = [o for o in self.outcomes if o.ok]
        shed = [o for o in self.outcomes if o.shed]
        cancelled = [o for o in self.outcomes if o.state == "CANCELLED"]
        timed_out = [o for o in self.outcomes if o.state == "TIMEOUT"]
        errors = [o for o in self.outcomes if o.error]
        elapsed = max(self.elapsed_s, 1e-12)
        itl = [gap for o in ok for gap in o.inter_token_s]
        reclaims = [o.cancel_latency_s for o in self.outcomes
                    if o.cancel_latency_s is not None]
        return {
            "offered_rate_rps": self.offered_rate,
            "requests": len(self.outcomes),
            "completed": len(ok),
            "shed": len(shed),
            "cancelled": len(cancelled),
            "timed_out": len(timed_out),
            "errors": len(errors),
            "elapsed_s": self.elapsed_s,
            "goodput_rps": len(ok) / elapsed,
            "goodput_tokens_per_s": sum(len(o.tokens) for o in ok) / elapsed,
            "shed_rate": len(shed) / len(self.outcomes) if self.outcomes else 0.0,
            **percentile_summary((o.ttft_s for o in ok if o.ttft_s is not None),
                                 "ttft", scale=1e3, unit="ms"),
            **percentile_summary(itl, "itl", scale=1e3, unit="ms"),
            **percentile_summary(reclaims, "cancel_reclaim", scale=1e3, unit="ms"),
        }


# ------------------------------------------------------------- HTTP client
async def _read_http_head(reader):
    """Parse a status line + headers; returns (status, headers dict)."""
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ", 2)[1])
    headers = {}
    for line in header_lines:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return status, headers


async def _post(host, port, path, payload) -> tuple:
    """One-shot POST; returns (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        writer.write((f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                      f"Content-Type: application/json\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      f"Connection: close\r\n\r\n").encode("ascii") + body)
        await writer.drain()
        status, headers = await _read_http_head(reader)
        raw = await reader.read()
        length = headers.get("content-length")
        if length is not None:
            raw = raw[:int(length)]
        return status, json.loads(raw.decode("utf-8")) if raw else {}
    finally:
        writer.close()


async def _sse_events(reader):
    """Yield ``(event_name, payload_dict)`` from a Connection: close SSE body."""
    name, data = "", []
    while True:
        line = await reader.readline()
        if not line:
            return
        line = line.rstrip(b"\r\n").decode("utf-8")
        if not line:
            if name:
                yield name, json.loads("\n".join(data)) if data else {}
            name, data = "", []
        elif line.startswith("event:"):
            name = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data.append(line[len("data:"):].strip())


async def _drive_request(host, port, request, outcome: RequestOutcome,
                         cancel_after_tokens, do_cancel: bool, timeout_s) -> None:
    """Stream one generate call; optionally cancel it mid-stream."""
    payload = {
        "prompt_tokens": list(request.prompt_tokens),
        "max_new_tokens": request.max_new_tokens,
        "temperature": request.temperature,
        "top_k": request.top_k,
        "seed": request.seed,
        "stream": True,
    }
    if request.stop_token is not None:
        payload["stop_token"] = request.stop_token
    if timeout_s is not None:
        payload["timeout_s"] = timeout_s
    body = json.dumps(payload).encode("utf-8")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((f"POST /v1/generate HTTP/1.1\r\nHost: {host}\r\n"
                      f"Content-Type: application/json\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      f"Connection: close\r\n\r\n").encode("ascii") + body)
        await writer.drain()
        status, headers = await _read_http_head(reader)
        outcome.status = status
        if status != 200:
            raw = await reader.read()
            length = headers.get("content-length")
            if length is not None:
                raw = raw[:int(length)]
            detail = json.loads(raw.decode("utf-8")) if raw else {}
            outcome.state = "SHED" if status == 429 else f"HTTP_{status}"
            outcome.shed_reason = detail.get("reason", detail.get("error", ""))
            outcome.finished_at = time.perf_counter() - outcome.sent_at
            return
        server_id = None
        tokens, token_times = [], []
        async for name, event in _sse_events(reader):
            now = time.perf_counter() - outcome.sent_at
            if name == "accepted":
                server_id = event["request_id"]
            elif name == "token":
                tokens.append(event["token"])
                token_times.append(now)
                if (do_cancel and server_id is not None
                        and len(tokens) >= cancel_after_tokens):
                    t0 = time.perf_counter()
                    await _post(host, port, f"/v1/cancel/{server_id}", None)
                    outcome.cancel_latency_s = time.perf_counter() - t0
                    do_cancel = False   # one cancel per request
            elif name == "end":
                outcome.state = event.get("state", "")
                outcome.finished_at = now
        outcome.tokens = tuple(tokens)
        outcome.token_times = tuple(token_times)
    finally:
        writer.close()


async def _loadgen(host, port, requests, config: LoadGenConfig) -> LoadReport:
    start = time.perf_counter()
    outcomes = [RequestOutcome(request_id=index)
                for index in range(len(requests))]

    async def fire(index, request):
        target = request.arrival_time * config.time_scale
        delay = target - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)      # open loop: fire on schedule
        outcome = outcomes[index]
        outcome.sent_at = time.perf_counter()
        do_cancel = (config.cancel_every > 0
                     and index % config.cancel_every == config.cancel_every - 1)
        try:
            await _drive_request(host, port, request, outcome,
                                 config.cancel_after_tokens, do_cancel,
                                 config.timeout_s)
        except (OSError, asyncio.IncompleteReadError, json.JSONDecodeError,
                ValueError) as err:
            outcome.error = f"{type(err).__name__}: {err}"

    await asyncio.gather(*(fire(i, r) for i, r in enumerate(requests)))
    elapsed = time.perf_counter() - start
    return LoadReport(outcomes=outcomes, elapsed_s=elapsed,
                      offered_rate=config.workload.arrival_rate / config.time_scale)


def run_loadgen(host, port, vocab_size, config: LoadGenConfig = None) -> LoadReport:
    """Replay one open-loop trace against a listening gateway (blocking entry).

    Generates the deterministic trace for ``config.workload`` and drives it
    on a private event loop; use :func:`loadgen` from async code.
    """
    config = config or LoadGenConfig()
    requests = generate_trace(vocab_size, config.workload)
    return asyncio.run(_loadgen(host, port, requests, config))


async def loadgen(host, port, vocab_size, config: LoadGenConfig = None) -> LoadReport:
    """Async variant of :func:`run_loadgen` for callers already on a loop."""
    config = config or LoadGenConfig()
    requests = generate_trace(vocab_size, config.workload)
    return await _loadgen(host, port, requests, config)


# ------------------------------------------------------------------ sweep
def find_saturation_knee(rates, goodputs, threshold: float = 0.05) -> int:
    """Index of the saturation knee in an arrival-rate sweep.

    The knee is the first point whose goodput fails to improve on the best
    seen so far by at least ``threshold`` (relative) — offered load beyond it
    buys no goodput, only queueing or shedding.  If goodput keeps growing
    through the last point, the last index is returned (the knee was not
    reached).  Inputs must be sorted by increasing rate.
    """
    rates = list(rates)
    goodputs = list(goodputs)
    if len(rates) != len(goodputs) or not rates:
        raise ValueError("rates and goodputs must be equal-length and non-empty")
    if any(b < a for a, b in zip(rates, rates[1:])):
        raise ValueError("rates must be sorted increasing")
    best = goodputs[0]
    for index in range(1, len(rates)):
        if goodputs[index] < best * (1.0 + threshold):
            return index
        best = max(best, goodputs[index])
    return len(rates) - 1


async def sweep_arrival_rates(make_server, vocab_size, base_config: LoadGenConfig,
                              rates) -> list:
    """Replay the same trace shape at each offered rate; returns summary rows.

    ``make_server`` is an async factory: awaited per rate, it must return a
    started object with ``host``/``port`` attributes and an async
    ``shutdown()`` returning final gateway stats (a fresh
    :class:`~repro.gateway.server.GatewayServer` per rate keeps the engine
    cold — no cross-rate KV reuse skewing the knee).  Each row is the
    :meth:`LoadReport.summary` dict plus ``arrival_rate`` and the server's
    shutdown stats under ``"server"``.
    """
    rows = []
    for rate in rates:
        validate_arrival_rate(rate, positive=True)
        config = dataclasses.replace(
            base_config,
            workload=dataclasses.replace(base_config.workload, arrival_rate=rate))
        server = await make_server()
        try:
            report = await loadgen(server.host, server.port, vocab_size, config)
        finally:
            stats = await server.shutdown()
        rows.append({"arrival_rate": rate, **report.summary(), "server": stats})
    return rows
