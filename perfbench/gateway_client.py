"""Closed-loop load generator of the gateway-stream workload.

One process, one asyncio loop, ``nproc`` clients.  Each client takes the
next request of the :mod:`repro.serve.workload` trace as soon as its
previous one has ended, and sends it over its own loopback connection as an
SSE stream, until the measuring time is spent; the requests already sent
then finish.  So ``nproc`` requests are in flight nearly all the time, the
engine decodes at batch 2 on a 2-CPU host, and each new request is
prefilled while another one decodes.  A request is timed from the instant
its client became free.  Token receipt instants give TTFT and inter-token
gaps; the server's token instants give delivery time, since both processes
read the same monotonic ``perf_counter`` clock on Linux.

The load is closed-loop rather than open-loop because an open loop at a
fixed rate puts TTFT p90 on the edge between arrivals that find the server
idle and arrivals that find it busy, and the share of each moves from run
to run; then no two sets of runs agree on it.

A run is valid only while the generator keeps up: it fails when more than
``nproc`` requests were in flight or a free client took more than
``SEND_LAG_BOUND_MS`` (p99) to send its next request.

End-to-end timings are reference seconds (see ``hostspeed.py``): the
server runs bursts of the reference kernel between busy engine steps, and
the client maps its instants through :func:`hostspeed.reference_time` of
those bursts, which leaves the bursts out and scales the rest by the
slowdown around it.  Set-up times are scaled by the slowdown the client
measures around each one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import select
import signal
import subprocess
import sys
import time

from gateway_server import KV_SPEC
from harness import BENCH_DIR, ROOT, nproc, percentile
from hostspeed import HostSpeed, reference_time, scaled, stretch_slowdowns

#: Requests per second no run can exceed: the trace a run draws from has
#: this many per second of the run, so the clients never run out.
MAX_RATE = 60
WARMUP_REQUESTS = 4
SEND_LAG_BOUND_MS = 50.0
REFERENCE_SAMPLE = 4
READY_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 60.0


def make_trace(seed: int, num_requests: int, rep: int = 0):
    """The requests the clients take in turn (their arrival times are unused)."""
    from repro.serve.workload import WorkloadConfig, generate_trace

    return generate_trace(64, WorkloadConfig(
        num_requests=num_requests, arrival_rate=0.0, prompt_tokens=(16, 64),
        new_tokens=(16, 48), temperature=0.8, top_k=16, seed=seed * 1000 + rep))


# ---------------------------------------------------------------- the server
class ServerProcess:
    """The gateway server script in its own process (see gateway_server.py)."""

    def __init__(self, trace: bool = False, spans_out=None):
        command = [sys.executable, str(BENCH_DIR / "gateway_server.py"),
                   "--trace", str(int(trace))]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True)
        try:
            ready = self._read_event(READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.port = ready["port"]
        self.origin = ready["origin"]
        self.setup_s = ready["ready_at"] - spawned

    def _read_event(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("gateway server exited or stalled before reporting")
        return json.loads(line)

    def mark(self) -> None:
        """Start the server's measuring window here (after the warm-up)."""
        self.proc.send_signal(signal.SIGUSR1)
        if self._read_event(READY_TIMEOUT_S)["event"] != "marked":
            raise RuntimeError("gateway server did not acknowledge the mark")

    def stop(self) -> dict:
        """Drain the gateway (SIGTERM) and return its final report."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            done = self._read_event(EXIT_TIMEOUT_S)
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
            return done
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def setup_samples(count: int) -> list:
    """Process start to ready-to-serve of ``count`` fresh servers, in reference seconds."""
    speed = HostSpeed() if count else None
    samples = []

    def one():
        server = ServerProcess()
        server.stop()
        return server.setup_s

    for _ in range(count):
        samples.append(scaled(speed, one))
    return samples


# ------------------------------------------------------------------- the client
@dataclasses.dataclass
class Outcome:
    """One request as the client saw it, on ``perf_counter`` time."""

    request: object
    due: float
    sent: float = 0.0
    accepted: float = 0.0
    done: float = 0.0
    server_id: int = None
    status: int = 0
    state: str = ""
    finish_reason: str = ""
    error: str = ""
    tokens: list = dataclasses.field(default_factory=list)
    receipts: list = dataclasses.field(default_factory=list)
    server_times: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.status == 200 and self.state == "DONE"
                and self.finish_reason == "length" and not self.error)


async def _stream(port: int, outcome: Outcome) -> None:
    request = outcome.request
    body = json.dumps({"prompt_tokens": list(request.prompt_tokens),
                       "max_new_tokens": request.max_new_tokens,
                       "temperature": request.temperature, "top_k": request.top_k,
                       "seed": request.seed, "stream": True}).encode()
    outcome.sent = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Content-Type: application/json\r\nConnection: close\r\n"
                     + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        outcome.status = int(head.split(b" ", 2)[1])
        if outcome.status != 200:
            outcome.state = "SHED" if outcome.status == 429 else f"HTTP_{outcome.status}"
            return
        event, data = "", ""
        while True:
            line = await reader.readline()
            if not line:
                break
            line = line.rstrip(b"\r\n").decode()
            if line.startswith("event:"):
                event = line[6:].strip()
            elif line.startswith("data:"):
                data = line[5:].strip()
            elif not line and event:
                now = time.perf_counter()
                payload = json.loads(data)
                if event == "accepted":
                    outcome.accepted = now
                    outcome.server_id = payload["request_id"]
                elif event == "token":
                    outcome.tokens.append(payload["token"])
                    outcome.receipts.append(now)
                    outcome.server_times.append(payload["t"])
                elif event == "end":
                    outcome.state = payload["state"]
                    outcome.finish_reason = payload["finish_reason"] or ""
                event, data = "", ""
        outcome.done = time.perf_counter()
    finally:
        writer.close()


async def _drive(port: int, requests, seconds: float, clients: int) -> tuple:
    """Closed loop over ``requests`` for ``seconds``; returns ``(outcomes, inflight_max)``."""
    deadline = time.perf_counter() + seconds
    pending = iter(requests)
    outcomes = []
    inflight = [0, 0]       # now, max

    async def client():
        free = time.perf_counter()
        for request in pending:
            if free >= deadline:
                return
            outcome = Outcome(request, free)
            outcomes.append(outcome)
            inflight[0] += 1
            inflight[1] = max(inflight)
            try:
                await _stream(port, outcome)
            except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ValueError, KeyError) as err:
                outcome.error = f"{type(err).__name__}: {err}"
            finally:
                inflight[0] -= 1
            free = time.perf_counter()

    await asyncio.gather(*(client() for _ in range(clients)))
    return outcomes, inflight[1]


def run_load(server: ServerProcess, requests, warmup, seconds: float) -> tuple:
    """Warm the server up, mark its window, then serve ``requests`` for ``seconds``."""
    asyncio.run(_drive(server.port, warmup, float("inf"), 1))
    server.mark()
    return asyncio.run(_drive(server.port, requests, seconds, nproc()))


def reference_mismatches(model, outcomes) -> tuple:
    """Streamed tokens of a fixed sample versus a single-request decode."""
    from repro.serve.engine import EngineConfig, ServeEngine, WallClock

    picks = sorted({round(i * (len(outcomes) - 1) / (REFERENCE_SAMPLE - 1))
                    for i in range(REFERENCE_SAMPLE)})
    mismatched = 0
    for index in picks:
        outcome = outcomes[index]
        alone = dataclasses.replace(outcome.request, request_id=0, arrival_time=0.0)
        engine = ServeEngine(model, EngineConfig(max_batch_size=1, kv_spec=KV_SPEC),
                             clock=WallClock())
        tokens = engine.run([alone]).completed[0].generated_tokens
        mismatched += tuple(outcome.tokens) != tokens
    return len(picks), mismatched


# ------------------------------------------------------------------- metrics
def host_slowdown(done: dict) -> float:
    """Median slowdown of the server's bursts (1 when it ran none)."""
    stretch = stretch_slowdowns([unit for _, _, unit in done["bursts"]])
    return sorted(stretch)[len(stretch) // 2] if stretch else 1.0


def end_to_end(outcomes, done: dict, require_tail: bool) -> dict:
    """Tokens per server CPU second and client latencies, in reference seconds."""
    at = reference_time(done["bursts"])
    ttft, itl = [], []
    for outcome in outcomes:
        if outcome.receipts:
            ttft.append((at(outcome.receipts[0]) - at(outcome.due)) * 1e3)
            itl.extend((at(b) - at(a)) * 1e3
                       for a, b in zip(outcome.receipts, outcome.receipts[1:]))
    metrics = {"decode_tok_s": (done["generated"] / done["cpu_s"] * host_slowdown(done),
                                done["generated"])}
    for key, values, q in (("ttft_p50_ms", ttft, 50), ("ttft_p90_ms", ttft, 90),
                           ("itl_p50_ms", itl, 50), ("itl_p99_ms", itl, 99)):
        metrics[key] = percentile(values, q, require_tail)
    return metrics


def validity(outcomes, inflight_max: int) -> dict:
    lags = [(outcome.sent - outcome.due) * 1e3 for outcome in outcomes]
    lag_p99 = percentile(lags, 99, require_tail=False)[0]
    problems = []
    if inflight_max > nproc():
        problems.append(f"{inflight_max} requests in flight > nproc {nproc()}")
    if lag_p99 > SEND_LAG_BOUND_MS:
        problems.append(f"send lag p99 {lag_p99:.1f} ms > {SEND_LAG_BOUND_MS} ms")
    return {"loadgen.send_lag_p99_ms": lag_p99, "loadgen.inflight_max": inflight_max,
            "problems": problems}


def client_layers(outcomes, origin: float) -> dict:
    deliver = [(receipt - (t + origin)) * 1e3 for outcome in outcomes
               for receipt, t in zip(outcome.receipts, outcome.server_times)]
    accept = [(outcome.accepted - outcome.sent) * 1e3 for outcome in outcomes
              if outcome.accepted]
    return {
        "gateway.deliver_ms_p50": percentile(deliver, 50, require_tail=False)[0],
        "gateway.deliver_ms_p99": percentile(deliver, 99, require_tail=False)[0],
        "gateway.accept_ms_p50": percentile(accept, 50, require_tail=False)[0],
        "gateway.shed": sum(1 for outcome in outcomes if outcome.status == 429),
        "gateway.http_errors": sum(1 for outcome in outcomes
                                   if outcome.error or outcome.status not in (200, 429)),
    }


def http_spans(outcomes) -> list:
    """Client ``http.request`` spans carrying the server's request id."""
    return [["http.request", outcome.sent, outcome.done or outcome.sent, -1,
             outcome.server_id, len(outcome.tokens)] for outcome in outcomes]
