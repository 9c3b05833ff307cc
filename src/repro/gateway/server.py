"""Asyncio HTTP/1.1 front door over a :class:`~repro.gateway.driver.Gateway`.

Pure stdlib (its own listening socket + ``loop.connect_accepted_socket`` +
hand-rolled HTTP parsing — no web framework dependency), one connection per
request, every response carries ``Connection: close`` so bodies are delimited
by EOF and the wire protocol stays trivially debuggable with ``curl``.

Endpoints
---------

``POST /v1/generate``
    Body: ``{"prompt_tokens": [...], "max_new_tokens": 16, "temperature":
    0.0, "top_k": 0, "seed": 0, "stop_token": null, "timeout_s": null,
    "stream": false}``.  Non-streaming: one JSON document with the generated
    tokens and finish metadata.  With ``"stream": true`` the response is
    Server-Sent Events (``text/event-stream``): one ``accepted`` event
    carrying the request id (so the client can cancel mid-stream), one
    ``token`` event per sampled token as the engine produces it, and a final
    ``end`` event with the terminal state.  Shed requests get HTTP 429 with
    a ``Retry-After`` header; during drain every generate gets 503.

``POST /v1/cancel/<id>``
    Cancels a queued or active request.  The engine releases the request's
    KV pages *synchronously before the response is written* (everything runs
    on one event loop), so a 200 here means the memory is already back.

``GET /healthz``
    ``200 {"status": "ok"}`` normally, ``503 {"status": "draining"}`` once
    shutdown began — the load-balancer probe shape.

``GET /stats``
    Live load signals: queue depth, active requests, projected KV load vs
    budget, pages in use, prefix hit rate, and the shed/cancel counters.

``GET /metrics``
    Prometheus text exposition (format 0.0.4) of the gateway's metrics
    registry.  Because the gateway shares its registry with the engine, one
    scrape covers both the ``gateway_*`` session counters and the
    ``engine_*`` token/latency series.  Empty (but valid) output when the
    gateway was built without an enabled :class:`~repro.obs.Observability`.

Streaming backpressure is per-connection: the handler ``await``s
``writer.drain()`` after every event, so a slow client throttles only its
own socket buffer while the engine keeps stepping for everyone else.

Pass ``access_log`` (any ``str -> None`` callable, e.g. ``print`` or
``logger.info``) to get one structured JSON line per handled request:
``{"event": "http_access", "method": ..., "path": ..., "status": ...,
"duration_ms": ...}``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import time
from typing import Callable, Optional

from repro.gateway.driver import Gateway, GatewayDraining
from repro.gateway.session import SHED

__all__ = ["GatewayServer", "serve_gateway"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024
_BACKLOG = 100              # listen() backlog and accepts per wake-up, as asyncio's


def _response(status: int, reason: str, body: bytes, content_type: str,
              extra_headers=()) -> bytes:
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    lines.extend(extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _json_response(status: int, reason: str, payload: dict, extra_headers=()) -> bytes:
    body = json.dumps(payload, default=float).encode("utf-8")
    return _response(status, reason, body, "application/json", extra_headers)


def _sse_event(event: str, payload: dict) -> bytes:
    data = json.dumps(payload, default=float)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


class _BadRequest(ValueError):
    """Maps to HTTP 400."""


class GatewayServer:
    """Bind a :class:`Gateway` to a TCP port (see module docstring)."""

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1", port: int = 0,
                 access_log: Optional[Callable[[str], None]] = None):
        self.gateway = gateway
        self.host = host
        self.port = port            # 0 = ephemeral; real port filled in by start()
        self.access_log = access_log
        self._listener = None
        self._connecting = set()    # connect tasks, held until done

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start accepting connections and the gateway pump."""
        self.gateway.start()
        loop = asyncio.get_running_loop()
        family = (await loop.getaddrinfo(self.host, self.port, type=socket.SOCK_STREAM,
                                         flags=socket.AI_PASSIVE))[0][0]
        # sets SO_REUSEADDR on POSIX, and IPV6_V6ONLY for IPv6, as asyncio does
        self._listener = socket.create_server((self.host, self.port), family=family,
                                              backlog=_BACKLOG)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        loop.add_reader(self._listener, self._accept)

    async def shutdown(self) -> dict:
        """Graceful stop: close the listener, drain the gateway, report stats."""
        if self._listener is not None:
            asyncio.get_running_loop().remove_reader(self._listener)
            self._listener.close()
            self._listener = None
        return await self.gateway.drain()

    # ------------------------------------------------------------- accepting
    def _accept(self) -> None:
        """Listener callback; a connection is pending until its request is read."""
        loop = asyncio.get_running_loop()
        for _ in range(_BACKLOG):
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            self.gateway.pending_connections += 1
            task = loop.create_task(self._connect(sock))
            self._connecting.add(task)
            task.add_done_callback(self._connected)

    async def _connect(self, sock: socket.socket) -> None:
        try:
            await asyncio.get_running_loop().connect_accepted_socket(
                lambda: asyncio.StreamReaderProtocol(asyncio.StreamReader(),
                                                     self._handle), sock)
        except OSError:     # the client reset before its transport existed
            sock.close()
            self.gateway.pending_connections -= 1   # no _handle will run

    def _connected(self, task: asyncio.Task) -> None:
        self._connecting.discard(task)
        if not task.cancelled():
            task.result()   # an unexpected error goes to the loop's handler

    # ------------------------------------------------------------ HTTP plumbing
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        method, path, status = "-", "-", 0
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except (_BadRequest, asyncio.IncompleteReadError, ConnectionError) as err:
                writer.write(_json_response(400, "Bad Request", {"error": str(err)}))
                status = 400
                return
            finally:
                self.gateway.pending_connections -= 1
            status = await self._route(method, path, headers, body, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass                    # client went away mid-response: their call
        finally:
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()
            self._log_access(method, path, status, time.perf_counter() - started)

    def _log_access(self, method: str, path: str, status: int,
                    duration_s: float) -> None:
        if self.access_log is None:
            return
        self.access_log(json.dumps(
            {"event": "http_access", "method": method, "path": path,
             "status": status, "duration_ms": round(duration_s * 1e3, 3)},
            sort_keys=True))

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest("request head too large")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest(f"bad Content-Length {length!r}")
        length = int(length)
        if length > _MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _route(self, method, path, headers, body, writer) -> int:
        if method == "GET" and path == "/healthz":
            if self.gateway.draining:
                writer.write(_json_response(503, "Service Unavailable",
                                            {"status": "draining"}))
                return 503
            writer.write(_json_response(200, "OK", {"status": "ok"}))
            return 200
        if method == "GET" and path == "/stats":
            writer.write(_json_response(200, "OK", self.gateway.stats()))
            return 200
        if method == "GET" and path == "/metrics":
            body_bytes = self.gateway.obs.registry.to_prometheus().encode("utf-8")
            writer.write(_response(200, "OK", body_bytes,
                                   "text/plain; version=0.0.4; charset=utf-8"))
            return 200
        if method == "POST" and path == "/v1/generate":
            return await self._generate(body, writer)
        if method == "POST" and path.startswith("/v1/cancel/"):
            return self._cancel(path, writer)
        writer.write(_json_response(404, "Not Found",
                                    {"error": f"no route for {method} {path}"}))
        return 404

    # --------------------------------------------------------------- handlers
    @staticmethod
    def _parse_generate(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise _BadRequest(f"body is not valid JSON: {err}") from None
        if not isinstance(payload, dict) or "prompt_tokens" not in payload:
            raise _BadRequest('body must be a JSON object with "prompt_tokens"')
        known = {"prompt_tokens", "max_new_tokens", "temperature", "top_k",
                 "seed", "stop_token", "timeout_s", "stream"}
        unknown = set(payload) - known
        if unknown:
            raise _BadRequest(f"unknown fields: {sorted(unknown)}")
        return payload

    async def _generate(self, body: bytes, writer) -> int:
        try:
            payload = self._parse_generate(body)
            stream = bool(payload.pop("stream", False))
            session = self.gateway.submit(**payload)
        except _BadRequest as err:
            writer.write(_json_response(400, "Bad Request", {"error": str(err)}))
            return 400
        except GatewayDraining as err:
            writer.write(_json_response(503, "Service Unavailable",
                                        {"error": str(err)}))
            return 503
        except (TypeError, ValueError) as err:
            writer.write(_json_response(400, "Bad Request", {"error": str(err)}))
            return 400
        if session.state == SHED:
            writer.write(_json_response(
                429, "Too Many Requests",
                {"error": "shed", "request_id": session.request_id,
                 "reason": session.shed_reason},
                extra_headers=("Retry-After: 1",)))
            return 429
        if stream:
            await self._stream_session(session, writer)
            return 200
        record = await session.wait()
        if session.state == SHED:
            # displaced later by a drop_oldest/deadline newcomer, not at the gate
            writer.write(_json_response(
                429, "Too Many Requests",
                {"error": "shed", "request_id": session.request_id,
                 "reason": session.shed_reason or "displaced by admission policy"},
                extra_headers=("Retry-After: 1",)))
            return 429
        writer.write(_json_response(200, "OK", {
            **session.to_dict(),
            "prompt_tokens": list(record.request.prompt_tokens),
        }))
        return 200

    async def _stream_session(self, session, writer) -> None:
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n").encode("ascii")
        writer.write(head)
        writer.write(_sse_event("accepted", {"request_id": session.request_id}))
        await writer.drain()
        index = 0
        async for event in session.events():
            if event[0] == "token":
                _, token, t = event
                writer.write(_sse_event("token",
                                        {"index": index, "token": token, "t": t}))
                index += 1
            else:
                _, state, _record = event
                writer.write(_sse_event("end", {**session.to_dict(),
                                                "state": state}))
            await writer.drain()

    def _cancel(self, path: str, writer) -> int:
        suffix = path[len("/v1/cancel/"):]
        try:
            request_id = int(suffix)
        except ValueError:
            writer.write(_json_response(400, "Bad Request",
                                        {"error": f"bad request id {suffix!r}"}))
            return 400
        cancelled = self.gateway.cancel(request_id)
        writer.write(_json_response(200, "OK",
                                    {"request_id": request_id,
                                     "cancelled": cancelled}))
        return 200


async def serve_gateway(gateway: Gateway, host: str = "127.0.0.1", port: int = 8100,
                        ready=None, stop_signals=(signal.SIGTERM, signal.SIGINT),
                        announce=print, access_log=None) -> dict:
    """Run a gateway server until SIGTERM/SIGINT; returns the final stats.

    The CLI entry point: binds, announces ``gateway listening on host:port``
    (parseable by process supervisors and the loadgen), installs signal
    handlers that trigger the graceful drain, and blocks until shutdown
    completes.  ``ready`` (an :class:`asyncio.Event`) is set once the socket
    is bound — the in-process bench path uses it instead of parsing stdout.
    """
    server = GatewayServer(gateway, host=host, port=port, access_log=access_log)
    await server.start()
    if announce is not None:
        announce(f"gateway listening on {server.host}:{server.port}")
    if ready is not None:
        ready.set()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in stop_signals:
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        for sig in stop_signals:
            loop.remove_signal_handler(sig)
    stats = await server.shutdown()
    if announce is not None:
        announce("gateway drained: " + json.dumps(stats, default=float))
    return stats
