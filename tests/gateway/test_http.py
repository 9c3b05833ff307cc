"""The HTTP front door over real loopback sockets: routes, SSE, identity."""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro.gateway.driver import Gateway, GatewayConfig
from repro.gateway.loadgen import _post, _read_http_head, _sse_events
from repro.gateway.server import GatewayServer, serve_gateway
from repro.serve.engine import EngineConfig, Request, ServeEngine, WallClock
from repro.serve.workload import WorkloadConfig, generate_trace
from tests.gateway import shutdown


def make_server(model, gateway_config=None, **engine_kwargs):
    engine_kwargs.setdefault("max_batch_size", 2)
    engine_kwargs.setdefault("kv_page_size", 4)
    engine = ServeEngine(model, EngineConfig(**engine_kwargs), clock=WallClock())
    gateway = Gateway(engine, gateway_config or GatewayConfig(drain_timeout_s=5.0))
    return GatewayServer(gateway, port=0)


async def exchange(host, port, request: bytes):
    """Send raw request bytes; returns (status, headers, parsed JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        status, headers = await _read_http_head(reader)
        raw = await reader.read()
        length = headers.get("content-length")
        if length is not None:
            raw = raw[:int(length)]
        return status, headers, json.loads(raw.decode()) if raw else {}
    finally:
        writer.close()


async def get(host, port, path):
    """Minimal GET; returns (status, parsed JSON body)."""
    status, _headers, body = await exchange(
        host, port, f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    return status, body


def post_bytes(host, path, body: bytes, content_type="application/json") -> bytes:
    """A complete POST request with a correct ``Content-Length``."""
    return (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode() + body


async def post_raw(host, port, path, body: bytes, content_type="application/json"):
    """POST arbitrary bytes; returns (status, headers, parsed JSON body)."""
    return await exchange(host, port, post_bytes(host, path, body, content_type))


async def until(predicate, timeout=10.0):
    """Poll ``predicate`` on the loop; a stall fails the test instead of hanging."""
    async def poll():
        while not predicate():
            await asyncio.sleep(0.001)
    await asyncio.wait_for(poll(), timeout)


async def stream_generate(host, port, payload):
    """POST /v1/generate with stream=true; returns the raw SSE event list."""
    body = json.dumps({**payload, "stream": True}).encode()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(post_bytes(host, "/v1/generate", body))
        await writer.drain()
        status, _headers = await _read_http_head(reader)
        assert status == 200, status
        return [event async for event in _sse_events(reader)]
    finally:
        writer.close()


class TestRoutes:
    def test_healthz_stats_and_unknown_routes(self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            health = await get(server.host, server.port, "/healthz")
            stats = await get(server.host, server.port, "/stats")
            missing = await get(server.host, server.port, "/nope")
            await shutdown(server)
            return health, stats, missing

        health, stats, missing = asyncio.run(scenario())
        assert health == (200, {"status": "ok"})
        assert stats[0] == 200
        for key in ("queue_depth", "num_active", "projected_load", "token_budget",
                    "kv_pages_in_use", "kv_hit_rate", "submitted", "shed"):
            assert key in stats[1]
        assert missing[0] == 404

    def test_non_streaming_generate_returns_tokens_and_prompt(
            self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            status, _headers, body = await post_raw(
                server.host, server.port, "/v1/generate",
                json.dumps({"prompt_tokens": [1, 2, 3], "max_new_tokens": 4}).encode())
            await shutdown(server)
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["state"] == "DONE" and body["finish_reason"] == "length"
        assert body["num_tokens"] == 4 and len(body["tokens"]) == 4
        assert body["prompt_tokens"] == [1, 2, 3]

    def test_malformed_requests_get_400(self, tiny_inference_model):
        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = make_server(tiny_inference_model)
            await server.start()
            host, port = server.host, server.port
            results = [
                await post_raw(host, port, "/v1/generate", b"not json"),
                await post_raw(host, port, "/v1/generate", b"[1, 2]"),
                await post_raw(host, port, "/v1/generate",
                               json.dumps({"prompt_tokens": [1], "wat": 1}).encode()),
                await post_raw(host, port, "/v1/generate",
                               json.dumps({"prompt_tokens": [10**9]}).encode()),
                # ids that used to be served as int(id): token 1 and token 5
                await post_raw(host, port, "/v1/generate",
                               json.dumps({"prompt_tokens": [1.9]}).encode()),
                await post_raw(host, port, "/v1/generate",
                               json.dumps({"prompt_tokens": ["5"]}).encode()),
                # values that used to reach the engine and kill or wedge it
                *[await asyncio.wait_for(post_raw(
                    host, port, "/v1/generate",
                    json.dumps({"prompt_tokens": [1], **fields}).encode()), 10)
                  for fields in ({"temperature": float("nan")},
                                 {"max_new_tokens": float("nan")},
                                 {"seed": -1},
                                 {"temperature": 0.8, "top_k": 2.5})],
                # stop tokens that never stopped a request, or stopped it at
                # another id (true at id 1, 37.0 at id 37)
                *[await post_raw(host, port, "/v1/generate",
                                 json.dumps({"prompt_tokens": [1], "stop_token": stop}).encode())
                  for stop in ("a", 2.7, -5, 10**9, True, 37.0)],
                await post_raw(host, port, "/v1/cancel/banana", b""),
                # post_raw computes the length itself: these need raw bytes
                await exchange(host, port, b"POST /v1/generate HTTP/1.1\r\n"
                                           b"Content-Length: abc\r\n\r\n{}"),
                await exchange(host, port, b"POST /v1/generate HTTP/1.1\r\n"
                                           b"Content-Length: -5\r\n\r\n{}"),
            ]
            # the engine pump survived them: a valid request still finishes
            after = await asyncio.wait_for(post_raw(
                host, port, "/v1/generate",
                json.dumps({"prompt_tokens": [1, 2], "max_new_tokens": 2}).encode()), 10)
            await shutdown(server)
            return results, after, unhandled

        results, after, unhandled = asyncio.run(scenario())
        for status, _headers, body in results:
            assert status == 400
            assert "error" in body
        assert "Content-Length" in results[-1][2]["error"]
        assert after[0] == 200 and after[2]["state"] == "DONE"
        assert unhandled == []      # no handler died with an uncaught error

    def test_cancel_endpoint_is_idempotent_over_http(self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            status, unknown = await _post(server.host, server.port,
                                          "/v1/cancel/42", None)
            await shutdown(server)
            return status, unknown

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body == {"request_id": 42, "cancelled": False}


class TestStreaming:
    def test_sse_wire_format_and_cancellation_handle(self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            events = await stream_generate(server.host, server.port,
                                           {"prompt_tokens": [2, 4, 6],
                                            "max_new_tokens": 3})
            await shutdown(server)
            return events

        events = asyncio.run(scenario())
        names = [name for name, _ in events]
        assert names == ["accepted", "token", "token", "token", "end"]
        assert events[0][1] == {"request_id": 0}   # the mid-stream cancel handle
        for index, (_, payload) in enumerate(events[1:-1]):
            assert payload["index"] == index and isinstance(payload["token"], int)
        end = events[-1][1]
        assert end["state"] == "DONE" and end["finish_reason"] == "length"
        assert [p["token"] for _, p in events[1:-1]] == end["tokens"]

    def test_mid_stream_cancel_ends_the_stream_with_cancelled(
            self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            host, port = server.host, server.port
            body = json.dumps({"prompt_tokens": list(range(1, 9)),
                               "max_new_tokens": 40, "stream": True}).encode()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((f"POST /v1/generate HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Length: {len(body)}\r\n"
                          f"Connection: close\r\n\r\n").encode() + body)
            await writer.drain()
            await _read_http_head(reader)
            events = []
            handle = None
            async for name, payload in _sse_events(reader):
                events.append((name, payload))
                if name == "accepted":
                    handle = payload["request_id"]
                elif name == "token" and len(events) == 2:  # first token: cancel now
                    await _post(host, port, f"/v1/cancel/{handle}", None)
                elif name == "end":
                    break
            writer.close()
            audit = server.gateway.engine.audit_kv_pages()
            stats = await shutdown(server)
            return events, audit, stats

        events, audit, stats = asyncio.run(scenario())
        assert events[-1][0] == "end"
        assert events[-1][1]["state"] == "CANCELLED"
        assert len(events) < 2 + 40   # genuinely cut short
        assert audit["leaked"] == []
        assert stats["cancelled"] == 1 and stats["kv_leaked_pages"] == 0

    def test_streamed_tokens_are_byte_identical_to_offline_engine(
            self, tiny_inference_model):
        """Acceptance: the gateway serves exactly what the offline engine computes."""
        workload = WorkloadConfig(num_requests=8, arrival_rate=0.0,
                                  prompt_tokens=(3, 10), new_tokens=(2, 6),
                                  temperature=0.7, top_k=8, seed=11)
        trace = generate_trace(tiny_inference_model.config.vocab_size, workload)
        offline_engine = ServeEngine(
            tiny_inference_model,
            EngineConfig(max_batch_size=2, kv_page_size=4), clock=WallClock())
        offline = {c.request.request_id: c.generated_tokens
                   for c in offline_engine.run(trace).completed}

        async def scenario():
            server = make_server(tiny_inference_model, max_batch_size=2)
            await server.start()
            streams = await asyncio.gather(*(
                stream_generate(server.host, server.port, {
                    "prompt_tokens": list(request.prompt_tokens),
                    "max_new_tokens": request.max_new_tokens,
                    "temperature": request.temperature,
                    "top_k": request.top_k,
                    "seed": request.seed,
                }) for request in trace))
            stats = await shutdown(server)
            return streams, stats

        streams, stats = asyncio.run(scenario())
        assert stats["kv_leaked_pages"] == 0
        for request, events in zip(trace, streams):
            streamed = tuple(payload["token"] for name, payload in events
                             if name == "token")
            assert streamed == offline[request.request_id], (
                f"request {request.request_id}: gateway stream diverged from the "
                f"offline engine replay"
            )


class TestAdmission:
    def test_a_request_is_admitted_by_the_first_step_after_it_is_sent(
            self, tiny_inference_model):
        """Counted, not timed: engine steps from a request's write to its admission.

        A first stream keeps decoding throughout, so the pump never idles;
        the count includes the admitting step.
        """
        async def scenario():
            server = make_server(tiny_inference_model)
            engine, sessions = server.gateway.engine, server.gateway.sessions
            steps, admitted = [0], {}
            step, on_admit = engine.step, engine.on_admit

            def counting_step():
                steps[0] += 1
                return step()

            def recording_admit(request_id, now):
                admitted[request_id] = (steps[0], sessions[0].state)
                on_admit(request_id, now)

            engine.step, engine.on_admit = counting_step, recording_admit
            await server.start()
            host, port = server.host, server.port
            first = asyncio.ensure_future(stream_generate(
                host, port, {"prompt_tokens": [1, 2], "max_new_tokens": 60}))
            await until(lambda: sessions and sessions[0].tokens)
            body = json.dumps({"prompt_tokens": [3, 4], "max_new_tokens": 2}).encode()
            for _ in range(4):
                reader, writer = await asyncio.open_connection(host, port)
                steps[0] = 0
                writer.write(post_bytes(host, "/v1/generate", body))
                await writer.drain()
                assert (await _read_http_head(reader))[0] == 200
                await reader.read()
                writer.close()
            first_events = await first
            await shutdown(server)
            return admitted, first_events

        admitted, first_events = asyncio.run(scenario())
        assert first_events[-1][1]["state"] == "DONE"
        assert sorted(admitted) == [0, 1, 2, 3, 4]
        for request_id in (1, 2, 3, 4):
            assert admitted[request_id] == (1, "DECODE"), (request_id, admitted)

    def test_silent_clients_cannot_stall_decoding(self, tiny_inference_model):
        request = Request(0, (5, 6, 7), max_new_tokens=8)
        solo = ServeEngine(tiny_inference_model,
                           EngineConfig(max_batch_size=2, kv_page_size=4),
                           clock=WallClock()).run([request]).completed[0]

        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            host, port = server.host, server.port
            _, silent = await asyncio.open_connection(host, port)
            _, half = await asyncio.open_connection(host, port)
            half.write(b"POST /v1/generate HTTP/1.1\r\nHost: x\r\n")
            await until(lambda: server.gateway.pending_connections == 2)
            events = await asyncio.wait_for(stream_generate(host, port, {
                "prompt_tokens": list(request.prompt_tokens),
                "max_new_tokens": request.max_new_tokens}), timeout=10)
            still_pending = server.gateway.pending_connections
            silent.close()
            half.close()
            await until(lambda: server.gateway.pending_connections == 0)
            stats = await shutdown(server)
            return events, still_pending, stats

        events, still_pending, stats = asyncio.run(scenario())
        assert still_pending == 2       # still connected, still pending
        assert tuple(payload["token"] for name, payload in events
                     if name == "token") == solo.generated_tokens
        assert stats["completed"] == 1 and stats["kv_leaked_pages"] == 0

    def test_a_connection_whose_transport_fails_is_closed_and_not_pending(
            self, tiny_inference_model, monkeypatch):
        async def scenario():
            async def reset(protocol_factory, sock):
                raise ConnectionResetError("reset before the transport existed")

            monkeypatch.setattr(asyncio.get_running_loop(),
                                "connect_accepted_socket", reset)
            server = make_server(tiny_inference_model)
            await server.start()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await until(lambda: server.gateway.pending_connections == 0)
            await shutdown(server)
            return reply

        assert asyncio.run(scenario()) == b""    # closed without a response


class TestSheddingOverHttp:
    def test_overload_gets_429_with_retry_after(self, tiny_inference_model):
        async def scenario():
            config = GatewayConfig(max_queue_depth=1, shed_policy="reject",
                                   drain_timeout_s=5.0)
            server = make_server(tiny_inference_model, gateway_config=config,
                                 max_batch_size=1)
            await server.start()
            host, port = server.host, server.port
            # hold the only slot with a long stream, then overfill the queue
            long_task = asyncio.ensure_future(stream_generate(
                host, port, {"prompt_tokens": list(range(1, 9)),
                             "max_new_tokens": 40}))
            while server.gateway.engine.num_active == 0:
                await asyncio.sleep(0.001)
            queued_task = asyncio.ensure_future(post_raw(
                host, port, "/v1/generate",
                json.dumps({"prompt_tokens": [1, 2], "max_new_tokens": 2}).encode()))
            while server.gateway.engine.queue_depth == 0:
                await asyncio.sleep(0.001)
            status, headers, body = await post_raw(
                host, port, "/v1/generate",
                json.dumps({"prompt_tokens": [3, 4], "max_new_tokens": 2}).encode())
            await long_task
            queued_status, _, _ = await queued_task
            stats = await shutdown(server)
            return status, headers, body, queued_status, stats

        status, headers, body, queued_status, stats = asyncio.run(scenario())
        assert status == 429
        assert headers.get("retry-after") == "1"
        assert body["error"] == "shed" and "queue depth" in body["reason"]
        assert queued_status == 200        # the queued request still completed
        assert stats["shed"] == 1 and stats["kv_leaked_pages"] == 0

    def test_unservable_request_gets_400_not_429_under_overload(
            self, tiny_inference_model):
        # a shed client retries, and these requests could never succeed
        async def scenario():
            config = GatewayConfig(load_factor=1e-9, drain_timeout_s=5.0)  # sheds all
            server = make_server(tiny_inference_model, gateway_config=config)
            await server.start()
            host, port = server.host, server.port
            replies = [await post_raw(host, port, "/v1/generate", json.dumps(payload).encode())
                       for payload in ({"prompt_tokens": [1000000]},
                                       {"prompt_tokens": [1], "stop_token": -5},
                                       {"prompt_tokens": [1] * 20, "max_new_tokens": 60},
                                       {"prompt_tokens": [1, 2]})]
            _status, stats = await get(host, port, "/stats")
            await shutdown(server)
            return replies, stats

        replies, stats = asyncio.run(scenario())
        *unservable, (status, headers, _body) = replies
        for (bad_status, bad_headers, body), error in zip(
                unservable, ("vocabulary", "stop_token", "capacity")):
            assert bad_status == 400 and "retry-after" not in bad_headers
            assert error in body["error"]
        assert status == 429 and headers.get("retry-after") == "1"
        assert stats["submitted"] == stats["shed"] == 1

    def test_draining_server_rejects_generates_and_fails_healthz(
            self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            host, port = server.host, server.port
            server.gateway.draining = True   # simulate mid-drain
            health = await get(host, port, "/healthz")
            status, _headers, body = await post_raw(
                host, port, "/v1/generate",
                json.dumps({"prompt_tokens": [1, 2]}).encode())
            server.gateway.draining = False
            await shutdown(server)
            return health, status, body

        health, status, body = asyncio.run(scenario())
        assert health == (503, {"status": "draining"})
        assert status == 503
        assert "draining" in body["error"]


class TestGracefulShutdown:
    def test_serve_gateway_drains_on_signal(self, tiny_inference_model):
        engine = ServeEngine(tiny_inference_model,
                             EngineConfig(max_batch_size=2, kv_page_size=4),
                             clock=WallClock())
        gateway = Gateway(engine, GatewayConfig(drain_timeout_s=5.0))
        announcements = []

        async def scenario():
            ready = asyncio.Event()
            serve_task = asyncio.ensure_future(serve_gateway(
                gateway, port=0, ready=ready, stop_signals=(signal.SIGUSR1,),
                announce=announcements.append))
            await asyncio.wait_for(ready.wait(), timeout=5)
            host, port = announcements[0].rsplit(" ", 1)[1].split(":")
            status, _headers, body = await post_raw(
                host, int(port), "/v1/generate",
                json.dumps({"prompt_tokens": [1, 2, 3], "max_new_tokens": 3}).encode())
            os.kill(os.getpid(), signal.SIGUSR1)
            stats = await asyncio.wait_for(serve_task, timeout=10)
            return status, body, stats, int(port)

        status, body, stats, port = asyncio.run(scenario())
        assert status == 200 and body["state"] == "DONE"
        assert stats["draining"] is True
        assert stats["completed"] == 1
        assert stats["kv_leaked_pages"] == 0
        assert gateway.pending_connections == 0
        assert announcements[0].startswith("gateway listening on ")
        assert announcements[-1].startswith("gateway drained: ")
        # new connections are refused once the listener is closed
        with pytest.raises(OSError):
            asyncio.run(get("127.0.0.1", port, "/healthz"))
