"""Gateway telemetry over real sockets: /metrics, /stats fields, access log."""

from __future__ import annotations

import asyncio
import json

from repro.gateway.driver import Gateway, GatewayConfig
from repro.gateway.loadgen import _read_http_head
from repro.gateway.server import GatewayServer
from repro.obs import Observability
from repro.serve.engine import EngineConfig, ServeEngine, WallClock
from tests.gateway import shutdown


def make_server(model, obs=None, max_batch_size=2, **gateway_kwargs):
    engine = ServeEngine(model, EngineConfig(max_batch_size=max_batch_size,
                                             kv_page_size=4),
                         clock=WallClock(), obs=obs)
    gateway = Gateway(engine, GatewayConfig(drain_timeout_s=5.0, **gateway_kwargs))
    return GatewayServer(gateway, port=0)


async def fetch(host, port, path, body=None):
    """One request; returns (status, headers, raw body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if body is None:
            writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        else:
            writer.write((f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Type: application/json\r\n"
                          f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
        await writer.drain()
        status, headers = await _read_http_head(reader)
        raw = await reader.read()
        length = headers.get("content-length")
        if length is not None:
            raw = raw[:int(length)]
        return status, headers, raw
    finally:
        writer.close()


def parse_prometheus(text: str) -> dict:
    """Parse exposition text into {series_line_name: value}; checks shape."""
    series = {}
    types = {}
    for line in text.splitlines():
        assert line == line.strip()
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            types[name] = kind
        elif line.startswith("# HELP ") or not line:
            continue
        else:
            name_part, _, value = line.rpartition(" ")
            series[name_part] = float(value)
    return {"series": series, "types": types}


#: The exact /stats payload contract (satellite: field-set pinned).
STATS_FIELDS = {
    "draining", "queue_depth", "num_active", "projected_load", "token_budget",
    "kv_pages_in_use", "kv_hit_rate", "reused_tokens", "peak_pages_in_use",
    "sessions", "submitted", "completed", "shed", "cancelled", "timed_out",
}


class TestStatsFields:
    def test_stats_payload_is_exactly_the_documented_field_set(
            self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            body = json.dumps({"prompt_tokens": [1, 2, 3, 4],
                               "max_new_tokens": 4}).encode()
            await fetch(server.host, server.port, "/v1/generate", body)
            status, _headers, raw = await fetch(server.host, server.port, "/stats")
            await shutdown(server)
            return status, json.loads(raw)

        status, stats = asyncio.run(scenario())
        assert status == 200
        assert set(stats) == STATS_FIELDS
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert isinstance(stats["reused_tokens"], int)
        assert isinstance(stats["peak_pages_in_use"], int)
        assert stats["peak_pages_in_use"] > 0

    def test_drain_report_adds_only_the_audit_fields(self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            return await shutdown(server)

        report = asyncio.run(scenario())
        assert set(report) == STATS_FIELDS | {"kv_audit", "kv_leaked_pages"}
        assert report["kv_leaked_pages"] == 0


class TestMetricsEndpoint:
    def test_metrics_scrape_covers_sessions_sheds_cancels_and_kv(
            self, tiny_inference_model):
        async def scenario():
            # one decode slot + a 1-deep queue: while the streaming request
            # holds the slot, the first follow-up queues and the rest shed
            server = make_server(tiny_inference_model,
                                 obs=Observability.enabled(),
                                 max_batch_size=1, max_queue_depth=1)
            await server.start()
            host, port = server.host, server.port
            stream = json.dumps({"prompt_tokens": [1, 2, 3, 4],
                                 "max_new_tokens": 32, "stream": True}).encode()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((f"POST /v1/generate HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Type: application/json\r\n"
                          f"Content-Length: {len(stream)}\r\n\r\n").encode()
                         + stream)
            await writer.drain()
            await _read_http_head(reader)
            await reader.readuntil(b"\n\n")     # the engine accepted the stream
            generate = json.dumps({"prompt_tokens": [1, 2, 3, 4],
                                   "max_new_tokens": 4}).encode()
            results = await asyncio.gather(*(
                fetch(host, port, "/v1/generate", generate) for _ in range(3)))
            statuses = sorted(result[0] for result in results)
            await reader.read()                 # drain the stream to its end
            writer.close()
            status, headers, raw = await fetch(host, port, "/metrics")
            _status, _headers, stats = await fetch(host, port, "/stats")
            await shutdown(server)
            return statuses, status, headers, raw.decode(), json.loads(stats)

        statuses, status, headers, text, stats = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert statuses[0] == 200 and statuses[-1] == 429
        parsed = parse_prometheus(text)
        series, types = parsed["series"], parsed["types"]
        assert types["gateway_submitted_total"] == "counter"
        assert series["gateway_submitted_total"] == 4   # stream + 3 follow-ups
        assert series["gateway_shed_total"] == statuses.count(429)
        assert series["gateway_completed_total"] >= 2   # stream + queued one
        assert "gateway_cancelled_total" in series
        assert types["engine_kv_pages_in_use"] == "gauge"
        assert types["engine_ttft_seconds"] == "histogram"
        assert series['engine_ttft_seconds_bucket{le="+Inf"}'] >= 2
        # one registry serves both layers' series in a single scrape
        assert series["engine_decode_tokens_total"] > 0
        # /stats reads the very counters /metrics exposes
        for key in ("submitted", "completed", "shed", "cancelled", "timed_out"):
            assert stats[key] == series[f"gateway_{key}_total"], key

    def test_disabled_observability_scrapes_empty_but_valid(
            self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)    # obs=None: disabled
            await server.start()
            status, _headers, raw = await fetch(server.host, server.port,
                                                "/metrics")
            await shutdown(server)
            return status, raw

        status, raw = asyncio.run(scenario())
        assert status == 200
        assert raw == b""

    def test_cancel_increments_both_counter_surfaces(self, tiny_inference_model):
        async def scenario():
            obs = Observability.enabled()
            server = make_server(tiny_inference_model, obs=obs)
            await server.start()
            host, port = server.host, server.port
            stream = json.dumps({"prompt_tokens": [1, 2, 3, 4],
                                 "max_new_tokens": 32, "stream": True}).encode()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((f"POST /v1/generate HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Type: application/json\r\n"
                          f"Content-Length: {len(stream)}\r\n\r\n").encode()
                         + stream)
            await writer.drain()
            await _read_http_head(reader)
            accepted = await reader.readuntil(b"\n\n")
            request_id = json.loads(
                accepted.split(b"data: ")[1].split(b"\n")[0])["request_id"]
            await fetch(host, port, f"/v1/cancel/{request_id}", b"")
            writer.close()
            _status, _headers, raw = await fetch(host, port, "/metrics")
            stats = server.gateway.stats()
            await shutdown(server)
            return raw.decode(), stats

        text, stats = asyncio.run(scenario())
        series = parse_prometheus(text)["series"]
        assert series["gateway_cancelled_total"] == 1
        assert stats["cancelled"] == 1      # /stats reads the same counter


class TestAccessLog:
    def test_one_json_line_per_request(self, tiny_inference_model):
        lines = []

        async def scenario():
            engine = ServeEngine(tiny_inference_model,
                                 EngineConfig(max_batch_size=2, kv_page_size=4),
                                 clock=WallClock())
            gateway = Gateway(engine, GatewayConfig(drain_timeout_s=5.0))
            server = GatewayServer(gateway, port=0, access_log=lines.append)
            await server.start()
            await fetch(server.host, server.port, "/healthz")
            await fetch(server.host, server.port, "/nope")
            body = json.dumps({"prompt_tokens": [1, 2, 3],
                               "max_new_tokens": 3}).encode()
            await fetch(server.host, server.port, "/v1/generate", body)
            await shutdown(server)

        asyncio.run(scenario())
        entries = [json.loads(line) for line in lines]
        assert [(e["method"], e["path"], e["status"]) for e in entries] == [
            ("GET", "/healthz", 200),
            ("GET", "/nope", 404),
            ("POST", "/v1/generate", 200),
        ]
        for entry in entries:
            assert set(entry) == {"event", "method", "path", "status",
                                  "duration_ms"}
            assert entry["event"] == "http_access"
            assert entry["duration_ms"] >= 0

    def test_no_log_callable_means_no_logging(self, tiny_inference_model):
        async def scenario():
            server = make_server(tiny_inference_model)
            await server.start()
            status, _headers, _raw = await fetch(server.host, server.port,
                                                 "/healthz")
            await shutdown(server)
            return status

        assert asyncio.run(scenario()) == 200
