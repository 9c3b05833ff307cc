"""In-memory span recording around the serving stack's layer boundaries.

The traced run installs wrappers on the objects the benchmark builds — the
engine's ``step``, the model's ``forward_step``, the paged cache's public
methods, the radix index's ``evict_one`` and a proxy around the cache's
quantiser — so nothing under ``src/`` changes.  Each wrapped call records a
span ``[name, start, end, parent, request_id, size]`` on ``perf_counter``
time; spans nest ``engine.step`` → ``model.prefill``/``model.decode`` →
``kv.append``/``kv.context`` → ``quant.qdq``, and ``request`` spans are added
from the engine's own request records when the run ends.

:func:`layer_metrics` turns the spans into the per-layer metrics (self time
is a span's duration minus its children's), and :func:`write_chrome_trace`
exports them once, as Chrome trace-event JSON that ``repro obs-report``
renders.
"""

from __future__ import annotations

import time

NAME, START, END, PARENT, REQUEST, SIZE = range(6)

ENGINE_TRACK, REQUEST_TRACK, CLIENT_TRACK = 1, 2, 3
TRACK_NAMES = {ENGINE_TRACK: "engine", REQUEST_TRACK: "requests",
               CLIENT_TRACK: "loadgen"}


class SpanRecorder:
    """Append-only span list plus the stack of currently open spans."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, args, kwargs, request_id=None, size=0):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                request_id, size]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._open.pop()

    def add(self, name, start, end, request_id=None, size=0):
        """A span measured elsewhere (request lifetimes, client requests)."""
        self.spans.append([name, start, end, -1, request_id, size])


class _TimedQuantizer:
    """Proxy that records one ``quant.qdq`` span per quantise-dequantise."""

    def __init__(self, inner, recorder: SpanRecorder):
        self._inner = inner
        self._recorder = recorder

    def quantize_dequantize(self, x, *args, **kwargs):
        return self._recorder.call("quant.qdq", self._inner.quantize_dequantize,
                                   (x,) + args, kwargs, size=int(x.size))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def instrument(engine, recorder: SpanRecorder) -> dict:
    """Wrap ``engine``'s layers; returns ``{request_id: perf - engine clock}``.

    The returned mapping is filled at admission: the engine clock is wall
    time plus fast-forwarded idle gaps, and no gap is skipped while a request
    is queued behind others or active, so ``arrival + offset`` and
    ``finish + offset`` place its lifetime on ``perf_counter`` time.
    """
    model, cache = engine.model, engine.cache
    call = recorder.call
    slot_request = {}
    admitted = []
    prefilling = set()
    offsets = {}

    def single(rows):
        rows = list(rows)
        return slot_request.get(int(rows[0])) if len(rows) == 1 else None

    on_admit = engine.on_admit

    def admit_hook(request_id, now):
        offsets[request_id] = time.perf_counter() - now
        admitted.append(request_id)
        if on_admit is not None:
            on_admit(request_id, now)

    engine.on_admit = admit_hook

    step = engine.step
    engine.step = lambda: call("engine.step", step, (), {})

    # wrap the class's method, not an earlier wrapper: one model serves many
    # engines in turn, and re-instrumenting must not nest spans
    forward_step = type(model).forward_step.__get__(model)

    def forward_hook(tokens, cache_, rows=None):
        rows = list(rows) if rows is not None else list(range(cache_.batch_size))
        if len(rows) == 1 and rows[0] in prefilling:
            return call("model.prefill", forward_step, (tokens, cache_, rows), {},
                        request_id=slot_request.get(rows[0]),
                        size=int(tokens.shape[-1]))
        return call("model.decode", forward_step, (tokens, cache_, rows), {},
                    request_id=single(rows), size=len(rows))

    model.forward_step = forward_hook

    append, context = cache.append, cache.context
    cache.append = lambda layer, rows, k, v: call(
        "kv.append", append, (layer, rows, k, v), {}, request_id=single(rows))
    cache.context = lambda layer, rows, n: call(
        "kv.context", context, (layer, rows, n), {}, request_id=single(rows))

    begin, commit, retire = (cache.begin_request, cache.commit_prefix,
                             cache.retire_request)

    def begin_hook(row, tokens):
        slot_request[int(row)] = admitted.pop() if admitted else None
        prefilling.add(int(row))
        return call("kv.begin_request", begin, (row, tokens), {},
                    request_id=slot_request[int(row)])

    def commit_hook(row, tokens):
        prefilling.discard(int(row))
        return call("kv.commit_prefix", commit, (row, tokens), {},
                    request_id=slot_request.get(int(row)))

    def retire_hook(row, tokens):
        return call("kv.retire_request", retire, (row, tokens), {},
                    request_id=slot_request.pop(int(row), None))

    cache.begin_request, cache.commit_prefix, cache.retire_request = (
        begin_hook, commit_hook, retire_hook)

    index = getattr(cache, "index", None)
    if index is not None:
        evict = index.evict_one

        def evict_hook():
            # size records whether a page was actually evicted
            span_index = len(recorder.spans)
            evicted = call("kv.evict", evict, (), {})
            recorder.spans[span_index][SIZE] = int(evicted)
            return evicted

        index.evict_one = evict_hook
    if cache.quantizer is not None:
        cache.quantizer = _TimedQuantizer(cache.quantizer, recorder)
    return offsets


def uninstrument(model) -> None:
    """Drop the ``forward_step`` wrapper :func:`instrument` put on ``model``."""
    vars(model).pop("forward_step", None)


def add_request_spans(recorder: SpanRecorder, completed, offsets) -> None:
    """One ``request`` span per admitted request, arrival → finish."""
    for record in completed:
        rid = record.request.request_id
        if rid in offsets:
            offset = offsets[rid]
            recorder.add("request", record.arrival_time + offset,
                         record.finish_time + offset, request_id=rid,
                         size=len(record.generated_tokens))


# -------------------------------------------------------------------- metrics
def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, reports, span_s: float) -> dict:
    """Per-layer metrics from the spans and the engines' own reports.

    ``reports`` are the traced engines' reports (completed records and token
    counts); ``span_s`` is the engine-clock time they covered, which
    ``engine.busy_frac`` divides the step time by.
    """
    total = {}
    count = {}
    size = {}
    step_model = quant_in_append = cache_in_decode = 0.0
    step_ms = []
    evictions = 0
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        total[name] = total.get(name, 0.0) + duration
        count[name] = count.get(name, 0) + 1
        size[name] = size.get(name, 0) + span[SIZE]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]][NAME]
            if name.startswith("model.") and parent == "engine.step":
                step_model += duration
            elif name == "quant.qdq" and parent == "kv.append":
                quant_in_append += duration
            elif name in ("kv.append", "kv.context") and parent == "model.decode":
                cache_in_decode += duration
        if name == "engine.step":
            step_ms.append(duration * 1e3)
        elif name == "kv.evict":
            evictions += span[SIZE]

    def t(name):
        return total.get(name, 0.0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    waits = [(c.admitted_time - c.arrival_time) * 1e3
             for report in reports for c in report.completed
             if c.admitted_time is not None]
    prefill = sum(report.prefill_tokens for report in reports)
    reused = sum(report.reused_tokens for report in reports)
    return {
        "model.prefill_us_per_tok": per(t("model.prefill") * 1e6, size.get("model.prefill", 0)),
        "model.decode_us_per_row": per(t("model.decode") * 1e6, size.get("model.decode", 0)),
        "model.decode_rows_mean": per(size.get("model.decode", 0), count.get("model.decode", 0)),
        "model.decode_self_frac": per(t("model.decode") - cache_in_decode, t("model.decode")),
        "quant.calls": count.get("quant.qdq", 0),
        "quant.ms": t("quant.qdq") * 1e3,
        "quant.us_per_call": per(t("quant.qdq") * 1e6, count.get("quant.qdq", 0)),
        "quant.elems_per_call": per(size.get("quant.qdq", 0), count.get("quant.qdq", 0)),
        "kv.append_self_ms": (t("kv.append") - quant_in_append) * 1e3,
        "kv.context_ms": t("kv.context") * 1e3,
        "kv.lifecycle_ms": (t("kv.begin_request") + t("kv.commit_prefix")
                            + t("kv.retire_request")) * 1e3,
        "kv.evictions": evictions,
        "kv.hit_rate": per(reused, reused + prefill),
        "kv.reused_tokens": reused,
        "engine.steps": count.get("engine.step", 0),
        "engine.step_ms_p50": _percentile(step_ms, 50),
        "engine.step_ms_p99": _percentile(step_ms, 99),
        "engine.self_ms": (t("engine.step") - step_model) * 1e3,
        "engine.queue_wait_p50_ms": _percentile(waits, 50),
        "engine.queue_wait_p90_ms": _percentile(waits, 90),
        "engine.busy_frac": per(t("engine.step"), span_s),
        "engine.prefill_tokens": prefill,
        "engine.decode_tokens": sum(report.decode_tokens for report in reports),
    }


# --------------------------------------------------------------------- export
def write_chrome_trace(path, groups, origin: float) -> dict:
    """Write span groups as Chrome trace-event JSON; returns validation stats.

    ``groups`` is a list of ``(prefix, spans)``: span ids become
    ``prefix + index`` so server- and client-side spans of one run stay
    distinct in one file.  ``origin`` (a ``perf_counter`` instant) is
    subtracted from every timestamp.
    """
    from repro.obs.tracing import SpanTracer, validate_trace

    tracer = SpanTracer()
    for track, label in TRACK_NAMES.items():
        tracer.name_track(track, label)
    for prefix, spans in groups:
        for index, span in enumerate(spans):
            name = span[NAME]
            if name == "request":
                track = REQUEST_TRACK
            elif name == "http.request":
                track = CLIENT_TRACK
            else:
                track = ENGINE_TRACK
            args = {"id": f"{prefix}{index}"}
            if span[PARENT] >= 0:
                args["parent"] = f"{prefix}{span[PARENT]}"
            if span[REQUEST] is not None:
                args["request_id"] = span[REQUEST]
            if span[SIZE]:
                args["size"] = span[SIZE]
            tracer.complete(name, span[START] - origin,
                            max(span[END], span[START]) - origin, track, args)
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(path)
    return validate_trace(tracer.events())
