"""Serving layer: KV-cached incremental decoding and continuous batching.

The experiment drivers evaluate quantisation offline (perplexity over fixed
windows); this package is the online counterpart — the subsystem a deployment
would actually run:

* paged K/V storage with radix-tree prefix sharing
  (:mod:`repro.serve.paging`, :mod:`repro.serve.kv_cache`): fixed-size
  refcounted pages, a radix index that lets a request adopt every full page
  of the longest cached prompt prefix instead of re-prefilling it, LRU
  eviction of unreferenced chains, and optional quantised storage;
* a continuous-batching engine (:mod:`repro.serve.engine`): FIFO admission
  under a KV token budget plus free-block accounting, per-step batched
  prefill (with cached-prefix skipping) + decode, per-request sampling
  state and stop conditions, deterministic under a virtual clock;
* synthetic request traces (:mod:`repro.serve.workload`): Poisson,
  shared-prefix and multi-turn conversation shapes — and the
  ``serve_bench`` experiment driver (:mod:`repro.serve.bench`) reporting
  TTFT/latency percentiles, tokens/s, prefix-hit rate, pages in use and
  quantised-KV perplexity per format.

See ``docs/serving.md`` for the architecture and benchmark interpretation.
"""

from repro.serve.bench import (
    DEFAULT_KV_SPECS,
    kv_cached_negative_log_likelihood,
    kv_cached_perplexity,
    serve_bench,
)
from repro.serve.engine import (
    CompletedRequest,
    EngineConfig,
    Request,
    ServeEngine,
    ServeReport,
    VirtualClock,
    WallClock,
)
from repro.serve.kv_cache import PagedKVCache
from repro.serve.paging import BlockPool, PoolExhaustedError, RadixIndex
from repro.serve.workload import (
    MultiTurnConfig,
    SharedPrefixConfig,
    WorkloadConfig,
    generate_multi_turn_requests,
    generate_requests,
    generate_shared_prefix_requests,
    generate_trace,
)

__all__ = [
    "PagedKVCache",
    "BlockPool",
    "RadixIndex",
    "PoolExhaustedError",
    "Request",
    "CompletedRequest",
    "EngineConfig",
    "ServeEngine",
    "ServeReport",
    "WallClock",
    "VirtualClock",
    "WorkloadConfig",
    "SharedPrefixConfig",
    "MultiTurnConfig",
    "generate_requests",
    "generate_shared_prefix_requests",
    "generate_multi_turn_requests",
    "generate_trace",
    "DEFAULT_KV_SPECS",
    "kv_cached_negative_log_likelihood",
    "kv_cached_perplexity",
    "serve_bench",
]
