"""Per-layer K/V caches (paged and contiguous) with optional quantised storage.

The caches back :meth:`repro.llm.inference.InferenceModel.forward_step`: each
decoder layer appends the keys/values of newly processed positions and reads
back the full cached context for attention, so decoding one token costs one
token's worth of linear layers instead of re-running the whole prefix.

Two storage layouts share one interface (``append`` / ``context`` /
``advance`` / ``reset`` / ``bits_per_token`` plus the request lifecycle hooks
``match_prefix`` / ``begin_request`` / ``retire_request``):

* :class:`PagedKVCache` — the default.  Storage is a :class:`~repro.serve.
  paging.BlockPool` of fixed-size pages addressed through per-slot block
  tables, with a :class:`~repro.serve.paging.RadixIndex` mapping token
  prefixes to page chains: a request whose prompt starts with an
  already-cached prefix adopts those pages and skips their prefill entirely,
  shared pages are refcounted and copied on write when sequences diverge,
  and unreferenced chains are LRU-evicted when the pool runs dry.
* :class:`KVCache` — the ``contiguous`` fallback: one dense ``(batch,
  max_seq_len)`` pre-allocation per layer, worst-case memory, no sharing.

KV storage is where a serving system's memory goes (the weights are shared
across requests, the cache is per request), so both caches optionally push
every appended key/value through a :mod:`repro.quant` quantiser — any spec
string the registry understands (``"bfp8@b32"``, ``"int8"``, ``"mxfp4"``...).
Like everywhere else in the reproduction this is fake quantisation: the
arrays hold the dequantised values while :meth:`bits_per_token` /
:meth:`memory_bits` account for the encoded footprint, so the accuracy cost
and the memory saving of a KV format are both measurable.
"""

from __future__ import annotations

import time

import numpy as np

from repro.llm.config import ModelConfig
from repro.obs.profiler import PAGE_GATHER, QUANT_APPEND
from repro.serve.paging import BlockPool, PoolExhaustedError, RadixIndex

__all__ = ["KVCache", "PagedKVCache"]

#: Bits per stored element when no quantiser is configured: serving systems
#: keep the KV cache in half precision, so FP16 is the memory baseline the
#: quantised specs are compared against.
UNQUANTIZED_KV_BITS = 16.0


class _KVCacheBase:
    """Shared quantiser plumbing and costing of both cache layouts."""

    #: Optional :class:`~repro.obs.profiler.PhaseProfiler` attached by the
    #: owning engine; ``None`` (the class default) costs one attribute test
    #: at each instrumented site.
    profiler = None

    def __init__(self, config: ModelConfig, batch_size: int, max_seq_len: int = None,
                 kv_spec=None):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.config = config
        self.batch_size = int(batch_size)
        self.max_seq_len = int(max_seq_len) if max_seq_len is not None else config.max_seq_len
        if self.max_seq_len < 1 or self.max_seq_len > config.max_seq_len:
            raise ValueError(
                f"max_seq_len must be in [1, {config.max_seq_len}], got {self.max_seq_len}"
            )
        if kv_spec is None:
            self.quantizer = None
        else:
            from repro.quant import get_quantizer

            self.quantizer = get_quantizer(kv_spec)
        # Fixed by the format, so decided once: a wrapper installed over
        # ``quantizer`` later (a tracing proxy) keeps the same path.
        self._batch_separable = (self.quantizer is not None
                                 and self.quantizer.batch_separable)
        self._lengths = np.zeros(self.batch_size, dtype=np.int64)

    # -------------------------------------------------------------- identity
    @property
    def kv_spec(self) -> str:
        """Canonical spec of the KV quantiser, or ``"fp16"`` when unquantised."""
        return self.quantizer.spec if self.quantizer is not None else "fp16"

    @property
    def lengths(self) -> np.ndarray:
        """Valid positions per slot (do not mutate; use append/advance/reset)."""
        return self._lengths

    def _quantize_rows(self, k_new: np.ndarray, v_new: np.ndarray) -> tuple:
        """Fake-quantise every row's appended K/V along ``head_dim``.

        Co-batched sequences never share a quantisation scale, so a request's
        cached K/V does not depend on which requests happen to decode
        alongside it.  When the format is
        :attr:`~repro.quant.Quantizer.batch_separable` (block formats,
        minifloats, per-block INT: every scale lives inside one ``head_dim``
        vector) all rows and both sides go through one quantiser call, which
        keeps that promise bit for bit.  Otherwise (per-tensor or per-channel
        INT, whose scale spans a row's chunk; stochastic rounding; the
        outlier baselines) each row's K and V are quantised on their own.
        """
        quantizer = self.quantizer
        if quantizer is None:
            return k_new, v_new
        if self._batch_separable:
            kv = quantizer.quantize_dequantize(np.stack((k_new, v_new)), axis=-1)
            return kv[0], kv[1]
        return (np.stack([quantizer.quantize_dequantize(k, axis=-1) for k in k_new]),
                np.stack([quantizer.quantize_dequantize(v, axis=-1) for v in v_new]))

    # --------------------------------------------------------------- costing
    def bits_per_token(self) -> float:
        """Storage bits one cached token position costs (K and V, all layers)."""
        element_bits = (self.quantizer.bits_per_element() if self.quantizer is not None
                        else UNQUANTIZED_KV_BITS)
        return 2.0 * self.config.n_layers * self.config.d_model * element_bits

    def memory_efficiency(self) -> float:
        """KV memory density improvement relative to FP16 storage."""
        if self.quantizer is None:
            return 1.0
        return UNQUANTIZED_KV_BITS / self.quantizer.bits_per_element()


class KVCache(_KVCacheBase):
    """Contiguous per-layer K/V storage for up to ``batch_size`` sequences.

    Layout: one ``(batch, n_heads, max_seq_len, head_dim)`` array per layer
    and per K/V side — the shape attention consumes, so reads need no
    transpose.  ``lengths[row]`` tracks how many positions of slot ``row``
    are valid; slots are independent, so a continuous-batching engine can
    prefill, decode and recycle them in any interleaving.  This is the
    ``contiguous`` backend of :class:`~repro.serve.engine.EngineConfig`:
    worst-case pre-allocation, no prefix sharing (every lifecycle hook below
    degenerates to a slot reset).

    Parameters
    ----------
    config:
        Architecture of the model the cache serves (layer/head geometry).
    batch_size:
        Number of concurrent sequence slots.
    max_seq_len:
        Capacity per slot; defaults to the model's ``max_seq_len``.
    kv_spec:
        Optional :mod:`repro.quant` spec string (or config/quantizer) applied
        to every appended key/value block along the ``head_dim`` axis.
        ``None`` stores exact values and accounts memory at FP16.
    """

    #: Contiguous storage has no pages; reported as such by the engine.
    page_size = None

    def __init__(self, config: ModelConfig, batch_size: int, max_seq_len: int = None,
                 kv_spec=None):
        super().__init__(config, batch_size, max_seq_len=max_seq_len, kv_spec=kv_spec)
        shape = (self.batch_size, config.n_heads, self.max_seq_len, config.head_dim)
        self._k = [np.zeros(shape) for _ in range(config.n_layers)]
        self._v = [np.zeros(shape) for _ in range(config.n_layers)]
        self._peak_tokens = 0

    def __repr__(self) -> str:
        return (f"KVCache(batch_size={self.batch_size}, max_seq_len={self.max_seq_len}, "
                f"kv_spec={self.kv_spec!r}, cached_tokens={int(self._lengths.sum())})")

    # ------------------------------------------------------------ read/write
    def append(self, layer: int, rows, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Store new K/V positions for ``rows`` starting at their current lengths.

        ``k_new`` / ``v_new`` have shape ``(len(rows), n_heads, n_new,
        head_dim)``.  The write offset is ``lengths[row]`` — every layer of
        one forward step appends at the same offset; :meth:`advance` moves the
        offsets once the step has run all layers.  When a quantiser is
        configured the values are quantise-dequantised along ``head_dim``
        before storage (see :meth:`_KVCacheBase._quantize_rows`).
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        n_new = k_new.shape[2]
        starts = self._lengths[rows]
        if np.any(starts + n_new > self.max_seq_len):
            raise ValueError(
                f"append of {n_new} position(s) overflows the cache capacity "
                f"{self.max_seq_len}"
            )
        k_q, v_q = self._quantize_rows(k_new, v_new)
        # the heads slice splits the two index arrays, so the indexed slab is
        # (rows, n_new, heads, head_dim)
        positions = starts[:, None] + np.arange(n_new)
        self._k[layer][rows[:, None], :, positions] = k_q.transpose(0, 2, 1, 3)
        self._v[layer][rows[:, None], :, positions] = v_q.transpose(0, 2, 1, 3)

    def context(self, layer: int, rows, context_len: int) -> tuple:
        """Return ``(k, v)`` of shape ``(len(rows), n_heads, context_len, head_dim)``.

        ``context_len`` covers positions appended this step but not yet
        advanced; rows shorter than ``context_len`` carry stale tail values
        the caller must mask (the causal mask of ``forward_step`` does).
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        return self._k[layer][rows, :, :context_len], self._v[layer][rows, :, :context_len]

    def advance(self, rows, n_new: int) -> None:
        """Commit ``n_new`` appended positions of ``rows`` (once per forward step)."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if np.any(self._lengths[rows] + n_new > self.max_seq_len):
            raise ValueError("advance past the cache capacity")
        self._lengths[rows] += n_new
        self._peak_tokens = max(self._peak_tokens, int(self._lengths.sum()))

    def reset(self, rows=None) -> None:
        """Invalidate ``rows`` (all slots by default) so they can be reused."""
        if rows is None:
            self._lengths[:] = 0
        else:
            rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
            self._lengths[rows] = 0

    # --------------------------------------------- request lifecycle (no-ops)
    def match_prefix(self, tokens) -> int:
        """Contiguous storage caches nothing across requests: no prefix hits."""
        return 0

    def begin_request(self, row: int, tokens) -> int:
        """Claim ``row`` for a new request; returns the reused prefix length (0)."""
        self.reset(rows=[row])
        return 0

    def commit_prefix(self, row: int, tokens) -> None:
        """Contiguous storage shares nothing: committing a prefix is a no-op."""

    def retire_request(self, row: int, tokens=None) -> None:
        """Free ``row``; the dense layout keeps nothing for future requests."""
        self.reset(rows=[row])

    def admission_block_cost(self, prompt_tokens, projected_tokens: int) -> int:
        """Pages a request would consume — always 0 (admission is slot-bound)."""
        return 0

    def blocks_outstanding(self, row: int, projected_tokens: int) -> int:
        """Pages an active request may still allocate — always 0."""
        return 0

    @property
    def available_blocks(self) -> int:
        return 0

    @property
    def pages_in_use(self) -> int:
        return 0

    @property
    def peak_pages_in_use(self) -> int:
        return 0

    # --------------------------------------------------------------- costing
    def memory_bits(self) -> float:
        """Footprint of the currently cached tokens at the configured format."""
        return float(self._lengths.sum()) * self.bits_per_token()

    def peak_memory_bits(self) -> float:
        """High-water mark of :meth:`memory_bits` over the cache's lifetime."""
        return float(self._peak_tokens) * self.bits_per_token()


class PagedKVCache(_KVCacheBase):
    """Paged K/V storage with radix-tree prefix sharing (the default backend).

    Every slot addresses its K/V through a *block table* — a list of page ids
    into one shared :class:`~repro.serve.paging.BlockPool` — so memory is
    allocated on demand at ``page_size``-token granularity instead of
    reserved for the worst case.  The request lifecycle threads through the
    :class:`~repro.serve.paging.RadixIndex`:

    * :meth:`begin_request` matches the prompt against cached prefixes and
      adopts every full page of the longest hit (the engine then prefills
      only the remaining suffix);
    * :meth:`retire_request` inserts the finished sequence's full pages into
      the index for future reuse before releasing the slot's references;
    * allocation evicts least-recently-used unreferenced chains when the
      pool runs dry, and :meth:`fork` / copy-on-write let sequences share
      pages until they diverge.

    Greedy decode is token-identical to :class:`KVCache` on the same trace:
    pages hold exactly the values the dense layout would, sharing reuses
    positions whose K/V depend only on the shared tokens, and gathers
    preserve order.

    Parameters mirror :class:`KVCache` plus ``page_size`` (tokens per page)
    and ``num_blocks`` (pool capacity; default ``batch_size *
    ceil(max_seq_len / page_size)`` — enough for a full fleet of worst-case
    requests, the same budget the dense layout reserves up front).
    """

    def __init__(self, config: ModelConfig, batch_size: int, max_seq_len: int = None,
                 kv_spec=None, page_size: int = 16, num_blocks: int = None):
        super().__init__(config, batch_size, max_seq_len=max_seq_len, kv_spec=kv_spec)
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.page_size = int(page_size)
        blocks_per_slot = -(-self.max_seq_len // self.page_size)
        self.num_blocks = (int(num_blocks) if num_blocks is not None
                           else self.batch_size * blocks_per_slot)
        if self.num_blocks < blocks_per_slot:
            raise ValueError(
                f"num_blocks ({self.num_blocks}) cannot hold even one full "
                f"sequence ({blocks_per_slot} pages of {self.page_size})"
            )
        self.pool = BlockPool(config, self.num_blocks, self.page_size)
        self.index = RadixIndex(self.pool)
        self._tables = [[] for _ in range(self.batch_size)]
        # ``_tables`` padded into one array, so append/context address every
        # row's pages with one fancy index; entries past a table's length are
        # don't-care (they only ever read positions the caller masks).
        self._page_ids = np.zeros((self.batch_size, blocks_per_slot), dtype=np.int64)

    def __repr__(self) -> str:
        return (f"PagedKVCache(batch_size={self.batch_size}, max_seq_len={self.max_seq_len}, "
                f"page_size={self.page_size}, blocks={self.pool.pages_in_use}"
                f"/{self.num_blocks}, kv_spec={self.kv_spec!r}, "
                f"cached_prefix_pages={len(self.index)})")

    # ------------------------------------------------------------ allocation
    def _alloc_block(self) -> int:
        """One fresh page, evicting LRU unreferenced prefix chains if needed."""
        block = self.pool.try_alloc()
        while block is None:
            if not self.index.evict_one():
                raise PoolExhaustedError(
                    f"KV block pool exhausted: all {self.num_blocks} pages are "
                    f"referenced by active requests"
                )
            block = self.pool.try_alloc()
        return block

    def _ensure_capacity(self, row: int, upto: int) -> None:
        """Grow ``row``'s block table to cover positions ``[0, upto)``."""
        table = self._tables[row]
        while len(table) * self.page_size < upto:
            block = self._alloc_block()
            self._page_ids[row, len(table)] = block
            table.append(block)

    def _ensure_writable(self, row: int, start: int, n_new: int) -> None:
        """Copy-on-write: privatise every shared page the write will touch.

        Engine-driven writes start at a page boundary (prefix matches are
        page-aligned), so they only touch fresh pages; forked sequences
        (:meth:`fork`) diverge mid-page and trigger a real copy here.
        """
        table = self._tables[row]
        for page in range(start // self.page_size,
                          -(-(start + n_new) // self.page_size)):
            if self.pool.refcount(table[page]) > 1:
                clone = self.pool.copy_block(table[page])
                self.pool.release(table[page])
                table[page] = clone
                self._page_ids[row, page] = clone

    # ------------------------------------------------------------ read/write
    def append(self, layer: int, rows, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Store new K/V positions for ``rows`` across their block tables.

        Same contract as :meth:`KVCache.append`; pages are allocated on
        demand when the first layer of a step writes past the table's
        coverage (all layers of one step share the same offsets, so the
        allocation happens exactly once).  Every row and position is then
        written with one fancy-index scatter per side.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        n_new = k_new.shape[2]
        starts = self._lengths[rows]
        if np.any(starts + n_new > self.max_seq_len):
            raise ValueError(
                f"append of {n_new} position(s) overflows the cache capacity "
                f"{self.max_seq_len}"
            )
        for row, start in zip(rows.tolist(), starts.tolist()):
            self._ensure_capacity(row, start + n_new)
            self._ensure_writable(row, start, n_new)
        prof = self.profiler
        if prof is not None:
            _t0 = time.perf_counter()
            k_q, v_q = self._quantize_rows(k_new, v_new)
            prof.add(QUANT_APPEND, time.perf_counter() - _t0)
        else:
            k_q, v_q = self._quantize_rows(k_new, v_new)
        pages, within = np.divmod(starts[:, None] + np.arange(n_new), self.page_size)
        blocks = self._page_ids[rows[:, None], pages]
        # pages are position-major: (rows, n_new) index pairs select
        # (rows, n_new, heads, head_dim) slabs
        self.pool.k_store[layer][blocks, within] = k_q.transpose(0, 2, 1, 3)
        self.pool.v_store[layer][blocks, within] = v_q.transpose(0, 2, 1, 3)

    def context(self, layer: int, rows, context_len: int) -> tuple:
        """Gather ``(k, v)`` of shape ``(len(rows), n_heads, context_len, head_dim)``.

        One fancy-index gather per side pulls every row's pages in table
        order; position-major pages make the result a free reshape away from
        ``(rows, positions, heads, head_dim)``, and the returned arrays are
        transposed views of it.  Positions past a row's coverage hold stale
        values; like the dense cache's stale tail they are masked by the
        caller's causal mask.
        """
        prof = self.profiler
        if prof is not None:
            _t0 = time.perf_counter()
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        pages = -(-context_len // self.page_size)
        blocks = self._page_ids[rows, :pages]
        shape = (len(rows), pages * self.page_size, self.config.n_heads,
                 self.config.head_dim)
        k = self.pool.k_store[layer][blocks].reshape(shape)[:, :context_len]
        v = self.pool.v_store[layer][blocks].reshape(shape)[:, :context_len]
        if prof is not None:
            prof.add(PAGE_GATHER, time.perf_counter() - _t0)
        return k.transpose(0, 2, 1, 3), v.transpose(0, 2, 1, 3)

    def advance(self, rows, n_new: int) -> None:
        """Commit ``n_new`` appended positions of ``rows`` (once per forward step)."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if np.any(self._lengths[rows] + n_new > self.max_seq_len):
            raise ValueError("advance past the cache capacity")
        self._lengths[rows] += n_new

    def reset(self, rows=None) -> None:
        """Release ``rows``' pages (all slots by default) without indexing them."""
        targets = (range(self.batch_size) if rows is None
                   else np.atleast_1d(np.asarray(rows, dtype=np.int64)))
        for row in targets:
            row = int(row)
            for block in self._tables[row]:
                self.pool.release(block)
            self._tables[row] = []
            self._lengths[row] = 0

    # --------------------------------------------------- request lifecycle
    def match_prefix(self, tokens) -> int:
        """Reusable prefix length (tokens) a prompt would hit, without claiming it.

        Full pages only, and capped at ``len(tokens) - 1`` so at least one
        prompt token remains to prefill (the logits that sample the first
        generated token).
        """
        return len(self.index.match(tokens, max_tokens=len(tokens) - 1)) * self.page_size

    def begin_request(self, row: int, tokens) -> int:
        """Claim ``row`` and adopt the longest cached prefix of ``tokens``.

        The matched chain's pages are retained and become the head of the
        slot's block table with ``lengths[row]`` set past them, so the
        engine's prefill covers only ``tokens[matched:]``.  Returns the
        number of reused prefix tokens (0 on a miss).
        """
        if self._tables[row]:
            self.reset(rows=[row])
        matched = self.index.match(tokens, max_tokens=len(tokens) - 1)
        self._tables[row] = self.index.acquire(matched)
        self._page_ids[row, :len(matched)] = self._tables[row]
        self._lengths[row] = len(matched) * self.page_size
        return len(matched) * self.page_size

    def commit_prefix(self, row: int, tokens) -> None:
        """Index a just-prefilled prompt's full pages for immediate reuse.

        Called by the engine right after prefill: the prompt's K/V is
        complete from that moment on, so a same-prefix request admitted in
        the very same step already hits — without this, concurrent members
        of a prefix group would all miss until the first one retired.  The
        indexed pages are full and never rewritten by the running request
        (its decode appends past the prompt), and copy-on-write guards the
        partial tail page, which is not indexed.
        """
        cached = int(self._lengths[row])
        self.index.insert(tuple(tokens)[:cached], self._tables[row])

    def retire_request(self, row: int, tokens) -> None:
        """Index the finished sequence's full pages, then release the slot.

        ``tokens`` is the full sequence (prompt + generated); the cache holds
        K/V for its first ``lengths[row]`` positions.  Full pages go into the
        radix index (which takes its own references), so a later request with
        the same prefix skips their prefill; partial pages are just freed.
        """
        cached = int(self._lengths[row])
        self.index.insert(tuple(tokens)[:cached], self._tables[row])
        self.reset(rows=[row])

    def fork(self, src_row: int, dst_row: int) -> None:
        """Share ``src_row``'s pages with ``dst_row`` (copy-on-write on divergence)."""
        if self._tables[dst_row]:
            self.reset(rows=[dst_row])
        self._tables[dst_row] = [self.pool.retain(block)
                                 for block in self._tables[src_row]]
        self._page_ids[dst_row] = self._page_ids[src_row]
        self._lengths[dst_row] = self._lengths[src_row]

    # -------------------------------------------------- admission accounting
    def admission_block_cost(self, prompt_tokens, projected_tokens: int) -> int:
        """Pages admitting this request consumes from the reclaimable supply.

        Fresh pages it must allocate (worst case, ``projected_tokens``
        positions beyond the matched prefix) plus matched index pages that
        would leave the evictable pool once acquired — both reduce what
        other requests can still claim, so admission compares their sum
        against :attr:`available_blocks`.
        """
        matched = self.index.match(prompt_tokens, max_tokens=len(prompt_tokens) - 1)
        need_new = -(-projected_tokens // self.page_size) - len(matched)
        pinned = sum(1 for node in matched if self.pool.refcount(node.block) == 1)
        return need_new + pinned

    def blocks_outstanding(self, row: int, projected_tokens: int) -> int:
        """Pages an active request may still allocate before finishing."""
        return max(0, -(-projected_tokens // self.page_size) - len(self._tables[row]))

    @property
    def available_blocks(self) -> int:
        """Reclaimable pages: free now plus evictable from the prefix index."""
        return self.pool.num_free + self.index.evictable_blocks()

    @property
    def pages_in_use(self) -> int:
        return self.pool.pages_in_use

    @property
    def peak_pages_in_use(self) -> int:
        return self.pool.peak_pages_in_use

    # --------------------------------------------------------------- costing
    def memory_bits(self) -> float:
        """Footprint of the allocated pages (page-granular, shared pages once)."""
        return float(self.pool.pages_in_use * self.page_size) * self.bits_per_token()

    def peak_memory_bits(self) -> float:
        """High-water mark of :meth:`memory_bits` over the cache's lifetime."""
        return float(self.pool.peak_pages_in_use * self.page_size) * self.bits_per_token()
