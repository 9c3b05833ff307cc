"""Paged per-layer K/V cache with optional quantised storage.

The cache backs :meth:`repro.llm.inference.InferenceModel.forward_step`: each
decoder layer appends the keys/values of newly processed positions and reads
back the full cached context for attention, so decoding one token costs one
token's worth of linear layers instead of re-running the whole prefix.

Storage is a :class:`~repro.serve.paging.BlockPool` of fixed-size pages
addressed through per-slot block tables, with a
:class:`~repro.serve.paging.RadixIndex` mapping token prefixes to page
chains: a request whose prompt starts with an already-cached prefix adopts
those pages and skips their prefill entirely, shared pages are refcounted,
and unreferenced chains are LRU-evicted when the pool runs dry.  A page as
long as ``max_seq_len`` gives every slot exactly one page — the dense
layout, with nothing shareable.

Where a page physically lives is decided apart from all of that: when the
pool holds a block for every slot position, each slot's pages sit on fixed
*home* blocks, so a batch of consecutive slots reads its context as a
slice of the pool instead of gathering copies of every page.

KV storage is where a serving system's memory goes (the weights are shared
across requests, the cache is per request), so the cache optionally pushes
every appended key/value through a :mod:`repro.quant` quantiser — any spec
string the registry understands (``"bfp8@b32"``, ``"int8"``, ``"mxfp4"``...).
Like everywhere else in the reproduction this is fake quantisation: the
arrays hold the dequantised values while :meth:`~PagedKVCache.bits_per_token`
/ :meth:`~PagedKVCache.memory_bits` account for the encoded footprint, so the
accuracy cost and the memory saving of a KV format are both measurable.
"""

from __future__ import annotations

import numpy as np

from repro.llm.config import ModelConfig
from repro.serve.paging import BlockPool, PoolExhaustedError, RadixIndex

__all__ = ["PagedKVCache"]

#: Bits per stored element when no quantiser is configured: serving systems
#: keep the KV cache in half precision, so FP16 is the memory baseline the
#: quantised specs are compared against.
UNQUANTIZED_KV_BITS = 16.0


class PagedKVCache:
    """Paged K/V storage for up to ``batch_size`` sequences, with prefix sharing.

    Every slot addresses its K/V through a *block table* — a list of page ids
    into one shared :class:`~repro.serve.paging.BlockPool` — so memory is
    allocated on demand at ``page_size``-token granularity instead of
    reserved for the worst case.  ``lengths[row]`` tracks how many positions
    of slot ``row`` are valid; slots are independent, so a continuous-batching
    engine can prefill, decode and recycle them in any interleaving.  The
    request lifecycle threads through the
    :class:`~repro.serve.paging.RadixIndex`:

    * :meth:`begin_request` matches the prompt against cached prefixes and
      adopts every full page of the longest hit (the engine then prefills
      only the remaining suffix);
    * :meth:`retire_request` inserts the finished sequence's full pages into
      the index for future reuse before releasing the slot's references;
    * allocation evicts least-recently-used unreferenced chains when the
      pool runs dry.

    Shared pages are never written: a slot adopts only full prefix pages and
    starts its own writes past them, and the index only ever receives full
    pages the writer has moved past, so every page an :meth:`append` touches
    is private to its row.  Pages hold exactly the values a dense layout
    would, sharing reuses positions whose K/V depend only on the shared
    tokens, and gathers preserve order.

    *Home placement.*  When ``num_blocks >= batch_size * blocks_per_slot``
    (the default sizing), page ``i`` of slot ``row`` is allocated on block
    ``row * blocks_per_slot + i``.  When another page sits there (a cached
    prefix page, perhaps adopted by other slots), allocation runs as it
    would without homes — same free count, same LRU eviction — and that
    page moves onto the block it returned, with its refcount, radix node
    and block-table entries repointed.  Which pages exist, who holds them
    and what they hold are therefore independent of placement; only block
    ids differ.  :meth:`context` reads consecutive slots whose pages all
    sit at home as a view of the pool.  Smaller pools use plain allocation
    only and always gather.

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
    page_size:
        Tokens per page, clamped to ``max_seq_len`` (a longer page would
        reserve positions no slot can use).
    num_blocks:
        Pool capacity; default ``batch_size * ceil(max_seq_len / page_size)``
        — enough for a full fleet of worst-case requests, the budget a dense
        layout reserves up front.
    """

    def __init__(self, config: ModelConfig, batch_size: int, max_seq_len: int = None,
                 kv_spec=None, page_size: int = 16, num_blocks: int = None):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.config = config
        self.batch_size = int(batch_size)
        self.max_seq_len = int(max_seq_len) if max_seq_len is not None else config.max_seq_len
        if self.max_seq_len < 1 or self.max_seq_len > config.max_seq_len:
            raise ValueError(
                f"max_seq_len must be in [1, {config.max_seq_len}], got {self.max_seq_len}"
            )
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
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
        self.page_size = min(int(page_size), self.max_seq_len)
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
        slot_blocks = self.batch_size * blocks_per_slot
        if self.num_blocks >= slot_blocks:
            self._home_ids = np.arange(slot_blocks).reshape(self.batch_size,
                                                            blocks_per_slot)
            # the pool's home blocks seen slot-major, one row per slot
            slot_shape = (self.batch_size, blocks_per_slot * self.page_size,
                          config.n_heads, config.head_dim)
            self._k_slots = [_read_only(store[:slot_blocks].reshape(slot_shape))
                             for store in self.pool.k_store]
            self._v_slots = [_read_only(store[:slot_blocks].reshape(slot_shape))
                             for store in self.pool.v_store]
        else:
            self._home_ids = None
        # ``_tables`` padded into one array, so append/context address every
        # row's pages with one fancy index.  Entries past a table's length
        # only ever read positions the caller masks; they hold the row's
        # home ids, so a short row does not stop its batch reading a view.
        self._page_ids = (self._home_ids.copy() if self._home_ids is not None
                          else np.zeros((self.batch_size, blocks_per_slot), dtype=np.int64))
        # positions each table covers, so append tests every row at once
        self._covered = np.zeros(self.batch_size, dtype=np.int64)
        # the current forward's write and read plans, keyed by the rows' ids
        # plus the token count or the context length: every layer of a
        # forward addresses the same positions, so its first layer computes
        # them and the others reuse them (see append and context)
        self._writes = {}
        self._reads = {}

    def __repr__(self) -> str:
        return (f"PagedKVCache(batch_size={self.batch_size}, max_seq_len={self.max_seq_len}, "
                f"page_size={self.page_size}, blocks={self.pool.pages_in_use}"
                f"/{self.num_blocks}, kv_spec={self.kv_spec!r}, "
                f"cached_prefix_pages={len(self.index)})")

    # -------------------------------------------------------------- identity
    @property
    def kv_spec(self) -> str:
        """Canonical spec of the KV quantiser, or ``"fp16"`` when unquantised."""
        return self.quantizer.spec if self.quantizer is not None else "fp16"

    @property
    def split_invariant(self) -> bool:
        """Whether appending a row's positions in several chunks stores what one append does.

        True without a quantiser and for a
        :attr:`~repro.quant.Quantizer.batch_separable` one (every scale lives
        inside one ``head_dim`` vector); false when a scale spans the row's
        appended chunk (per-tensor or per-channel INT).  The engine splits a
        prompt only if the model's activation quantiser is batch-separable
        too (:attr:`~repro.llm.inference.QuantizationScheme.batch_separable`).
        """
        return self.quantizer is None or self._batch_separable

    @property
    def lengths(self) -> np.ndarray:
        """Valid positions per slot (do not mutate; use append/advance/reset)."""
        return self._lengths

    # ------------------------------------------------------------ allocation
    def _alloc_block(self, home: int = None) -> int:
        """One fresh page, evicting LRU unreferenced prefix chains if needed.

        With ``home`` given the fresh page is that block: claimed directly
        when free, otherwise the page sitting there moves onto the block
        plain allocation returned (see *Home placement* above).
        """
        if home is not None and self.pool.take(home):
            return home
        block = self.pool.try_alloc()
        while block is None:
            if not self.index.evict_one():
                raise PoolExhaustedError(
                    f"KV block pool exhausted: all {self.num_blocks} pages are "
                    f"referenced by active requests"
                )
            block = self.pool.try_alloc()
        if home is None or block == home:
            return block
        self._move_page(home, block)
        return home

    def _move_page(self, src: int, dst: int) -> None:
        """Move the page on ``src`` to ``dst`` and repoint every holder."""
        self.pool.move(src, dst)
        self.index.repoint(src, dst)
        for row, table in enumerate(self._tables):
            if src in table:  # a table holds a block at most once
                page = table.index(src)
                table[page] = dst
                self._page_ids[row, page] = dst

    def _ensure_capacity(self, row: int, upto: int) -> None:
        """Grow ``row``'s block table to cover positions ``[0, upto)``."""
        self._drop_plans()  # all allocation, and every page move, happens here
        table = self._tables[row]
        while len(table) * self.page_size < upto:
            page = len(table)
            block = self._alloc_block(None if self._home_ids is None
                                      else int(self._home_ids[row, page]))
            self._page_ids[row, page] = block
            table.append(block)
        self._covered[row] = len(table) * self.page_size

    # ------------------------------------------------------------ read/write
    def _drop_plans(self) -> None:
        """Forget the current forward's plans: a length or a block table changed."""
        self._writes.clear()
        self._reads.clear()

    def _quantize_rows(self, k_new: np.ndarray, v_new: np.ndarray) -> tuple:
        """Every row's appended K/V, fake-quantised along ``head_dim``, position-major.

        Returns ``(rows, n_new, heads, head_dim)`` arrays — the pages' layout.
        Co-batched sequences never share a quantisation scale, so a request's
        cached K/V does not depend on which requests happen to decode
        alongside it.  When the format is
        :attr:`~repro.quant.Quantizer.batch_separable` (block formats,
        minifloats, per-block INT: every scale lives inside one ``head_dim``
        vector) all rows and both sides go through one quantiser call in
        position-major order, which keeps that promise bit for bit.
        Otherwise (per-tensor or per-channel INT, whose scale spans a row's
        chunk; stochastic rounding, which draws in C order; the outlier
        baselines) each row's head-major K and V are quantised on their own.
        """
        k_pos, v_pos = k_new.transpose(0, 2, 1, 3), v_new.transpose(0, 2, 1, 3)
        quantizer = self.quantizer
        if quantizer is None:
            return k_pos, v_pos
        if self._batch_separable:
            kv = np.empty((2,) + k_pos.shape)
            kv[0], kv[1] = k_pos, v_pos
            kv = quantizer.quantize_dequantize(kv, axis=-1)
            return kv[0], kv[1]
        return (np.stack([quantizer.quantize_dequantize(k, axis=-1)
                          for k in k_new]).transpose(0, 2, 1, 3),
                np.stack([quantizer.quantize_dequantize(v, axis=-1)
                          for v in v_new]).transpose(0, 2, 1, 3))

    def append(self, layer: int, rows, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Store new K/V positions for ``rows`` starting at their current lengths.

        ``k_new`` / ``v_new`` have shape ``(len(rows), n_heads, n_new,
        head_dim)``.  The write offset is ``lengths[row]`` — every layer of
        one forward step appends at the same offset; :meth:`advance` moves the
        offsets once the step has run all layers.  Values are
        quantise-dequantised along ``head_dim`` when a quantiser is configured
        (see :meth:`_quantize_rows`), and every row and position is then
        written with one fancy-index scatter per side.

        The addresses come from a *write plan* that the first layer's call
        for ``rows`` and ``n_new`` makes and the other layers reuse: the
        capacity check, allocation of the pages the step writes past a
        table's coverage, and each position's block and offset.  Plans last
        until :meth:`advance` or a block-table change (page allocation or
        move, :meth:`reset`, :meth:`begin_request`), so a reused plan holds
        exactly what recomputing it would.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        n_new = k_new.shape[2]
        key = rows.tobytes(), n_new
        plan = self._writes.get(key)
        if plan is None:
            plan = self._writes[key] = self._write_plan(rows, n_new)
        k_q, v_q = self._quantize_rows(k_new, v_new)
        # (rows, n_new) index pairs select (rows, n_new, heads, head_dim) slabs
        self.pool.k_store[layer][plan] = k_q
        self.pool.v_store[layer][plan] = v_q

    def _write_plan(self, rows: np.ndarray, n_new: int) -> tuple:
        """``(blocks, offsets)`` of ``rows``' next ``n_new`` positions, their pages allocated."""
        starts = self._lengths[rows]
        ends = starts + n_new
        if (ends > self.max_seq_len).any():
            raise ValueError(
                f"append of {n_new} position(s) overflows the cache capacity "
                f"{self.max_seq_len}"
            )
        short = self._covered[rows] < ends
        if short.any():
            for row, end in zip(rows[short].tolist(), ends[short].tolist()):
                self._ensure_capacity(row, end)
        pages, within = np.divmod(starts[:, None] + np.arange(n_new), self.page_size)
        return self._page_ids[rows[:, None], pages], within

    def context(self, layer: int, rows, context_len: int) -> tuple:
        """Read ``(k, v)`` of shape ``(len(rows), n_heads, context_len, head_dim)``.

        ``context_len`` covers positions appended this step but not yet
        advanced.  When ``rows`` are consecutive slots ``lo..hi`` whose pages
        up to ``context_len`` all sit on their home blocks, the result is a
        read-only view of the pool: those blocks, slot-major, sliced to
        ``[lo:hi, :context_len]`` — no copy.  The view aliases the pool, so
        it is only valid until the next :meth:`append`; read it within the
        layer.  Otherwise one fancy-index gather per side copies every row's
        pages in table order.  Either way the arrays are position-major
        ``(rows, positions, heads, head_dim)`` transposed, with the same
        inner strides.  Rows shorter than ``context_len`` carry stale tail
        values the caller must mask (the causal mask of ``forward_step``
        does).

        Like :meth:`append`, the first layer's call for ``rows`` and
        ``context_len`` makes a *read plan* — the page ids and the
        view-or-gather decision — that the other layers reuse until
        :meth:`advance` or a block-table change.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        key = rows.tobytes(), context_len
        plan = self._reads.get(key)
        if plan is None:
            plan = self._reads[key] = self._read_plan(rows, context_len)
        if isinstance(plan, slice):
            k = self._k_slots[layer][plan, :context_len]
            v = self._v_slots[layer][plan, :context_len]
        else:
            shape = (len(rows), plan.shape[1] * self.page_size, self.config.n_heads,
                     self.config.head_dim)
            k = self.pool.k_store[layer][plan].reshape(shape)[:, :context_len]
            v = self.pool.v_store[layer][plan].reshape(shape)[:, :context_len]
        return k.transpose(0, 2, 1, 3), v.transpose(0, 2, 1, 3)

    def _read_plan(self, rows: np.ndarray, context_len: int):
        """The slots ``lo:hi`` to read as a view of the pool, or else the blocks to gather."""
        if not 0 <= context_len <= self.max_seq_len:
            raise ValueError(
                f"context_len must be in [0, {self.max_seq_len}], got {context_len}")
        pages = -(-context_len // self.page_size)
        blocks = self._page_ids[rows, :pages]
        lo = int(rows[0]) if len(rows) else -1
        hi = lo + len(rows)
        if (self._home_ids is not None and lo >= 0
                and np.array_equal(blocks, self._home_ids[lo:hi, :pages])):
            return slice(lo, hi)
        return blocks

    def advance(self, rows, n_new: int) -> None:
        """Commit ``n_new`` appended positions of ``rows`` (once per forward step).

        Ends the forward: the write and read plans of :meth:`append` and
        :meth:`context` are dropped, as the next forward addresses new
        positions.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if n_new < 0:
            raise ValueError(f"advance by a negative count ({n_new})")
        if rows.size and self._lengths[rows].max() + n_new > self.max_seq_len:
            raise ValueError("advance past the cache capacity")
        self._lengths[rows] += n_new
        self._drop_plans()

    def reset(self, rows=None) -> None:
        """Release ``rows``' pages (all slots by default) without indexing them."""
        self._drop_plans()
        targets = (range(self.batch_size) if rows is None
                   else np.atleast_1d(np.asarray(rows, dtype=np.int64)))
        for row in targets:
            row = int(row)
            for block in self._tables[row]:
                self.pool.release(block)
            self._tables[row] = []
            self._covered[row] = 0
            self._lengths[row] = 0
            if self._home_ids is not None:
                self._page_ids[row] = self._home_ids[row]

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
        self._drop_plans()
        if self._tables[row]:
            self.reset(rows=[row])
        matched = self.index.match(tokens, max_tokens=len(tokens) - 1)
        self._tables[row] = self.index.acquire(matched)
        self._page_ids[row, :len(matched)] = self._tables[row]
        self._covered[row] = self._lengths[row] = len(matched) * self.page_size
        return len(matched) * self.page_size

    def commit_prefix(self, row: int, tokens) -> None:
        """Index the full pages of a prompt's prefilled positions for reuse.

        Called by the engine after each prefill chunk's forward: the K/V of
        every full page so far is final from that moment on, so a
        same-prefix request admitted at a later step already hits — without
        this, concurrent members of a prefix group would all miss until the
        first one retired.  A queued head that shares a page still being
        prefilled waits for it (``ServeEngine._in_flight_prefix``), so the
        page is computed once.  Sharing the pages while their writer is
        still running is safe: the indexed pages are full, later chunks and
        decode only append past them, and the partial tail page they do
        write into is not indexed.
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

    def memory_bits(self) -> float:
        """Footprint of the allocated pages (page-granular, shared pages once)."""
        return float(self.pool.pages_in_use * self.page_size) * self.bits_per_token()

    def peak_memory_bits(self) -> float:
        """High-water mark of :meth:`memory_bits` over the cache's lifetime."""
        return float(self.pool.peak_pages_in_use * self.page_size) * self.bits_per_token()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array
