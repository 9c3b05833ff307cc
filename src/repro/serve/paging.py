"""Paged KV storage: a block pool with refcounts and a radix prefix index.

The two primitives :class:`~repro.serve.kv_cache.PagedKVCache` is built
from (the vLLM/SGLang idiom):

* :class:`BlockPool` — all K/V storage lives in fixed-size *pages* of
  ``page_size`` token positions (every layer, both K and V sides).  Pages are
  handed out lowest free id first and reference-counted, so a cached prefix
  page can be held by the radix index and by every request that adopted it
  at once.  A page can also be claimed at a chosen block id and moved
  between blocks, which lets the cache keep each slot's pages on fixed home
  blocks.
* :class:`RadixIndex` — a radix tree over token ids at page granularity:
  each node owns one *full* page and is keyed by the ``page_size`` token ids
  it covers.  A new request walks the tree with its prompt and adopts every
  full page of the longest cached prefix instead of recomputing prefill;
  retired requests insert their full pages back.  Unreferenced chains are
  evicted least-recently-used when the pool runs dry, using a logical access
  counter so eviction order (and therefore every report built on top) is
  deterministic.

Correctness of sharing rests on causality: the K/V of position ``i`` depends
only on tokens ``0..i``, so two requests whose prompts agree on the first
``k * page_size`` tokens may share those ``k`` pages bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.llm.config import ModelConfig

__all__ = ["BlockPool", "RadixIndex", "PoolExhaustedError"]


class PoolExhaustedError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after eviction."""


class BlockPool:
    """Fixed-size pages of per-layer K/V storage with refcounted allocation.

    One block holds ``page_size`` token positions for *every* decoder layer
    (layout per layer: ``(num_blocks, page_size, n_heads, head_dim)``), so a
    sequence's block table is one list of ids, not one per layer.  Pages are
    position-major: gathering a row's pages yields ``(pages, page_size,
    heads, head_dim)``, which reshapes for free into consecutive positions.
    Plain allocation (:meth:`try_alloc`) hands out the lowest free id, so
    allocation order is deterministic; :meth:`take` claims one chosen free
    block instead, and :meth:`move` carries a page (values and references)
    to another block.  A block is free exactly when its reference count is
    zero.

    >>> from repro.llm.config import ModelConfig
    >>> config = ModelConfig(name="doc", vocab_size=64, d_model=8, n_heads=2,
    ...                      n_layers=1, d_ff=16, max_seq_len=32)
    >>> pool = BlockPool(config, num_blocks=4, page_size=8)
    >>> block = pool.alloc()
    >>> pool.retain(block)            # a second holder (e.g. the radix index)
    0
    >>> pool.refcount(block), pool.num_free
    (2, 3)
    >>> pool.release(block); pool.release(block)
    >>> pool.num_free
    4
    """

    def __init__(self, config: ModelConfig, num_blocks: int, page_size: int):
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.config = config
        self.num_blocks = int(num_blocks)
        self.page_size = int(page_size)
        shape = (self.num_blocks, self.page_size, config.n_heads, config.head_dim)
        self.k_store = [np.zeros(shape) for _ in range(config.n_layers)]
        self.v_store = [np.zeros(shape) for _ in range(config.n_layers)]
        self._refcounts = np.zeros(self.num_blocks, dtype=np.int64)
        self._num_free = self.num_blocks
        self._peak_pages = 0

    # ------------------------------------------------------------- allocation
    @property
    def capacity(self) -> int:
        return self.num_blocks

    @property
    def num_free(self) -> int:
        return self._num_free

    @property
    def pages_in_use(self) -> int:
        return self.num_blocks - self._num_free

    @property
    def peak_pages_in_use(self) -> int:
        """High-water mark of concurrently allocated pages."""
        return self._peak_pages

    def _claim(self, block: int) -> None:
        self._refcounts[block] = 1
        self._num_free -= 1
        self._peak_pages = max(self._peak_pages, self.pages_in_use)

    def try_alloc(self) -> int:
        """Allocate the lowest free page (refcount 1), or ``None`` when empty."""
        if not self._num_free:
            return None
        block = int(np.argmin(self._refcounts))  # counts are >= 0: the first zero
        self._claim(block)
        return block

    def take(self, block: int) -> bool:
        """Allocate ``block`` itself (refcount 1) if it is free; O(1)."""
        if self._refcounts[block]:
            return False
        self._claim(block)
        return True

    def alloc(self) -> int:
        """Allocate one page (refcount 1); raises :class:`PoolExhaustedError`."""
        block = self.try_alloc()
        if block is None:
            raise PoolExhaustedError(
                f"all {self.num_blocks} KV pages are referenced; nothing to allocate"
            )
        return block

    def refcount(self, block: int) -> int:
        return int(self._refcounts[block])

    def allocated_blocks(self) -> list:
        """Ids of every currently allocated page (refcount > 0), ascending.

        The audit surface: together with per-holder expectations (block
        tables, radix nodes) this lets a test or a shutdown check prove that
        no page leaked — see :meth:`repro.serve.engine.ServeEngine.audit_kv_pages`.
        """
        return [int(block) for block in np.flatnonzero(self._refcounts > 0)]

    def retain(self, block: int) -> int:
        """Add one reference to an allocated page (share it); returns the id."""
        if self._refcounts[block] < 1:
            raise ValueError(f"cannot retain free block {block}")
        self._refcounts[block] += 1
        return block

    def release(self, block: int) -> None:
        """Drop one reference; the page returns to the free list at zero."""
        if self._refcounts[block] < 1:
            raise ValueError(f"double free of block {block}")
        self._refcounts[block] -= 1
        if self._refcounts[block] == 0:
            self._num_free += 1

    def move(self, src: int, dst: int) -> None:
        """Move the page in ``src`` to the freshly allocated ``dst``.

        Copies the page's K/V on every layer and its reference count;
        ``src`` keeps ``dst``'s single reference, so it comes back as a
        fresh page for the caller.  Every holder of ``src`` (block tables,
        radix nodes) must be repointed to ``dst``.
        """
        for store in self.k_store + self.v_store:
            store[dst] = store[src]
        self._refcounts[dst] = self._refcounts[src]
        self._refcounts[src] = 1


class _RadixNode:
    """One full page of a cached prefix: keyed by its ``page_size`` token ids."""

    __slots__ = ("key", "block", "parent", "children", "last_access")

    def __init__(self, key, block, parent):
        self.key = key                  # tuple of page_size token ids (None at root)
        self.block = block              # pool block id (None at root)
        self.parent = parent
        self.children = {}              # key tuple -> _RadixNode
        self.last_access = 0


class RadixIndex:
    """Token-prefix -> block-chain map at full-page granularity.

    The index holds its own pool reference on every node's block, so cached
    chains survive the requests that built them; a chain whose blocks are
    referenced *only* by the index (refcount 1) is evictable.  Access
    recency is a logical tick, not wall time, so LRU order is reproducible.
    Nodes are also found by block id, so :meth:`repoint` can follow a page
    the pool moved to another block.
    """

    def __init__(self, pool: BlockPool):
        self.pool = pool
        self.page_size = pool.page_size
        self._root = _RadixNode(key=None, block=None, parent=None)
        self._nodes = {}  # block id -> _RadixNode owning it
        self._tick = 0

    def __len__(self) -> int:
        """Number of cached pages (tree nodes, excluding the root)."""
        return len(self._nodes)

    def _touch(self, node: _RadixNode) -> None:
        self._tick += 1
        node.last_access = self._tick

    def _page_key(self, tokens, page: int):
        lo = page * self.page_size
        return tuple(int(t) for t in tokens[lo:lo + self.page_size])

    # ---------------------------------------------------------------- lookup
    def match(self, tokens, max_tokens: int = None) -> list:
        """Longest cached chain of full pages prefixing ``tokens``.

        Returns the matched nodes root-outward.  ``max_tokens`` bounds the
        match (e.g. ``len(prompt) - 1`` so at least one prompt token is left
        to prefill and produce first-token logits).
        """
        limit = len(tokens) if max_tokens is None else min(max_tokens, len(tokens))
        matched = []
        node = self._root
        while (len(matched) + 1) * self.page_size <= limit:
            child = node.children.get(self._page_key(tokens, len(matched)))
            if child is None:
                break
            matched.append(child)
            node = child
        return matched

    def acquire(self, nodes) -> list:
        """Retain every matched block for a request; returns the block ids."""
        blocks = []
        for node in nodes:
            self.pool.retain(node.block)
            self._touch(node)
            blocks.append(node.block)
        return blocks

    # --------------------------------------------------------------- insert
    def insert(self, tokens, blocks) -> int:
        """Register a retired sequence's full pages for future reuse.

        ``blocks`` is the sequence's block table; page ``i`` of ``tokens``
        lives in ``blocks[i]``.  Only full pages are inserted.  Existing
        nodes keep their block (the duplicate page stays owned by the caller,
        who releases it); new nodes take an index-owned reference on the
        caller's block.  Returns the number of newly inserted pages.
        """
        full_pages = min(len(tokens) // self.page_size, len(blocks))
        node = self._root
        inserted = 0
        for page in range(full_pages):
            key = self._page_key(tokens, page)
            child = node.children.get(key)
            if child is None:
                child = _RadixNode(key=key, block=self.pool.retain(blocks[page]),
                                   parent=node)
                node.children[key] = child
                self._nodes[child.block] = child
                inserted += 1
            self._touch(child)
            node = child
        return inserted

    def repoint(self, old: int, new: int) -> None:
        """Follow a page the pool moved from block ``old`` to ``new``."""
        node = self._nodes.pop(old, None)
        if node is not None:
            node.block = new
            self._nodes[new] = node

    # -------------------------------------------------------------- eviction
    def owned_blocks(self) -> list:
        """Block ids the index holds a reference on (one per tree node)."""
        return list(self._nodes)

    def evictable_blocks(self) -> int:
        """Pages held only by the index (refcount 1) — reclaimable supply."""
        return sum(1 for block in self._nodes if self.pool.refcount(block) == 1)

    def evict_one(self) -> bool:
        """Evict the least-recently-used unreferenced leaf page.

        Only leaves are candidates (evicting an inner node would orphan its
        chain); any active request holding a child also holds every ancestor,
        so an unreferenced subtree always exposes an unreferenced leaf.
        Returns ``False`` when nothing is evictable.
        """
        victim = None
        for node in self._nodes.values():
            if node.children or self.pool.refcount(node.block) != 1:
                continue
            if victim is None or node.last_access < victim.last_access:
                victim = node
        if victim is None:
            return False
        self.pool.release(victim.block)
        del victim.parent.children[victim.key]
        del self._nodes[victim.block]
        return True

    def clear(self) -> None:
        """Drop every cached chain (releases all index-owned references)."""
        for block in self._nodes:
            self.pool.release(block)
        self._root.children.clear()
        self._nodes.clear()
