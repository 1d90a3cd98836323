"""Page-cache model for guest/host duplication analysis.

§2.4: with a para-virtualised block device (Firecracker/E2B), a file read
inside the guest is cached **twice** — once in the guest kernel's page
cache and once in the host's, because the host emulates the block IO
through its own filesystem.  In the "Blog Summary" agent this costs
~500 MB on each side.

The cache is keyed by ``(file_id, block_index)`` so identical files cached
through *different* device files still duplicate (the problem §6.3 solves
with a shared read-only virtio-pmem base), while repeat reads of the same
file through the same cache are free.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from repro.mem.layout import PAGE_SIZE, pages_for_bytes
from repro.obs import hooks


class PageCache:
    """One kernel page cache (a guest's, or the host's)."""

    def __init__(self, name: str = "",
                 on_delta: Optional[Callable[[int], None]] = None):
        self.name = name
        # Per file, the cached blocks as a sorted list of disjoint,
        # non-adjacent ``(first, end)`` runs.  Files are read as whole
        # ranges, so a file is almost always one run and charging it
        # again costs a bisect, not a pass over its blocks.
        self._files: Dict[int, List[Tuple[int, int]]] = {}
        self.on_delta = on_delta
        self.hits = 0
        self.misses = 0

    def charge_file(self, file_id: int, nbytes: int, offset: int = 0) -> int:
        """Cache a file range; returns pages newly inserted (misses)."""
        first = offset // PAGE_SIZE
        count = pages_for_bytes(nbytes)
        runs = self._files.get(file_id)
        if runs is None:
            runs = self._files[file_id] = []
        fresh = _cover(runs, first, first + count)
        self.hits += count - fresh
        self.misses += fresh
        if fresh and self.on_delta is not None:
            self.on_delta(fresh)
        if fresh and hooks.on_page_cache_delta is not None:
            hooks.on_page_cache_delta(self, fresh)
        return fresh

    def evict_file(self, file_id: int) -> int:
        """Drop every cached block of ``file_id``; returns pages freed."""
        freed = _length(self._files.pop(file_id, ()))
        if not freed:
            return 0
        if self.on_delta is not None:
            self.on_delta(-freed)
        if hooks.on_page_cache_delta is not None:
            hooks.on_page_cache_delta(self, -freed)
        return freed

    def drop_all(self) -> int:
        """``echo 3 > drop_caches``; returns pages freed."""
        freed = self.cached_pages
        self._files.clear()
        if freed and self.on_delta is not None:
            self.on_delta(-freed)
        if freed and hooks.on_page_cache_delta is not None:
            hooks.on_page_cache_delta(self, -freed)
        return freed

    @property
    def cached_pages(self) -> int:
        return sum(_length(runs) for runs in self._files.values())

    @property
    def cached_bytes(self) -> int:
        return self.cached_pages * PAGE_SIZE


def _length(runs: List[Tuple[int, int]]) -> int:
    return sum(end - first for first, end in runs)


def _cover(runs: List[Tuple[int, int]], first: int, end: int) -> int:
    """Merge blocks ``[first, end)`` into ``runs`` in place; returns how
    many of them were not cached before."""
    if first >= end:
        return 0
    # runs[lo:hi] overlap or abut the range: the last run starting at or
    # before ``first`` if it reaches ``first``, then every run starting
    # in (first, end].
    lo = bisect_left(runs, (first + 1,))
    if lo and runs[lo - 1][1] >= first:
        lo -= 1
    hi = bisect_left(runs, (end + 1,), lo)
    if lo < hi:
        first = min(first, runs[lo][0])
        end = max(end, runs[hi - 1][1])
    before = _length(runs[lo:hi])
    runs[lo:hi] = [(first, end)]
    return end - first - before


class FileIdRegistry:
    """Stable content-based file identities.

    Files are identified by a content key (e.g. ``("base-image",
    "python3.11")``); two VMs reading *the same content through the same
    host-visible file* share host cache entries, whereas per-VM copies get
    distinct ids and duplicate.
    """

    def __init__(self):
        self._ids: Dict[Tuple, int] = {}
        self._next = 1

    def file_id(self, *key) -> int:
        got = self._ids.get(key)
        if got is None:
            got = self._next
            self._next += 1
            self._ids[key] = got
        return got
