"""Statistical page-access traces.

The paper characterises each function by how much of its snapshot memory
an invocation reads vs writes (Figure 10: 24%–90% of touched pages are
read-only).  We model one invocation as:

* a set of distinct pages *read*,
* a subset of distinct pages *written* (always also counted as touched),
* a count of cache-missing loads issued against read pages (prices CXL's
  per-load latency, §5.1/§9.5).

Traces are drawn from a :class:`repro.sim.rng.SeededRNG`, so an identical
(workload seed, function, invocation index) always touches the same pages
— the determinism the paper engineers via trace replay (§9.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import SeededRNG


@dataclass
class AccessTrace:
    """Pages one invocation touches, as flat address-space indices."""

    read_pages: np.ndarray
    write_pages: np.ndarray
    read_loads: int
    writable_start: int = 0

    @property
    def touched_pages(self) -> int:
        return len(np.union1d(self.read_pages, self.write_pages))

    @property
    def distinct_reads(self) -> int:
        return len(self.read_pages)

    @property
    def distinct_writes(self) -> int:
        return len(self.write_pages)

    @property
    def read_only_ratio(self) -> float:
        """Fraction of touched pages that are never written (Figure 10)."""
        touched = self.touched_pages
        if touched == 0:
            return 0.0
        both = len(np.intersect1d(self.write_pages, self.read_pages,
                                  assume_unique=True))
        only_read = len(self.read_pages) - both
        return only_read / touched

    @staticmethod
    def generate(rng: SeededRNG, total_pages: int, touch_fraction: float,
                 write_fraction: float, loads_per_read_page: float = 20.0,
                 writable_start: int = 0) -> "AccessTrace":
        """Draw a trace.

        ``touch_fraction`` — share of the image touched at least once.
        ``write_fraction`` — share of *touched* pages that are written
        (1 - read_only_ratio in the paper's terms).
        ``writable_start`` — first writable flat page index (pages below
        it are the read-only runtime/library prefix and are never
        written).
        """
        if not 0.0 <= touch_fraction <= 1.0:
            raise ValueError(f"touch_fraction out of range: {touch_fraction}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction out of range: {write_fraction}")
        n_touched = int(round(total_pages * touch_fraction))
        touched = rng.sample_pages(total_pages, n_touched)
        n_written = int(round(len(touched) * write_fraction))
        writable = touched[touched >= writable_start]
        written = writable[:min(n_written, len(writable))].copy()
        touched.sort()
        written.sort()
        loads = int(round(len(touched) * loads_per_read_page))
        return AccessTrace(read_pages=touched, write_pages=written,
                           read_loads=loads, writable_start=writable_start)

    def jittered(self, rng: SeededRNG, total_pages: int,
                 fraction: float = 0.08) -> "AccessTrace":
        """A per-invocation variant of this trace.

        Real invocations of the same function touch *mostly* the same
        pages (which is why REAP's recorded working set achieves ~90%+
        coverage); ``fraction`` of the reads are swapped for fresh pages
        to model input-dependent variation.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        n_swap = int(round(len(self.read_pages) * fraction))
        if n_swap == 0:
            return AccessTrace(self.read_pages.copy(),
                               self.write_pages.copy(), self.read_loads,
                               writable_start=self.writable_start)
        # Both page arrays are sorted and distinct, so every set operation
        # below is a sort-merge (see _sorted_unique / _member_mask).
        keep_idx = rng.sample_pages(len(self.read_pages),
                                    len(self.read_pages) - n_swap)
        kept = self.read_pages[np.sort(keep_idx)]
        fresh = rng.sample_pages(total_pages, n_swap)
        reads = _sorted_unique(np.concatenate([kept, fresh]))
        # Writes: keep those still read, top up from the new reads to
        # preserve the write fraction (never below writable_start).
        writes = self.write_pages[_member_mask(self.write_pages, reads)]
        deficit = len(self.write_pages) - len(writes)
        if deficit > 0:
            candidates = reads[~_member_mask(reads, writes)]
            candidates = candidates[np.searchsorted(
                candidates, self.writable_start):]
            if len(candidates):
                extra = candidates[rng.sample_pages(
                    len(candidates), min(deficit, len(candidates)))]
                # Disjoint from writes and distinct: a sort, no dedupe.
                writes = np.concatenate([writes, extra])
                writes.sort()
        return AccessTrace(read_pages=reads, write_pages=writes,
                           read_loads=self.read_loads,
                           writable_start=self.writable_start)

    def subset(self, fraction: float, rng: SeededRNG) -> "AccessTrace":
        """A partial trace (e.g. the recorded working set REAP prefetches)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        n_reads = int(round(len(self.read_pages) * fraction))
        n_writes = int(round(len(self.write_pages) * fraction))
        reads = self.read_pages[rng.sample_pages(len(self.read_pages), n_reads)] \
            if n_reads else np.empty(0, dtype=np.int64)
        writes = self.write_pages[rng.sample_pages(len(self.write_pages), n_writes)] \
            if n_writes else np.empty(0, dtype=np.int64)
        reads.sort()
        writes.sort()
        return AccessTrace(read_pages=reads, write_pages=writes,
                           read_loads=int(self.read_loads * fraction),
                           writable_start=self.writable_start)


# numpy >= 2.3 answers np.unique, and the set operations that call it
# (union1d; intersect1d and setdiff1d without assume_unique), with a hash
# table, which costs far more than a merge when the inputs are already
# sorted.  Traces keep their page arrays sorted and distinct, so jitter
# uses these instead.

def _sorted_unique(pages: np.ndarray) -> np.ndarray:
    """``np.unique(pages)`` by sort plus adjacent-difference dedupe."""
    pages.sort()
    if len(pages) < 2:
        return pages
    keep = np.empty(len(pages), dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep]


def _member_mask(pages: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Per element of ``pages``: is it in the sorted array ``sorted_set``?"""
    if len(sorted_set) == 0:
        return np.zeros(len(pages), dtype=bool)
    pos = np.searchsorted(sorted_set, pages)
    pos[pos == len(sorted_set)] = 0
    return sorted_set[pos] == pages
