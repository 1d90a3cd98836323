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
        touched = self._read_mask()
        touched[self.write_pages] = True
        return int(np.count_nonzero(touched))

    @property
    def distinct_reads(self) -> int:
        return len(self.read_pages)

    @property
    def distinct_writes(self) -> int:
        return len(self.write_pages)

    @property
    def read_only_ratio(self) -> float:
        """Fraction of touched pages that are never written (Figure 10)."""
        touched = self._read_mask()
        both = int(np.count_nonzero(touched[self.write_pages]))
        touched[self.write_pages] = True
        n_touched = int(np.count_nonzero(touched))
        if n_touched == 0:
            return 0.0
        return (len(self.read_pages) - both) / n_touched

    def _read_mask(self) -> np.ndarray:
        """A boolean mask up to the largest page, set at the read pages."""
        top = max(self.read_pages.max(initial=-1),
                  self.write_pages.max(initial=-1))
        mask = np.zeros(int(top) + 1, dtype=bool)
        mask[self.read_pages] = True
        return mask

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
        # Boolean masks make every set operation a scatter or a gather,
        # linear in the trace: the keep mask over the base reads yields
        # the kept pages already sorted, and the read mask over the image
        # answers membership.  Every trace, and so every pinned digest,
        # depends on the three RNG draws (keep indices, fresh pages,
        # top-up picks) staying these calls in this order.
        n_reads = len(self.read_pages)
        keep = np.zeros(n_reads, dtype=bool)
        keep[rng.sample_pages(n_reads, n_reads - n_swap)] = True
        kept = self.read_pages[keep]
        in_reads = np.zeros(total_pages, dtype=bool)
        in_reads[kept] = True
        fresh = rng.sample_pages(total_pages, n_swap)
        fresh = fresh[~in_reads[fresh]]
        in_reads[fresh] = True
        # A sorted run plus a few fresh pages: the stable sort (timsort)
        # merges them in one pass, where a scan of the image mask would
        # cost per image page, not per read.
        reads = np.concatenate([kept, fresh])
        reads.sort(kind="stable")
        # Writes: keep those still read, top up from the new reads to
        # preserve the write fraction (never below writable_start).
        writes = self.write_pages[in_reads[self.write_pages]]
        deficit = len(self.write_pages) - len(writes)
        if deficit > 0:
            in_reads[writes] = False
            in_reads[:self.writable_start] = False
            candidates = reads[in_reads[reads]]
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

