"""Two-dimensional paging (EPT) with mm-template pre-population.

§8.1.3: in a KVM-style VM, memory sharing for CXL is *easier* than for
containers because the second-level translation (guest physical → host
physical) is a natural interposition point: the GPA→HPA mappings can be
file-backed onto the DAX device with CoW enabled by a minor kernel
change.  The paper sketches a further optimisation — **pre-populating**
the two-dimensional page tables for hot regions from the mm-template, so
read accesses never take the page-fault VM exit.

This module implements that design: an EPT whose entries carry the same
four states as first-level PTEs, plus a pre-population pass driven by a
hotness mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mem.address_space import (PTE_LOCAL, PTE_NONE,
                                     PTE_REMOTE_INVALID, PTE_REMOTE_RO,
                                     sorted_pages)
from repro.mem.pools import MemoryPool, PoolBlock
from repro.obs import hooks
from repro.sim.latency import LatencyModel


@dataclass
class EPTAccessOutcome:
    """Counts from driving guest accesses through the EPT."""

    vm_exits: int = 0            # EPT violations (fault round trips)
    pages_fetched: int = 0       # pulled from a non-addressable pool
    cow_faults: int = 0
    local_pages_allocated: int = 0
    direct_loads: int = 0        # served by pre-populated CXL mappings


class ExtendedPageTable:
    """GPA→HPA translation for one guest's memory template region."""

    def __init__(self, npages: int, latency: Optional[LatencyModel] = None,
                 on_local_delta=None):
        self.npages = npages
        self.latency = latency or LatencyModel()
        self.state = np.zeros(npages, dtype=np.uint8)
        self.offsets = np.full(npages, -1, dtype=np.int64)
        self.pool: Optional[MemoryPool] = None
        self.local_pages = 0
        self.on_local_delta = on_local_delta
        self.prepopulated_pages = 0
        self.destroyed = False

    # -- template binding -----------------------------------------------------------

    def bind_template(self, block: PoolBlock) -> None:
        """Install the guest-memory template: all entries invalid (lazy),
        carrying the pool offsets — the baseline lazy-restore VM."""
        if block.npages != self.npages:
            raise ValueError(
                f"block covers {block.npages} pages, EPT has {self.npages}")
        self.state[:] = PTE_REMOTE_INVALID
        self.offsets[:] = block.offsets
        self.pool = block.pool
        if hooks.on_pte_bound is not None:
            hooks.on_pte_bound(self)

    def prepopulate(self, hot_mask: np.ndarray) -> float:
        """Pre-install valid read-only GPA→HPA entries for hot pages.

        Returns the (preprocessing-time) cost of walking and filling the
        entries.  Only meaningful on byte-addressable pools — on RDMA
        there is nothing to map directly.
        """
        if self.pool is None:
            raise RuntimeError("bind_template first")
        hot_mask = np.asarray(hot_mask, dtype=bool)
        if len(hot_mask) != self.npages:
            raise ValueError("hot mask length mismatch")
        if not self.pool.byte_addressable:
            return 0.0
        valid = self.pool.valid_mask(self.offsets) & hot_mask
        eligible = valid & (self.state == PTE_REMOTE_INVALID)
        count = int(np.count_nonzero(eligible))
        self.state[eligible] = PTE_REMOTE_RO
        self.prepopulated_pages += count
        if hooks.on_pte_bound is not None:
            hooks.on_pte_bound(self)
        # ~80 ns per EPT entry install during preprocessing.
        return count * 80e-9

    # -- guest accesses -------------------------------------------------------------

    def access(self, read_gpns: np.ndarray, write_gpns: np.ndarray
               ) -> EPTAccessOutcome:
        """Guest touches pages; returns fault/exit counts.

        Writes fault first, then reads.  Both lists are checked for
        range and for repeated pages before any entry changes, and every
        page the access materialises is charged in one ``_charge``.
        """
        reads = np.asarray(read_gpns, dtype=np.int64)
        writes = np.asarray(write_gpns, dtype=np.int64)
        self._bounds_check(writes)
        self._bounds_check(reads)
        sorted_pages(writes)
        sorted_pages(reads)
        out = EPTAccessOutcome()
        self._writes(writes, out)
        self._reads(reads, out)
        if out.local_pages_allocated:
            self._charge(out.local_pages_allocated)
        return out

    def _reads(self, gpns: np.ndarray, out: EPTAccessOutcome) -> None:
        if len(gpns) == 0:
            return
        states = self.state[gpns]
        # Pre-populated or already-local: no exit at all.
        out.direct_loads += int(np.count_nonzero(states == PTE_REMOTE_RO))
        invalid = gpns[states == PTE_REMOTE_INVALID]
        if len(invalid):
            # EPT violation per page: VM exit + fetch + map.
            out.vm_exits += len(invalid)
            out.pages_fetched += len(invalid)
            self.state[invalid] = PTE_LOCAL
            out.local_pages_allocated += len(invalid)
        none = gpns[states == PTE_NONE]
        out.vm_exits += len(none)   # zero-page mapping exit, no memory

    def _writes(self, gpns: np.ndarray, out: EPTAccessOutcome) -> None:
        if len(gpns) == 0:
            return
        states = self.state[gpns]
        ro = gpns[states == PTE_REMOTE_RO]
        if len(ro):
            # Write-protection violation: exit + CoW into local DRAM.
            out.vm_exits += len(ro)
            out.cow_faults += len(ro)
            self.state[ro] = PTE_LOCAL
            out.local_pages_allocated += len(ro)
            if hooks.on_pte_cow is not None:
                hooks.on_pte_cow(self, len(ro))
        invalid = gpns[states == PTE_REMOTE_INVALID]
        if len(invalid):
            out.vm_exits += len(invalid)
            out.pages_fetched += len(invalid)
            out.cow_faults += len(invalid)
            self.state[invalid] = PTE_LOCAL
            out.local_pages_allocated += len(invalid)
        none = gpns[states == PTE_NONE]
        if len(none):
            out.vm_exits += len(none)
            self.state[none] = PTE_LOCAL
            out.local_pages_allocated += len(none)

    # -- timing ------------------------------------------------------------------------

    def access_time(self, outcome: EPTAccessOutcome,
                    concurrency: int = 1) -> float:
        """Convert an outcome into simulated seconds."""
        lat = self.latency
        t = outcome.vm_exits * lat.vm.vm_exit
        t += (outcome.cow_faults + outcome.local_pages_allocated
              - outcome.pages_fetched) * lat.mem.minor_fault
        if outcome.pages_fetched and self.pool is not None:
            t += self.pool.fetch_time(outcome.pages_fetched, concurrency)
        if outcome.direct_loads and self.pool is not None:
            t += self.pool.read_overhead(outcome.direct_loads)
        return max(t, 0.0)

    def _bounds_check(self, gpns: np.ndarray) -> None:
        if len(gpns) and (gpns.min() < 0 or gpns.max() >= self.npages):
            raise IndexError("guest page number out of range")

    def _charge(self, pages: int) -> None:
        self.local_pages += pages
        if self.on_local_delta is not None:
            self.on_local_delta(pages)
        if hooks.on_local_charge is not None:
            hooks.on_local_charge(self, pages)

    def release_local(self) -> int:
        """Give back every locally-materialised page (guest teardown).

        Returns the page count released so the caller can uncharge its
        own accounting; the EPT's counter goes through ``_charge`` so
        ``on_local_delta`` observers see the release too.  The table is
        marked ``destroyed``; its entries stay as they were.
        """
        pages = self.local_pages
        self.destroyed = True
        if pages:
            self._charge(-pages)
        return pages
