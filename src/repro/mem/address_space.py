"""Address spaces with per-page PTE states and copy-on-write.

This is the reproduction's analogue of ``mm_struct``: a list of VMAs, each
holding vectorised per-page state.  The four states model exactly the
cases TrEnv's kernel patch distinguishes (§5.1):

* ``PTE_NONE`` — untouched demand-zero page (reads hit the shared zero
  page and cost a minor fault but no memory; first write allocates).
* ``PTE_LOCAL`` — private page in node-local DRAM.
* ``PTE_REMOTE_RO`` — valid, write-protected PTE mapping a shared pool
  page (the CXL path: reads need no fault at all; writes CoW to local).
* ``PTE_REMOTE_INVALID`` — invalid PTE carrying a remote address (the
  RDMA/NAS path: first touch takes a major fault and a 4 KiB fetch which
  materialises a private local copy).

State arrays are numpy vectors so multi-hundred-MB images (IR is 855 MB —
219k pages) stay cheap to manipulate.  Template attach shares those
vectors copy-on-write (:mod:`repro.mem.cow`): a clone carries chunked
CoW views of the template arrays and materialises only the chunks an
invocation actually writes, so attach host cost is O(metadata) exactly
as the paper claims for ``mmt_attach``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import hooks
from repro.mem.cow import CowPageArray, TemplateBase, count_equal
from repro.mem.layout import PAGE_SIZE
from repro.mem.pools import MemoryPool, PoolBlock

PTE_NONE = 0
PTE_LOCAL = 1
PTE_REMOTE_RO = 2
PTE_REMOTE_INVALID = 3

PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4

MAP_PRIVATE = 0x02
MAP_SHARED = 0x01


class VMA:
    """A virtual memory area: contiguous pages with uniform protection."""

    __slots__ = ("name", "start", "prot", "flags", "state", "offsets",
                 "content", "pool", "_bases")

    def __init__(self, name: str, start: int, npages: int, prot: int,
                 flags: int = MAP_PRIVATE):
        self.name = name
        self.start = start
        self.prot = prot
        self.flags = flags
        self.state = np.zeros(npages, dtype=np.uint8)
        # Remote page offset per page (valid where state is REMOTE_*).
        self.offsets = np.full(npages, -1, dtype=np.int64)
        # Page content ids (for snapshotting/dedup); -1 = undefined.
        self.content = np.full(npages, -1, dtype=np.int64)
        self.pool: Optional[MemoryPool] = None
        # Frozen template bases, built lazily on the first CoW clone.
        self._bases: Optional[Tuple[TemplateBase, ...]] = None

    @property
    def npages(self) -> int:
        return len(self.state)

    @property
    def end(self) -> int:
        return self.start + self.npages * PAGE_SIZE

    @property
    def writable(self) -> bool:
        return bool(self.prot & PROT_WRITE)

    def grow(self, npages: int) -> None:
        """Extend the VMA (heap ``brk``); new pages are demand-zero local.

        §5.1 / Figure 9(b): after restoring a heap onto CXL, subsequent
        growth defaults to local allocation, never spilling into adjacent
        shared CXL ranges.
        """
        if npages <= 0:
            return
        self.state = np.concatenate(
            [np.asarray(self.state), np.zeros(npages, dtype=np.uint8)])
        self.offsets = np.concatenate(
            [np.asarray(self.offsets), np.full(npages, -1, dtype=np.int64)])
        self.content = np.concatenate(
            [np.asarray(self.content), np.full(npages, -1, dtype=np.int64)])
        self._bases = None

    def clone_metadata(self) -> "VMA":
        """Duplicate PTE metadata only (what ``mmt_attach`` copies).

        The clone shares the source arrays copy-on-write: the source
        arrays are frozen (writes to them now fail fast) and the clone
        materialises private chunks only where it is written.  Host cost
        is O(1) per VMA instead of O(pages).  Cloning a clone shares its
        template bases and copies only its private chunks.
        """
        out = VMA.__new__(VMA)   # skip __init__: no throwaway arrays
        out.name = self.name
        out.start = self.start
        out.prot = self.prot
        out.flags = self.flags
        out.pool = self.pool
        out._bases = None
        if type(self.state) is not np.ndarray:
            out.state = self.state.copy()
            out.offsets = self.offsets.copy()
            out.content = self.content.copy()
            return out
        bases = self._bases
        if bases is None:
            bases = self._bases = (TemplateBase(self.state),
                                   TemplateBase(self.offsets),
                                   TemplateBase(self.content))
        out.state = CowPageArray(bases[0])
        out.offsets = CowPageArray(bases[1])
        out.content = CowPageArray(bases[2])
        return out


@dataclass
class AccessOutcome:
    """Counts produced by driving an access trace through an address space."""

    minor_faults: int = 0
    major_faults: int = 0          # remote fetches (RDMA/NAS/tmpfs)
    cow_faults: int = 0
    pages_fetched: int = 0         # pages pulled from a non-addressable pool
    local_pages_allocated: int = 0
    remote_loads: int = 0          # cache-missing loads served from CXL
    fetch_pools: Counter = field(default_factory=Counter)

    def merge(self, other: "AccessOutcome") -> None:
        self.minor_faults += other.minor_faults
        self.major_faults += other.major_faults
        self.cow_faults += other.cow_faults
        self.pages_fetched += other.pages_fetched
        self.local_pages_allocated += other.local_pages_allocated
        self.remote_loads += other.remote_loads
        self.fetch_pools.update(other.fetch_pools)


class AddressSpace:
    """A process address space: ordered VMAs + fault handling.

    ``on_local_delta`` is invoked with the change in locally-resident page
    count whenever pages are allocated or freed, so a node-level accountant
    can track memory usage event-by-event.
    """

    def __init__(self, name: str = "",
                 on_local_delta: Optional[Callable[[int], None]] = None):
        self.name = name
        self.vmas: List[VMA] = []
        self.local_pages = 0
        self.on_local_delta = on_local_delta
        self._cum: Optional[np.ndarray] = None
        self.destroyed = False

    # -- layout management -------------------------------------------------------

    def add_vma(self, name: str, npages: int, prot: int = PROT_READ | PROT_WRITE,
                flags: int = MAP_PRIVATE, start: Optional[int] = None) -> VMA:
        if npages <= 0:
            raise ValueError(f"VMA must have at least one page: {npages}")
        if start is None:
            start = self.vmas[-1].end + PAGE_SIZE if self.vmas else 0x400000
        vma = VMA(name, start, npages, prot, flags)
        self.vmas.append(vma)
        self._cum = None
        return vma

    def adopt_vma(self, vma: VMA) -> VMA:
        """Install an externally built VMA (e.g. cloned template metadata).

        Charges any locally-resident pages the clone carries (normally
        none: templates hold only remote-backed or empty PTEs).
        """
        self.vmas.append(vma)
        self._cum = None
        self._charge(count_equal(vma.state, PTE_LOCAL))
        if hooks.active is not None:
            hooks.active.on_pte_bound(vma)
        return vma

    def find_vma(self, name: str) -> VMA:
        for vma in self.vmas:
            if vma.name == name:
                return vma
        raise KeyError(f"no VMA named {name!r} in {self.name}")

    @property
    def total_pages(self) -> int:
        return sum(v.npages for v in self.vmas)

    @property
    def local_bytes(self) -> int:
        return self.local_pages * PAGE_SIZE

    def grow_vma(self, name: str, npages: int) -> None:
        self.find_vma(name).grow(npages)
        self._cum = None

    # -- population ---------------------------------------------------------------

    def populate_local(self, vma: VMA, content_base: int = 0) -> None:
        """Materialise every page of ``vma`` as private local memory."""
        fresh = vma.npages - count_equal(vma.state, PTE_LOCAL)
        vma.state[:] = PTE_LOCAL
        if count_equal(vma.content, -1):
            missing = np.asarray(vma.content == -1)
            idx = np.nonzero(missing)[0]
            vma.content[idx] = content_base + idx
        self._charge(fresh)
        if hooks.active is not None:
            hooks.active.on_pte_bound(vma)

    def populate_all_local(self, content_base: int = 0) -> None:
        """Materialise every VMA as local (the eager CRIU restore path).

        Equivalent to :meth:`populate_local` over all VMAs, but charges
        the accountant once — content-id arrays shared CoW with a
        snapshot image stay shared (``count_equal`` answers the missing-
        content check from the cached base without densifying).
        """
        fresh = 0
        for vma in self.vmas:
            fresh += vma.npages - count_equal(vma.state, PTE_LOCAL)
            vma.state[:] = PTE_LOCAL
            if count_equal(vma.content, -1):
                missing = np.asarray(vma.content == -1)
                idx = np.nonzero(missing)[0]
                vma.content[idx] = content_base + idx
            if hooks.active is not None:
                hooks.active.on_pte_bound(vma)
        self._charge(fresh)

    def bind_remote(self, vma: VMA, block: PoolBlock, valid) -> None:
        """Point ``vma`` pages at a pool block.

        ``valid`` is a bool or a per-page boolean mask: valid pages get
        write-protected direct-map PTEs (CXL, ``mmt_setup_pt(..., CXL)``);
        the rest get invalid PTEs holding the remote address (RDMA lazy
        path / a tiered pool's cold pages).
        """
        if block.npages != vma.npages:
            raise ValueError(
                f"block/vma size mismatch: {block.npages} != {vma.npages}")
        freed = count_equal(vma.state, PTE_LOCAL)
        if isinstance(valid, bool):
            vma.state[:] = PTE_REMOTE_RO if valid else PTE_REMOTE_INVALID
        else:
            mask = np.asarray(valid, dtype=bool)
            if len(mask) != vma.npages:
                raise ValueError("valid mask length mismatch")
            vma.state[:] = np.where(mask, PTE_REMOTE_RO,
                                    PTE_REMOTE_INVALID).astype(np.uint8)
        vma.offsets[:] = block.offsets
        vma.pool = block.pool
        self._charge(-freed)
        if hooks.active is not None:
            hooks.active.on_pte_bound(vma)

    # -- faults --------------------------------------------------------------------

    def access(self, read_pages: np.ndarray, write_pages: np.ndarray,
               read_loads: int = 0) -> AccessOutcome:
        """Drive one invocation's page touches through the fault handler.

        ``read_pages``/``write_pages`` are flat page indices across the
        address space (see :meth:`flatten`).  ``read_loads`` is the number
        of cache-missing *loads* issued against pages that end up resident
        on a byte-addressable pool — it prices CXL's extra latency.

        Writes fault first, then reads (which see the writes' effects).
        Each list is one pass (:meth:`_runs`, :func:`_run_states`): one
        state gather per touched VMA and one ``bincount`` for the whole
        list; only the runs that actually fault run Python code.  A write
        to a read-only VMA or an out-of-range index raises before any
        state changes.
        """
        out = AccessOutcome()
        writes = self._runs(write_pages)
        reads = self._runs(read_pages)
        if writes is not None:
            for vma in writes[0]:
                if not vma.writable:
                    raise PermissionError(
                        f"write to read-only VMA {vma.name!r} in {self.name}")
            self._fault_writes(*writes, out)
        if reads is not None:
            remote_ro = self._fault_reads(*reads, out)
            if read_loads and remote_ro:
                # Apportion load count to reads still resident on a
                # remote byte-addressable pool.  Reads never demote
                # REMOTE_RO pages, so counting during the pass equals
                # counting after it.
                out.remote_loads += int(round(
                    read_loads * remote_ro / len(read_pages)))
        return out

    def _fault_writes(self, vmas: List[VMA], bounds: List[int],
                      local: np.ndarray, out: AccessOutcome) -> None:
        states, counts = _run_states(vmas, bounds, local)
        zero, _, cow, fetch = counts.sum(axis=0).tolist()
        out.minor_faults += zero
        # Write-protect fault: copy the shared pool page to local DRAM
        # (CoW preserves the single shared copy, §5.1); invalid PTEs also
        # pay the fetch before the private copy materialises.
        out.cow_faults += cow + fetch
        out.major_faults += fetch
        out.pages_fetched += fetch
        out.local_pages_allocated += zero + cow + fetch
        if zero + cow + fetch == 0:
            return
        faulting = np.flatnonzero(counts[:, PTE_LOCAL]
                                  != np.diff(bounds)).tolist()
        per_run = counts[faulting].tolist()
        for k, (n_zero, _, n_cow, n_fetch) in zip(faulting, per_run):
            vma = vmas[k]
            lo, hi = bounds[k], bounds[k + 1]
            if n_fetch:
                out.fetch_pools[vma.pool.name if vma.pool else "unknown"] \
                    += n_fetch
            # Every non-LOCAL state ends LOCAL: one scatter, one charge.
            vma.state[local[lo:hi][states[lo:hi] != PTE_LOCAL]] = PTE_LOCAL
            self._charge(n_zero + n_cow + n_fetch)
            if n_cow and hooks.active is not None:
                hooks.active.on_pte_cow(vma, n_cow)

    def _fault_reads(self, vmas: List[VMA], bounds: List[int],
                     local: np.ndarray, out: AccessOutcome) -> int:
        """Fault the read runs; returns how many reads hit remote pages of
        a byte-addressable pool."""
        states, counts = _run_states(vmas, bounds, local)
        zero, _, remote, fetch = counts.sum(axis=0).tolist()
        # Demand-zero read: shared zero page, minor fault, no allocation.
        out.minor_faults += zero
        if fetch:
            # Major fault per page: fetch from the pool into a private
            # local copy (TrEnv's RDMA backend, §5.1).
            out.major_faults += fetch
            out.pages_fetched += fetch
            out.local_pages_allocated += fetch
            faulting = np.flatnonzero(counts[:, PTE_REMOTE_INVALID]).tolist()
            per_run = counts[faulting, PTE_REMOTE_INVALID].tolist()
            for k, n_fetch in zip(faulting, per_run):
                vma = vmas[k]
                lo, hi = bounds[k], bounds[k + 1]
                out.fetch_pools[vma.pool.name if vma.pool else "unknown"] \
                    += n_fetch
                vma.state[local[lo:hi][states[lo:hi]
                                       == PTE_REMOTE_INVALID]] = PTE_LOCAL
                self._charge(n_fetch)
        # PTE_REMOTE_RO reads: zero software cost (valid PTE, direct load).
        # PTE_LOCAL reads: free.
        remote_ro = 0
        if remote:
            ro_runs = np.flatnonzero(counts[:, PTE_REMOTE_RO]).tolist()
            per_run = counts[ro_runs, PTE_REMOTE_RO].tolist()
            for k, n_ro in zip(ro_runs, per_run):
                pool = vmas[k].pool
                if pool is not None and pool.byte_addressable:
                    remote_ro += n_ro
        return remote_ro

    # -- snapshotting helpers ---------------------------------------------------------

    def page_state_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {PTE_NONE: 0, PTE_LOCAL: 0,
                                  PTE_REMOTE_RO: 0, PTE_REMOTE_INVALID: 0}
        for vma in self.vmas:
            for value in counts:
                counts[value] += count_equal(vma.state, value)
        return counts

    def content_image(self) -> np.ndarray:
        """Concatenated content ids of every page (snapshot order)."""
        if not self.vmas:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(v.content) for v in self.vmas])

    def destroy(self) -> int:
        """Release all local pages; returns how many were freed."""
        if self.destroyed:
            return 0
        freed = self.local_pages
        self._charge(-freed)
        self.destroyed = True
        return freed

    # -- flat indexing -----------------------------------------------------------------

    def flatten(self) -> np.ndarray:
        """Cumulative page offsets per VMA for flat-index addressing."""
        if self._cum is None or len(self._cum) != len(self.vmas) + 1:
            sizes = np.array([v.npages for v in self.vmas], dtype=np.int64)
            self._cum = np.concatenate([[0], np.cumsum(sizes)])
        return self._cum

    def _runs(self, flat_pages
              ) -> Optional[Tuple[List[VMA], List[int], np.ndarray]]:
        """Split flat page indices into per-VMA runs.

        Returns ``None`` for no pages, else ``(vmas, bounds, local)``:
        run ``k`` touches ``vmas[k]`` at local indices
        ``local[bounds[k]:bounds[k+1]]``.  Indices are sorted first
        unless they already are (traces are), so each VMA's touches form
        one contiguous run found with a single ``searchsorted`` against
        the cumulative layout.
        """
        flat = np.asarray(flat_pages, dtype=np.int64)
        n = len(flat)
        if n == 0:
            return None
        if n > 1 and (flat[1:] < flat[:-1]).any():
            flat = np.sort(flat, kind="stable")
        cum = self.flatten()
        if flat[0] < 0 or flat[-1] >= cum[-1]:
            raise IndexError("page index out of range for address space")
        edges = np.searchsorted(flat, cum)
        sizes = np.diff(edges)
        hit = np.flatnonzero(sizes)
        local = flat - np.repeat(cum[hit], sizes[hit])
        all_vmas = self.vmas
        vmas = [all_vmas[i] for i in hit.tolist()]
        bounds = edges[hit].tolist()
        bounds.append(n)
        return vmas, bounds, local

    def _charge(self, delta_pages: int) -> None:
        if delta_pages == 0:
            return
        self.local_pages += delta_pages
        if self.local_pages < 0:
            raise AssertionError("negative local page count")
        if self.on_local_delta is not None:
            self.on_local_delta(delta_pages)
        if hooks.active is not None:
            hooks.active.on_local_charge(self, delta_pages)


def _run_states(vmas: List[VMA], bounds: List[int], local: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Current PTE states of every run (one gather per VMA) and each run's
    per-state histogram (one ``bincount`` over ``run * 4 + state``)."""
    states = np.concatenate([vma.state[local[lo:hi]]
                             for vma, lo, hi in zip(vmas, bounds, bounds[1:])])
    key = np.repeat(np.arange(0, 4 * len(vmas), 4), np.diff(bounds))
    key += states
    counts = np.bincount(key, minlength=4 * len(vmas)).reshape(-1, 4)
    return states, counts
