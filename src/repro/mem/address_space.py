"""Address spaces with one flat PTE table and copy-on-write attach.

This is the reproduction's analogue of ``mm_struct``: an ordered VMA
layout over one page table.  The table is three flat arrays over every
page of the space — PTE ``state``, remote ``offsets`` and page
``content`` ids — and a :class:`VMA` is layout metadata only (name,
first page, page count, protection, flags, pool).  The four states model
exactly the cases TrEnv's kernel patch distinguishes (§5.1):

* ``PTE_NONE`` — untouched demand-zero page (reads hit the shared zero
  page and cost a minor fault but no memory; first write allocates).
* ``PTE_LOCAL`` — private page in node-local DRAM.
* ``PTE_REMOTE_RO`` — valid, write-protected PTE mapping a shared pool
  page (the CXL path: reads need no fault at all; writes CoW to local).
* ``PTE_REMOTE_INVALID`` — invalid PTE carrying a remote address (the
  RDMA/NAS path: first touch takes a major fault and a 4 KiB fetch which
  materialises a private local copy).

Flat numpy arrays keep multi-hundred-MB images (IR is 855 MB — 219k pages
in 519 VMAs) cheap to manipulate, and let one fault pass gather, count
and scatter the whole access list at once instead of once per VMA.
Attach (:meth:`AddressSpace.attach`, the mm-template's ``mmt_attach``)
shares the source table copy-on-write (:mod:`repro.mem.cow`) and its
:class:`Layout` vectors, so its host cost is a few objects whatever the
image size or VMA count, as the paper claims for ``mmt_attach``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.mem.cow import (CowPageArray, CowWindow, TemplateBase,
                           count_equal)
from repro.mem.layout import PAGE_SIZE
from repro.mem.pools import MemoryPool, PoolBlock
from repro.obs import hooks

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
    """A virtual memory area: layout metadata for contiguous pages with
    uniform protection.

    Its PTEs are pages ``[first, first + npages)`` of the owning
    :class:`PageTable`; ``state``/``offsets``/``content`` are views of
    that range (writes go through to the table).
    """

    __slots__ = ("name", "start", "first", "npages", "prot", "flags",
                 "_pool", "_table")

    def __init__(self, table: "PageTable", name: str, start: int,
                 first: int, npages: int, prot: int,
                 flags: int = MAP_PRIVATE,
                 pool: Optional[MemoryPool] = None):
        self._table = table
        self.name = name
        self.start = start
        self.first = first
        self.npages = npages
        self.prot = prot
        self.flags = flags
        self._pool = pool

    @property
    def end(self) -> int:
        return self.start + self.npages * PAGE_SIZE

    @property
    def writable(self) -> bool:
        return bool(self.prot & PROT_WRITE)

    @property
    def pool(self) -> Optional[MemoryPool]:
        return self._pool

    @pool.setter
    def pool(self, pool: Optional[MemoryPool]) -> None:
        self._pool = pool
        self._table._layout_changed()

    @property
    def state(self):
        return self._table._window(self._table.state, self.first,
                                   self.first + self.npages)

    @property
    def offsets(self):
        return self._table._window(self._table.offsets, self.first,
                                   self.first + self.npages)

    @property
    def content(self):
        return self._table._window(self._table.content, self.first,
                                   self.first + self.npages)


class Layout:
    """An immutable snapshot of a table's VMA layout plus the per-VMA
    vectors the fault path reads; clones of one table share it."""

    __slots__ = ("specs", "cum", "writable", "pool_names",
                 "byte_addressable", "direct_pool", "_pools")

    def __init__(self, vmas: List[VMA]):
        #: (name, start, first, npages, prot, flags, pool) per VMA.
        self.specs = tuple((v.name, v.start, v.first, v.npages, v.prot,
                            v.flags, v.pool) for v in vmas)
        sizes = np.array([v.npages for v in vmas], dtype=np.int64)
        self.cum = np.concatenate([[0], np.cumsum(sizes)])
        self.writable = np.array([v.writable for v in vmas], dtype=bool)
        self.pool_names = [v.pool.name if v.pool else "unknown"
                           for v in vmas]
        self.byte_addressable = np.array(
            [v.pool is not None and v.pool.byte_addressable for v in vmas],
            dtype=bool)
        #: The first byte-addressable pool in address order (the one that
        #: serves the space's direct loads), or None.
        self.direct_pool: Optional[MemoryPool] = next(
            (v.pool for v in vmas
             if v.pool is not None and v.pool.byte_addressable), None)
        self._pools: Optional[Tuple[str, ...]] = None

    @property
    def pools(self) -> Tuple[str, ...]:
        """The distinct pool names behind the layout, sorted (computed
        on first use: only observers read it)."""
        if self._pools is None:
            self._pools = tuple(sorted({pool.name for *_, pool in self.specs
                                        if pool is not None}))
        return self._pools


class _TableArray:
    """One of a :class:`PageTable`'s arrays (stored as ``_<name>``); any
    access first appends the pages ``add_vma`` deferred."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, table, owner=None):
        if table is None:
            return self
        if table._unbuilt:
            table._build()
        return getattr(table, self.slot)

    def __set__(self, table, arr) -> None:
        if table._unbuilt:
            table._build()
        setattr(table, self.slot, arr)


class PageTable:
    """An ordered VMA layout over one flat PTE table.

    ``state``, ``offsets`` and ``content`` cover every page of the table
    in layout order; each is a plain ndarray, or a :class:`CowPageArray`
    once the table was attached from another.  :meth:`_share` freezes a
    table so others can attach it copy-on-write.
    """

    def __init__(self) -> None:
        self._vmas: Optional[List[VMA]] = []
        self._state = np.zeros(0, dtype=np.uint8)
        self._offsets = np.zeros(0, dtype=np.int64)
        self._content = np.zeros(0, dtype=np.int64)
        # Pages added by add_vma but not yet in the arrays: appending is
        # deferred to the next array access, so building an n-VMA layout
        # copies the table once, not n times.
        self._unbuilt = 0
        self._layout: Optional[Layout] = None
        # What _share handed out: (layout, frozen bases, local runs).
        self._shared: Optional[tuple] = None

    #: PTE state per page (``PTE_*``).
    state = _TableArray()
    #: Remote page offset per page (valid where state is REMOTE_*).
    offsets = _TableArray()
    #: Page content ids (for snapshotting/dedup); -1 = undefined.
    content = _TableArray()

    def _build(self) -> None:
        """Append the deferred pages: empty PTEs, no remote offset, no
        content."""
        n = self._unbuilt
        self._unbuilt = 0
        self._state = np.concatenate(
            [np.asarray(self._state), np.full(n, PTE_NONE, dtype=np.uint8)])
        self._offsets = np.concatenate(
            [np.asarray(self._offsets), np.full(n, -1, dtype=np.int64)])
        self._content = np.concatenate(
            [np.asarray(self._content), np.full(n, -1, dtype=np.int64)])

    # -- layout --------------------------------------------------------------------

    @property
    def vmas(self) -> List[VMA]:
        """This table's VMAs in address order.

        An attached table shares its source's :class:`Layout`; its own
        VMA objects are built on first use (the fault path never needs
        them).
        """
        if self._vmas is None:
            self._vmas = [VMA(self, *spec) for spec in self._layout.specs]
        return self._vmas

    @property
    def layout(self) -> Layout:
        if self._layout is None:
            self._layout = Layout(self.vmas)
        return self._layout

    def _layout_changed(self) -> None:
        self.vmas   # an attached table takes its own VMAs first
        self._layout = None
        self._shared = None

    @property
    def total_pages(self) -> int:
        return len(self._state) + self._unbuilt

    def flatten(self) -> np.ndarray:
        """Cumulative page offsets per VMA for flat-index addressing."""
        return self.layout.cum

    def add_vma(self, name: str, npages: int, prot: int = PROT_READ | PROT_WRITE,
                flags: int = MAP_PRIVATE, start: Optional[int] = None) -> VMA:
        """Append a VMA of ``npages`` empty PTEs.

        The table grows on its next access, so a layout built by
        consecutive calls is allocated once: add every VMA before filling
        any of them.
        """
        if npages <= 0:
            raise ValueError(f"VMA must have at least one page: {npages}")
        vmas = self.vmas
        if start is None:
            start = vmas[-1].end + PAGE_SIZE if vmas else 0x400000
        vma = VMA(self, name, start, self.total_pages, npages, prot, flags)
        self._unbuilt += npages
        vmas.append(vma)
        self._layout_changed()
        return vma

    def find_vma(self, name: str) -> VMA:
        for vma in self.vmas:
            if vma.name == name:
                return vma
        raise KeyError(f"no VMA named {name!r} in {self.name}")

    def grow_vma(self, name: str, npages: int) -> None:
        """Extend a VMA (heap ``brk``); new pages are demand-zero local.

        §5.1 / Figure 9(b): after restoring a heap onto CXL, subsequent
        growth defaults to local allocation, never spilling into adjacent
        shared CXL ranges.
        """
        vma = self.find_vma(name)
        if npages <= 0:
            return
        at = vma.first + vma.npages
        fresh = (np.full(npages, PTE_NONE, dtype=np.uint8),
                 np.full(npages, -1, dtype=np.int64),
                 np.full(npages, -1, dtype=np.int64))
        self.state, self.offsets, self.content = (
            np.concatenate([arr[:at], new, arr[at:]])
            for arr, new in zip((np.asarray(self.state),
                                 np.asarray(self.offsets),
                                 np.asarray(self.content)), fresh))
        vma.npages += npages
        for later in self.vmas[self.vmas.index(vma) + 1:]:
            later.first += npages
        self._layout_changed()

    @staticmethod
    def _window(arr, lo: int, hi: int):
        """``arr``'s pages ``[lo, hi)``: an ndarray view, or a CoW window."""
        if isinstance(arr, CowPageArray):
            return CowWindow(arr, lo, hi)
        return arr[lo:hi]

    def _bind(self, vmas: List[VMA], block: PoolBlock, valid) -> int:
        """Point the PTEs of ``vmas`` (consecutive in the layout) at
        ``block``; returns how many local pages that unmapped.

        ``valid`` is a bool or a per-page boolean mask over the block:
        valid pages get write-protected direct-map PTEs, the rest invalid
        PTEs holding the remote address.  However many VMAs the range
        spans, ``state`` and ``offsets`` are written once each and the
        layout is invalidated once.
        """
        lo, hi = vmas[0].first, vmas[-1].first + vmas[-1].npages
        freed = count_equal(self._window(self.state, lo, hi), PTE_LOCAL)
        if isinstance(valid, bool):
            self.state[lo:hi] = PTE_REMOTE_RO if valid else PTE_REMOTE_INVALID
        else:
            mask = np.asarray(valid, dtype=bool)
            if len(mask) != hi - lo:
                raise ValueError("valid mask length mismatch")
            self.state[lo:hi] = np.where(mask, PTE_REMOTE_RO,
                                         PTE_REMOTE_INVALID).astype(np.uint8)
        self.offsets[lo:hi] = block.offsets
        for vma in vmas:
            vma._pool = block.pool
        self._layout_changed()
        return freed

    # -- sharing -------------------------------------------------------------------

    def _share(self) -> tuple:
        """``(layout, (state, offsets, content), n_local)`` for a
        copy-on-write attach of this table.

        Plain arrays are frozen into :class:`TemplateBase` s (writes to
        them fail fast from then on), and a fully frozen table caches the
        result, so every later attach reuses the same bases.  CoW arrays
        (an attached table) are handed out for the attacher to copy: it
        shares their bases and copies only their private chunks.
        ``n_local`` counts the table's locally-resident pages — normally
        none: templates hold only remote-backed or empty PTEs.
        """
        if self._shared is not None:
            return self._shared
        arrays = tuple(arr if isinstance(arr, CowPageArray)
                       else TemplateBase(arr)
                       for arr in (self.state, self.offsets, self.content))
        shared = (self.layout, arrays, count_equal(self.state, PTE_LOCAL))
        if not any(isinstance(arr, CowPageArray) for arr in arrays):
            self._shared = shared
        return shared


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


class AddressSpace(PageTable):
    """A process address space: a VMA layout over one PTE table, plus
    fault handling.

    ``on_local_delta`` is invoked with the change in locally-resident page
    count whenever pages are allocated or freed, so a node-level accountant
    can track memory usage event-by-event.
    """

    def __init__(self, name: str = "",
                 on_local_delta: Optional[Callable[[int], None]] = None):
        super().__init__()
        self.name = name
        self.local_pages = 0
        self.on_local_delta = on_local_delta
        self.destroyed = False

    @property
    def local_bytes(self) -> int:
        return self.local_pages * PAGE_SIZE

    def attach(self, source: PageTable) -> None:
        """Map ``source``'s layout and PTE table into this empty space.

        Copies metadata only: the space shares the source's table
        copy-on-write and its :class:`Layout` (``source._share``), then
        charges any locally-resident pages the source carries in one
        ``_charge``.  With ``on_pte_bound`` subscribed every VMA is also
        reported bound.
        """
        if self.total_pages:
            raise ValueError(f"attach needs an empty address space: "
                             f"{self.name} has {self.total_pages} pages")
        layout, arrays, n_local = source._share()
        self._layout = layout
        self._vmas = None
        self.state, self.offsets, self.content = (
            CowPageArray(a) if isinstance(a, TemplateBase) else a.copy()
            for a in arrays)
        if n_local:
            self._charge(n_local)
        if hooks.on_pte_bound is not None:
            for vma in self.vmas:
                hooks.on_pte_bound(vma)

    # -- population ---------------------------------------------------------------

    def populate_local(self, vma: VMA, content_base: int = 0) -> None:
        """Materialise every page of ``vma`` as private local memory."""
        fresh = vma.npages - count_equal(vma.state, PTE_LOCAL)
        self.state[vma.first:vma.first + vma.npages] = PTE_LOCAL
        _fill_missing_content(vma, content_base)
        self._charge(fresh)
        if hooks.on_pte_bound is not None:
            hooks.on_pte_bound(vma)

    def populate_all_local(self, content_base: int = 0) -> None:
        """Materialise every VMA as local (the eager CRIU restore path).

        Equivalent to :meth:`populate_local` over all VMAs, but charges
        the accountant once — a content-id table shared CoW with a
        snapshot image stays shared (``count_equal`` answers the missing-
        content check from the cached base without densifying).
        """
        fresh = self.total_pages - count_equal(self.state, PTE_LOCAL)
        self.state[:] = PTE_LOCAL
        if count_equal(self.content, -1):
            for vma in self.vmas:
                _fill_missing_content(vma, content_base)
        if hooks.on_pte_bound is not None:
            for vma in self.vmas:
                hooks.on_pte_bound(vma)
        self._charge(fresh)

    def bind_remote(self, vma: Optional[VMA], block: PoolBlock,
                    valid) -> None:
        """Point ``vma``'s pages at a pool block; ``vma=None`` points the
        whole layout at one image-wide block in a single pass.

        ``valid`` is a bool or a per-page boolean mask: valid pages get
        write-protected direct-map PTEs (CXL, ``mmt_setup_pt(..., CXL)``);
        the rest get invalid PTEs holding the remote address (RDMA lazy
        path / a tiered pool's cold pages).
        """
        vmas = self.vmas if vma is None else [vma]
        npages = self.total_pages if vma is None else vma.npages
        if block.npages != npages:
            raise ValueError(
                f"block/vma size mismatch: {block.npages} != {npages}")
        freed = self._bind(vmas, block, valid)
        self._charge(-freed)
        if hooks.on_pte_bound is not None:
            for bound in vmas:
                hooks.on_pte_bound(bound)

    # -- faults --------------------------------------------------------------------

    def access(self, read_pages: np.ndarray, write_pages: np.ndarray,
               read_loads: int = 0) -> AccessOutcome:
        """Drive one invocation's page touches through the fault handler.

        ``read_pages``/``write_pages`` are flat page indices across the
        address space (see :meth:`flatten`).  ``read_loads`` is the number
        of cache-missing *loads* issued against pages that end up resident
        on a byte-addressable pool — it prices CXL's extra latency.

        Writes fault first, then reads (which see the writes' effects).
        Each list is one pass over the flat table (:meth:`_runs`,
        :func:`_run_counts`): one state gather, one ``bincount`` for the
        per-VMA histograms and one scatter of the faulting pages.  The
        access then charges every page it allocated in one ``_charge``:
        all of its deltas are positive and land at one instant, so the
        accountant ends as a charge per faulting VMA would leave it.
        Python code runs per faulting VMA only to count fetches per pool
        and to report CoW faults to a subscribed ``on_pte_cow``.  A write
        to a read-only VMA, an out-of-range index or an index repeated
        within one list raises before any state changes.
        """
        out = AccessOutcome()
        writes = self._runs(write_pages)
        reads = self._runs(read_pages)
        if writes is not None:
            read_only = ~self.layout.writable[writes[1]]
            if read_only.any():
                name = self.layout.specs[
                    int(writes[1][np.argmax(read_only)])][0]
                raise PermissionError(
                    f"write to read-only VMA {name!r} in {self.name}")
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
        if out.local_pages_allocated:
            self._charge(out.local_pages_allocated)
        return out

    def _fault_writes(self, flat: np.ndarray, hit: np.ndarray,
                      sizes: np.ndarray, out: AccessOutcome) -> None:
        states = self.state[flat]
        counts = _run_counts(states, sizes)
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
        # Every non-LOCAL state ends LOCAL: one scatter for the pass.
        self.state[flat[states != PTE_LOCAL]] = PTE_LOCAL
        if fetch:
            self._count_fetches(hit, counts[:, PTE_REMOTE_INVALID], out)
        if cow and hooks.on_pte_cow is not None:
            cows = counts[:, PTE_REMOTE_RO]
            faulting = np.flatnonzero(cows)
            vmas = self.vmas
            for k, n_cow in zip(hit[faulting].tolist(),
                                cows[faulting].tolist()):
                hooks.on_pte_cow(vmas[k], n_cow)

    def _fault_reads(self, flat: np.ndarray, hit: np.ndarray,
                     sizes: np.ndarray, out: AccessOutcome) -> int:
        """Fault the read pass; returns how many reads hit remote pages of
        a byte-addressable pool."""
        states = self.state[flat]
        counts = _run_counts(states, sizes)
        zero, _, remote, fetch = counts.sum(axis=0).tolist()
        # Demand-zero read: shared zero page, minor fault, no allocation.
        out.minor_faults += zero
        if fetch:
            # Major fault per page: fetch from the pool into a private
            # local copy (TrEnv's RDMA backend, §5.1).
            out.major_faults += fetch
            out.pages_fetched += fetch
            out.local_pages_allocated += fetch
            self.state[flat[states == PTE_REMOTE_INVALID]] = PTE_LOCAL
            self._count_fetches(hit, counts[:, PTE_REMOTE_INVALID], out)
        # PTE_REMOTE_RO reads: zero software cost (valid PTE, direct load).
        # PTE_LOCAL reads: free.
        if not remote:
            return 0
        direct = self.layout.byte_addressable[hit]
        return int(counts[direct, PTE_REMOTE_RO].sum())

    def _count_fetches(self, hit: np.ndarray, fetches: np.ndarray,
                       out: AccessOutcome) -> None:
        """Add each run's ``fetches`` to its pool in ``out.fetch_pools``,
        in address order."""
        faulting = np.flatnonzero(fetches)
        pool_names = self.layout.pool_names
        for k, n_fetch in zip(hit[faulting].tolist(),
                              fetches[faulting].tolist()):
            out.fetch_pools[pool_names[k]] += n_fetch

    # -- snapshotting helpers ---------------------------------------------------------

    def page_state_counts(self) -> Dict[int, int]:
        return {value: count_equal(self.state, value)
                for value in (PTE_NONE, PTE_LOCAL, PTE_REMOTE_RO,
                              PTE_REMOTE_INVALID)}

    def content_image(self) -> np.ndarray:
        """Content ids of every page (snapshot order)."""
        return np.array(self.content)

    def destroy(self) -> int:
        """Release all local pages; returns how many were freed."""
        if self.destroyed:
            return 0
        freed = self.local_pages
        self.destroyed = True
        self._charge(-freed)
        return freed

    # -- flat indexing -----------------------------------------------------------------

    def _runs(self, flat_pages
              ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Split flat page indices into per-VMA runs.

        Returns ``None`` for no pages, else ``(flat, hit, sizes)``: the
        sorted indices, the indices of the VMAs they touch, and how many
        touches each of those VMAs gets (consecutive in ``flat``).
        Indices are sorted first unless they already are (traces are), so
        one ``searchsorted`` against the cumulative layout finds every
        run.  A repeated index raises ``ValueError``.
        """
        flat = sorted_pages(np.asarray(flat_pages, dtype=np.int64))
        if len(flat) == 0:
            return None
        cum = self.layout.cum
        if flat[0] < 0 or flat[-1] >= cum[-1]:
            raise IndexError("page index out of range for address space")
        sizes = np.diff(np.searchsorted(flat, cum))
        hit = np.flatnonzero(sizes)
        return flat, hit, sizes[hit]

    def _charge(self, delta_pages: int) -> None:
        if delta_pages == 0:
            return
        self.local_pages += delta_pages
        if self.local_pages < 0:
            raise AssertionError("negative local page count")
        if self.on_local_delta is not None:
            self.on_local_delta(delta_pages)
        if hooks.on_local_charge is not None:
            hooks.on_local_charge(self, delta_pages)


def sorted_pages(pages: np.ndarray) -> np.ndarray:
    """``pages`` in ascending order; ``ValueError`` if an index repeats.

    A page list names each page once: a repeat would fault, count and
    charge one page twice.  Traces arrive sorted, so the usual cost is
    the one comparison pass that checks both properties.
    """
    if len(pages) > 1 and (pages[1:] <= pages[:-1]).any():
        pages = np.sort(pages, kind="stable")
        if (pages[1:] == pages[:-1]).any():
            raise ValueError("page index repeats within one page list")
    return pages


def _fill_missing_content(vma: VMA, content_base: int) -> None:
    """Give ``vma``'s undefined content ids ``content_base + page``."""
    if count_equal(vma.content, -1):
        idx = np.nonzero(np.asarray(vma.content) == -1)[0]
        vma.content[idx] = content_base + idx


def _run_counts(states: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each run's per-state histogram: one ``bincount`` over
    ``run * 4 + state``."""
    key = np.repeat(np.arange(0, 4 * len(sizes), 4), sizes)
    key += states
    return np.bincount(key, minlength=4 * len(sizes)).reshape(-1, 4)
