"""Disaggregated memory pool backends.

The paper's rack architecture (Figure 1): a shared pool holds the
consolidated, deduplicated snapshot images; hosts map them either directly
(CXL: byte-addressable, valid write-protected PTEs, zero-fault reads) or
lazily (RDMA: invalid PTEs, 4 KiB fetch per major fault).  All pool state
is read-only; writes are private to each attaching process via CoW.

Blocks are content-addressed: the :class:`DedupStore` consolidates pages
with identical content across functions and nodes, which is what produces
TrEnv's cross-function, cross-node memory savings (§5.1 step 1).

Every pool also carries **health state** for the fault-injection
framework (:mod:`repro.faults`): an offline pool raises
:class:`~repro.faults.errors.PoolUnavailableError` from its timing
methods, a degraded link multiplies fetch times, and an injected timeout
burst fails the next N fetches with
:class:`~repro.faults.errors.PoolTimeoutError`.  Subclasses implement
``_fetch_time``/``_read_overhead``; the public wrappers apply the health
checks so no caller can accidentally bypass them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faults.errors import (PoolExhaustedError, PoolTimeoutError,
                                 PoolUnavailableError)
from repro.mem.layout import PAGE_SIZE
from repro.obs import hooks
from repro.sim.latency import LatencyModel


@dataclass
class PoolBlock:
    """A contiguous run of pages stored in a pool.

    ``offsets`` holds the per-page physical offset inside the pool — the
    "machine-independent pointer" of §5.1 — so overlapping/deduplicated
    layouts are expressible (two blocks may reference the same offsets).
    """

    pool: "MemoryPool"
    offsets: np.ndarray          # int64 physical page offsets within the pool

    @property
    def npages(self) -> int:
        return len(self.offsets)

    @property
    def nbytes(self) -> int:
        return self.npages * PAGE_SIZE


class MemoryPool:
    """Base class for a remote memory pool backend."""

    #: Can the CPU load directly from the pool without a fault?
    byte_addressable = False
    name = "pool"

    def __init__(self, capacity_bytes: int, latency: Optional[LatencyModel] = None):
        self.capacity_bytes = int(capacity_bytes)
        self.latency = latency or LatencyModel()
        self._next_offset = 0
        self._stored_pages = 0
        self._active_fetchers = 0
        # -- health state (fault injection) --
        self._online = True
        self.fault_reason: Optional[str] = None
        self.degrade_factor = 1.0
        self._timeout_budget = 0
        self._forced_exhausted = False
        self.faults_injected = 0
        self.timeouts_served = 0

    # -- health ------------------------------------------------------------------

    @property
    def available(self) -> bool:
        """False while the device is offline / the link is down."""
        return self._online

    def fail(self, reason: str = "injected fault") -> None:
        """Take the pool offline (CXL device offlined, RDMA link down)."""
        self._online = False
        self.fault_reason = reason
        self.faults_injected += 1

    def recover(self) -> None:
        """Bring the pool back online; stored contents are intact."""
        self._online = True
        self.fault_reason = None

    def degrade(self, factor: float) -> None:
        """Multiply all access times by ``factor`` (link congestion)."""
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1: {factor}")
        self.degrade_factor = float(factor)

    def restore_speed(self) -> None:
        self.degrade_factor = 1.0

    def inject_timeouts(self, count: int) -> None:
        """Fail the next ``count`` fetches with a timeout."""
        if count < 0:
            raise ValueError("timeout count must be >= 0")
        self._timeout_budget += count

    def exhaust(self) -> None:
        """Force allocations to fail until :meth:`replenish`."""
        self._forced_exhausted = True

    def replenish(self) -> None:
        self._forced_exhausted = False

    def _check_available(self) -> None:
        if not self._online:
            raise PoolUnavailableError(
                self.name, self.fault_reason or "offline")

    # -- storage -----------------------------------------------------------------

    def can_allocate(self, npages: int) -> bool:
        """Whether ``npages`` fresh slots fit right now (no side effects)."""
        if self._forced_exhausted:
            return False
        return self.used_bytes + npages * PAGE_SIZE <= self.capacity_bytes

    def allocate_pages(self, npages: int) -> np.ndarray:
        """Reserve ``npages`` fresh page slots; returns their offsets."""
        if not self.can_allocate(npages):
            raise PoolExhaustedError(
                self.name,
                f"exhausted: {self.used_bytes + npages * PAGE_SIZE} "
                f"> {self.capacity_bytes}")
        base = self._next_offset
        self._next_offset += npages
        self._stored_pages += npages
        if hooks.on_pool_alloc is not None:
            hooks.on_pool_alloc(self, npages)
        return np.arange(base, base + npages, dtype=np.int64)

    @property
    def used_bytes(self) -> int:
        return self._stored_pages * PAGE_SIZE

    @property
    def used_pages(self) -> int:
        return self._stored_pages

    # -- access timing --------------------------------------------------------------

    def fetch_time(self, npages: int, concurrency: int = 1) -> float:
        """Simulated time to demand-fetch ``npages`` individual pages.

        Raises a typed :class:`~repro.faults.errors.PoolFault` while the
        pool is offline or an injected timeout burst is pending.
        """
        self._check_available()
        if self._timeout_budget > 0:
            self._timeout_budget -= 1
            self.timeouts_served += 1
            raise PoolTimeoutError(self.name, "fetch timed out")
        t = self._fetch_time(npages, concurrency)
        if self.degrade_factor != 1.0:
            t *= self.degrade_factor
        if hooks.on_pool_fetch is not None:
            hooks.on_pool_fetch(self, npages, t)
        return t

    def read_overhead(self, nloads: int) -> float:
        """Extra time for ``nloads`` direct loads (byte-addressable pools)."""
        self._check_available()
        t = self._read_overhead(nloads)
        if self.degrade_factor != 1.0:
            t *= self.degrade_factor
        if hooks.on_pool_read is not None:
            hooks.on_pool_read(self, nloads)
        return t

    def _fetch_time(self, npages: int, concurrency: int = 1) -> float:
        raise NotImplementedError

    def _read_overhead(self, nloads: int) -> float:
        raise NotImplementedError

    def valid_mask(self, offsets: np.ndarray) -> np.ndarray:
        """Which of these pages can get *valid* (direct-load) PTEs.

        Byte-addressable pools map everything valid; message-based pools
        nothing; tiered pools only their hot-tier pages.
        """
        return np.full(len(offsets), self.byte_addressable, dtype=bool)


class CXLPool(MemoryPool):
    """CXL multi-headed device: byte-addressable, shared, read-only maps.

    Reads need no software intervention (valid PTEs pre-installed by
    mm-template), so :meth:`fetch_time` is only used if a platform
    explicitly chooses lazy mapping; the normal cost is the per-load
    latency delta over DRAM (§5.1).
    """

    byte_addressable = True
    name = "cxl"

    def _fetch_time(self, npages: int, concurrency: int = 1) -> float:
        # Direct-mapped copy at near-memory speed; no page-fault round trip.
        per_page = self.latency.mem.minor_fault + PAGE_SIZE / (16e9)  # ~16 GB/s
        return npages * per_page

    def _read_overhead(self, nloads: int) -> float:
        return self.latency.cxl_read_overhead(nloads)


class RDMAPool(MemoryPool):
    """RDMA-backed pool: lazy 4 KiB fetches with unstable tail latency.

    ``encrypted=True`` enables in-transit protection of the memory
    images (§8.1.2(3): "for RDMA, it is possible to encrypt the memory
    images during transfers") at an AES-GCM-class per-page cost.
    """

    byte_addressable = False
    name = "rdma"

    #: AES-GCM decrypt of one 4 KiB page at ~4 GB/s plus tag check.
    ENCRYPTION_COST_PER_PAGE = 1.1e-6

    def __init__(self, capacity_bytes: int, latency=None,
                 encrypted: bool = False):
        super().__init__(capacity_bytes, latency)
        self.encrypted = encrypted

    def _fetch_time(self, npages: int, concurrency: int = 1) -> float:
        t = self.latency.rdma_fetch(npages, concurrency)
        if self.encrypted:
            t += npages * self.ENCRYPTION_COST_PER_PAGE
        return t

    def _read_overhead(self, nloads: int) -> float:
        return 0.0  # once fetched, pages are local


class NASPool(MemoryPool):
    """Network-attached storage tier for cold pages (lowest layer, Fig 1)."""

    byte_addressable = False
    name = "nas"

    def _fetch_time(self, npages: int, concurrency: int = 1) -> float:
        return npages * (self.latency.mem.nas_fetch_4k + self.latency.mem.minor_fault)

    def _read_overhead(self, nloads: int) -> float:
        return 0.0


@dataclass
class _TierPlacement:
    pool: MemoryPool
    fraction: float


class TieredPool(MemoryPool):
    """Multi-layer pool: hot pages in an upper tier, cold pages lower.

    §5.1/§9.5: "a multi-layered architecture that strategically places hot
    pages in CXL and cold pages in RDMA integrates seamlessly".  The
    placement policy is a hot-fraction split; eviction/promotion policies
    are orthogonal to TrEnv and deliberately simple here.
    """

    name = "tiered"

    def __init__(self, hot: MemoryPool, cold: MemoryPool, hot_fraction: float = 0.5):
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction out of range: {hot_fraction}")
        super().__init__(hot.capacity_bytes + cold.capacity_bytes, hot.latency)
        self.hot = hot
        self.cold = cold
        self.hot_fraction = hot_fraction

    @property
    def byte_addressable(self) -> bool:  # type: ignore[override]
        return self.hot.byte_addressable

    def allocate_pages(self, npages: int) -> np.ndarray:
        n_hot = int(round(npages * self.hot_fraction))
        mask = np.zeros(npages, dtype=bool)
        mask[:n_hot] = True
        return self.allocate_pages_masked(mask)

    def allocate_pages_masked(self, hot_mask: np.ndarray) -> np.ndarray:
        """Allocate with explicit per-page placement (hot=True → upper
        tier).  Used by working-set-aware planners
        (:mod:`repro.mem.tiering`).

        Atomic: both tiers are capacity-checked up front, so a request
        that overflows either tier raises without leaking pages into the
        other.
        """
        hot_mask = np.asarray(hot_mask, dtype=bool)
        npages = len(hot_mask)
        n_hot = int(np.count_nonzero(hot_mask))
        n_cold = npages - n_hot
        if not (self.can_allocate(npages)
                and self.hot.can_allocate(n_hot)
                and self.cold.can_allocate(n_cold)):
            raise PoolExhaustedError(
                self.name,
                f"exhausted: {npages} pages ({n_hot} hot / {n_cold} cold) "
                f"do not fit")
        hot = self.hot.allocate_pages(n_hot)
        cold = self.cold.allocate_pages(n_cold)
        out = np.empty(npages, dtype=np.int64)
        out[hot_mask] = hot
        # Tag cold offsets with a high bit so valid_mask can split them.
        out[~hot_mask] = cold + _COLD_TAG
        self._stored_pages += npages
        if hooks.on_pool_alloc is not None:
            hooks.on_pool_alloc(self, npages)
        return out

    def split_offsets(self, offsets: np.ndarray):
        cold_mask = offsets >= _COLD_TAG
        return offsets[~cold_mask], offsets[cold_mask] - _COLD_TAG

    def _fetch_time(self, npages: int, concurrency: int = 1) -> float:
        # Demand fetches only ever hit the cold tier: hot-tier pages get
        # valid PTEs up front (see valid_mask) and never fault.
        return self.cold.fetch_time(npages, concurrency)

    def _read_overhead(self, nloads: int) -> float:
        # Direct loads only ever hit the hot tier: cold pages were
        # materialised locally by their fault.
        return self.hot.read_overhead(nloads)

    def valid_mask(self, offsets: np.ndarray) -> np.ndarray:
        if not self.hot.byte_addressable:
            return np.zeros(len(offsets), dtype=bool)
        return offsets < _COLD_TAG

    @property
    def used_bytes(self) -> int:
        return self.hot.used_bytes + self.cold.used_bytes


_COLD_TAG = 1 << 48


class DedupStore:
    """Content-addressed store consolidating snapshot images in a pool.

    ``store_image(content_ids)`` returns a :class:`PoolBlock` whose offsets
    point at the single shared copy of every page; pages already present
    (from any function, any node) are not stored again (§5.1 step 1,
    Figure 12's duplicated region R2).

    The content-id → offset index is a pair of aligned, sorted numpy
    arrays.  Callers store a whole image at once (one call per snapshot,
    not per VMA), so each store costs one ``searchsorted`` to find the
    fresh ids, one pool allocation, one ``np.insert`` into each index
    array and one ``searchsorted`` plus gather for the offsets.
    """

    def __init__(self, pool: MemoryPool):
        self.pool = pool
        self._cids = np.empty(0, dtype=np.int64)        # sorted content ids
        self._cid_offsets = np.empty(0, dtype=np.int64)  # aligned offsets
        self.total_pages_presented = 0
        self.unique_pages_stored = 0

    def store_image(self, content_ids: np.ndarray,
                    hot_mask: Optional[np.ndarray] = None) -> PoolBlock:
        """Consolidate an image; optionally with per-page tier placement.

        Fresh content ids get pool slots in ascending-id order, whatever
        their order in the image.  ``hot_mask`` (tiered pools only) marks
        which pages belong in the upper tier; the first occurrence of a
        fresh id decides its placement, and an id already stored keeps
        the tier of the store that brought it.

        Atomic: the one pool allocation comes before any change to the
        index or the counters, so a store that exhausts the pool leaves
        the store and the pool as they were.
        """
        content_ids = np.asarray(content_ids, dtype=np.int64)
        pos = np.searchsorted(self._cids, content_ids)
        known = pos < len(self._cids)
        known[known] = self._cids[pos[known]] == content_ids[known]
        fresh_at = np.flatnonzero(~known)
        if len(fresh_at):
            missing, first = np.unique(content_ids[fresh_at],
                                       return_index=True)
            if hot_mask is not None:
                if not hasattr(self.pool, "allocate_pages_masked"):
                    raise TypeError(
                        f"{self.pool.name} pool does not support placement")
                mask = np.asarray(hot_mask, dtype=bool)[fresh_at[first]]
                offsets = self.pool.allocate_pages_masked(mask)
            else:
                offsets = self.pool.allocate_pages(len(missing))
            at = np.searchsorted(self._cids, missing)
            self._cids = np.insert(self._cids, at, missing)
            self._cid_offsets = np.insert(self._cid_offsets, at, offsets)
            self.unique_pages_stored += len(missing)
            pos = np.searchsorted(self._cids, content_ids)
        self.total_pages_presented += len(content_ids)
        return PoolBlock(pool=self.pool, offsets=self._cid_offsets[pos])

    @property
    def dedup_ratio(self) -> float:
        """Fraction of presented pages that were deduplicated away."""
        if self.total_pages_presented == 0:
            return 0.0
        return 1.0 - self.unique_pages_stored / self.total_pages_presented
