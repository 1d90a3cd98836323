"""Runtime kernel-invariant sanitizer (the kmemleak/KASAN analogue).

Opt-in checker for the simulated kernel's bookkeeping.  Instrumented
modules report state transitions through the hook bus
(:mod:`repro.obs.hooks`, one ``is None`` check per site when disabled);
a subscribed :class:`Sanitizer` mirrors those reports into *shadow
ledgers* and asserts, at every hook, at explicit
:meth:`~Sanitizer.check` barriers and at teardown, that the
simulator's own state still agrees with the ledger.  Because the ledger
is fed only by the accounting APIs, any code path that mutates frames,
charges or PTE state directly — bypassing those APIs — shows up as a
ledger/state divergence with a named invariant.

Invariants (each violation carries its invariant name):

``frame-refcount``
    Locally-resident page counts (``AddressSpace.local_pages``,
    ``ExtendedPageTable.local_pages``) equal the sum of charge deltas
    reported through ``_charge`` and never go negative — no leaked or
    double-freed frames.
``protected-page-write``
    A write-protected template page (``PTE_REMOTE_RO``) may only leave
    that state through a recorded CoW fault (or an explicit re-bind /
    populate API call).  The ledger tracks the expected RO population
    per VMA/EPT; a direct ``state[...] = PTE_LOCAL`` diverges.
``charge-conservation``
    Every :class:`~repro.mem.accounting.MemoryAccountant` conserves
    charge: the shadow sum of reported deltas equals ``current_bytes``,
    which equals the sum of the per-category breakdown.
``cgroup-membership``
    A cgroup's process set matches the membership implied by the timed
    API calls (``migrate``/``clone_into``/``remove_proc``) — no process
    appears in or vanishes from a cgroup without the kernel path.
``pool-capacity``
    Pool usage equals the pages handed out by ``allocate_pages`` and
    never exceeds capacity; a :class:`~repro.mem.pools.TieredPool`'s
    usage equals the sum of its tiers.
``event-monotonicity``
    The event queue never dispatches backwards in simulated time.
``page-cache-balance``
    Cached-page counts equal the sum of charge/evict deltas.

Usage::

    from repro.analysis.sanitizer import sanitized

    with sanitized() as san:
        run_simulation()
        san.check()          # optional mid-run barrier
    # teardown barrier ran on clean exit

or for test suites, set ``REPRO_SANITIZE=1`` and let ``tests/conftest.py``
wrap every test in a sanitizer automatically.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.mem.address_space import PTE_LOCAL, PTE_REMOTE_RO
from repro.mem.cow import count_equal
from repro.obs import hooks

INV_FRAME_REFCOUNT = "frame-refcount"
INV_PROTECTED_WRITE = "protected-page-write"
INV_CHARGE_CONSERVATION = "charge-conservation"
INV_CGROUP_MEMBERSHIP = "cgroup-membership"
INV_POOL_CAPACITY = "pool-capacity"
INV_EVENT_MONOTONICITY = "event-monotonicity"
INV_PAGE_CACHE_BALANCE = "page-cache-balance"

ENV_FLAG = "REPRO_SANITIZE"


def enabled_from_env() -> bool:
    """Whether the environment opts into sanitized runs."""
    return os.environ.get(ENV_FLAG, "") == "1"


@dataclass(frozen=True)
class InvariantViolation:
    """One detected divergence between shadow ledger and object state."""

    invariant: str
    subject: str
    detail: str

    def format(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.detail}"


class SanitizerError(AssertionError):
    """Raised at a barrier when any invariant has been violated."""

    def __init__(self, violations: List[InvariantViolation]):
        self.violations = list(violations)
        lines = [v.format() for v in self.violations]
        names = sorted({v.invariant for v in self.violations})
        super().__init__(
            f"sanitizer: {len(lines)} invariant violation(s) "
            f"({', '.join(names)}):\n  " + "\n  ".join(lines))


def _label(obj: Any, kind: str) -> str:
    name = getattr(obj, "name", "")
    return f"{kind}:{name}" if name else f"{kind}@{id(obj):#x}"


class Sanitizer:
    """Shadow-ledger invariant checker; install via :func:`sanitized`.

    Objects are registered lazily, the first time a hook reports on
    them; the ledger keeps a strong reference so barriers can re-read
    their state (sanitized runs trade memory for checking, like ASan).
    """

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        self._seen: Set[Tuple[str, str, str]] = set()
        # id(obj) -> [obj, shadow]; strong refs keep ids stable.
        self._charges: Dict[int, List[Any]] = {}      # .local_pages owners
        self._ptes: Dict[int, List[Any]] = {}         # expected RO count
        self._accountants: Dict[int, List[Any]] = {}  # shadow bytes
        self._pools: Dict[int, List[Any]] = {}        # shadow pages
        self._cgroups: Dict[int, List[Any]] = {}      # shadow proc set
        self._caches: Dict[int, List[Any]] = {}       # shadow pages
        self._sims: Dict[int, List[Any]] = {}         # last dispatch time
        self.events_checked = 0
        self.barriers = 0

    # -- violation recording ---------------------------------------------------

    def _record(self, invariant: str, subject: str, detail: str) -> None:
        key = (invariant, subject, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(
            InvariantViolation(invariant=invariant, subject=subject,
                               detail=detail))

    # -- hooks: frame refcounts ------------------------------------------------

    def on_local_charge(self, owner: Any, delta_pages: int) -> None:
        """``_charge`` on an AddressSpace/ExtendedPageTable (post-op)."""
        entry = self._charges.get(id(owner))
        if entry is None:
            self._charges[id(owner)] = [owner, owner.local_pages]
            return
        entry[1] += delta_pages
        if entry[1] < 0:
            self._record(INV_FRAME_REFCOUNT, _label(owner, "space"),
                         f"shadow refcount went negative ({entry[1]}) — "
                         f"double free of {-delta_pages} pages")
        self._check_local_charge(entry)

    def _check_local_charge(self, entry: List[Any]) -> None:
        owner, shadow = entry
        actual = owner.local_pages
        if actual != shadow:
            self._record(
                INV_FRAME_REFCOUNT, _label(owner, "space"),
                f"local_pages={actual} but charge ledger says {shadow} "
                f"(direct mutation bypassing _charge?)")
        # Teardown releases the count but leaves the table as it was.
        if owner.destroyed:
            return
        resident = count_equal(owner.state, PTE_LOCAL)
        if actual != resident:
            self._record(
                INV_FRAME_REFCOUNT, _label(owner, "space"),
                f"local_pages={actual} but {resident} PTEs are local "
                f"(a page charged twice, or mapped without a charge?)")

    # -- hooks: PTE transitions ------------------------------------------------

    def on_pte_bound(self, owner: Any) -> None:
        """A (re)bind/populate API set the state array wholesale."""
        self._ptes[id(owner)] = [owner,
                                 count_equal(owner.state, PTE_REMOTE_RO)]

    def on_pte_cow(self, owner: Any, n_cow: int) -> None:
        """A fault handler CoW-converted ``n_cow`` RO pages (post-op)."""
        entry = self._ptes.get(id(owner))
        if entry is None:
            self._ptes[id(owner)] = [owner,
                                     count_equal(owner.state, PTE_REMOTE_RO)]
            return
        entry[1] -= n_cow
        self._check_pte(entry)

    def _check_pte(self, entry: List[Any]) -> None:
        owner, expected = entry
        actual = count_equal(owner.state, PTE_REMOTE_RO)
        if actual != expected:
            self._record(
                INV_PROTECTED_WRITE, _label(owner, "vma"),
                f"{expected} write-protected pages expected but {actual} "
                f"remain — a protected page changed state without a "
                f"recorded CoW fault")

    # -- hooks: accounting -----------------------------------------------------

    def on_accountant_charge(self, accountant: Any, category: str,
                             delta_bytes: int) -> None:
        entry = self._accountants.get(id(accountant))
        if entry is None:
            self._accountants[id(accountant)] = [accountant,
                                                 accountant.current_bytes]
            return
        entry[1] += delta_bytes
        self._check_accountant(entry)

    def _check_accountant(self, entry: List[Any]) -> None:
        accountant, shadow = entry
        subject = _label(accountant, "accountant")
        current = accountant.current_bytes
        if current != shadow:
            self._record(
                INV_CHARGE_CONSERVATION, subject,
                f"current_bytes={current} but charge ledger says {shadow}")
        by_category = sum(accountant.usage.values())
        if by_category != current:
            self._record(
                INV_CHARGE_CONSERVATION, subject,
                f"category breakdown sums to {by_category} but "
                f"current_bytes={current}")

    # -- hooks: pools ----------------------------------------------------------

    def on_pool_alloc(self, pool: Any, npages: int) -> None:
        entry = self._pools.get(id(pool))
        if entry is None:
            entry = self._pools[id(pool)] = [pool, pool.used_pages]
        else:
            entry[1] += npages
        self._check_pool(entry)

    def _check_pool(self, entry: List[Any]) -> None:
        pool, shadow = entry
        subject = _label(pool, "pool")
        if pool.used_pages != shadow:
            self._record(
                INV_POOL_CAPACITY, subject,
                f"used_pages={pool.used_pages} but allocation ledger says "
                f"{shadow}")
        if pool.used_bytes > pool.capacity_bytes:
            self._record(
                INV_POOL_CAPACITY, subject,
                f"used_bytes={pool.used_bytes} exceeds capacity "
                f"{pool.capacity_bytes}")
        hot = getattr(pool, "hot", None)
        cold = getattr(pool, "cold", None)
        if hot is not None and cold is not None:
            tier_sum = hot.used_pages + cold.used_pages
            if pool.used_pages != tier_sum:
                self._record(
                    INV_POOL_CAPACITY, subject,
                    f"tiered usage {pool.used_pages} != hot+cold "
                    f"{tier_sum}")

    # -- hooks: cgroups --------------------------------------------------------

    def on_cgroup_created(self, cgroup: Any) -> None:
        self._cgroups[id(cgroup)] = [cgroup, set(cgroup.procs)]

    def on_cgroup_proc(self, cgroup: Any, pid: int, added: bool) -> None:
        """A timed cgroup API added/removed ``pid`` (post-op)."""
        entry = self._cgroups.get(id(cgroup))
        if entry is None:
            self._cgroups[id(cgroup)] = [cgroup, set(cgroup.procs)]
            return
        shadow: Set[int] = entry[1]
        if added:
            shadow.add(pid)
        else:
            shadow.discard(pid)
        self._check_cgroup(entry)

    def _check_cgroup(self, entry: List[Any]) -> None:
        cgroup, shadow = entry
        if cgroup.procs != shadow:
            extra = sorted(cgroup.procs - shadow)
            missing = sorted(shadow - cgroup.procs)
            self._record(
                INV_CGROUP_MEMBERSHIP, _label(cgroup, "cgroup"),
                f"membership diverges from the migration ledger "
                f"(unaccounted={extra}, vanished={missing})")

    # -- hooks: page caches ----------------------------------------------------

    def on_page_cache_delta(self, cache: Any, delta_pages: int) -> None:
        entry = self._caches.get(id(cache))
        if entry is None:
            self._caches[id(cache)] = [cache, cache.cached_pages]
            return
        entry[1] += delta_pages
        self._check_cache(entry)

    def _check_cache(self, entry: List[Any]) -> None:
        cache, shadow = entry
        if cache.cached_pages != shadow:
            self._record(
                INV_PAGE_CACHE_BALANCE, _label(cache, "page-cache"),
                f"cached_pages={cache.cached_pages} but charge/evict "
                f"ledger says {shadow}")

    # -- hooks: event engine ---------------------------------------------------

    def on_sim_event(self, sim: Any, when: float) -> None:
        """The engine is about to dispatch an event at time ``when``."""
        self.events_checked += 1
        entry = self._sims.get(id(sim))
        if entry is None:
            self._sims[id(sim)] = [sim, when]
            return
        if when < entry[1]:
            self._record(
                INV_EVENT_MONOTONICITY, _label(sim, "sim"),
                f"event dispatched at t={when} after t={entry[1]} — "
                f"the queue went backwards")
        entry[1] = when

    # -- barriers --------------------------------------------------------------

    def scan(self) -> List[InvariantViolation]:
        """Re-verify every ledger against live state; returns violations."""
        for entry in self._charges.values():
            self._check_local_charge(entry)
        for entry in self._ptes.values():
            self._check_pte(entry)
        for entry in self._accountants.values():
            self._check_accountant(entry)
        for entry in self._pools.values():
            self._check_pool(entry)
        for entry in self._cgroups.values():
            self._check_cgroup(entry)
        for entry in self._caches.values():
            self._check_cache(entry)
        return self.violations

    def check(self) -> None:
        """Barrier: full ledger scan; raises on any recorded violation."""
        self.barriers += 1
        self.scan()
        if self.violations:
            raise SanitizerError(self.violations)


@contextmanager
def sanitized() -> Iterator[Sanitizer]:
    """Install a fresh sanitizer for the block; final barrier on exit.

    Nests: a previously installed sanitizer is restored afterwards, and
    an installed observer stays subscribed throughout.  The
    teardown barrier only runs when the block exits cleanly, so a test
    failure is not masked by a secondary sanitizer report.
    """
    sanitizer = Sanitizer()
    previous = hooks.install(sanitizer)
    try:
        yield sanitizer
        sanitizer.check()
    finally:
        hooks.uninstall(sanitizer, previous)


@contextmanager
def maybe_sanitized() -> Iterator[Optional[Sanitizer]]:
    """:func:`sanitized` gated on ``REPRO_SANITIZE=1`` (for conftest)."""
    if not enabled_from_env():
        yield None
        return
    with sanitized() as sanitizer:
        yield sanitizer
