"""Runtime sanitizer tests: seeded violations must be caught by name.

Each negative test injects one specific accounting bypass through a
test double / direct mutation and asserts the sanitizer reports it
under the documented invariant name (docs/analysis.md).
"""

import heapq

import pytest

from repro.analysis.sanitizer import (
    INV_CGROUP_MEMBERSHIP, INV_CHARGE_CONSERVATION, INV_EVENT_MONOTONICITY,
    INV_FRAME_REFCOUNT, INV_PAGE_CACHE_BALANCE, INV_POOL_CAPACITY,
    INV_PROTECTED_WRITE, Sanitizer, SanitizerError, maybe_sanitized,
    sanitized)
from repro.mem.accounting import MemoryAccountant
from repro.mem.address_space import PTE_LOCAL, AddressSpace
from repro.mem.layout import GB
from repro.mem.page_cache import PageCache
from repro.mem.pools import CXLPool, PoolBlock, RDMAPool, TieredPool
from repro.obs import hooks
from repro.sim.engine import Delay, Simulator


def invariants(excinfo):
    return {v.invariant for v in excinfo.value.violations}


# -- negative tests: seeded violations, named diagnostics ----------------------


def test_frame_refcount_leak_detected():
    space = AddressSpace("victim")
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            vma = space.add_vma("heap", 8)
            space.populate_local(vma)
            space.local_pages += 5        # leak: bypasses _charge
    assert invariants(excinfo) == {INV_FRAME_REFCOUNT}
    assert "local_pages" in str(excinfo.value)


def test_frame_refcount_compares_the_count_with_local_ptes():
    # Charged twice through the API: the ledger agrees with the counter,
    # only the page table shows that one page is counted twice.
    space = AddressSpace("victim")
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            vma = space.add_vma("heap", 4)
            space.populate_local(vma)
            space._charge(1)
    assert invariants(excinfo) == {INV_FRAME_REFCOUNT}
    assert "5 but 4 PTEs are local" in str(excinfo.value)


def test_destroyed_space_keeps_its_table_without_a_violation():
    with sanitized() as san:
        space = AddressSpace("torn-down")
        space.populate_local(space.add_vma("heap", 4))
        space.destroy()
        assert space.local_pages == 0
        assert san.scan() == []


def test_frame_double_free_detected():
    space = AddressSpace("victim")
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            vma = space.add_vma("heap", 4)
            space.populate_local(vma)
            space.local_pages += 4        # forge pages...
            space.local_pages -= 4        # ...then "free" them via ledger
            space.destroy()               # ledger: 4 - 4(destroy) = 0, ok
            space.destroyed = False
            space.local_pages = 4
            space.destroy()               # second free drives shadow < 0
    assert INV_FRAME_REFCOUNT in invariants(excinfo)
    assert "negative" in str(excinfo.value) or "double free" in \
        str(excinfo.value)


def test_protected_page_write_without_cow_detected():
    pool = CXLPool(1 * GB)
    space = AddressSpace("victim")
    vma = space.add_vma("code", 4)
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            block = PoolBlock(pool=pool, offsets=pool.allocate_pages(4))
            space.bind_remote(vma, block, valid=True)
            vma.state[0] = PTE_LOCAL      # direct flip: no CoW fault
    assert invariants(excinfo) == {INV_PROTECTED_WRITE}
    assert "CoW" in str(excinfo.value)


def test_charge_conservation_imbalance_detected():
    acct = MemoryAccountant()
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            acct.charge("kernel", 4096)
            acct.usage["kernel"] += 4096  # breakdown no longer sums
    assert invariants(excinfo) == {INV_CHARGE_CONSERVATION}
    assert "breakdown" in str(excinfo.value)


def test_cgroup_membership_bypass_detected():
    from repro.kernel.cgroup import CgroupManager
    sim = Simulator()
    manager = CgroupManager(sim)
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            cgroup = sim.run_process(manager.create("jail"))
            sim.run_process(manager.clone_into(1, cgroup))
            cgroup.procs.add(99)          # skipped the migration path
    assert INV_CGROUP_MEMBERSHIP in invariants(excinfo)
    assert "99" in str(excinfo.value)


def test_pool_capacity_ledger_detected():
    pool = RDMAPool(1 * GB)
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            pool.allocate_pages(16)
            pool._stored_pages += 7       # forged usage
    assert invariants(excinfo) == {INV_POOL_CAPACITY}


def test_tiered_pool_conservation_detected():
    tiered = TieredPool(CXLPool(1 * GB), RDMAPool(1 * GB), hot_fraction=0.5)
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            tiered.allocate_pages(32)
            tiered.hot._stored_pages -= 4  # tier no longer sums up
    assert invariants(excinfo) == {INV_POOL_CAPACITY}
    assert "hot+cold" in str(excinfo.value)


def test_page_cache_balance_detected():
    cache = PageCache("victim")
    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            cache.charge_file(1, 8 * 4096)
            cache._files[1].append((10_000, 10_001))  # uncounted run
    assert invariants(excinfo) == {INV_PAGE_CACHE_BALANCE}


class _FinishedTask:
    finished = True
    _epoch = 0


def test_event_monotonicity_detected():
    sim = Simulator()     # wake-ups live in the raw heap sim._queue

    def proc():
        yield Delay(1.0)

    with pytest.raises(SanitizerError) as excinfo:
        with sanitized():
            sim.run_process(proc())       # dispatches up to t=1.0
            # A buggy scheduler enqueues into the past:
            heapq.heappush(sim._queue,
                           (0.25, next(sim._seq), _FinishedTask(), None, 0))
            sim._step()
    assert invariants(excinfo) == {INV_EVENT_MONOTONICITY}
    assert "backwards" in str(excinfo.value)


# -- positive paths ------------------------------------------------------------


def test_clean_lifecycle_passes():
    pool = CXLPool(1 * GB)
    with sanitized() as sanitizer:
        space = AddressSpace("clean")
        vma = space.add_vma("code", 64)
        block = PoolBlock(pool=pool, offsets=pool.allocate_pages(64))
        space.bind_remote(vma, block, valid=True)
        import numpy as np
        space.access(np.arange(8), np.arange(8))   # CoW through the API
        space.destroy()
        sanitizer.check()                           # mid-run barrier
    assert not sanitizer.violations
    assert sanitizer.barriers == 2


def test_engine_wiring_counts_events():
    sim = Simulator()

    def proc():
        yield Delay(1.0)

    with sanitized() as sanitizer:
        sim.run_process(proc())
    assert sanitizer.events_checked > 0


def test_duplicate_violations_collapse():
    sanitizer = Sanitizer()
    sim = Simulator()
    sanitizer.on_sim_event(sim, 5.0)
    sanitizer.on_sim_event(sim, 1.0)
    before = len(sanitizer.violations)
    sanitizer.scan()
    assert len(sanitizer.violations) == before == 1


def subscribed_sanitizer():
    """The sanitizer behind the engine's slot, or None."""
    slot = hooks.on_sim_event
    return None if slot is None else slot.__self__


def test_sanitized_nests_and_restores():
    with sanitized() as outer:
        assert subscribed_sanitizer() is outer
        with sanitized() as inner:
            assert subscribed_sanitizer() is inner
        assert subscribed_sanitizer() is outer
    assert subscribed_sanitizer() is not outer


def test_body_exception_not_masked():
    space = AddressSpace("victim")
    with pytest.raises(RuntimeError, match="original"):
        with sanitized() as sanitizer:
            vma = space.add_vma("heap", 2)
            space.populate_local(vma)
            space.local_pages += 1         # would violate at teardown...
            raise RuntimeError("original")  # ...but the body error wins
    assert subscribed_sanitizer() is not sanitizer


def test_maybe_sanitized_env_gate(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    with maybe_sanitized() as sanitizer:
        assert sanitizer is None
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with maybe_sanitized() as sanitizer:
        assert isinstance(sanitizer, Sanitizer)
