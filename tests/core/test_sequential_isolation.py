"""Groundhog-style sequential request isolation (§10)."""

import numpy as np
import pytest

from repro.core.config import TrEnvConfig
from repro.core.platform import TrEnvPlatform
from repro.mem.address_space import PTE_LOCAL
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.node import Node
from repro.workloads.functions import function_by_name


def make_platform(sequential):
    node = Node(cores=8, seed=9)
    pool = CXLPool(64 * GB, node.latency)
    config = TrEnvConfig(sequential_isolation=sequential)
    return node, TrEnvPlatform(node, pool, config=config)


def invoke_twice(platform, fn="JS"):
    platform.register_function(function_by_name(fn))
    results = []

    def driver():
        results.append((yield from platform.invoke(fn)))
        results.append((yield from platform.invoke(fn)))

    platform.node.sim.run_process(driver())
    return results


def warm_instance(platform, fn="JS"):
    return platform.warm.idle_instances()[0]


def test_rollback_clears_dirty_state_between_requests():
    node, platform = make_platform(sequential=True)
    invoke_twice(platform)
    inst = warm_instance(platform)
    # After the rollback, the warm instance holds zero private pages:
    # the previous request's writes are gone.
    assert inst.space.local_pages == 0
    counts = inst.space.page_state_counts()
    assert counts[PTE_LOCAL] == 0


def test_without_isolation_dirty_state_persists():
    node, platform = make_platform(sequential=False)
    invoke_twice(platform)
    inst = warm_instance(platform)
    assert inst.space.local_pages > 0


def test_isolation_keeps_warm_reuse_fast():
    _node, platform = make_platform(sequential=True)
    r1, r2 = invoke_twice(platform)
    assert r2.start_kind == "warm"
    # Rollback costs one mmt_attach, not a restore: warm stays ~free.
    assert r2.startup < 0.005


def test_isolation_costs_rewrites_on_every_request():
    """With rollback, each request re-CoWs its pages (the Groundhog
    trade-off); without, the second request writes mostly free."""
    _n1, with_iso = make_platform(sequential=True)
    _n2, without = make_platform(sequential=False)
    r_iso = invoke_twice(with_iso)
    r_plain = invoke_twice(without)
    assert r_iso[1].exec >= r_plain[1].exec


def test_process_address_space_swapped():
    node, platform = make_platform(sequential=True)
    invoke_twice(platform)
    inst = warm_instance(platform)
    sandbox = inst.payload
    fn_procs = [p for p in sandbox.live_processes
                if p is not sandbox.init_process]
    assert any(p.address_space is inst.space for p in fn_procs)


def test_memory_accounting_balanced_after_rollbacks():
    node, platform = make_platform(sequential=True)
    invoke_twice(platform)
    # function-anon equals exactly the live instances' local pages.
    total_local = sum(i.space.local_bytes
                      for i in platform.warm.idle_instances())
    assert node.memory.usage.get("function-anon", 0) == total_local
