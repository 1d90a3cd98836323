"""Security properties of repurposing (§8.1)."""

import numpy as np
import pytest

from repro.container.runtime import ContainerRuntime
from repro.core.mm_template import (MMTemplateError, MMTemplateRegistry,
                                    build_template_for_function)
from repro.core.repurpose import RepurposableSandboxPool, Repurposer
from repro.criu.images import SnapshotImage
from repro.mem.layout import GB
from repro.mem.pools import CXLPool, DedupStore
from repro.node import Node
from repro.workloads.functions import function_by_name


def setup():
    node = Node(seed=77)
    runtime = ContainerRuntime(node)
    registry = MMTemplateRegistry(node.sim, node.latency)
    store = DedupStore(CXLPool(8 * GB))
    rep = Repurposer(node, runtime, registry)
    return node, runtime, registry, store, rep


def run_messy_tenant(node, runtime, func="JS"):
    """A tenant that leaves every kind of residue behind."""
    def proc():
        sb = yield from runtime.create_sandbox_cold(func)
        p = yield from runtime.bootstrap_function(sb, function_by_name(func))
        # Residue: open connections, firewall edits, secret files,
        # dirty anonymous memory.
        sb.netns.open_connection(42, nbytes=1 << 20)
        sb.netns.add_firewall_rule("allow attacker")
        sb.function_overlay.write_file("/tmp/secrets.txt", 4096)
        sb.function_overlay.delete_file("/etc/passwd")
        total = p.address_space.total_pages
        p.address_space.access(np.array([], dtype=np.int64),
                               np.arange(total - 64, total))
        return sb

    return node.sim.run_process(proc())


class TestNoDataLeakAcrossTenants:
    def test_cleansed_sandbox_has_no_residue(self):
        node, runtime, registry, store, rep = setup()
        sb = run_messy_tenant(node, runtime)
        node.sim.run_process(rep.cleanse(sb))
        node.sim.run()
        assert not sb.leaks_previous_tenant()
        assert sb.netns.connections == set()
        assert sb.netns.firewall_rules == []        # customised => reset
        assert sb.function_overlay is None

    def test_next_tenant_sees_clean_overlay(self):
        node, runtime, registry, store, rep = setup()
        sb = run_messy_tenant(node, runtime, "JS")
        profile = function_by_name("CR")
        image = SnapshotImage.from_profile(profile)
        template = build_template_for_function(registry, image, store)

        def proc():
            yield from rep.cleanse(sb)
            yield from rep.repurpose(sb, profile, image, template)

        node.sim.run_process(proc())
        overlay = sb.function_overlay
        assert not overlay.dirty
        assert overlay.read_visible("/etc/passwd")   # whiteout purged
        assert "/tmp/secrets.txt" not in overlay.upper

    def test_previous_tenant_memory_is_gone(self):
        node, runtime, registry, store, rep = setup()
        sb = run_messy_tenant(node, runtime)
        old_procs = list(sb.live_processes)

        def proc():
            yield from rep.cleanse(sb)

        node.sim.run_process(proc())
        for p in old_procs:
            if p is not sb.init_process:
                assert not p.alive
                assert p.address_space.destroyed

    def test_pool_refuses_leaky_sandbox(self):
        node, runtime, registry, store, rep = setup()
        sb = run_messy_tenant(node, runtime)
        pool = RepurposableSandboxPool()
        with pytest.raises(AssertionError):
            pool.put(sb)

    def test_netns_statistics_persist_but_carry_no_payload(self):
        """§8.1.1: veth byte counters survive reuse — they do not expose
        data produced during processing."""
        node, runtime, registry, store, rep = setup()
        sb = run_messy_tenant(node, runtime)
        node.sim.run_process(rep.cleanse(sb))
        assert sb.netns.veth_rx_bytes > 0
        assert sb.netns.connections == set()


class TestTemplateIsolation:
    def test_mm_template_device_is_root_only(self):
        node, *_ = setup()
        registry = MMTemplateRegistry(node.sim)
        with pytest.raises(MMTemplateError, match="root"):
            registry.mmt_create("X", as_root=False)

    def test_writes_never_reach_the_shared_pool(self):
        """CoW: instance writes must not mutate the pool-resident copy."""
        node, runtime, registry, store, rep = setup()
        profile = function_by_name("DH")
        image = SnapshotImage.from_profile(profile)
        template = build_template_for_function(registry, image, store)
        from repro.mem.address_space import AddressSpace, PTE_REMOTE_RO

        a, b = AddressSpace("a"), AddressSpace("b")

        def proc():
            yield from registry.mmt_attach(template, a)
            yield from registry.mmt_attach(template, b)

        node.sim.run_process(proc())
        total = a.total_pages
        a.access(np.array([], dtype=np.int64),
                 np.arange(total - 128, total))
        # b still maps the pristine shared pages.
        for vma in b.vmas:
            assert (vma.state != 1).all() or vma.name.startswith("heap")
        tail = b.vmas[-1]
        assert (tail.state == PTE_REMOTE_RO).all()

    def test_aslr_limitation_documented_in_behaviour(self):
        """§8.1.2(1): all instances of a template share the same layout
        — a known limitation of every C/R-based scheme."""
        node, runtime, registry, store, rep = setup()
        profile = function_by_name("DH")
        image = SnapshotImage.from_profile(profile)
        template = build_template_for_function(registry, image, store)
        from repro.mem.address_space import AddressSpace

        spaces = [AddressSpace(f"i{i}") for i in range(3)]

        def proc():
            for s in spaces:
                yield from registry.mmt_attach(template, s)

        node.sim.run_process(proc())
        layouts = [[(v.name, v.start) for v in s.vmas] for s in spaces]
        assert layouts[0] == layouts[1] == layouts[2]
