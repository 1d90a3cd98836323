import numpy as np
import pytest

from repro.container.container import SandboxState
from repro.container.runtime import ContainerRuntime
from repro.core.config import TrEnvConfig
from repro.core.mm_template import MMTemplateRegistry, build_template_for_function
from repro.core.repurpose import RepurposableSandboxPool, Repurposer
from repro.criu.images import SnapshotImage
from repro.mem.layout import GB
from repro.mem.pools import CXLPool, DedupStore
from repro.node import Node
from repro.workloads.functions import function_by_name


def setup(config=None):
    node = Node()
    runtime = ContainerRuntime(node)
    registry = MMTemplateRegistry(node.sim, node.latency)
    store = DedupStore(CXLPool(8 * GB))
    rep = Repurposer(node, runtime, registry, config=config)
    return node, runtime, registry, store, rep


def prepare(registry, store, func):
    profile = function_by_name(func)
    image = SnapshotImage.from_profile(profile)
    template = build_template_for_function(registry, image, store)
    return profile, image, template


def run(node, gen):
    return node.sim.run_process(gen)


def make_used_sandbox(node, runtime, func="JS"):
    """A sandbox that ran a function and made a mess."""
    def proc():
        sb = yield from runtime.create_sandbox_cold(func)
        p = yield from runtime.bootstrap_function(sb, function_by_name(func))
        sb.netns.open_connection(1, nbytes=2048)
        sb.function_overlay.write_file("/tmp/result.json", 1 << 20)
        return sb

    return run(node, proc())


class TestCleanse:
    def test_cleanse_removes_all_tenant_state(self):
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime)

        def proc():
            yield from rep.cleanse(sb)

        run(node, proc())
        node.sim.run()   # drain the async overlay purge
        assert not sb.leaks_previous_tenant()
        assert len(sb.live_processes) == 1   # init only
        assert sb.function is None
        assert sb.netns.connections == set()

    def test_cleanse_frees_function_memory(self):
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime)
        assert node.memory.usage["function-anon"] > 0

        def proc():
            yield from rep.cleanse(sb)

        run(node, proc())
        assert node.memory.usage["function-anon"] == 0

    def test_cleanse_resets_customised_network(self):
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime)
        sb.netns.add_firewall_rule("drop tcp/25")

        def proc():
            yield from rep.cleanse(sb)

        run(node, proc())
        assert not sb.netns.customised

    def test_cleansed_overlay_returns_to_pool(self):
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime, "JS")

        def proc():
            yield from rep.cleanse(sb)

        run(node, proc())
        node.sim.run()
        assert rep.overlays.pooled_count("JS") == 1


class TestPool:
    def test_put_take_lifo(self):
        node, runtime, registry, store, rep = setup()
        pool = RepurposableSandboxPool(limit=4)
        sandboxes = []
        for _ in range(2):
            sb = make_used_sandbox(node, runtime)
            run(node, rep.cleanse(sb))
            pool.put(sb)
            sandboxes.append(sb)
        assert len(pool) == 2
        assert pool.take() is sandboxes[-1]
        assert pool.hits == 1

    def test_pool_rejects_dirty_sandbox(self):
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime)
        pool = RepurposableSandboxPool()
        with pytest.raises(AssertionError):
            pool.put(sb)

    def test_pool_limit(self):
        node, runtime, registry, store, rep = setup()
        pool = RepurposableSandboxPool(limit=1)
        a = make_used_sandbox(node, runtime)
        b = make_used_sandbox(node, runtime)
        run(node, rep.cleanse(a))
        run(node, rep.cleanse(b))
        assert pool.put(a)
        assert not pool.put(b)

    def test_take_empty_counts_miss(self):
        pool = RepurposableSandboxPool()
        assert pool.take() is None
        assert pool.misses == 1


class TestRepurpose:
    def test_repurpose_across_function_types(self):
        """The headline capability: a JS (python) sandbox becomes a CR
        (nodejs) instance."""
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime, "JS")
        profile, image, template = prepare(registry, store, "CR")

        rep.overlays.prewarm("CR")

        def proc():
            yield from rep.cleanse(sb)
            start = node.now
            p = yield from rep.repurpose(sb, profile, image, template)
            return p, node.now - start

        p, elapsed = run(node, proc())
        assert sb.function == "CR"
        assert sb.state == SandboxState.ACTIVE
        assert p.threads == profile.n_threads
        assert sb.generation == 1
        # §1: repurposing a container takes <10 ms.
        assert elapsed < 0.010

    def test_repurposed_memory_is_template_backed(self):
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime, "JS")
        profile, image, template = prepare(registry, store, "DH")

        def proc():
            yield from rep.cleanse(sb)
            p = yield from rep.repurpose(sb, profile, image, template)
            return p

        p = run(node, proc())
        # No local pages yet: everything maps the CXL pool.
        assert p.address_space.local_pages == 0
        assert p.address_space.total_pages == image.total_pages

    def test_repurpose_without_template_copies_memory(self):
        """The Figure 21 'Cgroup' configuration: sandbox reuse but
        copy-based restore."""
        config = TrEnvConfig(mm_template=False)
        node, runtime, registry, store, rep = setup(config)
        sb = make_used_sandbox(node, runtime, "JS")
        profile, image, template = prepare(registry, store, "DH")

        def proc():
            yield from rep.cleanse(sb)
            start = node.now
            p = yield from rep.repurpose(sb, profile, image, None)
            return p, node.now - start

        p, elapsed = run(node, proc())
        # Full copy: all pages local, tens of ms for a 50 MB image.
        assert p.address_space.local_pages == image.total_pages
        assert elapsed > 0.025

    def test_clone_into_toggle_affects_latency(self):
        def run_with(flag):
            config = TrEnvConfig(clone_into_cgroup=flag)
            node, runtime, registry, store, rep = setup(config)
            sb = make_used_sandbox(node, runtime, "JS")
            profile, image, template = prepare(registry, store, "DH")

            def proc():
                yield from rep.cleanse(sb)
                start = node.now
                yield from rep.repurpose(sb, profile, image, template)
                return node.now - start

            return run(node, proc())

        fast = run_with(True)
        slow = run_with(False)
        assert slow - fast > 0.009   # at least the min migrate cost

    def test_repeated_repurposing_no_leak(self):
        node, runtime, registry, store, rep = setup()
        sb = make_used_sandbox(node, runtime, "JS")
        names = ["DH", "CR", "IP", "JJS"]

        for name in names:
            rep.overlays.prewarm(name)

        def proc():
            for name in names:
                profile, image, template = prepare(registry, store, name)
                yield from rep.cleanse(sb)
                p = yield from rep.repurpose(sb, profile, image, template)
                # Simulate some dirtying (write to the writable tail).
                total = p.address_space.total_pages
                p.address_space.access(np.array([], dtype=np.int64),
                                       np.arange(total - 50, total))
                sb.netns.open_connection(9)
            return sb

        run(node, proc())
        assert sb.generation == len(names)
        assert sb.function == "JJS"
        # One init + one function process only.
        assert len(sb.live_processes) == 2
