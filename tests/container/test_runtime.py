import pytest

from repro.container.container import SANDBOX_KERNEL_OVERHEAD, SandboxState
from repro.container.rootfs import (FUNCTION_MOUNTPOINT, FunctionOverlayPool,
                                    RootfsBuilder)
from repro.container.runtime import ContainerRuntime
from repro.kernel.mounts import MountTable
from repro.node import Node
from repro.workloads.functions import function_by_name


def make_runtime():
    node = Node()
    return node, ContainerRuntime(node)


class TestColdCreate:
    def test_cold_create_assembles_everything(self):
        node, runtime = make_runtime()

        def proc():
            sb = yield from runtime.create_sandbox_cold("JS")
            return sb, node.now

        sb, elapsed = sim_run(node, proc())
        assert sb.state == SandboxState.ACTIVE
        assert sb.function == "JS"
        assert sb.mount_table.root_pivoted
        assert len(sb.mount_table.device_nodes) == 6
        assert sb.mount_table.visible(FUNCTION_MOUNTPOINT) is sb.function_overlay
        assert len(sb.live_processes) == 1        # the init proc
        # Cold path: netns (80 ms) + rootfs + cgroup create + migrate.
        assert 0.12 < elapsed < 0.30

    def test_cold_create_charges_kernel_overhead(self):
        node, runtime = make_runtime()
        sim_run(node, _create(runtime, "JS"))
        assert node.memory.usage["sandbox-kernel"] == SANDBOX_KERNEL_OVERHEAD

    def test_concurrent_cold_creates_contend_on_netns(self):
        node, runtime = make_runtime()
        finish = []

        def one():
            yield from runtime.create_sandbox_cold("JS")
            finish.append(node.now)

        for _ in range(15):
            node.sim.spawn(one())
        node.sim.run()
        # §3.3: 15 concurrent starts push network setup alone to ~400 ms.
        assert max(finish) > 0.4

    def test_clone_into_cgroup_variant_faster(self):
        def run(flag):
            node, runtime = make_runtime()

            def proc():
                yield from runtime.create_sandbox_cold("JS",
                                                       clone_into_cgroup=flag)
                return node.now

            return sim_run_value(node, proc())

        assert run(True) < run(False)


class TestDestroy:
    def test_destroy_releases_everything(self):
        node, runtime = make_runtime()

        def proc():
            sb = yield from runtime.create_sandbox_cold("JS")
            yield from runtime.destroy_sandbox(sb)
            return sb

        sb = sim_run_value(node, proc())
        assert sb.state == SandboxState.DESTROYED
        assert not sb.live_processes
        assert node.memory.usage["sandbox-kernel"] == 0


class TestBootstrap:
    def test_bootstrap_populates_full_image(self):
        node, runtime = make_runtime()
        profile = function_by_name("JS")

        def proc():
            sb = yield from runtime.create_sandbox_cold("JS")
            start = node.now
            p = yield from runtime.bootstrap_function(sb, profile)
            return sb, p, node.now - start

        sb, p, elapsed = sim_run(node, proc())
        assert p.threads == profile.n_threads
        assert p.address_space.local_pages == profile.image_pages
        assert elapsed > profile.bootstrap_time
        assert node.memory.usage["function-anon"] == pytest.approx(
            profile.mem_bytes, abs=4096)

    def test_bootstrap_cpu_shared_under_load(self):
        node = Node(cores=1)
        runtime = ContainerRuntime(node)
        profile = function_by_name("CR")  # 0.4 s bootstrap
        finish = []

        def one():
            sb = yield from runtime.create_sandbox_cold("CR")
            yield from runtime.bootstrap_function(sb, profile)
            finish.append(node.now)

        for _ in range(4):
            node.sim.spawn(one())
        node.sim.run()
        # 4 bootstraps on one core: ~4x one bootstrap's CPU time.
        assert max(finish) > 4 * profile.bootstrap_time


class TestOverlayPool:
    def test_acquire_miss_then_hit(self):
        node = Node()
        pool = FunctionOverlayPool(node.sim, node.latency)

        def proc():
            ov = yield from pool.acquire("JS")
            yield from pool.release("JS", ov)
            ov2 = yield from pool.acquire("JS")
            return ov, ov2

        ov, ov2 = sim_run(node, proc())
        assert ov is ov2
        assert pool.hits == 1
        assert pool.misses == 1

    def test_release_purges_modifications(self):
        node = Node()
        pool = FunctionOverlayPool(node.sim, node.latency)

        def proc():
            ov = yield from pool.acquire("JS")
            ov.write_file("/tmp/leak", 100)
            yield from pool.release("JS", ov)
            ov2 = yield from pool.acquire("JS")
            return ov2

        ov2 = sim_run(node, proc())
        assert not ov2.dirty
        assert not ov2.stale_inode_cache

    def test_pool_per_function(self):
        node = Node()
        pool = FunctionOverlayPool(node.sim, node.latency)

        def proc():
            ov = yield from pool.acquire("JS")
            yield from pool.release("JS", ov)
            other = yield from pool.acquire("DH")
            return other

        other = sim_run(node, proc())
        assert "DH" in other.label
        assert pool.pooled_count("JS") == 1


class TestSwap:
    def test_swap_function_overlay_two_fast_mounts(self):
        node = Node()
        builder = RootfsBuilder(node.sim, node.latency)
        table = MountTable(node.sim, node.latency)

        def proc():
            yield from builder.build_cold(table, "JS")
            mounts_before = table.stats["mount"]
            start = node.now
            pool = FunctionOverlayPool(node.sim, node.latency)
            ov = yield from pool.acquire("DH")
            yield from builder.swap_function_overlay(table, ov)
            return table.stats["mount"] - mounts_before, node.now - start

        extra_mounts, elapsed = sim_run(node, proc())
        assert extra_mounts == 2   # function overlay + /proc (§5.2.1)
        # Reconfiguration completes in ~1 ms plus overlay assembly.
        assert elapsed < 0.020


def sim_run(node, gen):
    return node.sim.run_process(gen)


def sim_run_value(node, gen):
    return node.sim.run_process(gen)


def _create(runtime, fn):
    def proc():
        sb = yield from runtime.create_sandbox_cold(fn)
        return sb
    return proc()
