import pytest

from repro.mem.layout import GB, MB
from repro.node import Node
from repro.vm.hypervisor import Hypervisor, RestoreMode
from repro.vm.microvm import (GUEST_KERNEL_RSS, VMM_OVERHEAD, GuestConfig,
                              StorageMode, VMState)


def make_hv():
    node = Node()
    return node, Hypervisor(node)


def spawn(node, hv, storage=StorageMode.VIRTIO_BLK):
    def proc():
        vm = yield from hv.spawn_vm(GuestConfig(storage=storage))
        return vm

    return node.sim.run_process(proc())


class TestLifecycle:
    def test_spawn_charges_overheads(self):
        node, hv = make_hv()
        vm = spawn(node, hv)
        assert node.memory.usage["vmm-overhead"] == VMM_OVERHEAD
        assert node.memory.usage["vm-guest-kernel"] == GUEST_KERNEL_RSS
        assert vm.resident_bytes == VMM_OVERHEAD + GUEST_KERNEL_RSS

    def test_destroy_releases_everything(self):
        node, hv = make_hv()
        vm = spawn(node, hv)
        vm.read_files(10 * MB)

        def proc():
            yield from hv.destroy_vm(vm)

        node.sim.run_process(proc())
        assert vm.state == VMState.DESTROYED
        assert node.memory.usage["vmm-overhead"] == 0
        assert node.memory.usage["vm-guest-cache"] == 0

    def test_cold_boot_takes_guest_boot_time(self):
        node, hv = make_hv()

        def proc():
            vm = yield from hv.spawn_vm(GuestConfig())
            start = node.sim.now
            yield from hv.boot_cold(vm)
            return vm, node.sim.now - start

        vm, elapsed = node.sim.run_process(proc())
        assert vm.state == VMState.RUNNING
        assert elapsed == pytest.approx(0.125, rel=0.01)

    def test_read_after_destroy_raises(self):
        node, hv = make_hv()
        vm = spawn(node, hv)

        def proc():
            yield from hv.destroy_vm(vm)

        node.sim.run_process(proc())
        with pytest.raises(RuntimeError):
            vm.read_files(MB)


class TestRestoreModes:
    def run_restore(self, mode, snapshot_bytes=2 * GB):
        node, hv = make_hv()

        def proc():
            vm = yield from hv.spawn_vm(GuestConfig())
            start = node.sim.now
            yield from hv.restore_snapshot(vm, snapshot_bytes, mode)
            return node.sim.now - start

        return node.sim.run_process(proc())

    def test_copy_restore_exceeds_700ms_for_2gb(self):
        """§9.6.1: vanilla CH full-copy restore >700 ms."""
        assert self.run_restore(RestoreMode.COPY) > 0.7

    def test_lazy_restore_fast(self):
        assert self.run_restore(RestoreMode.LAZY) < 0.05

    def test_template_restore_fastest(self):
        t_template = self.run_restore(RestoreMode.TEMPLATE)
        t_lazy = self.run_restore(RestoreMode.LAZY)
        assert t_template < t_lazy

    def test_copy_scales_with_snapshot_size(self):
        small = self.run_restore(RestoreMode.COPY, snapshot_bytes=256 * MB)
        large = self.run_restore(RestoreMode.COPY, snapshot_bytes=2 * GB)
        assert large > 4 * small


class TestStorageModes:
    def test_virtio_blk_double_caches(self):
        node, hv = make_hv()
        vm = spawn(node, hv, StorageMode.VIRTIO_BLK)
        vm.read_files(100 * MB, "libchromium.so")
        assert node.memory.usage["vm-guest-cache"] == pytest.approx(
            100 * MB, abs=4096)
        assert node.memory.usage["host-page-cache"] == pytest.approx(
            100 * MB, abs=4096)

    def test_virtio_blk_no_cross_vm_sharing(self):
        node, hv = make_hv()
        a = spawn(node, hv, StorageMode.VIRTIO_BLK)
        b = spawn(node, hv, StorageMode.VIRTIO_BLK)
        a.read_files(100 * MB, "libchromium.so")
        b.read_files(100 * MB, "libchromium.so")
        # Same content, two VMs: everything duplicated (4 copies total).
        assert node.memory.usage["host-page-cache"] == pytest.approx(
            200 * MB, abs=8192)
        assert node.memory.usage["vm-guest-cache"] == pytest.approx(
            200 * MB, abs=8192)

    def test_pmem_union_single_host_copy(self):
        node, hv = make_hv()
        a = spawn(node, hv, StorageMode.PMEM_UNION)
        b = spawn(node, hv, StorageMode.PMEM_UNION)
        a.read_files(100 * MB, "libchromium.so")
        b.read_files(100 * MB, "libchromium.so")
        # One shared host copy; guest caches bypassed entirely.
        assert node.memory.usage["host-page-cache"] == pytest.approx(
            100 * MB, abs=4096)
        assert node.memory.usage.get("vm-guest-cache", 0) == 0

    def test_virtiofs_dax_shares_host_but_not_templates(self):
        node, hv = make_hv()
        a = spawn(node, hv, StorageMode.VIRTIOFS_DAX)
        b = spawn(node, hv, StorageMode.VIRTIOFS_DAX)
        a.read_files(50 * MB, "libc.so")
        b.read_files(50 * MB, "libc.so")
        assert node.memory.usage["host-page-cache"] == pytest.approx(
            50 * MB, abs=4096)

    def test_pmem_writes_bypass_host_cache(self):
        node, hv = make_hv()
        vm = spawn(node, hv, StorageMode.PMEM_UNION)
        vm.read_files(10 * MB, "scratch.dat", write=True)
        assert node.memory.usage.get("host-page-cache", 0) == 0
        assert node.memory.usage["vm-guest-cache"] == pytest.approx(
            10 * MB, abs=4096)

    def test_blk_writes_double_cache(self):
        node, hv = make_hv()
        vm = spawn(node, hv, StorageMode.VIRTIO_BLK)
        vm.read_files(10 * MB, "scratch.dat", write=True)
        assert node.memory.usage["host-page-cache"] == pytest.approx(
            10 * MB, abs=4096)

    def test_repeat_reads_hit_cache(self):
        node, hv = make_hv()
        vm = spawn(node, hv, StorageMode.VIRTIO_BLK)
        t1 = vm.read_files(10 * MB, "f")
        t2 = vm.read_files(10 * MB, "f")
        assert t1 > 0
        assert t2 == 0.0

    def test_pmem_reads_faster_than_blk(self):
        node, hv = make_hv()
        blk = spawn(node, hv, StorageMode.VIRTIO_BLK)
        pmem = spawn(node, hv, StorageMode.PMEM_UNION)
        assert pmem.read_files(50 * MB) < blk.read_files(50 * MB)


class TestJailer:
    def test_e2b_costs_dominated_by_net_and_migration(self):
        node, hv = make_hv()

        def proc():
            start = node.sim.now
            yield from hv.create_jailer_sandbox(e2b_costs=True)
            return node.sim.now - start

        elapsed = node.sim.run_process(proc())
        # 97 ms net + 63 ms migration + cgroup create.
        assert 0.16 < elapsed < 0.25

    def test_pooled_netns_and_clone_into_cheap(self):
        node, hv = make_hv()

        def proc():
            start = node.sim.now
            yield from hv.create_jailer_sandbox(netns_pooled=True,
                                                clone_into_cgroup=True)
            return node.sim.now - start

        elapsed = node.sim.run_process(proc())
        assert elapsed < 0.04   # cgroup create + clone_into only
