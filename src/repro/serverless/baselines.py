"""Baseline platforms: faasd, CRIU, REAP(+) and FaaSnap(+).

* **faasd** — keep-alive caching plus full cold starts (sandbox build +
  runtime bootstrap).
* **CRIU** — cold starts replaced by snapshot restore: same sandbox
  build, but memory arrives via the copy-based restore path.
* **REAP / FaaSnap** — Firecracker-style microVMs with lazy snapshot
  restore through a userfaultfd handler.  REAP prefetches the recorded
  working set eagerly (blocking); FaaSnap overlaps the prefetch with
  execution (§9.1).  The ``+`` variants recycle network namespaces
  through a pool, matching the papers' enhanced baselines.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.container.runtime import ContainerRuntime
from repro.criu.images import SnapshotImage
from repro.mem.layout import GB, MB
from repro.mem.pools import DedupStore, MemoryPool
from repro.mem.trace import AccessTrace
from repro.node import Node
from repro.serverless.base import Instance, ServerlessPlatform
from repro.sim.engine import Delay
from repro.vm.hypervisor import Hypervisor, RestoreMode
from repro.vm.microvm import GuestConfig, MicroVM, StorageMode
from repro.workloads.functions import FunctionProfile

#: Guest-kernel working set restored alongside the function's (REAP
#: records *all* faulting pages of the VM, incl. kernel ones).
_GUEST_EXTRA_WS_BYTES = 16 * MB


class FaasdPlatform(ServerlessPlatform):
    """Plain faasd: cold start = sandbox build + bootstrap."""

    name = "faasd"

    def __init__(self, node: Node, keep_alive: float = 600.0, seed: int = 0):
        super().__init__(node, keep_alive, seed)
        self.runtime = ContainerRuntime(node)

    def _acquire(self, profile: FunctionProfile, ctx=None) -> Generator:
        sandbox = yield from self.runtime.create_sandbox_cold(profile.name)
        proc = yield from self.runtime.bootstrap_function(sandbox, profile)
        inst = Instance(profile, proc.address_space, payload=sandbox)
        return inst, "cold"

    def _retire(self, inst: Instance) -> Generator:
        inst.retired = True
        yield from self.runtime.destroy_sandbox(inst.payload)


class CRIUPlatform(ServerlessPlatform):
    """faasd + CRIU: snapshot restore instead of bootstrap."""

    name = "criu"

    def __init__(self, node: Node, keep_alive: float = 600.0, seed: int = 0):
        super().__init__(node, keep_alive, seed)
        self.runtime = ContainerRuntime(node)
        self.images: Dict[str, SnapshotImage] = {}

    def _preprocess(self, profile: FunctionProfile) -> None:
        self.images[profile.name] = SnapshotImage.from_profile(profile)

    def _acquire(self, profile: FunctionProfile, ctx=None) -> Generator:
        sandbox = yield from self.runtime.create_sandbox_cold(profile.name)
        image = self.images[profile.name]
        proc = yield from self.node.criu.restore_full(
            image, f"{profile.name}@{sandbox.sandbox_id}",
            on_local_delta=self.node.memory.page_delta_hook("function-anon"),
            ctx=ctx)
        sandbox.processes.append(proc)
        inst = Instance(profile, proc.address_space, payload=sandbox)
        return inst, "restored"

    def _retire(self, inst: Instance) -> Generator:
        inst.retired = True
        yield from self.runtime.destroy_sandbox(inst.payload)


class UffdTmpfsPool(MemoryPool):
    """Snapshot file on (CXL-backed) tmpfs, served via userfaultfd.

    Each on-demand page costs the userspace fault round trip plus a VM
    exit — the "several microseconds by the OS, even when their snapshots
    are stored on a CXL-based tmpfs" of §9.2.2.
    """

    name = "tmpfs"
    byte_addressable = False

    def _fetch_time(self, npages: int, concurrency: int = 1) -> float:
        lat = self.latency
        per_page = (lat.mem.userfaultfd_fault + lat.vm.vm_exit
                    + 4096 / 16e9)
        return npages * per_page

    def _read_overhead(self, nloads: int) -> float:
        return 0.0


class _LazyVMPlatform(ServerlessPlatform):
    """Shared machinery for REAP/FaaSnap."""

    #: Fraction of the working-set prefetch that blocks startup.
    prefetch_blocking_fraction = 1.0

    def __init__(self, node: Node, keep_alive: float = 600.0, seed: int = 0,
                 netns_pool: bool = True):
        super().__init__(node, keep_alive, seed)
        self.hypervisor = Hypervisor(node, host_cache=self.host_cache,
                                     file_registry=self.files)
        self.netns_pool_enabled = netns_pool
        self._free_netns = 0
        self.images: Dict[str, SnapshotImage] = {}
        self.tmpfs = UffdTmpfsPool(64 * GB, node.latency)
        self.store = DedupStore(self.tmpfs)
        self.blocks: Dict[str, list] = {}
        self.register_pool(self.tmpfs)

    def _preprocess(self, profile: FunctionProfile) -> None:
        image = SnapshotImage.from_profile(profile)
        self.images[profile.name] = image
        self.blocks[profile.name] = [
            self.store.store_image(content)
            for _vma, content in image.vma_content_slices()]

    def _acquire(self, profile: FunctionProfile, ctx=None) -> Generator:
        node = self.node
        if self.netns_pool_enabled and self._free_netns > 0:
            self._free_netns -= 1
        else:
            yield from node.namespaces.create_netns()
        cgroup = yield from node.cgroups.create(f"jail-{profile.name}")
        yield from node.cgroups.migrate(0, cgroup)
        vm = yield from self.hypervisor.spawn_vm(
            GuestConfig(vcpus=2, mem_bytes=2 * GB,
                        storage=StorageMode.VIRTIO_BLK),
            name=f"{self.name}-{profile.name}")
        yield from self.hypervisor.restore_snapshot(vm, profile.mem_bytes,
                                                    RestoreMode.LAZY)
        self._bind_lazy_image(vm, profile)
        yield from self._prefetch_working_set(vm, profile)
        inst = Instance(profile, vm.guest_memory, payload=vm)
        return inst, "restored"

    def _bind_lazy_image(self, vm: MicroVM, profile: FunctionProfile) -> None:
        image = self.images[profile.name]
        space = vm.guest_memory
        slices = image.vma_content_slices()
        # The whole layout first, so the PTE table is allocated once.
        vmas = [space.add_vma(vma_desc.name, vma_desc.npages,
                              vma_desc.prot, vma_desc.flags)
                for vma_desc, _content in slices]
        for vma, (_desc, content), block in zip(vmas, slices,
                                                self.blocks[profile.name]):
            vma.content[:] = content
            space.bind_remote(vma, block, valid=False)

    def _prefetch_working_set(self, vm: MicroVM, profile: FunctionProfile
                              ) -> Generator:
        """Load the recorded working set from the snapshot file.

        REAP blocks on the whole batched read; FaaSnap overlaps most of
        it with execution (``prefetch_blocking_fraction``).
        """
        ws = profile.base_trace(self.trace_rng)
        ws_bytes = ws.touched_pages * 4096 + _GUEST_EXTRA_WS_BYTES
        blocking = (self.node.latency.memory_copy(ws_bytes)
                    * self.prefetch_blocking_fraction)
        yield Delay(blocking)
        # Materialise the prefetched pages (memory charged; time already
        # accounted by the batched copy above).
        vm.guest_memory.access(ws.read_pages, ws.write_pages)

    def _file_io(self, inst: Instance, profile: FunctionProfile) -> float:
        vm: MicroVM = inst.payload
        read_bytes = int(profile.file_io_bytes * 0.75)
        write_bytes = profile.file_io_bytes - read_bytes
        io = vm.read_files(read_bytes, f"data-{profile.name}",
                           ctx=inst.obs_ctx)
        io += vm.read_files(write_bytes, f"scratch-{profile.name}",
                            write=True, ctx=inst.obs_ctx)
        return io

    def _retire(self, inst: Instance) -> Generator:
        inst.retired = True
        yield from self.hypervisor.destroy_vm(inst.payload)
        if self.netns_pool_enabled:
            self._free_netns += 1


class ReapPlatform(_LazyVMPlatform):
    """REAP(+): eager, blocking working-set prefetch."""

    name = "reap"
    prefetch_blocking_fraction = 1.0


class FaasnapPlatform(_LazyVMPlatform):
    """FaaSnap(+): asynchronous prefetch overlapped with execution."""

    name = "faasnap"
    prefetch_blocking_fraction = 0.25
