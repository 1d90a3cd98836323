"""MicroVM objects: guest config, storage model, page-cache behaviour.

The double-caching problem (§2.4): with a para-virtualised block device
(virtio-blk), a guest file read populates the *guest* page cache and, via
the host-side emulation, the *host* page cache too — two copies of every
block, per VM (each VM has its own rootfs device file, so host entries do
not even dedup across VMs).

TrEnv's storage model (§6.3, Figure 16): a read-only virtio-pmem **base**
device shared by all VMs (DAX: guest page cache bypassed, host caches one
copy for the whole node) plus a per-VM writable overlay opened with
``O_DIRECT`` (no host cache), unioned inside the guest by overlayfs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.mem.accounting import MemoryAccountant
from repro.mem.address_space import AddressSpace
from repro.mem.layout import GB, MB
from repro.mem.page_cache import FileIdRegistry, PageCache
from repro.obs import hooks

#: Host-side footprint of one VMM process (device emulation, rt threads).
VMM_OVERHEAD = 15 * MB
#: Guest kernel + init system resident set after boot.
GUEST_KERNEL_RSS = 85 * MB


class StorageMode(enum.Enum):
    #: Per-VM virtio-blk rootfs (Firecracker / E2B): double caching.
    VIRTIO_BLK = "virtio-blk"
    #: RunD-style shared rootfs mapping (E2B+): host cache shared, guest
    #: cache bypassed — but incompatible with CoW memory templates (§3.3).
    VIRTIOFS_DAX = "virtiofs-dax"
    #: TrEnv: shared read-only pmem base + O_DIRECT writable overlay.
    PMEM_UNION = "pmem-union"


class VMState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    DESTROYED = "destroyed"


@dataclass(frozen=True)
class GuestConfig:
    """Per-VM resources (§9.6: 1 vCPU, 2–4 GB, 5 GB storage)."""

    vcpus: int = 1
    mem_bytes: int = 2 * GB
    storage: StorageMode = StorageMode.VIRTIO_BLK
    base_image: str = "agent-rootfs"


class MicroVM:
    """One microVM: guest memory, page caches, storage devices."""

    _ids = itertools.count(1)

    def __init__(self, config: GuestConfig, accountant: MemoryAccountant,
                 host_cache: PageCache, file_registry: FileIdRegistry,
                 name: str = ""):
        self.vm_id = next(MicroVM._ids)
        self.config = config
        self.name = name or f"vm{self.vm_id}"
        self.accountant = accountant
        self.state = VMState.CREATED
        # Function/agent anonymous memory inside the guest, seen host-side.
        self.guest_memory = AddressSpace(
            f"{self.name}/guest",
            on_local_delta=accountant.page_delta_hook("vm-guest-anon"))
        # Guest page cache consumes guest RAM (host-visible, it is anon
        # memory of the VMM).
        self.guest_cache = PageCache(
            f"{self.name}/guest-cache",
            on_delta=lambda d: accountant.charge_pages("vm-guest-cache", d))
        # The host page cache is shared across VMs on the node.
        self.host_cache = host_cache
        self.files = file_registry
        self.kernel_charged = False
        self.function: Optional[str] = None
        # Host-cache file ids private to this VM (per-VM device files);
        # reclaimed when the VM is destroyed.  Shared base-image entries
        # are NOT tracked here -- they outlive any one VM.
        self._private_host_fids: set = set()

    # -- lifecycle accounting ------------------------------------------------------

    def charge_base_overheads(self) -> None:
        self.accountant.charge("vmm-overhead", VMM_OVERHEAD)
        self.accountant.charge("vm-guest-kernel", GUEST_KERNEL_RSS)
        self.kernel_charged = True
        if hooks.on_vm_event is not None:
            hooks.on_vm_event("create", self.name,
                                         self.accountant.now())

    def release_all(self) -> None:
        if hooks.on_vm_event is not None:
            hooks.on_vm_event("destroy", self.name,
                                         self.accountant.now())
        if self.kernel_charged:
            self.accountant.charge("vmm-overhead", -VMM_OVERHEAD)
            self.accountant.charge("vm-guest-kernel", -GUEST_KERNEL_RSS)
            self.kernel_charged = False
        self.guest_memory.destroy()
        self.guest_cache.drop_all()
        # The kernel reclaims host page-cache entries of this VM's
        # private device files once they are closed and deleted.
        # Sorted: eviction order feeds the shared accountant's timeline,
        # so it must not depend on set iteration order (SIM003).
        for fid in sorted(self._private_host_fids):
            self.host_cache.evict_file(fid)
        self._private_host_fids.clear()
        self.state = VMState.DESTROYED

    # -- storage model ----------------------------------------------------------------

    def read_files(self, nbytes: int, file_key: str = "rootfs",
                   write: bool = False, offset: int = 0,
                   ctx=None) -> float:
        """Charge page caches for a guest file access; returns IO seconds.

        The return value is the *device-level* IO time (cache-miss
        portion); callers add it to the invocation's IO wait.  ``ctx`` is
        the observing invocation's TraceContext (or None).
        """
        if self.state == VMState.DESTROYED:
            raise RuntimeError(f"{self.name} is destroyed")
        mode = self.config.storage
        if write:
            return self._write_files(nbytes, file_key, offset, ctx=ctx)
        if mode == StorageMode.VIRTIO_BLK:
            # Per-VM device file: guest caches it, host caches it again,
            # and host entries are private to this VM's device.
            guest_fid = self.files.file_id("blk", self.vm_id, file_key)
            fresh_guest = self.guest_cache.charge_file(guest_fid, nbytes,
                                                       offset)
            host_fid = self.files.file_id("blk-host", self.vm_id, file_key)
            self._private_host_fids.add(host_fid)
            self.host_cache.charge_file(host_fid, nbytes, offset)
            io = fresh_guest * 4e-6    # virtio-blk IO per fresh 4K block
        elif mode == StorageMode.VIRTIOFS_DAX:
            # RunD: guest cache bypassed; host cache shared by content.
            host_fid = self.files.file_id("shared", self.config.base_image,
                                          file_key)
            fresh = self.host_cache.charge_file(host_fid, nbytes, offset)
            io = fresh * 2e-6
        elif mode == StorageMode.PMEM_UNION:
            # TrEnv: read-only base via pmem DAX — guest cache bypassed,
            # one host copy per node, near-memory access speed.
            host_fid = self.files.file_id("pmem-base", self.config.base_image,
                                          file_key)
            fresh = self.host_cache.charge_file(host_fid, nbytes, offset)
            io = fresh * 0.25e-6
        else:
            raise AssertionError(f"unhandled storage mode {mode}")
        if hooks.on_vm_io is not None:
            hooks.on_vm_io(f"read-{mode.value}", nbytes, io,
                                      ctx=ctx)
        return io

    def _write_files(self, nbytes: int, file_key: str, offset: int = 0,
                     ctx=None) -> float:
        mode = self.config.storage
        if mode == StorageMode.PMEM_UNION:
            # Writable overlay device opened O_DIRECT: bypasses the host
            # cache entirely; the guest caches its own dirty data.
            guest_fid = self.files.file_id("ovl", self.vm_id, file_key)
            fresh = self.guest_cache.charge_file(guest_fid, nbytes, offset)
            io = fresh * 6e-6   # O_DIRECT write, no host cache
        else:
            # virtio-blk / virtiofs writes: guest + host cache double up.
            guest_fid = self.files.file_id("blk", self.vm_id, file_key)
            fresh = self.guest_cache.charge_file(guest_fid, nbytes, offset)
            host_fid = self.files.file_id("blk-host", self.vm_id, file_key)
            self._private_host_fids.add(host_fid)
            self.host_cache.charge_file(host_fid, nbytes, offset)
            io = fresh * 4e-6
        if hooks.on_vm_io is not None:
            hooks.on_vm_io(f"write-{mode.value}", nbytes, io,
                                      ctx=ctx)
        return io

    @property
    def resident_bytes(self) -> int:
        """Host memory attributable to this VM (excl. shared host cache)."""
        total = self.guest_memory.local_bytes + self.guest_cache.cached_bytes
        if self.kernel_charged:
            total += VMM_OVERHEAD + GUEST_KERNEL_RSS
        return total
