"""Rootfs assembly: the cold path and the per-function overlay pool.

Cold start (§5.2.1 "Compared with Cold Start"): >9 ``mount`` calls,
6 ``mkdev``/``mknod``, and a ``pivot_root`` to assemble sysfs, procfs,
/dev nodes and the union root.  TrEnv instead keeps a pool of
pre-assembled function-specific overlays and overmounts one atop the
pooled sandbox's base rootfs — two mounts minimum.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.kernel.mounts import MountTable, OverlayFS, SimpleFS
from repro.sim.engine import Delay, Simulator
from repro.sim.latency import LatencyModel

#: The standard mountpoints a Docker-grade rootfs carries.
_COLD_MOUNTPOINTS = (
    ("/", "overlay"),
    ("/sys", "sysfs"),
    ("/proc", "proc"),
    ("/dev", "devtmpfs"),
    ("/dev/pts", "devpts"),
    ("/dev/shm", "tmpfs"),
    ("/dev/mqueue", "mqueue"),
    ("/sys/fs/cgroup", "cgroup2"),
    ("/tmp", "tmpfs"),
)

_DEVICE_NODES = ("/dev/null", "/dev/zero", "/dev/full", "/dev/random",
                 "/dev/urandom", "/dev/tty")

#: Overmount path for the function-specific dependency overlay.
FUNCTION_MOUNTPOINT = "/opt/function"


class RootfsBuilder:
    """Builds cold rootfs and reconfigures pooled ones."""

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None):
        self.sim = sim
        self.latency = latency or LatencyModel()

    def build_cold(self, table: MountTable, function: str
                   ) -> Generator:
        """Timed: assemble a complete rootfs from scratch.

        Returns the base :class:`OverlayFS` mounted at ``/`` with the
        function's dependency overlay at the function mountpoint.
        """
        lat = self.latency.rootfs
        yield Delay(lat.overlay_assemble)
        base = OverlayFS(("os-base",), label="base")
        for path, fstype in _COLD_MOUNTPOINTS:
            fs = base if fstype == "overlay" else SimpleFS(fstype)
            yield from table.mount(path, fs)
        for node in _DEVICE_NODES:
            yield from table.mknod(node)
        fn_overlay = OverlayFS(("os-base", f"deps-{function}"),
                               label=f"fn-{function}")
        yield from table.mount(FUNCTION_MOUNTPOINT, fn_overlay)
        yield from table.pivot_root()
        return base, fn_overlay

    def swap_function_overlay(self, table: MountTable,
                              new_overlay: OverlayFS) -> Generator:
        """Timed: TrEnv reconfiguration (Figure 13 steps 2–3).

        Unmounts the previous function overlay (if any) and overmounts
        the new one.  The upper-dir purge of the *old* overlay is the
        caller's business (it runs asynchronously, §5.2.1).
        """
        old = None
        if table.mount_depth(FUNCTION_MOUNTPOINT) > 0:
            old = yield from table.umount(FUNCTION_MOUNTPOINT)
        yield from table.mount(FUNCTION_MOUNTPOINT, new_overlay, fast=True)
        # /proc must be remounted for the new pid view (the second of the
        # "only 2 mounts" §5.2.1 mentions).
        yield from table.mount("/proc", SimpleFS("proc"), fast=True)
        return old


class FunctionOverlayPool:
    """Pool of pre-assembled function-specific overlays (§5.2.1).

    Instead of discarding an unmounted overlay, TrEnv parks it for the
    next instance of that function; assembly cost is paid only on pool
    misses.
    """

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self._free: Dict[str, List[OverlayFS]] = {}
        self.hits = 0
        self.misses = 0

    def prewarm(self, function: str, count: int = 1) -> None:
        """Pre-assemble overlays off the critical path (registration time).

        Offline preprocessing is untimed relative to invocations, like
        snapshot generation (§4 step A).
        """
        free = self._free.setdefault(function, [])
        for _ in range(count):
            free.append(OverlayFS(("os-base", f"deps-{function}"),
                                  label=f"fn-{function}"))

    def acquire(self, function: str) -> Generator:
        """Timed: get a clean overlay for ``function``."""
        free = self._free.get(function)
        if free:
            self.hits += 1
            overlay = free.pop()
            if False:
                yield  # pragma: no cover - generator marker
            return overlay
        self.misses += 1
        yield Delay(self.latency.rootfs.overlay_assemble)
        return OverlayFS(("os-base", f"deps-{function}"),
                         label=f"fn-{function}")

    def release(self, function: str, overlay: OverlayFS) -> Generator:
        """Timed: purge modifications and park the overlay.

        Purging deletes the upper dir and needs a remount-equivalent
        flush of stale inodes; TrEnv runs this off the critical path, so
        callers typically ``sim.spawn`` this generator.
        """
        overlay.purge_upper()
        yield Delay(self.latency.rootfs.purge_upper_sync)
        overlay.stale_inode_cache = False
        self._free.setdefault(function, []).append(overlay)

    def pooled_count(self, function: str) -> int:
        return len(self._free.get(function, []))
