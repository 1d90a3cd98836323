"""Timed CRIU checkpoint and restore operations.

``restore_full`` is the classic path Figure 8 describes: recreate every
VMA with ``mmap`` (one syscall per VMA), copy the whole memory image from
the snapshot store (the dominant cost — Figure 4's "Mem" bar), then
recover threads, fds and other process state.  TrEnv replaces only the
memory part (steps handled by :mod:`repro.core.mm_template`); thread/fd
recovery is shared ("Handled by CRIU with strong generality", Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.criu.images import SnapshotImage
from repro.kernel.process import Process, ProcessTable
from repro.obs import hooks as obs_hooks
from repro.sim.engine import Delay, Simulator
from repro.sim.latency import LatencyModel


@dataclass
class RestoreStats:
    """Aggregate counters across an engine's lifetime."""

    snapshots: int = 0
    full_restores: int = 0
    bytes_copied: int = 0
    mmap_calls: int = 0
    threads_restored: int = 0


class CRIUEngine:
    """Checkpoint/restore with calibrated costs."""

    def __init__(self, sim: Simulator, procs: ProcessTable,
                 latency: Optional[LatencyModel] = None):
        self.sim = sim
        self.procs = procs
        self.latency = latency or LatencyModel()
        self.stats = RestoreStats()

    # -- preprocessing (off the critical path) ----------------------------------

    def checkpoint(self, process: Process, image: SnapshotImage) -> Generator:
        """Timed: dump a bootstrapped process into a snapshot.

        The image content is synthesised by the caller (from the function
        profile); this op only accounts the dump time: walk + write all
        pages at memcpy speed plus per-thread/fd metadata.
        """
        lat = self.latency
        dump_time = lat.memory_copy(image.nbytes)
        misc = (lat.proc.criu_misc_base
                + lat.proc.criu_misc_per_thread * image.n_threads
                + lat.proc.criu_misc_per_fd * image.n_fds)
        yield Delay(dump_time + misc)
        self.stats.snapshots += 1

    # -- online restoration --------------------------------------------------------

    def restore_full(self, image: SnapshotImage, name: str = "",
                     on_local_delta=None, ctx=None) -> Generator:
        """Timed: classic restore — mmap storm + full memory copy.

        Returns the restored :class:`Process` with every image page
        resident in local DRAM.  ``ctx`` is the observing invocation's
        TraceContext (or None).
        """
        t0 = self.sim.now
        lat = self.latency
        space = image.build_address_space(name or image.function,
                                          on_local_delta=on_local_delta)
        # Step 1: recreate the virtual memory layout (one mmap per VMA).
        yield Delay(lat.mem.mmap_syscall * len(image.vmas))
        self.stats.mmap_calls += len(image.vmas)
        # Step 2: copy the memory image from the snapshot store.  The
        # *simulated* cost is the full-image copy either way; host-side
        # the content ids stay shared CoW with the image
        # (build_address_space) and only PTE state is materialised.
        yield Delay(lat.memory_copy(image.nbytes))
        self.stats.bytes_copied += image.nbytes
        space.populate_all_local()
        # Step 3: restore the process shell, threads, fds, sockets.
        proc = yield from self.procs.spawn(name or image.function,
                                           address_space=space)
        yield from self.restore_process_state(proc, image, ctx=ctx)
        self.stats.full_restores += 1
        act = obs_hooks.active
        if act is not None:
            act.on_criu_restore(image, t0, self.sim.now, ctx)
        return proc

    def restore_process_state(self, proc: Process, image: SnapshotImage,
                              ctx=None) -> Generator:
        """Timed: the non-memory state CRIU recovers (Table 1 "Other")."""
        t0 = self.sim.now
        lat = self.latency
        misc = (lat.proc.criu_misc_base
                + lat.proc.criu_misc_per_thread * (image.n_threads - 1)
                + lat.proc.criu_misc_per_fd * image.n_fds)
        yield Delay(misc)
        yield from self.procs.clone_threads(proc, image.n_threads - 1)
        for i in range(image.n_fds):
            proc.open_fd(f"restored-fd-{i}")
        self.stats.threads_restored += image.n_threads - 1
        act = obs_hooks.active
        if act is not None:
            act.on_proc_state_restore(image, t0, self.sim.now, ctx)
