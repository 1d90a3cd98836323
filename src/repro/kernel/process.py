"""Processes and threads.

A simulated process owns an :class:`~repro.mem.address_space.AddressSpace`,
a thread count, file descriptors, and memberships (namespaces, cgroup).
Spawn paths matter for the reproduction: spawning *into* a cgroup
(CLONE_INTO_CGROUP) versus spawn-then-migrate is the difference §5.2.2
measures.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional

from repro.kernel.cgroup import Cgroup, CgroupManager
from repro.mem.address_space import AddressSpace
from repro.sim.engine import Delay, Simulator
from repro.sim.latency import LatencyModel


class Process:
    """One simulated process (a thread group leader)."""

    def __init__(self, pid: int, name: str,
                 address_space: Optional[AddressSpace] = None):
        self.pid = pid
        self.name = name
        self.address_space = address_space or AddressSpace(name=name)
        self.threads = 1
        self.fds: List[str] = ["stdin", "stdout", "stderr"]
        self.namespaces: Dict[str, object] = {}
        self.cgroup: Optional[Cgroup] = None
        self.alive = True
        self.children: List["Process"] = []

    def open_fd(self, description: str) -> int:
        self.fds.append(description)
        return len(self.fds) - 1

    @property
    def memory_bytes(self) -> int:
        return self.address_space.local_bytes

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<proc {self.name} pid={self.pid} {state}>"


class ProcessTable:
    """PID allocation and timed process lifecycle operations."""

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None,
                 cgroups: Optional[CgroupManager] = None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.cgroups = cgroups
        self._pids = itertools.count(100)
        self.procs: Dict[int, Process] = {}

    def _new(self, name: str, address_space: Optional[AddressSpace]) -> Process:
        proc = Process(next(self._pids), name, address_space)
        self.procs[proc.pid] = proc
        return proc

    # -- timed lifecycle -----------------------------------------------------------

    def spawn(self, name: str, address_space: Optional[AddressSpace] = None,
              cgroup: Optional[Cgroup] = None, into_cgroup: bool = False,
              parent: Optional[Process] = None) -> Generator:
        """Timed: fork+exec a new process.

        With ``into_cgroup=True`` the cgroup is assigned at clone time
        (fast); otherwise the process is spawned first and migrated
        (slow), which is what mainstream runtimes like runc still do.
        """
        yield Delay(self.latency.proc.fork + self.latency.proc.exec_spawn)
        proc = self._new(name, address_space)
        if parent is not None:
            parent.children.append(proc)
        if cgroup is not None:
            if self.cgroups is None:
                raise RuntimeError("no CgroupManager wired into ProcessTable")
            if into_cgroup:
                yield from self.cgroups.clone_into(proc.pid, cgroup)
            else:
                yield from self.cgroups.migrate(proc.pid, cgroup)
            proc.cgroup = cgroup
        return proc

    def clone_threads(self, proc: Process, count: int) -> Generator:
        """Timed: restore/create ``count`` additional threads."""
        if count < 0:
            raise ValueError("thread count must be non-negative")
        yield Delay(self.latency.proc.clone_thread * count)
        proc.threads += count

    def kill(self, proc: Process) -> Generator:
        """Timed: SIGKILL + reap; releases the address space."""
        yield Delay(self.latency.proc.kill_process)
        if proc.alive:
            proc.alive = False
            proc.address_space.destroy()
            if proc.cgroup is not None and self.cgroups is not None:
                self.cgroups.remove_proc(proc.pid, proc.cgroup)
            self.procs.pop(proc.pid, None)
        for child in proc.children:
            if child.alive:
                yield from self.kill(child)

    def kill_tree(self, root: Process) -> Generator:
        """Timed: kill a process and every descendant (sandbox cleanse)."""
        yield from self.kill(root)

    @property
    def live_count(self) -> int:
        return sum(1 for p in self.procs.values() if p.alive)
