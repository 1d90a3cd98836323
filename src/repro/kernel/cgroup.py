"""Cgroups: creation, migration, and the CLONE_INTO_CGROUP fast path.

§4.1/§5.2.2: creating a cgroup costs 16–32 ms; *migrating* an existing
process into it costs another 10–50 ms because the kernel's migration
path takes two global read-write semaphores whose RCU grace periods
dominate (Figure 14).  TrEnv avoids migration entirely by assigning the
cgroup at ``clone3()`` time (CLONE_INTO_CGROUP, 100–300 µs), and reuses
pooled cgroups by rewriting their limits (~0.5 ms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Set

from repro.obs import hooks
from repro.sim.engine import Delay, Simulator
from repro.sim.latency import LatencyModel
from repro.sim.rng import SeededRNG


@dataclass
class CgroupLimits:
    """Resource limits applied to one sandbox."""

    cpu_quota: float = 1.0          # cores
    memory_bytes: int = 2 << 30
    blkio_weight: int = 100

    def __eq__(self, other) -> bool:
        return (isinstance(other, CgroupLimits)
                and self.cpu_quota == other.cpu_quota
                and self.memory_bytes == other.memory_bytes
                and self.blkio_weight == other.blkio_weight)


class Cgroup:
    """One cgroup: limits plus the set of member processes."""

    _ids = itertools.count(1)

    def __init__(self, name: str, limits: CgroupLimits):
        self.cg_id = next(Cgroup._ids)
        self.name = name
        self.limits = limits
        self.procs: Set[int] = set()
        self.frozen = False
        if hooks.on_cgroup_created is not None:
            hooks.on_cgroup_created(self)

    @property
    def empty(self) -> bool:
        return not self.procs

    def __repr__(self) -> str:
        return f"<cgroup {self.name} #{self.cg_id} procs={len(self.procs)}>"


class CgroupManager:
    """Timed cgroup operations with call statistics."""

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None,
                 rng: Optional[SeededRNG] = None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.rng = rng or SeededRNG(0, "cgroup")
        self.stats: Dict[str, int] = {
            "create": 0, "migrate": 0, "clone_into": 0, "reconfigure": 0}

    def create(self, name: str, limits: Optional[CgroupLimits] = None
               ) -> Generator:
        """Timed: mkdir + controller attachment (16–32 ms)."""
        lat = self.latency.cgroup
        yield Delay(self.rng.uniform(lat.create_min, lat.create_max))
        self.stats["create"] += 1
        return Cgroup(name, limits or CgroupLimits())

    def migrate(self, pid: int, cgroup: Cgroup) -> Generator:
        """Timed: move an existing process (the slow RCU path, 10–50 ms)."""
        lat = self.latency.cgroup
        yield Delay(self.rng.uniform(lat.migrate_min, lat.migrate_max))
        cgroup.procs.add(pid)
        self.stats["migrate"] += 1
        if hooks.on_cgroup_proc is not None:
            hooks.on_cgroup_proc(cgroup, pid, added=True)

    def clone_into(self, pid: int, cgroup: Cgroup) -> Generator:
        """Timed: CLONE_INTO_CGROUP assignment at spawn (100–300 µs).

        The spawned task is not yet visible to other kernel subsystems,
        so the global synchronisation of the migration path is bypassed
        (§5.2.2).
        """
        lat = self.latency.cgroup
        yield Delay(self.rng.uniform(lat.clone_into_min, lat.clone_into_max))
        cgroup.procs.add(pid)
        self.stats["clone_into"] += 1
        if hooks.on_cgroup_proc is not None:
            hooks.on_cgroup_proc(cgroup, pid, added=True)

    def reconfigure(self, cgroup: Cgroup, limits: CgroupLimits) -> Generator:
        """Timed: rewrite limits on a pooled cgroup during repurposing."""
        yield Delay(self.latency.cgroup.reconfigure)
        cgroup.limits = limits
        self.stats["reconfigure"] += 1

    def remove_proc(self, pid: int, cgroup: Cgroup) -> None:
        cgroup.procs.discard(pid)
        if hooks.on_cgroup_proc is not None:
            hooks.on_cgroup_proc(cgroup, pid, added=False)
