"""Applies a :class:`FaultPlan` to live pools/platforms on the virtual clock.

The injector schedules every planned event via ``Simulator.call_at`` when
armed, flips the target's health state when the event fires, and (when
the event carries a duration) schedules the matching recovery.  Every
application and recovery is appended to :attr:`log`, so two runs of the
same plan can assert identical fault timelines.

Targets are duck-typed: pool objects need the
``fail/recover/degrade/restore_speed/inject_timeouts/exhaust/replenish``
health API of :class:`repro.mem.pools.MemoryPool`; node crashes go
through a cluster's ``crash_node/recover_node`` (which re-dispatches
in-flight work) or directly through a platform's ``crash/recover``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs import hooks
from repro.sim.engine import Simulator


class FaultInjector:
    """Arms a fault plan against a set of pools and hosts."""

    def __init__(self, sim: Simulator, plan: FaultPlan,
                 pools: Optional[Dict[str, object]] = None,
                 cluster: Optional[object] = None,
                 platforms: Sequence[object] = ()):
        self.sim = sim
        self.plan = plan
        self.pools: Dict[str, object] = dict(pools or {})
        self.cluster = cluster
        self.platforms = list(platforms)
        #: (time, action, target) triples, in application order.
        self.log: List[Tuple[float, str, str]] = []
        self.armed = False

    # -- constructors --------------------------------------------------------

    @classmethod
    def for_cluster(cls, cluster, plan: FaultPlan) -> "FaultInjector":
        pools: Dict[str, object] = {}
        for platform in cluster.platforms:
            pools.update(platform.pools)
        return cls(cluster.sim, plan, pools=pools, cluster=cluster,
                   platforms=cluster.platforms)

    @classmethod
    def for_platform(cls, platform, plan: FaultPlan) -> "FaultInjector":
        return cls(platform.node.sim, plan, pools=dict(platform.pools),
                   platforms=[platform])

    # -- arming --------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every planned event; idempotence guarded.

        Targets are validated eagerly so a typo'd pool or node name
        fails here, not minutes into a chaos run.
        """
        if self.armed:
            raise RuntimeError("fault injector already armed")
        for event in self.plan:
            if event.kind == FaultKind.NODE_CRASH:
                self._check_node(event.target)
            else:
                self._pool(event.target)
        self.armed = True
        for event in self.plan:
            when = max(event.time, self.sim.now)
            self.sim.call_at(when, lambda ev=event: self._apply(ev))
        return self

    # -- event application ---------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        self.log.append((self.sim.now, event.kind, event.target))
        if hooks.on_fault_event is not None:
            hooks.on_fault_event(event.kind, event.target,
                                            self.sim.now)
        if event.kind == FaultKind.NODE_CRASH:
            self._crash_node(event.target)
            self._schedule_recovery(
                event, lambda: self._recover_node(event.target))
            return
        pool = self._pool(event.target)
        if event.kind == FaultKind.POOL_OFFLINE:
            pool.fail(reason="injected: offline/link-down")
            self._schedule_recovery(event, lambda: self._revert(
                event, pool.recover))
        elif event.kind == FaultKind.POOL_DEGRADE:
            pool.degrade(event.factor)
            self._schedule_recovery(event, lambda: self._revert(
                event, pool.restore_speed))
        elif event.kind == FaultKind.FETCH_TIMEOUT:
            pool.inject_timeouts(event.count)
        elif event.kind == FaultKind.POOL_EXHAUST:
            pool.exhaust()
            self._schedule_recovery(event, lambda: self._revert(
                event, pool.replenish))

    def _schedule_recovery(self, event: FaultEvent, fn) -> None:
        if event.duration is not None:
            self.sim.call_at(event.time + event.duration, fn)

    def _revert(self, event: FaultEvent, fn) -> None:
        self.log.append((self.sim.now, event.kind + "-end", event.target))
        if hooks.on_fault_revert is not None:
            hooks.on_fault_revert(event.kind + "-end",
                                             event.target, self.sim.now)
        fn()

    def _pool(self, name: str):
        pool = self.pools.get(name)
        if pool is None:
            raise KeyError(f"fault plan targets unknown pool {name!r}; "
                           f"known: {sorted(self.pools)}")
        return pool

    def _crash_node(self, name: str) -> None:
        if self.cluster is not None:
            self.cluster.crash_node(name)
            return
        self._platform(name).crash()

    def _recover_node(self, name: str) -> None:
        self.log.append((self.sim.now, FaultKind.NODE_CRASH + "-end", name))
        if hooks.on_fault_revert is not None:
            hooks.on_fault_revert(FaultKind.NODE_CRASH + "-end",
                                             name, self.sim.now)
        if self.cluster is not None:
            self.cluster.recover_node(name)
            return
        self._platform(name).recover()

    def _platform(self, node_name: str):
        for platform in self.platforms:
            if platform.node.name == node_name:
                return platform
        raise KeyError(f"fault plan targets unknown node {node_name!r}")

    def _check_node(self, node_name: str) -> None:
        if not any(p.node.name == node_name for p in self.platforms):
            known = sorted(p.node.name for p in self.platforms)
            raise KeyError(f"fault plan targets unknown node {node_name!r}; "
                           f"known: {known}")

    # -- reproducibility helpers ---------------------------------------------

    def timeline(self) -> Tuple[Tuple[float, str, str], ...]:
        """Immutable view of the applied-fault log."""
        return tuple(self.log)
