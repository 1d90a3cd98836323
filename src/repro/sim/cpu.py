"""Processor-sharing CPU model.

Models ``c`` physical cores shared by ``n`` concurrently runnable compute
tasks.  When ``n <= c`` every task runs at full speed; beyond that each
task progresses at rate ``c / n`` (an egalitarian processor-sharing queue,
the standard abstraction for CFS under CPU overcommitment).  This is what
makes the §6.1 experiment reproducible: 200 "Game design" agents on 20
cores slow down by ~25% because their bursts collide.

The implementation is event-driven: task arrival/departure re-rates all
outstanding tasks and reschedules the earliest completion.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Generator, Optional

from repro.sim.engine import Event, Interrupt, Simulator


class _ComputeTask:
    __slots__ = ("work_left", "done", "last_update")

    def __init__(self, work: float, done: Event, now: float):
        self.work_left = float(work)
        self.done = done
        self.last_update = now


class FairShareCPU:
    """A pool of cores with egalitarian processor sharing.

    Usage from a simulation process::

        yield from cpu.compute(0.5)   # consume 0.5 s of CPU work
    """

    def __init__(self, sim: Simulator, cores: int):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.sim = sim
        self.cores = cores
        self._tasks: Dict[int, _ComputeTask] = {}
        self._ids = itertools.count()
        self._wakeup: Optional[list] = None   # pending call_at entry
        self._busy_time = 0.0          # integrated core-seconds consumed
        self._last_busy_update = 0.0
        #: Single-consumer hook: called with the new :attr:`load` after
        #: every runnable-count change (cluster dispatch indices use it
        #: to keep a load-keyed heap current without per-pick scans).
        self.on_load_change: Optional[Callable[[int], None]] = None

    # -- public API ------------------------------------------------------------

    def compute(self, work: float) -> Generator:
        """Process command: burn ``work`` seconds of CPU time, sharing cores."""
        if work <= 0:
            return
            yield  # pragma: no cover - generator marker
        done = self.sim.event()
        self._advance_all()
        task_id = next(self._ids)
        self._tasks[task_id] = _ComputeTask(work, done, self.sim.now)
        self._reschedule()
        if self.on_load_change is not None:
            self.on_load_change(len(self._tasks))
        try:
            yield done
        except Interrupt:
            # The computing process was killed (node crash): drop its
            # task so it stops inflating the shared load forever.
            if task_id in self._tasks:
                self._advance_all()
                self._tasks.pop(task_id)
                self._reschedule()
                if self.on_load_change is not None:
                    self.on_load_change(len(self._tasks))
            raise
        return

    @property
    def load(self) -> int:
        """Number of currently runnable compute tasks."""
        return len(self._tasks)

    @property
    def rate(self) -> float:
        """Per-task progress rate right now (1.0 = a dedicated core)."""
        n = len(self._tasks)
        if n == 0:
            return 1.0
        return min(1.0, self.cores / n)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Average core utilisation over ``elapsed`` (default: since t=0)."""
        self._advance_all()
        window = elapsed if elapsed is not None else self.sim.now
        if window <= 0:
            return 0.0
        return self._busy_time / (window * self.cores)

    def stretch(self, work: float) -> float:
        """Wall time ``work`` seconds of CPU would take at the current load.

        Advisory only (load may change mid-flight); used by admission
        heuristics and tests.
        """
        return work / self.rate

    # -- internals ---------------------------------------------------------------

    def _advance_all(self) -> None:
        """Credit progress to all tasks for time elapsed since last update."""
        now = self.sim.now
        n = len(self._tasks)
        if n:
            rate = min(1.0, self.cores / n)
            for task in self._tasks.values():
                dt = now - task.last_update
                if dt > 0:
                    task.work_left -= dt * rate
                task.last_update = now
            self._busy_time += (now - self._last_busy_update) * min(n, self.cores)
        self._last_busy_update = now

    def _reschedule(self) -> None:
        """Schedule a wakeup at the earliest projected task completion,
        cancelling the one it supersedes."""
        if self._wakeup is not None:
            self.sim.cancel(self._wakeup)
            self._wakeup = None
        if not self._tasks:
            return
        rate = min(1.0, self.cores / len(self._tasks))
        earliest = min(t.work_left for t in self._tasks.values())
        eta = max(0.0, earliest / rate)
        self._wakeup = self.sim.call_at(self.sim.now + eta, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        self._advance_all()
        finished = [tid for tid, t in self._tasks.items() if t.work_left <= 1e-12]
        for tid in finished:
            task = self._tasks.pop(tid)
            task.done.trigger()
        self._reschedule()
        if finished and self.on_load_change is not None:
            self.on_load_change(len(self._tasks))


class VCPUQuota:
    """Per-VM vCPU cap on top of the node's fair-share CPU.

    A guest with ``vcpus=1`` can only run one compute task at a time no
    matter how parallel its workload is — which is why the paper's
    map-reduce agent serialises its branch tool work inside its 1-vCPU
    microVM even though the LLM waits overlap (§9.6 configurations).
    FIFO admission; released slots wake the longest waiter.
    """

    def __init__(self, cpu: FairShareCPU, vcpus: int):
        if vcpus <= 0:
            raise ValueError("vcpus must be positive")
        self.cpu = cpu
        self.vcpus = vcpus
        self._running = 0
        self._waiting: list = []

    def compute(self, work: float) -> Generator:
        """Process command: burn CPU work, capped at ``vcpus`` parallel
        tasks for this guest."""
        if work <= 0:
            return
            yield  # pragma: no cover - generator marker
        if self._running >= self.vcpus:
            gate = self.cpu.sim.event()
            self._waiting.append(gate)
            try:
                yield gate   # on wake the slot is already ours
            except Interrupt:
                if gate in self._waiting:
                    self._waiting.remove(gate)   # never got the slot
                else:
                    self._release_slot()         # slot arrived mid-interrupt
                raise
        else:
            self._running += 1
        try:
            yield from self.cpu.compute(work)
        finally:
            self._release_slot()

    def _release_slot(self) -> None:
        if self._waiting:
            # Hand the slot directly to the next waiter so a new
            # arrival cannot slip in between release and wake-up.
            self._waiting.pop(0).trigger()
        else:
            self._running -= 1

    @property
    def queued(self) -> int:
        return len(self._waiting)

    @property
    def sim(self) -> Simulator:
        return self.cpu.sim
