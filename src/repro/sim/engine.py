"""Generator-based discrete-event simulation engine.

Processes are Python generators that yield *commands*:

* ``Delay(dt)`` — suspend for ``dt`` simulated seconds.
* ``Event`` — suspend until the event is triggered; the event's payload is
  sent back into the generator.
* ``Waiter`` — suspend until the spawned process finishes; its return
  value is sent back (its exception is raised).

A process calls a sub-process with ``value = yield from child()``:
CPython runs the delegation, so an interrupt thrown into the task lands
in the innermost frame and unwinds outwards.  Plain ``yield`` is only
for the three commands above.

The engine is deterministic: ties in the event queue are broken by a
monotonically increasing sequence number, so two runs with the same seeds
produce identical traces.

Two shortcuts keep that order while making each event cheaper:

* **Run-ahead.**  While :meth:`Simulator.run` is active it sets a
  horizon (its ``until``, or infinity).  A ``Delay`` whose wake-up
  ``now + dt`` is within the horizon, with no task wake-up and no
  callback at or before it, would take the largest sequence number and
  be the very next pop; the task fires ``on_sim_event``, sets the clock
  and resumes in place instead of going through the heap.  Outside
  ``run`` the horizon is ``-inf``, so :meth:`Simulator.run_process` and
  :meth:`Simulator._step` never run ahead.  Skipping the sequence
  number shifts later values but not their order.
* **Batch feed.**  A :meth:`Simulator.spawn_at_many` batch keeps its
  queue entries aside in ``(time, seq)`` order and queues only its
  head; popping an arrival
  queues its successor before the arrival's first step.  The task heap
  holds the tasks in flight plus one pending arrival per batch.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from types import GeneratorType
from typing import (Any, Callable, Dict, Generator, Iterable, List,
                    Optional, Tuple)

from repro.obs import hooks


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. yielding an unknown command)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Delay:
    """Command: suspend the yielding process for ``dt`` simulated seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        self.dt = float(dt)

    def __repr__(self) -> str:
        return f"Delay({self.dt:.6f})"


class Event:
    """A one-shot condition processes can wait on.

    Triggering delivers ``value`` to every waiter.  Triggering twice is an
    error; use separate events per occurrence.

    Waiters live in an insertion-ordered dict so :meth:`remove_waiter`
    (the interrupt path) is O(1) while :meth:`trigger` still wakes tasks
    in the order they started waiting.
    """

    __slots__ = ("sim", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: Dict["_Task", None] = {}

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, {}
        for task in waiters:
            self.sim._schedule(0.0, task, value)

    def add_waiter(self, task: "_Task") -> None:
        if self.triggered:
            self.sim._schedule(0.0, task, self.value)
        else:
            self._waiters[task] = None

    def remove_waiter(self, task: "_Task") -> None:
        self._waiters.pop(task, None)


class Waiter:
    """Handle returned by :meth:`Simulator.spawn`.

    Exposes completion state, the process return value, and an
    :meth:`interrupt` hook.  A waiter is itself awaitable from other
    processes via its :attr:`done_event`.
    """

    __slots__ = ("task",)

    def __init__(self, task: "_Task"):
        self.task = task

    @property
    def done_event(self) -> Event:
        return self.task.done_event

    @property
    def done(self) -> bool:
        return self.task.finished

    @property
    def result(self) -> Any:
        if not self.task.finished:
            raise SimulationError("process still running")
        if self.task.error is not None:
            raise self.task.error
        return self.task.result

    def interrupt(self, cause: Any = None) -> None:
        self.task.interrupt(cause)


class _Task:
    """Internal driver for one process generator."""

    __slots__ = ("sim", "gen", "finished", "result", "error", "_done_event",
                 "_waiting_on", "name", "_epoch")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        # Raw label only; the generator-name fallback is resolved at
        # error-report time so batch spawns skip the getattr.
        self.name = name
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Created on first use: most tasks (every batch-spawned arrival)
        # are never awaited, so the completion Event would be pure
        # allocation overhead on the spawn hot path.
        self._done_event: Optional[Event] = None
        self._waiting_on: Optional[Event] = None
        # Bumped by interrupt() to invalidate queue entries scheduled
        # before the interrupt (e.g. a pending Delay wake-up) — without
        # this, an interrupted sleeper would get a spurious second wake.
        self._epoch = 0

    def interrupt(self, cause: Any = None) -> None:
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        self._epoch += 1
        self.sim._schedule(0.0, self, Interrupt(cause))

    def step(self, send_value: Any) -> None:
        """Advance the generator until it suspends again or finishes."""
        self._waiting_on = None
        while True:
            try:
                if send_value is None:
                    # Overwhelmingly the common case (spawns and Delay
                    # wake-ups both send None): skip the isinstance
                    # chain entirely.
                    cmd = self.gen.send(None)
                elif isinstance(send_value, Interrupt):
                    cmd = self.gen.throw(send_value)
                elif isinstance(send_value, _Raise):
                    cmd = self.gen.throw(send_value.error)
                else:
                    cmd = self.gen.send(send_value)
            except StopIteration as stop:
                self._finish(result=stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - surface via waiter
                self._finish(error=exc)
                return

            if isinstance(cmd, Delay):
                sim = self.sim
                when = sim.now + cmd.dt
                queue = sim._queue
                if when <= sim._horizon:
                    callbacks = sim._callbacks
                    if ((not queue or queue[0][0] > when)
                            and (not callbacks or callbacks[0][0] > when)):
                        # Run-ahead: nothing is due at or before `when`,
                        # so this wake-up (the largest seq) would be the
                        # next pop.
                        if hooks.on_sim_event is not None:
                            hooks.on_sim_event(sim, when)
                        sim.now = when
                        send_value = None
                        continue
                heappush(queue, (when, next(sim._seq), self, None,
                                 self._epoch))
                return
            if isinstance(cmd, Event):
                self._waiting_on = cmd
                cmd.add_waiter(self)
                return
            if isinstance(cmd, Waiter):
                if cmd.done:
                    send_value = _result_or_raise(cmd)
                    continue
                self._waiting_on = cmd.done_event
                cmd.done_event.add_waiter(self)
                return
            label = self.name or getattr(self.gen, "__name__", "proc")
            hint = ("; compose sub-processes with `yield from`"
                    if isinstance(cmd, GeneratorType) else "")
            raise SimulationError(f"process {label} yielded {cmd!r}{hint}")

    @property
    def done_event(self) -> Event:
        event = self._done_event
        if event is None:
            event = self._done_event = Event(self.sim)
            if self.finished:
                event.trigger(_Raise(self.error)
                              if self.error is not None else self.result)
        return event

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.finished = True
        self.result = result
        self.error = error
        event = self._done_event
        if error is not None:
            if event is None or not event._waiters:
                # Nobody is waiting: surface the failure immediately so
                # bugs do not pass silently.
                raise error
            event.trigger(_Raise(error))
        elif event is not None:
            event.trigger(result)


class _Raise:
    """A finished process's exception, delivered to whoever waits on it."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def _result_or_raise(waiter: Waiter) -> Any:
    if waiter.task.error is not None:
        return _Raise(waiter.task.error)
    return waiter.task.result


class _Arrivals(list):
    """The unqueued entries of a :meth:`Simulator.spawn_at_many` batch,
    last first.  Each entry carries the list as its value, so
    popping an arrival finds the successor to queue."""

    __slots__ = ()


class Simulator:
    """Deterministic event loop with a virtual clock in seconds.

    Task wake-ups live in one binary heap of ``(time, seq, task, value,
    epoch)`` tuples and plain callbacks in a second heap of ``[time,
    seq, fn]`` lists; both draw ``seq`` from one counter, so execution
    order is exactly ``(time, seq)`` across the two.  A cancelled
    callback keeps its slot with ``fn`` cleared and is dropped when it
    reaches the front.

    ``_horizon`` is the latest time a task may run ahead to without the
    heap: ``until`` (or infinity) while :meth:`run` is active, ``-inf``
    otherwise.  An arrival batch sits in the task heap as one
    entry at a time (see the module docstring).
    """

    def __init__(self):
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, _Task, Any, int]] = []
        self._seq = itertools.count()
        self._callbacks: List[list] = []
        self._horizon: float = -math.inf

    # -- process management -------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Waiter:
        """Start a process generator; returns a :class:`Waiter`."""
        task = _Task(self, gen, name=name)
        self._schedule(0.0, task, None)
        return Waiter(task)

    def spawn_at(self, when: float, gen: Generator, name: str = "") -> Waiter:
        """Start ``gen`` at absolute simulated time ``when`` (>= now).

        Equivalent to spawning a wrapper that first ``Delay``-sleeps
        until ``when``, minus the wrapper: one queue entry instead of
        two and no throwaway generator.
        """
        if when < self.now:
            raise SimulationError(
                f"spawn_at into the past: {when} < {self.now}")
        task = _Task(self, gen, name=name)
        self._schedule(when - self.now, task, None)
        return Waiter(task)

    def spawn_at_many(self,
                      schedule: Iterable[Tuple[float, Generator]]
                      ) -> List[Waiter]:
        """Batch :meth:`spawn_at` for a whole arrival schedule.

        Equivalent to ``[spawn_at(t, g) for t, g in schedule]`` (same
        sequence-number assignment order, so identical pop order)
        without the per-entry method calls.  Wake times are ``when``
        exactly; :meth:`spawn_at` round-trips through ``now + (when -
        now)``, which is bit-identical whenever ``now == 0.0`` (how
        workload runners use both).

        The batch enters the task heap one entry at a time, in ``(when,
        seq)`` order: popping an arrival queues the next, and the
        consumed entry is released.  Entries still aside all come after
        the queued one, so the pop order is that of ``spawn_at``.
        """
        now = self.now
        nxt = self._seq.__next__
        batch = _Arrivals()
        add = batch.append
        waiters: List[Waiter] = []
        out = waiters.append
        for when, gen in schedule:
            if when < now:
                raise SimulationError(
                    f"spawn_at into the past: {when} < {now}")
            task = _Task(self, gen)
            add((when, nxt(), task, batch, 0))
            out(Waiter(task))
        if batch:
            # Last first.  Seqs are unique, so tasks are never compared;
            # a time-sorted schedule is one run, sorted in O(n).
            batch.sort(reverse=True)
            heappush(self._queue, batch.pop())
        return waiters

    def event(self) -> Event:
        return Event(self)

    def call_at(self, when: float, fn: Callable[[], None]) -> list:
        """Run a plain callback at absolute simulated time ``when``.

        Returns the heap entry, which :meth:`cancel` takes.
        """
        if when < self.now:
            raise SimulationError(f"call_at into the past: {when} < {self.now}")
        entry = [when, next(self._seq), fn]
        heappush(self._callbacks, entry)
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Cancel a pending :meth:`call_at` callback: it never runs and
        never advances the clock."""
        entry[2] = None

    def _schedule(self, dt: float, task: _Task, value: Any) -> None:
        heappush(self._queue,
                 (self.now + dt, next(self._seq), task, value, task._epoch))

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain events; stop at ``until`` (simulated seconds) if given.

        When ``until`` is given the clock ends at ``until`` even if the
        last event lands earlier; an ``until`` before ``now`` is an
        error.  The loop body is :meth:`_step` with the ``until`` check
        fused in: at trace scale the call chain itself is measurable.
        While it runs, ``until`` (or infinity) is the run-ahead horizon.
        """
        if until is None:
            horizon = math.inf
        elif until < self.now:
            raise SimulationError(f"run until the past: {until} < {self.now}")
        else:
            horizon = until
        outer = self._horizon
        self._horizon = horizon
        queue = self._queue
        callbacks = self._callbacks
        pop = heappop
        try:
            while True:
                # Which head runs next, compared field by field on
                # (time, seq).
                if queue:
                    head = queue[0]
                    when = head[0]
                    if callbacks:
                        cb = callbacks[0]
                        cb_when = cb[0]
                        task_next = (when < cb_when or
                                     (when == cb_when and head[1] < cb[1]))
                    else:
                        task_next = True
                elif callbacks:
                    cb = callbacks[0]
                    cb_when = cb[0]
                    task_next = False
                else:
                    break
                if task_next:
                    if when > horizon:
                        break
                    when, _seq, task, value, epoch = pop(queue)
                    if value is not None and value.__class__ is _Arrivals:
                        if value:
                            heappush(queue, value.pop())
                        value = None
                    if hooks.on_sim_event is not None:
                        hooks.on_sim_event(self, when)
                    if task.finished or epoch != task._epoch:
                        # Stale wake-up (task interrupted since it was
                        # scheduled): drop it without advancing the clock.
                        continue
                    self.now = when
                    task.step(value)
                    continue
                if cb_when > horizon:
                    break
                pop(callbacks)
                if hooks.on_sim_event is not None:
                    hooks.on_sim_event(self, cb_when)
                fn = cb[2]
                if fn is None:
                    continue   # cancelled: leave the clock alone
                self.now = cb_when
                fn()
        finally:
            self._horizon = outer
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen`` and run until it completes; return its value."""
        waiter = self.spawn(gen, name=name)
        while not waiter.done:
            if not self._queue and not self._callbacks:
                raise SimulationError(
                    f"deadlock: process {name or 'proc'} never completed")
            self._step()
        return waiter.result

    def _step(self) -> None:
        queue = self._queue
        callbacks = self._callbacks
        if callbacks and (not queue or (callbacks[0][0], callbacks[0][1]) <
                          (queue[0][0], queue[0][1])):
            when, _seq, fn = heappop(callbacks)
            if hooks.on_sim_event is not None:
                hooks.on_sim_event(self, when)
            if fn is None:
                return   # cancelled: leave the clock alone
            self.now = when
            fn()
            return
        when, _seq, task, value, epoch = heappop(queue)
        if value is not None and value.__class__ is _Arrivals:
            if value:
                heappush(queue, value.pop())
            value = None
        if hooks.on_sim_event is not None:
            hooks.on_sim_event(self, when)
        if task.finished or epoch != task._epoch:
            # Stale wake-up (task interrupted since it was scheduled):
            # drop it without advancing the clock.
            return
        self.now = when
        task.step(value)

    # -- conveniences --------------------------------------------------------

    def all_of(self, waiters: Iterable[Waiter]) -> Generator:
        """Process helper: wait for every waiter, return list of results."""
        def _gather():
            results = []
            for waiter in waiters:
                value = yield waiter
                results.append(value)
            return results
        return _gather()
