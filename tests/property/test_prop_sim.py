"""Property tests: event engine, fair-share CPU, accounting, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.accounting import MemoryAccountant
from repro.mem.trace import AccessTrace
from repro.sim.cpu import FairShareCPU
from repro.obs import hooks
from repro.sim.engine import Delay, Interrupt, Simulator
from repro.sim.rng import SeededRNG


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1,
                max_size=20))
def test_clock_is_monotone_and_sums_delays(delays):
    sim = Simulator()
    stamps = []

    def proc():
        for d in delays:
            yield Delay(d)
            stamps.append(sim.now)

    sim.run_process(proc())
    assert stamps == sorted(stamps)
    assert sim.now == pytest.approx(sum(delays))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=12),
       st.integers(1, 4))
def test_processor_sharing_conservation(works, cores):
    """Total CPU work in == integrated busy time out."""
    sim = Simulator()
    cpu = FairShareCPU(sim, cores)

    def task(w):
        yield from cpu.compute(w)

    for w in works:
        sim.spawn(task(w))
    sim.run()
    total_work = sum(works)
    # Conservation: busy core-seconds equal the work submitted.
    assert cpu.utilization() * cores * sim.now == pytest.approx(
        total_work, rel=1e-6)
    # Makespan bounds: no faster than perfect parallelism, no slower
    # than fully serial.
    assert sim.now >= total_work / cores - 1e-9
    assert sim.now <= total_work + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=2, max_size=10))
def test_processor_sharing_fairness(works):
    """Equal work submitted together finishes together."""
    sim = Simulator()
    cpu = FairShareCPU(sim, 1)
    finish = []
    w = works[0]

    def task():
        yield from cpu.compute(w)
        finish.append(sim.now)

    n = len(works)
    for _ in range(n):
        sim.spawn(task())
    sim.run()
    assert max(finish) - min(finish) < 1e-9
    assert finish[0] == pytest.approx(w * n)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.integers(-50, 100)), max_size=30))
def test_accounting_current_is_sum_of_categories(ops):
    acct = MemoryAccountant()
    applied = {}
    for cat, delta in ops:
        if applied.get(cat, 0) + delta < 0:
            continue  # accountant forbids negative categories
        acct.charge(cat, delta)
        applied[cat] = applied.get(cat, 0) + delta
    assert acct.current_bytes == sum(applied.values())
    assert acct.peak_bytes >= acct.current_bytes
    assert acct.peak_bytes >= 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(100, 2000),
       st.floats(0.01, 1.0), st.floats(0.0, 1.0))
def test_trace_generation_invariants(seed, total, touch, write):
    rng = SeededRNG(seed)
    trace = AccessTrace.generate(rng, total, touch, write,
                                 writable_start=total // 4)
    assert np.isin(trace.write_pages, trace.read_pages).all()
    if len(trace.read_pages):
        assert trace.read_pages.min() >= 0
        assert trace.read_pages.max() < total
    if len(trace.write_pages):
        assert trace.write_pages.min() >= total // 4
    assert len(np.unique(trace.read_pages)) == len(trace.read_pages)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.floats(0.0, 0.5))
def test_trace_jitter_preserves_invariants(seed, fraction):
    rng = SeededRNG(seed)
    total = 800
    base = AccessTrace.generate(rng, total, 0.4, 0.3,
                                writable_start=total // 5)
    jit = base.jittered(rng.fork("j"), total, fraction)
    assert np.isin(jit.write_pages, jit.read_pages).all()
    if len(jit.write_pages):
        assert jit.write_pages.min() >= total // 5
    assert len(np.unique(jit.read_pages)) == len(jit.read_pages)
    # Jitter keeps the trace roughly the same size.
    assert abs(len(jit.read_pages) - len(base.read_pages)) \
        <= max(10, 0.6 * fraction * len(base.read_pages) + 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.text("abc/", min_size=1, max_size=12))
def test_rng_fork_determinism(seed, name):
    a = SeededRNG(seed).fork(name)
    b = SeededRNG(seed).fork(name)
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]


# -- run-ahead oracle: run() against a loop of _step() calls -------------------

_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
_N_EVENTS = 3

_op = st.one_of(
    st.tuples(st.just("delay"), st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0))),
    st.tuples(st.just("wait"), st.integers(0, _N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, _N_EVENTS - 1)),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("call"), st.sampled_from((0.0, 0.5, 1.5)),
              st.integers(0, _N_EVENTS - 1), st.booleans()),
)
_proc = st.tuples(st.sampled_from(("spawn", "at", "sorted", "unsorted")),
                  st.sampled_from(_TIMES), st.lists(_op, max_size=6))
_programs = st.tuples(
    st.lists(_proc, min_size=1, max_size=8),
    # Setup callbacks: (time, process to interrupt or None, cancelled).
    st.lists(st.tuples(st.sampled_from(_TIMES),
                       st.one_of(st.none(), st.integers(0, 7)),
                       st.booleans()), max_size=4),
    st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.75, 2.5, 4.0)), max_size=3),
)


class _SimEventLedger:
    def __init__(self):
        self.ledger = []

    def on_sim_event(self, sim, when):
        self.ledger.append(when)


def _run_stepwise(sim, until=None):
    """The reference engine: one _step() per event, which never runs
    ahead, with run()'s until cut."""
    queue, callbacks = sim._queue, sim._callbacks
    while queue or callbacks:
        if until is not None and min(
                heap[0][0] for heap in (queue, callbacks) if heap) > until:
            break
        sim._step()
    if until is not None:
        sim.now = max(sim.now, until)
    return sim.now


def _simulate(program, stepwise):
    procs, setup_calls, cuts = program
    sim = Simulator()
    log = []
    events = [sim.event() for _ in range(_N_EVENTS)]
    waiters = {}

    def callback(tag, k=None):
        log.append((sim.now, "cb", tag))
        if k is not None and not events[k].triggered:
            events[k].trigger(tag)

    def body(pid, ops):
        for op in ops:
            kind = op[0]
            value = None
            try:
                if kind == "delay":
                    value = yield Delay(op[1])
                elif kind == "wait":
                    value = yield events[op[1]]
                elif kind == "join":
                    value = yield waiters[op[1] % len(procs)]
                elif kind == "trigger":
                    if not events[op[1]].triggered:
                        events[op[1]].trigger(("from", pid))
                elif kind == "interrupt":
                    waiters[op[1] % len(procs)].interrupt(pid)
                else:
                    _kind, dt, k, cancel = op
                    entry = sim.call_at(
                        sim.now + dt, lambda k=k: callback(("by", pid), k))
                    if cancel:
                        sim.cancel(entry)
            except Interrupt as intr:
                value = ("interrupted", intr.cause)
            log.append((sim.now, pid, kind, value))
        return pid

    batches = {"sorted": [], "unsorted": []}
    for pid, (mode, when, ops) in enumerate(procs):
        if mode == "spawn":
            waiters[pid] = sim.spawn(body(pid, ops))
        elif mode == "at":
            waiters[pid] = sim.spawn_at(when, body(pid, ops))
        else:
            batches[mode].append((when, pid, ops))
    batches["sorted"].sort(key=lambda entry: entry[:2])
    batches["unsorted"].sort(key=lambda entry: (-entry[0], entry[1]))
    for batch in batches.values():
        spawned = sim.spawn_at_many((when, body(pid, ops))
                                    for when, pid, ops in batch)
        waiters.update(zip((pid for _, pid, _ in batch), spawned))
    for when, target, cancel in setup_calls:
        if target is None:
            entry = sim.call_at(when, lambda when=when: callback(when))
        else:
            # Interrupts the process wherever it is, an arrival that
            # has not started included.
            entry = sim.call_at(
                when, lambda t=target % len(procs): waiters[t].interrupt("cb"))
        if cancel:
            sim.cancel(entry)

    recorder = _SimEventLedger()
    previous = hooks.install(recorder)
    try:
        for until in sorted(cuts) + [None]:
            while True:
                try:
                    if stepwise:
                        log.append(("until", _run_stepwise(sim, until)))
                    else:
                        log.append(("until", sim.run(until)))
                    break
                except Interrupt as exc:
                    # An arrival interrupted before it started finishes
                    # with the Interrupt; unobserved, it leaves the run.
                    log.append(("raised", sim.now, exc.cause))
                assert sim._horizon == -math.inf
    finally:
        hooks.uninstall(recorder, previous)
    return log, recorder.ledger, sim.now


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_run_ahead_matches_the_stepwise_engine(program):
    assert _simulate(program, stepwise=False) == _simulate(program,
                                                           stepwise=True)
