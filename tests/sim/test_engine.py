"""Unit tests for the discrete-event engine."""

import cProfile
import gc
import math
import weakref

import pytest

from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Delay, Interrupt, SimulationError, Simulator
from repro.sim.rng import SeededRNG
from tests.property.test_prop_sim import _run_stepwise


def test_delay_advances_clock():
    sim = Simulator()

    def proc():
        yield Delay(1.5)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.5)


def test_zero_delay_runs_same_time():
    sim = Simulator()

    def proc():
        yield Delay(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_subprocess_composition_returns_value():
    sim = Simulator()

    def inner():
        yield Delay(2.0)
        return "inner-done"

    def outer():
        value = yield from inner()
        return value, sim.now

    value, now = sim.run_process(outer())
    assert value == "inner-done"
    assert now == pytest.approx(2.0)


def test_deeply_nested_subprocesses():
    sim = Simulator()

    def leaf(depth):
        yield Delay(0.1)
        return depth

    def walk(depth):
        if depth == 0:
            result = yield from leaf(0)
            return result
        result = yield from walk(depth - 1)
        return result + 1

    assert sim.run_process(walk(20)) == 20
    assert sim.now == pytest.approx(0.1)


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    evt = sim.event()
    results = []

    def waiter():
        value = yield evt
        results.append((sim.now, value))

    def trigger():
        yield Delay(3.0)
        evt.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert results == [(3.0, "payload")]


def test_event_triggered_before_wait_resolves_immediately():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(42)

    def proc():
        value = yield evt
        return value

    assert sim.run_process(proc()) == 42


def test_event_double_trigger_is_error():
    sim = Simulator()
    evt = sim.event()
    evt.trigger()
    with pytest.raises(SimulationError):
        evt.trigger()


def test_waiter_result_and_done():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        return 7

    waiter = sim.spawn(proc())
    assert not waiter.done
    sim.run()
    assert waiter.done
    assert waiter.result == 7


def test_waiter_result_before_done_raises():
    sim = Simulator()
    waiter = sim.spawn(iter(()))  # never scheduled generator-ish
    # A plain empty iterator is not a generator; spawn a real one instead.
    def proc():
        yield Delay(1.0)
    waiter = sim.spawn(proc())
    with pytest.raises(SimulationError):
        _ = waiter.result


def test_yield_on_waiter_gets_return_value():
    sim = Simulator()

    def child():
        yield Delay(2.0)
        return "child"

    def parent():
        handle = sim.spawn(child())
        value = yield handle
        return value, sim.now

    value, now = sim.run_process(parent())
    assert value == "child"
    assert now == pytest.approx(2.0)


def test_yield_on_finished_waiter_immediate():
    sim = Simulator()

    def child():
        yield Delay(1.0)
        return 5

    def parent():
        handle = sim.spawn(child())
        yield Delay(4.0)
        value = yield handle  # already finished
        return value, sim.now

    value, now = sim.run_process(parent())
    assert value == 5
    assert now == pytest.approx(4.0)


def test_exception_propagates_to_parent_process():
    sim = Simulator()

    def child():
        yield Delay(0.5)
        raise ValueError("boom")

    def parent():
        try:
            yield from child()
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_process(parent()) == "caught boom"


def test_exception_propagates_through_waiter():
    sim = Simulator()

    def child():
        yield Delay(0.5)
        raise KeyError("k")

    def parent():
        handle = sim.spawn(child())
        try:
            yield handle
        except KeyError:
            return "caught"

    assert sim.run_process(parent()) == "caught"


def test_unobserved_exception_surfaces():
    sim = Simulator()

    def bad():
        yield Delay(0.1)
        raise RuntimeError("unobserved")

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_interrupt_while_delayed():
    sim = Simulator()
    outcome = []

    def sleeper():
        try:
            yield Delay(100.0)
        except Interrupt as intr:
            outcome.append((sim.now, intr.cause))

    def interrupter(handle):
        yield Delay(1.0)
        handle.interrupt("wake-up")

    handle = sim.spawn(sleeper())
    sim.spawn(interrupter(handle))
    sim.run()
    assert outcome == [(1.0, "wake-up")]


def test_interrupt_while_waiting_on_event_detaches_waiter():
    sim = Simulator()
    evt = sim.event()
    log = []

    def waiter():
        try:
            yield evt
        except Interrupt:
            log.append("interrupted")

    handle = sim.spawn(waiter())

    def driver():
        yield Delay(1.0)
        handle.interrupt()
        yield Delay(1.0)
        evt.trigger("late")

    sim.spawn(driver())
    sim.run()
    assert log == ["interrupted"]


def _interrupt_inside_compute(nested):
    """Interrupt a compute at t=2 while a sibling computes on one core.

    ``nested`` suspends the victim three ``yield from`` levels deep
    (outer -> middle -> inner -> ``cpu.compute``); otherwise the victim
    calls ``cpu.compute`` directly.
    """
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=1)
    log = []
    cpu.on_load_change = lambda load: log.append(("load", load))
    finished = {}

    def inner():
        yield from cpu.compute(10.0)

    def middle():
        try:
            yield from inner()
        finally:
            log.append(("middle finally", cpu.load))

    def outer():
        try:
            if nested:
                yield from middle()
            else:
                yield from cpu.compute(10.0)
        except Interrupt as intr:
            log.append(("outer caught", intr.cause, sim.now))

    def sibling():
        yield from cpu.compute(4.0)
        finished["sibling"] = sim.now

    victim = sim.spawn(outer())
    sim.spawn(sibling())
    sim.call_at(2.0, lambda: victim.interrupt("crash"))
    sim.run()
    return log, finished["sibling"], sim.now


def test_interrupt_lands_in_innermost_frame():
    log, sibling_done, now = _interrupt_inside_compute(nested=True)
    # compute's cleanup drops the load before any caller frame runs;
    # the middle frame's finally runs next; the outer frame catches.
    assert log == [("load", 1), ("load", 2), ("load", 1),
                   ("middle finally", 1), ("outer caught", "crash", 2.0),
                   ("load", 0)]
    flat_log, flat_sibling_done, flat_now = _interrupt_inside_compute(
        nested=False)
    assert flat_log == [e for e in log if e[0] != "middle finally"]
    # Both ran at rate 1/2 for 2 s, then the sibling's last 3 s alone.
    assert sibling_done == flat_sibling_done == pytest.approx(5.0)
    assert now == flat_now


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield Delay(10.0)

    sim.spawn(proc())
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_deterministic_tie_breaking():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Delay(1.0)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_call_at_callback():
    sim = Simulator()
    hits = []
    sim.call_at(2.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [2.0]


def test_cancelled_callback_neither_runs_nor_advances_clock():
    sim = Simulator()
    hits = []
    sim.call_at(1.0, lambda: hits.append(sim.now))
    sim.cancel(sim.call_at(3.0, lambda: hits.append(sim.now)))
    assert sim.run() == 1.0
    assert hits == [1.0]

    # run_process steps one event at a time and skips it too.
    sim = Simulator()
    sim.cancel(sim.call_at(1.0, lambda: hits.append(sim.now)))

    def main():
        yield Delay(2.0)

    sim.run_process(main())
    assert sim.now == 2.0 and hits == [1.0]


def test_call_at_past_raises():
    sim = Simulator()

    def proc():
        yield Delay(5.0)

    sim.run_process(proc())
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_all_of_gathers_results():
    sim = Simulator()

    def worker(i):
        yield Delay(float(i))
        return i * 10

    def main():
        handles = [sim.spawn(worker(i)) for i in (3, 1, 2)]
        results = yield from sim.all_of(handles)
        return results, sim.now

    results, now = sim.run_process(main())
    assert results == [30, 10, 20]
    assert now == pytest.approx(3.0)


def test_yield_garbage_raises():
    def child():
        yield Delay(1.0)

    # A yielded generator is the retired sub-process idiom: the error
    # names the process and says how to compose instead.
    for cmd, hint in (("not-a-command", False), (child(), True)):
        def proc(cmd=cmd):
            yield cmd

        with pytest.raises(SimulationError) as info:
            Simulator().run_process(proc(), name="bad-proc")
        message = str(info.value)
        assert message.startswith("process bad-proc yielded ")
        assert ("yield from" in message) == hint


def test_run_process_deadlock_detected():
    sim = Simulator()
    evt = sim.event()

    def stuck():
        yield evt

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


# -- scheduler order: exactly (time, seq) ----------------------------------


def _random_schedule(seed, n_events, time_values=16):
    """(time, payload) spawns with many same-tick collisions."""
    rng = SeededRNG(seed, "calq")
    times = [round(rng.uniform(0.0, 10.0), 1) for _ in range(time_values)]
    return [(times[rng.randint(0, time_values)], i) for i in range(n_events)]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_same_tick_wakeups_run_in_fifo_order(seed):
    """Processes start in (time, spawn order): FIFO within a tick."""
    schedule = _random_schedule(seed, n_events=500)
    sim = Simulator()
    started = []

    def body(i):
        started.append((sim.now, i))
        return
        yield  # pragma: no cover - makes this a generator

    for t, i in schedule:
        sim.spawn_at(t, body(i))
    sim.run()
    assert started == sorted(schedule)   # stable: ties keep spawn order


def _randomized_workload(sim, trace, seed, n_procs=40):
    """Spawn sleeper processes, a third of which get interrupted."""
    rng = SeededRNG(seed, "procs")

    def sleeper(pid, naps):
        for nap in naps:
            try:
                yield Delay(nap)
            except Interrupt:
                trace.append((sim.now, pid, "interrupted"))
                return
            trace.append((sim.now, pid, "woke"))

    waiters = []
    for pid in range(n_procs):
        naps = [round(rng.uniform(0.0, 3.0), 1)
                for _ in range(rng.randint(1, 5))]
        waiters.append(sim.spawn(sleeper(pid, naps), name=f"p{pid}"))

    def saboteur():
        yield Delay(2.0)
        for pid in range(0, n_procs, 3):
            waiters[pid].interrupt("chaos")
        trace.append((sim.now, -1, "sabotage"))

    sim.spawn(saboteur(), name="saboteur")
    return waiters


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_interrupted_sleepers_drop_their_stale_wakeups(seed):
    """An interrupt invalidates the pending Delay wake-up: the sleeper
    gets exactly one Interrupt and never the stale wake."""
    trace = []
    sim = Simulator()
    waiters = _randomized_workload(sim, trace, seed)
    sim.run()
    assert [e[0] for e in trace] == sorted(e[0] for e in trace)
    interrupted = {pid for _t, pid, kind in trace if kind == "interrupted"}
    assert interrupted, "no cancellations exercised"
    for pid in sorted(interrupted):
        events = [(t, kind) for t, p, kind in trace if p == pid]
        assert events[-1] == (2.0, "interrupted")
        assert [k for _t, k in events].count("interrupted") == 1
    assert all(w.done for w in waiters)


def test_callbacks_and_tasks_share_one_sequence_order():
    """At one instant, callbacks and task wake-ups run in the order
    they were scheduled."""
    sim = Simulator()
    order = []

    def body(tag):
        order.append(tag)
        return
        yield  # pragma: no cover - makes this a generator

    sim.call_at(1.0, lambda: order.append("cb0"))
    sim.spawn_at(1.0, body("task1"))
    sim.call_at(1.0, lambda: order.append("cb2"))
    sim.spawn_at(1.0, body("task3"))
    sim.call_at(0.5, lambda: order.append("early"))
    sim.run()
    assert order == ["early", "cb0", "task1", "cb2", "task3"]

    # run_process steps one event at a time; same order.
    sim = Simulator()
    order.clear()
    sim.call_at(1.0, lambda: order.append("cb0"))
    task = sim.spawn_at(1.0, body("task1"))

    def main():
        yield task

    sim.run_process(main())
    assert order == ["cb0", "task1"]


def test_spawn_at_many_matches_individual_spawn_at():
    """Batch spawning assigns the same sequence order as a spawn loop."""
    def build(batch):
        trace = []

        def body(i):
            trace.append((round(sim.now, 6), i))
            yield Delay(0.1)
            trace.append((round(sim.now, 6), i, "done"))

        sim = Simulator()
        rng = SeededRNG(13, "batch")
        schedule = [(round(rng.uniform(0.0, 4.0), 1), i)
                    for i in range(200)]
        schedule.sort()
        if batch:
            sim.spawn_at_many((t, body(i)) for t, i in schedule)
        else:
            for t, i in schedule:
                sim.spawn_at(t, body(i))
        sim.run()
        return trace

    assert build(batch=True) == build(batch=False)


def test_spawn_at_many_rejects_past_times():
    def noop():
        return
        yield

    def nap():
        yield Delay(1.0)

    sim = Simulator()
    sim.spawn_at_many([(0.0, noop())])  # now == 0.0 is fine
    sim.run_process(nap())              # advances now to 1.0
    with pytest.raises(SimulationError):
        sim.spawn_at_many([(0.5, noop())])


# -- run(until), run-ahead and the arrival batch feed --------------------------


def test_run_until_the_past_raises_and_keeps_the_clock():
    sim = Simulator()

    def proc():
        yield Delay(20.0)

    sim.spawn(proc())
    assert sim.run(until=12.0) == 12.0
    with pytest.raises(SimulationError, match="past"):
        sim.run(until=5.0)
    assert sim.now == 12.0
    assert sim.run(until=12.0) == 12.0   # until == now is no move
    assert sim.run() == 20.0


def test_run_restores_the_horizon_when_an_exception_escapes():
    sim = Simulator()

    def bad():
        yield Delay(1.0)
        raise RuntimeError("escapes run")

    sim.spawn(bad())
    assert sim._horizon == -math.inf
    with pytest.raises(RuntimeError, match="escapes run"):
        sim.run(until=5.0)
    assert sim._horizon == -math.inf


def test_uncontended_delays_resume_in_place():
    """A lone sleeper never goes through the heap under run(); under
    run_process it does, one push per Delay."""
    def sleeper(sim, stamps):
        for dt in (0.0, 1.0, 2.5):
            yield Delay(dt)
            stamps.append(sim.now)

    seqs = {}
    for mode in ("run", "run_process"):
        sim = Simulator()
        stamps = []
        if mode == "run":
            sim.spawn(sleeper(sim, stamps))
            sim.run()
        else:
            sim.run_process(sleeper(sim, stamps))
        assert stamps == [0.0, 1.0, 3.5]
        seqs[mode] = next(sim._seq)
    # Sequence numbers drawn: the spawn only, against spawn + 3 wake-ups.
    assert seqs == {"run": 1, "run_process": 4}


def test_run_ahead_stops_at_the_until_cut():
    sim = Simulator()
    stamps = []

    def sleeper():
        for _ in range(4):
            yield Delay(1.0)
            stamps.append(sim.now)

    sim.spawn(sleeper())
    assert sim.run(until=2.0) == 2.0
    assert stamps == [1.0, 2.0]
    assert sim._queue[0][0] == 3.0
    sim.run()
    assert stamps == [1.0, 2.0, 3.0, 4.0]


def _instant(log, i, sim):
    log.append((sim.now, i, len(sim._queue)))
    return
    yield  # pragma: no cover - makes this a generator


def test_arrival_batch_has_one_entry_queued_at_a_time():
    sim = Simulator()
    log = []
    n = 200
    rng = SeededRNG(4, "feed")
    times = sorted(round(rng.uniform(0.0, 5.0), 1) for _ in range(n))
    sim.spawn_at_many((t, _instant(log, i, sim)) for i, t in enumerate(times))
    assert len(sim._queue) == 1
    sim.run()
    # Each arrival runs with its successor (and nothing else) queued.
    assert [(t, i) for t, i, _ in log] == list(zip(times, range(n)))
    assert [queued for _, _, queued in log] == [1] * (n - 1) + [0]

    # Two batches: one pending entry each.
    sim = Simulator()
    log.clear()
    for base in (0, n):
        sim.spawn_at_many((t, _instant(log, base + i, sim))
                          for i, t in enumerate(times))
    assert len(sim._queue) == 2
    sim.run()
    assert max(queued for _, _, queued in log) <= 2
    assert [i for _, i, _ in log] == [
        i for _, i in sorted((t, i) for i, t in enumerate(times + times))]


def test_unsorted_batch_is_fed_one_at_a_time_in_spawn_at_order():
    times = [3.0, 1.0, 1.0, 0.5, 2.0]
    orders = []
    for batch in (True, False):
        sim = Simulator()
        log = []
        schedule = [(t, _instant(log, i, sim)) for i, t in enumerate(times)]
        if batch:
            sim.spawn_at_many(schedule)
            assert len(sim._queue) == 1
        else:
            for t, gen in schedule:
                sim.spawn_at(t, gen)
        sim.run()
        orders.append([(t, i) for t, i, _ in log])
    assert orders[0] == orders[1] == [(0.5, 3), (1.0, 1), (1.0, 2),
                                      (2.0, 4), (3.0, 0)]


def test_interrupted_arrival_still_feeds_its_successor():
    sim = Simulator()
    log = []
    gens = [_instant(log, i, sim) for i in range(3)]
    waiters = sim.spawn_at_many([(1.0, gens[0]), (2.0, gens[1]),
                                 (3.0, gens[2])])

    def joiner():
        try:
            yield waiters[1]
        except Interrupt as intr:
            log.append((sim.now, "joiner", intr.cause))

    sim.spawn(joiner())
    sim.call_at(0.5, lambda: waiters[1].interrupt("early"))
    assert sim.run() == 3.0
    # Arrival 1 died of the interrupt at 0.5; its stale entry at 2.0 is
    # dropped without moving the clock and arrival 2 still starts.
    assert log == [(0.5, "joiner", "early"), (1.0, 0, 1), (3.0, 2, 0)]


def test_finished_arrival_entry_is_released():
    sim = Simulator()
    log = []
    gens = [_instant(log, i, sim) for i in range(3)]
    refs = [weakref.ref(gen) for gen in gens]
    sim.spawn_at_many(zip((1.0, 5.0, 9.0), gens))   # waiters dropped
    del gens
    sim.run(until=6.0)
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, False]
    sim.run()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_run_ahead_cuts_heap_pushes_on_a_micro_rack(monkeypatch):
    """¼-scale round-robin micro rack: same records as a _step()-driven
    run, with fewer heap pushes."""
    from repro.serverless.partition import ClusterSpec
    from repro.workloads.functions import FunctionProfile
    from repro.workloads.synthetic import make_scaleout_uniform

    suite = tuple(FunctionProfile(
        name=f"micro{i}", lang="python", description="micro function",
        mem_bytes=1 << 20, n_threads=1, exec_cpu=0.0, io_time=0.0,
        touched_pages=0, write_fraction=0.0, loads_per_read_page=0.0,
        n_vmas=4, n_fds=1, runtime_shared_bytes=1 << 18,
        bootstrap_time=0.01, file_io_bytes=0, trace_jitter=0.0)
        for i in range(16))

    def run_rack():
        workload = make_scaleout_uniform(seed=3, functions=suite,
                                         duration=600.0, rate=2000 / 600.0,
                                         quantum=0.05)
        cluster = ClusterSpec(n_nodes=10, seed=3, policy="round-robin",
                              functions=suite).build()
        cluster.prepare_workload(workload)
        profile = cProfile.Profile()
        result = profile.runcall(cluster.run_workload, workload)
        # Built-ins report their code as "<built-in method _heapq.heappush>".
        pushes = sum(stat.callcount for stat in profile.getstats()
                     if str(stat.code).endswith(".heappush>"))
        assert len(result.recorder.results) == len(workload.events)
        return result, pushes

    result, pushes = run_rack()
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run", _run_stepwise)
        reference, reference_pushes = run_rack()
    print(f"\nheap pushes: {pushes} run-ahead, {reference_pushes} stepwise")
    assert result.recorder.results == reference.recorder.results
    assert result.duration == reference.duration
    assert 0 < pushes < reference_pushes
