"""Tests for the processor-sharing CPU model."""

import pytest

from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Delay, Interrupt, Simulator


def run_tasks(cores, works, stagger=0.0):
    """Run compute tasks; return dict of task index -> completion time."""
    sim = Simulator()
    cpu = FairShareCPU(sim, cores)
    finish = {}

    def task(i, work):
        yield Delay(stagger * i)
        yield from cpu.compute(work)
        finish[i] = sim.now

    for i, work in enumerate(works):
        sim.spawn(task(i, work))
    sim.run()
    return sim, cpu, finish


def test_single_task_full_speed():
    _sim, _cpu, finish = run_tasks(4, [2.0])
    assert finish[0] == pytest.approx(2.0)


def test_underloaded_tasks_run_in_parallel():
    _sim, _cpu, finish = run_tasks(4, [1.0, 2.0, 3.0])
    assert finish[0] == pytest.approx(1.0)
    assert finish[1] == pytest.approx(2.0)
    assert finish[2] == pytest.approx(3.0)


def test_overload_halves_rate():
    # 2 tasks of 1s work on 1 core: both progress at 0.5x -> finish at 2s.
    _sim, _cpu, finish = run_tasks(1, [1.0, 1.0])
    assert finish[0] == pytest.approx(2.0)
    assert finish[1] == pytest.approx(2.0)


def test_overload_unequal_work():
    # 1 core, works 1 and 2: share until short one leaves at t=2
    # (each got 1.0 work), then the long one runs alone until t=3.
    _sim, _cpu, finish = run_tasks(1, [1.0, 2.0])
    assert finish[0] == pytest.approx(2.0)
    assert finish[1] == pytest.approx(3.0)


def test_staggered_arrival_rerates():
    # 1 core. Task0 (2s work) starts at t=0; task1 (1s) at t=1.
    # t in [0,1): task0 alone, does 1s of its work.
    # t in [1,3): both share, each gets 1s work over 2s wall.
    # Task0 done at t=3; task1 done at t=3.
    _sim, _cpu, finish = run_tasks(1, [2.0, 1.0], stagger=1.0)
    assert finish[0] == pytest.approx(3.0)
    assert finish[1] == pytest.approx(3.0)


def test_zero_work_is_free():
    sim = Simulator()
    cpu = FairShareCPU(sim, 1)

    def proc():
        yield from cpu.compute(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_load_and_rate_tracking():
    sim = Simulator()
    cpu = FairShareCPU(sim, 2)
    assert cpu.load == 0
    assert cpu.rate == 1.0

    def proc():
        yield from cpu.compute(1.0)

    for _ in range(4):
        sim.spawn(proc())
    sim.run(until=0.5)
    assert cpu.load == 4
    assert cpu.rate == pytest.approx(0.5)
    sim.run()
    assert cpu.load == 0


def test_utilization_accounting():
    sim, cpu, _finish = run_tasks(2, [1.0, 1.0])
    # Two tasks on two cores for 1s => both cores busy the whole time.
    assert cpu.utilization() == pytest.approx(1.0)


def test_utilization_partial():
    sim = Simulator()
    cpu = FairShareCPU(sim, 2)

    def proc():
        yield from cpu.compute(1.0)
        yield Delay(1.0)

    sim.run_process(proc())
    # 1 core busy for 1s out of 2 cores * 2s = 0.25.
    assert cpu.utilization() == pytest.approx(0.25)


def test_overcommit_stretch_matches_theory():
    # 10 tasks x 1s work on 2 cores: rate 0.2 each -> all done at 5s.
    _sim, _cpu, finish = run_tasks(2, [1.0] * 10)
    for t in finish.values():
        assert t == pytest.approx(5.0)


def test_invalid_core_count():
    with pytest.raises(ValueError):
        FairShareCPU(Simulator(), 0)


def test_stretch_advisory():
    sim = Simulator()
    cpu = FairShareCPU(sim, 1)
    assert cpu.stretch(2.0) == pytest.approx(2.0)


def test_many_tasks_complete_in_bounded_events():
    # Regression guard: 200 tasks should complete without quadratic blowup
    # in scheduled wakeups and produce exact processor-sharing times.
    _sim, _cpu, finish = run_tasks(20, [1.0] * 200)
    for t in finish.values():
        assert t == pytest.approx(10.0)


def test_superseded_wakeups_do_not_advance_the_clock():
    # One core: a 10 s compute is interrupted at t=2 next to a 4 s
    # sibling.  The sibling has 3 s left at full rate and ends at 5.0;
    # the wakeups scheduled for t=10 and t=8 were superseded and must
    # not drag the clock (and the utilisation window) past it.
    sim = Simulator()
    cpu = FairShareCPU(sim, 1)
    finish = {}

    def task(name, work):
        try:
            yield from cpu.compute(work)
        except Interrupt:
            return
        finish[name] = sim.now

    long = sim.spawn(task("long", 10.0))
    sim.spawn(task("sibling", 4.0))
    sim.call_at(2.0, lambda: long.interrupt("crash"))
    assert sim.run() == pytest.approx(5.0)
    assert finish == {"sibling": pytest.approx(5.0)}
    assert cpu.utilization() == pytest.approx(1.0)
