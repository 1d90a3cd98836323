"""Host-side optimization flags.

Every flag here changes *host* behaviour only — wall-clock time and
allocations — never simulated results.  The seeded fault counts and
virtual-clock timings of an experiment must be bit-identical with the
flags on or off; ``tests/integration/test_golden_determinism.py`` pins
that invariant and ``benchmarks/perf`` measures the host-side win.

Flags:

* ``cow_attach`` — template attach / CRIU restore share page-state
  arrays copy-on-write (:mod:`repro.mem.cow`) instead of deep-copying
  them per attach.
* ``trace_cache`` — each function's base access trace (per seed and
  RNG stream) and the synthesised workload schedules and parsed traces
  are memoised (:mod:`repro.workloads.cache`) instead of re-drawn from
  the (stateless, seeded) RNG.  Per-invocation jittered traces are
  always drawn fresh: their keys never repeat within a run.
* ``timer_wheel`` — the engine schedules wake-ups on a calendar queue
  (bucket per distinct virtual time, FIFO within a bucket) instead of
  one global binary heap; same-tick wake-ups append in O(1) with no
  heap traffic.  Pop order stays exactly ``(time, seq)``.
* ``dispatch_index`` — cluster dispatch reads incrementally-maintained
  indices (per-function warm-instance map, load-keyed lazy heap)
  instead of scanning every platform per invocation.
* ``stream_metrics`` — :class:`~repro.serverless.metrics.LatencyRecorder`
  additionally folds each sample into fixed-bin log-scale histograms;
  quantile queries become O(bins) (exact below the small-sample
  threshold) and recorders may drop per-invocation storage entirely.
* ``batch_arrivals`` — workload runners pre-compute the arrival
  schedule and schedule each invocation directly at its arrival time
  (``Simulator.spawn_at``) instead of spawning one ``Delay`` generator
  per arrival at t=0.
* ``parallel_sim`` — eligible cluster runs shard per node group across
  worker processes, each advancing its own ``Simulator`` inside
  conservative lookahead windows (:mod:`repro.sim.parallel`,
  :mod:`repro.serverless.parallel`).  Ineligible configurations
  (dynamic dispatch state, armed control plane, injected faults) fall
  back to the serial reference path, so results are bit-identical by
  construction either way.

``FLAGS`` is the machine-readable registry: tooling enumerates it
instead of hard-coding names.  ``repro.analysis`` rule SIM005 reads it
to verify every flag's fast/slow path pair is exercised by at least one
test, and the context managers below toggle exactly this set.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

#: Every optimization flag, in declaration order.  Each name is a module
#: attribute holding a bool; add new flags here and nowhere else.
FLAGS: Tuple[str, ...] = ("cow_attach", "trace_cache", "timer_wheel",
                          "dispatch_index", "stream_metrics",
                          "batch_arrivals", "parallel_sim")

cow_attach: bool = True
trace_cache: bool = True
timer_wheel: bool = True
dispatch_index: bool = True
stream_metrics: bool = True
batch_arrivals: bool = True
parallel_sim: bool = True


def _snapshot() -> Tuple[bool, ...]:
    return tuple(bool(globals()[name]) for name in FLAGS)


def _restore(saved: Tuple[bool, ...]) -> None:
    for name, value in zip(FLAGS, saved):
        globals()[name] = value


def _set_all(value: bool) -> None:
    for name in FLAGS:
        globals()[name] = value


@contextmanager
def optimizations_disabled() -> Iterator[None]:
    """Run a block on the copying / no-cache baseline paths."""
    saved = _snapshot()
    _set_all(False)
    try:
        yield
    finally:
        _restore(saved)


@contextmanager
def disabled(*names: str) -> Iterator[None]:
    """Turn off just the named flags (the rest keep their values)."""
    for name in names:
        if name not in FLAGS:
            raise ValueError(f"unknown optflag {name!r}; known: {FLAGS}")
    saved = _snapshot()
    for name in names:
        globals()[name] = False
    try:
        yield
    finally:
        _restore(saved)


@contextmanager
def optimizations_enabled() -> Iterator[None]:
    """Force the optimised paths on (e.g. inside a disabled block)."""
    saved = _snapshot()
    _set_all(True)
    try:
        yield
    finally:
        _restore(saved)
