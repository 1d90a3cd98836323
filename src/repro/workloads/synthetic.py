"""Synthetic workloads W1 (bursty) and W2 (diurnal) from §9.1.

W1 replays bursty traffic whose inter-burst gaps exceed the keep-alive
threshold, defeating warm caching; W2 emulates diurnal fluctuations while
cycling through functions under a tight (32 GB) memory cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import math

import numpy as np

from repro.mem.layout import GB
from repro.sim.rng import SeededRNG
from repro.workloads.functions import FUNCTIONS, FunctionProfile


class ArrivalEvent(NamedTuple):
    """One invocation request: when, and of which function.

    A named tuple rather than a (frozen) dataclass: trace-scale
    schedules construct hundreds of thousands of these, and tuple
    construction skips the per-field ``object.__setattr__`` a frozen
    dataclass pays.  Ordering/equality are the tuple's
    ``(time, function)`` — exactly the tie order scheduling relies on.
    """

    time: float
    function: str


@dataclass
class Workload:
    """A named arrival schedule plus its platform configuration."""

    name: str
    events: List[ArrivalEvent]
    duration: float
    soft_cap_bytes: Optional[int] = 64 * GB
    keep_alive: float = 600.0          # seconds, §9.1 schedule policy
    warmup: float = 0.0                # measurement excludes t < warmup

    @property
    def n_invocations(self) -> int:
        return len(self.events)

    def functions_used(self) -> List[str]:
        return sorted({e.function for e in self.events})

    def times(self) -> np.ndarray:
        """Arrival times as a sorted float array (cached per event list)."""
        cached = getattr(self, "_times_cache", None)
        if cached is None or cached.size != len(self.events):
            cached = np.fromiter((e.time for e in self.events),
                                 dtype=float, count=len(self.events))
            self._times_cache = cached
        return cached

    @classmethod
    def from_arrays(cls, name: str, times: np.ndarray,
                    function_names: Sequence[str], duration: float,
                    codes: Optional[np.ndarray] = None,
                    **kwargs) -> "Workload":
        """Build a workload from precomputed parallel arrays.

        ``times`` need not be sorted: a lexsort orders by
        ``(time, function)`` — the tie order :meth:`validate` expects —
        so the events are built directly in final order, with no
        comparison-based sort over event objects.

        ``codes``, if given, are precomputed lexicographic-rank integer
        codes for ``function_names`` (``codes[i] < codes[j]`` iff
        ``function_names[i] < function_names[j]``), skipping the
        per-element factorisation.
        """
        times = np.asarray(times, dtype=float)
        if times.size != len(function_names):
            raise ValueError("times and function_names length mismatch")
        if codes is None:
            # Factorise names to their lexicographic rank so the
            # tie-break lexsort is numeric (string-keyed lexsort is far
            # slower).
            rank = {n: i for i, n in enumerate(sorted(set(function_names)))}
            codes = np.fromiter((rank[n] for n in function_names),
                                dtype=np.int64, count=times.size)
        order = np.lexsort((codes, times))
        # Bulk-convert once (per-element numpy indexing/float() is
        # slow); _make over a zip keeps event construction in C.
        sorted_times = times[order].tolist()
        order_list = order.tolist()
        events = list(map(ArrivalEvent._make,
                          zip(sorted_times,
                              (function_names[i] for i in order_list))))
        return cls(name=name, events=events, duration=duration, **kwargs)

    def validate(self) -> None:
        if any(e.time < 0 or e.time > self.duration for e in self.events):
            raise ValueError(f"workload {self.name} has out-of-range events")
        if self.events != sorted(self.events):
            raise ValueError(f"workload {self.name} events not time-sorted")


def make_w1_bursty(seed: int = 0,
                   functions: Sequence[FunctionProfile] = FUNCTIONS,
                   duration: float = 1800.0,
                   keep_alive: float = 600.0,
                   burst_size: int = 12,
                   bursts_per_function: int = 2,
                   burst_spread: float = 2.0) -> Workload:
    """W1: per-function bursts separated by more than the keep-alive.

    Each function fires ``bursts_per_function`` bursts of ``burst_size``
    near-simultaneous invocations; consecutive bursts of the same function
    are spaced ``> keep_alive`` apart, so a keep-alive cache has always
    evicted/expired the instances by the next burst (§9.1 W1).
    """
    rng = SeededRNG(seed, "w1")
    gap = keep_alive * 1.15
    # Clamp the burst count to what the duration can hold while keeping
    # the inter-burst gap above the keep-alive threshold.
    max_bursts = max(1, int(duration / gap) + 1)
    bursts_per_function = min(bursts_per_function, max_bursts)
    events: List[ArrivalEvent] = []
    for i, profile in enumerate(functions):
        frng = rng.fork(profile.name)
        # Stagger function phase so bursts of different functions collide
        # only sometimes (load instability, not lockstep).
        first = frng.uniform(0.0, min(duration * 0.1, 60.0)) + i * 3.0
        for b in range(bursts_per_function):
            base = first + b * gap
            if base >= duration:
                break
            for _ in range(burst_size):
                t = base + frng.exponential(burst_spread)
                if t < duration:
                    events.append(ArrivalEvent(t, profile.name))
    events.sort()
    return Workload(name="W1", events=events, duration=duration,
                    soft_cap_bytes=64 * GB, keep_alive=keep_alive)


def make_w2_diurnal(seed: int = 0,
                    functions: Sequence[FunctionProfile] = FUNCTIONS,
                    duration: float = 1800.0,
                    keep_alive: float = 600.0,
                    mean_rate: float = 2.4,
                    cycles: float = 3.0,
                    depth: float = 0.85,
                    soft_cap_bytes: int = 32 * GB) -> Workload:
    """W2: diurnal rate modulation, cycling functions, tight memory.

    Arrival intensity follows ``mean_rate * (1 + depth*sin(...))`` and the
    function choice rotates with the phase, emulating day/night shifts in
    the popular function mix.  A 32 GB soft cap (§9.1) forces eviction
    pressure.
    """
    rng = SeededRNG(seed, "w2")
    events: List[ArrivalEvent] = []
    t = 0.0
    n_funcs = len(functions)
    while t < duration:
        phase = 2.0 * math.pi * cycles * t / duration
        rate = mean_rate * (1.0 + depth * math.sin(phase))
        rate = max(rate, 0.05)
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            break
        # The "popular" function rotates over the cycle; others trickle.
        lead = int((phase / (2.0 * math.pi) * n_funcs)) % n_funcs
        if rng.random() < 0.55:
            func = functions[lead]
        else:
            func = functions[rng.randint(0, n_funcs)]
        events.append(ArrivalEvent(t, func.name))
    events.sort()
    return Workload(name="W2", events=events, duration=duration,
                    soft_cap_bytes=soft_cap_bytes, keep_alive=keep_alive)


def make_scaleout_uniform(seed: int = 0,
                          functions: Sequence[FunctionProfile] = FUNCTIONS,
                          duration: float = 600.0,
                          rate: float = 200.0,
                          keep_alive: float = 600.0,
                          quantum: float = 0.0) -> Workload:
    """Uniform-rate Poisson arrivals for throughput benchmarking.

    The schedule is synthesised fully vectorised — bulk exponential
    gaps, a cumulative sum, and one bulk function draw — so building a
    100k+-invocation schedule costs milliseconds, not a Python loop per
    arrival.  Used by the rack perf scenarios and the sweep
    runner (10 nodes x 100k invocations), where schedule construction
    would otherwise rival simulation time.

    ``quantum`` > 0 snaps arrival times to a grid, mimicking the
    coarse timestamp resolution of the public traces (Azure records
    per-minute counts); quantised schedules have many same-tick
    arrivals, which the engine runs in FIFO order within each tick.
    """
    rng = SeededRNG(seed, "scaleout")
    mean_gap = 1.0 / rate
    chunk = int(rate * duration * 1.1) + 64
    times = np.cumsum(rng.exponentials(mean_gap, chunk))
    while times.size == 0 or times[-1] < duration:
        more = np.cumsum(rng.exponentials(mean_gap, chunk))
        times = np.concatenate([times, (times[-1] if times.size else 0.0)
                                + more])
    times = times[times < duration]
    if quantum > 0.0:
        times = np.floor(times / quantum) * quantum
    picks = rng.integers_array(0, len(functions), times.size)
    suite_names = [f.name for f in functions]
    names = [suite_names[i] for i in picks.tolist()]
    # Lexicographic rank per suite index (double argsort), vectorised
    # over the picks — from_arrays then skips its per-name ranking.
    rank = np.argsort(np.argsort(suite_names))
    return Workload.from_arrays("scaleout", times, names, duration,
                                codes=rank[picks],
                                soft_cap_bytes=None,
                                keep_alive=keep_alive)
