"""Synthesised Huawei serverless trace (§9.3).

The Huawei characterisation (Joosen et al., SoCC'23) reports *far*
spikier behaviour than Azure: sub-minute request spikes of two orders of
magnitude, with strong periodic components.  We synthesise per-minute
counts with a Pareto-distributed spike multiplier on top of a periodic
base, then place invocations within each minute with heavy skew.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Sequence

from repro.mem.layout import GB
from repro.sim.rng import SeededRNG
from repro.workloads.cache import memoized
from repro.workloads.functions import FUNCTIONS, FunctionProfile
from repro.workloads.synthetic import ArrivalEvent, Workload

#: (seed, function names, duration, rate, spike prob/shape) -> events.
#: Deterministic memo: the value is a pure function of the key.
_EVENTS_CACHE: "OrderedDict[tuple, List[ArrivalEvent]]" = OrderedDict()


def make_huawei_workload(seed: int = 0,
                         functions: Sequence[FunctionProfile] = FUNCTIONS,
                         duration: float = 1800.0,
                         mean_rate_per_min: float = 10.0,
                         spike_probability: float = 0.12,
                         spike_shape: float = 1.5) -> Workload:
    """Huawei-shaped workload: periodic base + rare violent spikes."""
    key = (seed, tuple(f.name for f in functions), duration,
           mean_rate_per_min, spike_probability, spike_shape)
    events = memoized(
        _EVENTS_CACHE, key,
        lambda: _synthesise(seed, functions, duration, mean_rate_per_min,
                            spike_probability, spike_shape))
    return Workload(name="Huawei", events=list(events), duration=duration,
                    soft_cap_bytes=64 * GB)


def _synthesise(seed, functions, duration, mean_rate_per_min,
                spike_probability, spike_shape) -> List[ArrivalEvent]:
    rng = SeededRNG(seed, "huawei")
    minutes = int(math.ceil(duration / 60.0))
    events: List[ArrivalEvent] = []
    n_funcs = len(functions)
    for minute in range(minutes):
        for idx, func in enumerate(functions):
            frng = rng.fork(f"m{minute}/{func.name}")
            # Strong per-function periodicity with distinct periods
            # (Huawei observes minute-of-hour and request-type cycles).
            period = 7 + 2 * idx
            base = mean_rate_per_min / n_funcs
            periodic = base * (1.0 + 0.8 * math.sin(
                2.0 * math.pi * minute / period))
            lam = max(periodic, 0.02)
            if frng.random() < spike_probability:
                lam *= frng.pareto(spike_shape, 4.0)
            count = int(frng.poisson_counts(lam, 1)[0])
            if count == 0:
                continue
            # Within-minute placement: spikes concentrate in ~5 seconds.
            spiky = count > 3 * base
            for _ in range(count):
                if spiky:
                    offset = frng.uniform(0.0, 5.0) + 30.0 * frng.random()
                else:
                    offset = frng.uniform(0.0, 60.0)
                t = minute * 60.0 + min(offset, 59.9)
                if t < duration:
                    events.append(ArrivalEvent(t, func.name))
    events.sort()
    return events
