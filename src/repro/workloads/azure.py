"""Synthesised Azure Functions trace (§9.3).

The public Azure dataset (Shahrad et al., ATC'20) records invocation
counts per function per minute; its hallmarks are a heavy-tailed
popularity distribution (a few functions dominate), mild diurnality, and
within-minute randomness.  The paper redistributes counts randomly within
each minute "with a probability of creating skew or bursty loads" — we do
the same: per-minute Poisson counts from a per-function base rate, placed
either uniformly in the minute or skewed into a burst window.
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

#: (seed, function names, duration, rate, skew, zipf) -> sorted events.
#: Synthesis is seeded-deterministic, so the memo only saves host time
#: (repeated sweep shards re-request identical parameter tuples).
#: Deterministic memo: the value is a pure function of the key.
_EVENTS_CACHE: "OrderedDict[tuple, List[ArrivalEvent]]" = OrderedDict()


def make_azure_workload(seed: int = 0,
                        functions: Sequence[FunctionProfile] = FUNCTIONS,
                        duration: float = 1800.0,
                        mean_rate_per_min: float = 14.0,
                        skew_probability: float = 0.3,
                        zipf_s: float = 1.1) -> Workload:
    """Azure-shaped workload: Zipf popularity + diurnal + minute bursts."""
    key = (seed, tuple(f.name for f in functions), duration,
           mean_rate_per_min, skew_probability, zipf_s)
    events = memoized(
        _EVENTS_CACHE, key,
        lambda: _synthesise(seed, functions, duration, mean_rate_per_min,
                            skew_probability, zipf_s))
    return Workload(name="Azure", events=list(events), duration=duration,
                    soft_cap_bytes=64 * GB)


def _synthesise(seed, functions, duration, mean_rate_per_min,
                skew_probability, zipf_s) -> List[ArrivalEvent]:
    rng = SeededRNG(seed, "azure")
    minutes = int(math.ceil(duration / 60.0))
    # Zipf popularity over the function suite.
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(functions))]
    order = rng.shuffled(range(len(functions)))
    total_w = sum(weights)
    events: List[ArrivalEvent] = []
    for minute in range(minutes):
        # Mild diurnal modulation across the run.
        phase = 2.0 * math.pi * minute / max(minutes, 1)
        modulation = 1.0 + 0.35 * math.sin(phase)
        for rank, func_idx in enumerate(order):
            func = functions[func_idx]
            lam = mean_rate_per_min * modulation * weights[rank] / total_w
            count = int(rng.poisson_counts(lam, 1)[0])
            if count == 0:
                continue
            frng = rng.fork(f"m{minute}/{func.name}")
            if frng.random() < skew_probability:
                # Burst: squeeze all invocations into a short window.
                start = frng.uniform(0.0, 50.0)
                times = [start + frng.uniform(0.0, 4.0) for _ in range(count)]
            else:
                times = [frng.uniform(0.0, 60.0) for _ in range(count)]
            for offset in times:
                t = minute * 60.0 + offset
                if t < duration:
                    events.append(ArrivalEvent(t, func.name))
    events.sort()
    return events
