"""Host-side memoisation for workload synthesis and trace parsing.

Workload generation is deterministic (seeded RNG, pure inputs), so a
(parameters -> events) cache only saves host time — simulated results
cannot change.  The access-trace memo in
:mod:`repro.workloads.functions` uses the same helper.  Caches are
bounded LRU so sweep runners revisiting a few configurations hit while
long parameter scans cannot grow without limit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

#: Entries kept per cache (a sweep rarely touches more configurations).
MAX_ENTRIES = 64


def memoized(cache: "OrderedDict[Hashable, T]", key: Hashable,
             build: Callable[[], T], max_entries: int = MAX_ENTRIES) -> T:
    """``build()`` once per ``key``; LRU-bounded to ``max_entries``.

    Callers must treat the returned value as immutable (or copy before
    mutating) — it is shared with future calls.
    """
    hit = cache.get(key)
    if hit is None:
        hit = build()
        cache[key] = hit
        if len(cache) > max_entries:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return hit
