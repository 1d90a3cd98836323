"""Node-level memory accounting.

Tracks current/peak usage per category, and an event-driven timeline used
for Figure 26 (memory-over-time) and Figure 18 (peak memory).  Components
report deltas (address spaces via ``on_local_delta``, page caches via
``on_delta``, platforms directly for kernel/VMM overheads).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.mem.layout import MB, PAGE_SIZE
from repro.obs import hooks


class MemoryAccountant:
    """Aggregates memory usage with per-category breakdown and a timeline.

    ``cap_violations`` counts the allocating charges (positive deltas)
    that leave usage over ``soft_cap_bytes``.  Address spaces and EPTs
    charge once per operation (an access, attach or populate, whatever
    number of VMAs it faults), so it counts over-cap operations, not
    pages or VMAs.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 soft_cap_bytes: Optional[int] = None):
        self._clock = clock or (lambda: 0.0)
        self.soft_cap_bytes = soft_cap_bytes
        self.usage: Dict[str, int] = {}
        self.current_bytes = 0
        self.peak_bytes = 0
        self.peak_time = 0.0
        self.timeline: List[Tuple[float, int]] = []
        self.cap_violations = 0
        self._timeline_resolution = 1.0  # seconds between retained samples
        self._last_sample_time = -1e18

    def charge(self, category: str, delta_bytes: int) -> None:
        """Add (or with negative delta, release) usage in a category."""
        if delta_bytes == 0:
            return
        new_value = self.usage.get(category, 0) + delta_bytes
        if new_value < 0:
            raise AssertionError(
                f"category {category!r} went negative: {new_value}")
        self.usage[category] = new_value
        self.current_bytes += delta_bytes
        now = self._clock()
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
            self.peak_time = now
        if (self.soft_cap_bytes is not None
                and self.current_bytes > self.soft_cap_bytes
                and delta_bytes > 0):
            self.cap_violations += 1
        self._sample(now)
        if hooks.on_accountant_charge is not None:
            hooks.on_accountant_charge(self, category, delta_bytes)

    def now(self) -> float:
        """The accountant's notion of current (virtual) time."""
        return self._clock()

    def charge_pages(self, category: str, delta_pages: int) -> None:
        self.charge(category, delta_pages * PAGE_SIZE)

    def page_delta_hook(self, category: str) -> Callable[[int], None]:
        """A callback suitable for ``AddressSpace.on_local_delta``."""
        def hook(delta_pages: int) -> None:
            self.charge_pages(category, delta_pages)
        return hook

    def over_soft_cap(self) -> bool:
        return (self.soft_cap_bytes is not None
                and self.current_bytes > self.soft_cap_bytes)

    # -- reporting ------------------------------------------------------------

    @property
    def current_mb(self) -> float:
        return self.current_bytes / MB

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / MB

    def breakdown_mb(self) -> Dict[str, float]:
        return {k: v / MB for k, v in sorted(self.usage.items()) if v}

    def timeline_mb(self) -> List[Tuple[float, float]]:
        return [(t, b / MB) for t, b in self.timeline]

    def integral_mb_seconds(self) -> float:
        """∫ usage dt — the usage×duration "memory cost" of §9.6.3."""
        if len(self.timeline) < 2:
            return 0.0
        total = 0.0
        for (t0, b0), (t1, _b1) in zip(self.timeline, self.timeline[1:]):
            total += b0 / MB * (t1 - t0)
        return total

    def _sample(self, now: float) -> None:
        if now - self._last_sample_time >= self._timeline_resolution:
            self.timeline.append((now, self.current_bytes))
            self._last_sample_time = now
        elif self.timeline and self.timeline[-1][0] == now:
            self.timeline[-1] = (now, self.current_bytes)
        elif not self.timeline:
            self.timeline.append((now, self.current_bytes))
            self._last_sample_time = now
