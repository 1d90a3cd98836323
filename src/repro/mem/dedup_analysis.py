"""Cross-instance state-duplication analysis.

§1 motivates TrEnv with two memory inefficiencies: *memory stranding*
(up to 50% of memory underutilised) and *state duplication* (Medes
reports an 80% occurrence across concurrent sandboxes).  This module
measures both on live simulated nodes:

* :func:`duplication_report` — across a set of address spaces, what
  fraction of locally-resident pages carry content another instance also
  holds (the baselines' waste; TrEnv's shared pool pages are excluded by
  construction because they are not locally resident).
* :func:`stranding_report` — on a node, how much of the committed DRAM
  is idle warm-instance state rather than actively-used memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.mem.address_space import PTE_LOCAL, AddressSpace
from repro.mem.layout import PAGE_SIZE


@dataclass(frozen=True)
class DuplicationReport:
    """What a Medes-style content scan would find."""

    total_resident_pages: int
    unique_content_pages: int
    duplicated_pages: int          # resident pages whose content exists
                                   # in >= 2 resident copies
    instances: int

    @property
    def duplication_ratio(self) -> float:
        """Fraction of resident pages that are redundant copies."""
        if self.total_resident_pages == 0:
            return 0.0
        return (self.total_resident_pages
                - self.unique_content_pages) / self.total_resident_pages

    @property
    def duplication_occurrence(self) -> float:
        """Fraction of resident pages involved in any duplication (the
        'occurrence' statistic Medes reports)."""
        if self.total_resident_pages == 0:
            return 0.0
        return self.duplicated_pages / self.total_resident_pages


def duplication_report(spaces: Sequence[AddressSpace]) -> DuplicationReport:
    """Scan resident pages of all instances for duplicate content."""
    counts: Dict[int, int] = {}
    total = 0
    for space in spaces:
        resident = np.asarray(space.state) == PTE_LOCAL
        total += int(np.count_nonzero(resident))
        for cid in np.asarray(space.content)[resident].tolist():
            counts[cid] = counts.get(cid, 0) + 1
    unique = len(counts)
    duplicated = sum(c for c in counts.values() if c >= 2)
    return DuplicationReport(total_resident_pages=total,
                             unique_content_pages=unique,
                             duplicated_pages=duplicated,
                             instances=len(spaces))


@dataclass(frozen=True)
class StrandingReport:
    """Idle (warm) vs active memory on a node."""

    active_bytes: int
    idle_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.active_bytes + self.idle_bytes

    @property
    def stranding_ratio(self) -> float:
        """Fraction of committed function memory that is idle."""
        if self.total_bytes == 0:
            return 0.0
        return self.idle_bytes / self.total_bytes


def stranding_report(platform) -> StrandingReport:
    """Split a platform's resident function memory into active vs idle.

    Idle = memory held by warm-pool instances waiting for a request —
    the resource a keep-alive strategy strands (§1/§3.2).
    """
    idle = sum(inst.space.local_bytes
               for inst in platform.warm.idle_instances())
    total = platform.node.memory.usage.get("function-anon", 0)
    active = max(0, total - idle)
    return StrandingReport(active_bytes=active, idle_bytes=idle)
