"""Hot/cold placement planning for tiered pools.

§5.1/§9.5: "a multi-layered architecture that strategically places hot
pages in CXL and cold pages in RDMA integrates seamlessly with our
approach" — the placement policy itself is orthogonal to TrEnv, so the
paper leaves it open.  We implement the natural one: pages in the
function's recorded working set (the same profile REAP uses) go to the
byte-addressable hot tier; never-touched snapshot pages go cold.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.rng import SeededRNG
from repro.workloads.functions import FunctionProfile


def working_set_hot_mask(profile: FunctionProfile, rng: SeededRNG,
                         budget_fraction: Optional[float] = None
                         ) -> np.ndarray:
    """Hot mask over the function's image pages from its recorded run.

    ``budget_fraction`` optionally caps the hot share of the image (a
    constrained CXL budget): the touched pages are ranked and truncated.
    """
    base = profile.base_trace(rng)
    mask = np.zeros(profile.image_pages, dtype=bool)
    mask[base.read_pages] = True
    if budget_fraction is not None:
        if not 0.0 <= budget_fraction <= 1.0:
            raise ValueError(f"budget out of range: {budget_fraction}")
        budget = int(profile.image_pages * budget_fraction)
        hot_idx = np.nonzero(mask)[0]
        if len(hot_idx) > budget:
            mask[:] = False
            mask[hot_idx[:budget]] = True
    return mask
