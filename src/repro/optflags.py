"""Registry of host-side optimization flags (currently empty).

Each host-side optimization once kept a switchable reference path next
to its fast path.  Every one of them now has a single implementation,
chosen by end-to-end measurement: copy-on-write attach, the trace
memo, the plain ``(time, seq)`` heap scheduler, the dispatch index,
streaming latency aggregates, batched arrival scheduling and
node-sharded parallel runs whenever the plan proves them safe.

``FLAGS`` stays because the provenance block of ``perfbench/child.py``
reads it and reports every name listed here with its value; an empty
tuple records that no switchable path was involved in a run.
"""

from __future__ import annotations

from typing import Tuple

#: Every optimization flag, in declaration order (none at present).
FLAGS: Tuple[str, ...] = ()
