"""Merge per-shard span traces into one serial-equivalent trace.

A parallel cluster run (:func:`repro.serverless.parallel
.run_cluster_parallel`) executes each node-group shard in its own
worker process, so each worker records its own :class:`SpanTracer`.
This module folds those shard traces back into a single tracer whose
Chrome-trace export is **byte-identical** to the serial run's — the
trace joins the result, the records and the registry as the fourth
bit-identical artifact.

Why this works without coordination:

* **pids** — every worker rebuilds the full rack and prebinds node
  pids in rack order (:meth:`SpanTracer.prebind_nodes`), so the pid
  map is a pure function of the spec; the merge just checks the maps
  agree.
* **lanes (tids)** — lane allocation is per-pid (free-lane heap +
  high-water mark), and a shard drives exactly the serial per-node
  event subsequence, so the lanes a shard assigns on its own nodes
  equal the serial run's.
* **trace ids** — serially, ids are handed out in task wake order:
  events sorted by ``(max(0, time), event index)``.  A shard begins
  its *owned* events in the same wake order, so its ``k``-th
  ``begin`` is the event whose serial id is the ``k``-th smallest of
  the shard's.  The parent computes that id list per shard from the
  workload and the plan alone (:func:`shard_remaps`) and the shard's
  tracer hands the ids out at record time — no runtime channel and no
  rewrite of recorded ids.

Each worker content-sorts its own records (:func:`shard_trace`), in
parallel.  The content order is pid-major, and each shard owns a
contiguous block of pids, so past the rack-track (pid 0) records the
shard runs concatenate already in order: the parent's
:func:`merge_shard_tracers` sorts only the rack records and the links,
and checks that each shard's node records follow the previous shard's.

Anything that breaks these invariants raises :class:`SpanMergeError`
in the parent (a worker-side breach travels back as
:attr:`ShardTrace.breach`); the runner surfaces its message as the
explicit span-merge fallback reason and re-runs the serial reference
path for the trace.
"""

from __future__ import annotations

import contextlib
import gc
import json
from dataclasses import dataclass, field
from itertools import compress
from operator import eq, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import SpanTracer


class SpanMergeError(RuntimeError):
    """Why shard traces cannot be merged (the surfaced fallback reason)."""


def serial_trace_ids(event_times: Sequence[float]) -> List[int]:
    """Event index -> the trace id the *serial* run assigns that event.

    The serial dispatcher spawns one task per event, in event order;
    tasks wake (and call ``begin``) in ``(scheduled time, spawn seq)``
    order, and an event scheduled in the past wakes "now" — hence the
    ``max(0, time)`` clamp (both serial and shard clocks start at 0).
    """
    order = sorted(range(len(event_times)),
                   key=lambda i: (max(0.0, event_times[i]), i))
    ids = [0] * len(order)
    for pos, idx in enumerate(order):
        ids[idx] = pos + 1
    return ids


def shard_remaps(event_times: Sequence[float],
                 plan) -> List[List[int]]:
    """Per shard: the serial trace id of each of its ``begin`` calls.

    ``plan`` is a :class:`~repro.serverless.partition.ParallelPlan`;
    the ids depend only on the workload's event times and the plan's
    static event->node assignment.  A shard begins its owned events in
    serial wake order, so its ids are its events' serial ids, ascending.
    """
    serial_ids = serial_trace_ids(event_times)
    return [sorted(serial_ids[idx] for idx in plan.owned_events(shard))
            for shard in range(plan.n_shards)]


# -- content order ------------------------------------------------------------

#: Every field but the trailing args dict, per record kind, pid-major
#: for the records that carry a pid: spans ``(pid, tid, t0, t1, name,
#: cat, trace_id)``, instants ``(pid, tid, t, name)``, links as stored.
_SPAN_LEAD = itemgetter(2, 3, 0, 1, 4, 5, 6)
_INSTANT_LEAD = itemgetter(1, 2, 0, 3)
_LINK_LEAD = itemgetter(0, 1, 2, 3, 4)
#: Where a span and an instant keep their pid.
_SPAN_PID = 2
_INSTANT_PID = 1


def _canon(record: Tuple) -> str:
    args = record[-1]
    return json.dumps(args, sort_keys=True) if args else ""


@contextlib.contextmanager
def _collector_paused():
    """No cyclic-GC passes while a block builds records in bulk.

    Sorting allocates a key tuple per record, and receiving a shard's
    trace unpickles a tuple per record; on a large heap the collector
    passes those allocations trigger cost more than the work itself.
    The records form no reference cycles, so there is nothing for the
    paused collector to find.  The previous state comes back on every
    exit path.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _content_sort(records: List[Tuple], lead) -> None:
    """Sort ``records`` in place by (leading fields, canonical args).

    The leading fields decide nearly every comparison, so the sort keys
    on them alone and canonicalises ``args`` (one ``json.dumps``) only
    inside runs whose leading fields tie.  Both passes are stable, so
    records that tie on the full key keep their input order — the same
    order a single sort on the full key gives.  On input that is a
    concatenation of sorted runs the sort is a merge.
    """
    records.sort(key=lead)
    keys = list(map(lead, records))
    # Positions i whose key equals the key at i - 1.
    ties = compress(range(1, len(keys)), map(eq, keys[1:], keys))
    runs: List[List[int]] = []
    for i in ties:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i - 1, i + 1])
    for start, end in runs:
        records[start:end] = sorted(records[start:end], key=_canon)


# -- worker side ---------------------------------------------------------------

@dataclass
class ShardTrace:
    """One shard's span trace, ready for the parent's merge.

    Built in the worker by :func:`shard_trace`: trace ids are serial
    ids (handed out at record time) and each record list is
    content-sorted.  Records stay tuples, since the process boundary is
    pickle.  ``breach`` names the merge invariant the shard broke, if
    any; its record lists are then empty.
    """

    #: {track name: pid}.
    procs: Dict[str, int]
    #: {pid: lane high-water mark}.
    lane_high: Dict[int, int]
    #: How many trace ids the shard owns (the length of its id list).
    n_ids: int
    spans: List[Tuple] = field(default_factory=list)
    instants: List[Tuple] = field(default_factory=list)
    links: List[Tuple] = field(default_factory=list)
    breach: Optional[str] = None


def shard_trace(tracer: SpanTracer, shard: int) -> ShardTrace:
    """Content-sort ``tracer``'s records for the parent's merge.

    Runs in the shard worker.  Checks the shard-side merge invariant:
    the shard began exactly as many traces as its id list holds (the
    plan's owned events; a tracer built without ids owns what it
    began).  A breach is returned as :attr:`ShardTrace.breach`, not
    raised, so the worker still hands back its outcome and the parent
    can fall back with the reason.
    """
    ids = tracer._ids
    n_ids = tracer.n_begun if ids is None else len(ids)
    out = ShardTrace(procs=tracer.processes(),
                     lane_high=dict(tracer._lane_high), n_ids=n_ids)
    if tracer.n_begun != n_ids:
        out.breach = (f"shard {shard} began {tracer.n_begun} traces but "
                      f"the plan owns {n_ids} events")
        return out
    spans, instants, links = (list(tracer.spans), list(tracer.instants),
                              list(tracer.links))
    with _collector_paused():
        _content_sort(spans, _SPAN_LEAD)
        _content_sort(instants, _INSTANT_LEAD)
        _content_sort(links, _LINK_LEAD)
    out.spans, out.instants, out.links = spans, instants, links
    return out


# -- parent side ---------------------------------------------------------------

def _merge_runs(runs: Sequence[List[Tuple]], lead: Callable,
                pid_at: int) -> List[Tuple]:
    """The content-sorted union of the shards' content-sorted runs.

    A run is pid-major, so its rack-track (pid 0) records come first;
    past them each run covers its shard's own node block.  Only the
    rack records are sorted; the rest concatenate in shard order.  A
    run whose node records do not start after the previous run's end
    (a shard recorded on another shard's node) is a breach.
    """
    rack: List[Tuple] = []
    rest: List[Tuple] = []
    last = 0        # the shard whose records end ``rest``
    for shard, run in enumerate(runs):
        split = 0
        while split < len(run) and run[split][pid_at] == 0:
            split += 1
        rack.extend(run[:split])
        if split < len(run):
            if rest and not lead(rest[-1]) < lead(run[split]):
                raise SpanMergeError(f"shard {shard} node records "
                                     f"overlap shard {last}'s")
            rest.extend(run[split:])
            last = shard
    _content_sort(rack, lead)
    rack.extend(rest)
    return rack


def merge_shard_tracers(traces: Sequence[Optional[ShardTrace]]
                        ) -> SpanTracer:
    """Fold the shards' :class:`ShardTrace` runs into one tracer.

    Raises :class:`SpanMergeError` when a shard trace is missing, the
    pid maps disagree, a worker reported a breach, or two shards'
    node records overlap.  The merged
    records are in content order, so the result is identical for any
    shard count that merges at all.
    """
    if not traces:
        raise SpanMergeError("no shard traces to merge")
    for shard, trace in enumerate(traces):
        if trace is None:
            raise SpanMergeError(f"shard {shard} recorded no span trace")
    procs = traces[0].procs
    for shard, trace in enumerate(traces):
        if trace.procs != procs:
            raise SpanMergeError(
                f"shard {shard} pid map differs from shard 0 "
                f"(prebind invariant broken)")
    for trace in traces:
        if trace.breach is not None:
            raise SpanMergeError(trace.breach)

    merged = SpanTracer()
    merged._procs = dict(procs)
    lane_high: Dict[int, int] = {}
    for trace in traces:
        for pid, high in trace.lane_high.items():
            lane_high[pid] = max(lane_high.get(pid, 0), high)
    merged._lane_high = dict(sorted(lane_high.items()))
    merged._next_id = 1 + sum(trace.n_ids for trace in traces)
    # Content order: shard concatenation order must not leak into the
    # merged object (2-shard and 4-shard merges of the same run must be
    # identical tracers).
    with _collector_paused():
        merged.spans = _merge_runs([t.spans for t in traces], _SPAN_LEAD,
                                   _SPAN_PID)
        merged.instants = _merge_runs([t.instants for t in traces],
                                      _INSTANT_LEAD, _INSTANT_PID)
        links = [link for t in traces for link in t.links]
        _content_sort(links, _LINK_LEAD)
        merged.links = links
    return merged
