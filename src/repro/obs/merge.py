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
* **trace ids** — the only shard-local state.  Serially, ids are
  handed out in task wake order: events sorted by ``(max(0, time),
  event index)``.  A shard hands ids to its *owned* events in the
  same wake order, so shard-local id ``k+1`` maps to the serial id
  of the shard's ``k``-th owned event in wake order.  The remap is
  computed from the workload + plan alone — no runtime channel.

The per-record work runs in the workers, in parallel: the parent
computes every shard's remap before submitting, and each worker turns
its tracer into a :class:`ShardTrace` (:func:`shard_trace`) — ids
remapped, records content-sorted, still tuples.  The parent's
:func:`merge_shard_tracers` then only merges runs that are already
sorted.

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
from typing import Dict, List, Optional, Sequence, Tuple

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
                 plan) -> List[Dict[int, int]]:
    """Per shard: {shard-local trace id: serial trace id}.

    ``plan`` is a :class:`~repro.serverless.partition.ParallelPlan`;
    the remap depends only on the workload's event times and the
    plan's static event->node assignment.
    """
    serial_ids = serial_trace_ids(event_times)
    remaps: List[Dict[int, int]] = []
    for shard in range(plan.n_shards):
        owned = plan.owned_events(shard)
        wake = sorted(owned,
                      key=lambda i: (max(0.0, event_times[i]), i))
        remaps.append({k + 1: serial_ids[idx]
                       for k, idx in enumerate(wake)})
    return remaps


# -- content order ------------------------------------------------------------

#: Every field but the trailing args dict, per record kind.
_SPAN_LEAD = itemgetter(0, 1, 2, 3, 4, 5, 6)
_INSTANT_LEAD = itemgetter(0, 1, 2, 3)
_LINK_LEAD = itemgetter(0, 1, 2, 3, 4)


def _canon(record: Tuple) -> str:
    args = record[-1]
    return json.dumps(args, sort_keys=True) if args else ""


@contextlib.contextmanager
def _collector_paused():
    """No cyclic-GC passes while a block builds records in bulk.

    Remapping and sorting allocate a tuple per record (and a key tuple
    per record while sorting); on a shard's large heap the collector
    passes those allocations trigger cost more than the work itself.
    The records form no reference cycles, so there is nothing for the
    paused collector to find.
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
    ids and each record list is content-sorted.  Records stay tuples,
    since the process boundary is pickle.  ``breach`` names the merge
    invariant the shard broke, if any; its record lists are then empty.
    """

    #: {track name: pid}.
    procs: Dict[str, int]
    #: {pid: lane high-water mark}.
    lane_high: Dict[int, int]
    #: How many trace ids the shard owns (its remap's size).
    n_ids: int
    spans: List[Tuple] = field(default_factory=list)
    instants: List[Tuple] = field(default_factory=list)
    links: List[Tuple] = field(default_factory=list)
    breach: Optional[str] = None


def shard_trace(tracer: SpanTracer, remap: Dict[int, int],
                shard: int) -> ShardTrace:
    """Remap ``tracer``'s ids to serial ids and content-sort its records.

    Runs in the shard worker.  Checks the shard-side merge invariants:
    the shard began exactly as many traces as the plan gives it events,
    and every id it recorded is one of them.  A breach is returned as
    :attr:`ShardTrace.breach`, not raised, so the worker still hands
    back its outcome and the parent can fall back with the reason.
    """
    out = ShardTrace(procs=tracer.processes(),
                     lane_high=dict(tracer._lane_high), n_ids=len(remap))
    n_local = tracer._next_id - 1
    if n_local != len(remap):
        out.breach = (f"shard {shard} began {n_local} traces but the plan "
                      f"owns {len(remap)} events")
        return out
    rid = dict(remap)
    rid[0] = 0          # the environment keeps id 0
    with _collector_paused():
        try:
            spans = [(t0, t1, pid, tid, name, cat, rid[trace_id], args)
                     for t0, t1, pid, tid, name, cat, trace_id, args
                     in tracer.spans]
            instants = []
            for record in tracer.instants:
                args = record[4]
                if args and "trace_id" in args:
                    args = dict(args)
                    args["trace_id"] = rid[args["trace_id"]]
                    record = record[:4] + (args,)
                instants.append(record)
            links = [(t0, t1, kind, rid[src], rid[dst], args)
                     for t0, t1, kind, src, dst, args in tracer.links]
        except KeyError as exc:
            out.breach = (f"shard {shard} referenced unknown local trace "
                          f"id {exc.args[0]}")
            return out
        _content_sort(spans, _SPAN_LEAD)
        _content_sort(instants, _INSTANT_LEAD)
        _content_sort(links, _LINK_LEAD)
    out.spans, out.instants, out.links = spans, instants, links
    return out


# -- parent side ---------------------------------------------------------------

def merge_shard_tracers(traces: Sequence[Optional[ShardTrace]]
                        ) -> SpanTracer:
    """Fold the shards' :class:`ShardTrace` runs into one tracer.

    Raises :class:`SpanMergeError` when a shard trace is missing, the
    pid maps disagree, or a worker reported a breach.  The merged
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
        merged.spans.extend(trace.spans)
        merged.instants.extend(trace.instants)
        merged.links.extend(trace.links)
        for pid, high in trace.lane_high.items():
            lane_high[pid] = max(lane_high.get(pid, 0), high)
    merged._lane_high = dict(sorted(lane_high.items()))
    merged._next_id = 1 + sum(trace.n_ids for trace in traces)
    # Content order: shard concatenation order must not leak into the
    # merged object (2-shard and 4-shard merges of the same run must be
    # identical tracers).  Each shard's run is already sorted.
    with _collector_paused():
        _content_sort(merged.spans, _SPAN_LEAD)
        _content_sort(merged.instants, _INSTANT_LEAD)
        _content_sort(merged.links, _LINK_LEAD)
    return merged
