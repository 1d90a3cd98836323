"""Virtual-clock span tracer: the invocation lifecycle as trace events.

Spans record *simulated* timestamps (``sim.now``), never wall clock —
tracing a run is a pure host-side observation and by contract changes no
simulated result (the golden-determinism tests enforce this).

Track model (what Perfetto shows after export):

* **pid 0** is the rack-level control track: fault-injector events, whole
  -rack conditions, anything not attributable to one node.
* **one pid per node**, assigned in first-bind order.  Within a node,
  **tid 0** is the node control track (retire/teardown background work,
  crash/recover marks) and **tids >= 1 are invocation lanes**: each
  in-flight invocation holds a lane from bind to finish, and lanes are
  recycled smallest-first so concurrent invocations stack like rows in a
  flame chart instead of growing an unbounded tid space.

A :class:`TraceContext` is the explicit object threaded through
``cluster.py`` / ``runner.py`` / the platforms down to ``criu/restore.py``
and ``core/mm_template.py``.  It is deliberately *not* ambient state: the
engine interleaves generator tasks at the same virtual tick, so any
"current context" global would attribute spans to the wrong invocation.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: pid of the rack-level control track.
RACK_PID = 0
#: tid of the per-node (and rack) control track.
CONTROL_TID = 0

#: Accepted by SpanTracer.link for either endpoint.
OptionalCtxOrId = Union["TraceContext", int]


class TraceContext:
    """Identity of one traced invocation: a lane on a node's track.

    Created unbound (``pid == -1``) by :meth:`SpanTracer.begin`; bound to
    a node (and an invocation lane) by :meth:`SpanTracer.bind` — possibly
    more than once, when a cluster re-dispatches after a node crash.
    """

    __slots__ = ("trace_id", "function", "pid", "tid", "t_begin")

    def __init__(self, trace_id: int, function: str, t_begin: float):
        self.trace_id = trace_id
        self.function = function
        self.pid = -1
        self.tid = -1
        self.t_begin = t_begin

    @property
    def bound(self) -> bool:
        return self.pid >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceContext(#{self.trace_id} {self.function!r} "
                f"pid={self.pid} tid={self.tid})")


class SpanTracer:
    """Collects spans and instants keyed to the virtual clock.

    Storage is plain tuples (no per-span objects): a traced cluster run
    emits several spans per invocation, and the tracer must stay cheap
    enough that "spans" mode is usable on trace-scale scenarios.

    ``ids``, when given, is the trace id of each :meth:`begin` call in
    turn (a shard worker of a parallel run records serial ids this
    way, see :mod:`repro.obs.merge`); by default ids count from 1.
    """

    def __init__(self, ids: Optional[Sequence[int]] = None):
        # (t0, t1, pid, tid, name, category, trace_id, args-or-None)
        self.spans: List[Tuple] = []
        # (t, pid, tid, name, args-or-None)
        self.instants: List[Tuple] = []
        # (t0, t1, kind, src_id, dst_id, args-or-None): causal edges
        # between invocations (0 = the environment).  Links need no
        # lane, so they can record waits that happen before a context
        # is ever bound to a node (admission queues, dispatch backoff).
        self.links: List[Tuple] = []
        self._procs: Dict[str, int] = {"rack": RACK_PID}
        self._free_lanes: Dict[int, List[int]] = {}
        self._lane_high: Dict[int, int] = {}
        #: 1 + the number of begin() calls so far.
        self._next_id = 1
        self._ids = ids

    # -- identity ------------------------------------------------------------

    def pid_for(self, node_name: str) -> int:
        """The pid of ``node_name``'s track (assigned on first use)."""
        pid = self._procs.get(node_name)
        if pid is None:
            pid = self._procs[node_name] = len(self._procs)
        return pid

    def prebind_nodes(self, node_names) -> None:
        """Assign pids for ``node_names`` now, in the given order.

        Cluster runs call this with the rack's platform list before any
        dispatch, pinning node->pid to rack order instead of first-bind
        order.  Every shard worker of a parallel run rebuilds the same
        rack, so prebinding makes the pid map a pure function of the
        spec — the property the span merge relies on.
        """
        for name in node_names:
            self.pid_for(name)

    def processes(self) -> Dict[str, int]:
        """{track name: pid} — "rack" plus every node seen so far."""
        return dict(self._procs)

    def lane_count(self, pid: int) -> int:
        """Highest invocation-lane tid ever allocated on ``pid``."""
        return self._lane_high.get(pid, CONTROL_TID + 1) - 1

    # -- context lifecycle -----------------------------------------------------

    def begin(self, function: str, t: float) -> TraceContext:
        """A fresh, unbound context for one invocation.

        Past the end of ``ids`` the context gets id 0 instead of
        raising: ``begin`` runs inside simulated tasks, and the caller
        of the run detects the overrun from :attr:`n_begun`.
        """
        trace_id = self._next_id
        self._next_id = trace_id + 1
        ids = self._ids
        if ids is not None:
            trace_id = ids[trace_id - 1] if trace_id <= len(ids) else 0
        return TraceContext(trace_id, function, t)

    def bind(self, ctx: TraceContext, node_name: str) -> None:
        """Place ``ctx`` on a free invocation lane of ``node_name``.

        Re-binding (cluster re-dispatch after a crash) releases the old
        lane first, so the failed attempt and the retry occupy separate
        rows only if they overlap other work.
        """
        if ctx.pid >= 0:
            self._release_lane(ctx)
        pid = self.pid_for(node_name)
        free = self._free_lanes.get(pid)
        if free:
            tid = heapq.heappop(free)
        else:
            tid = self._lane_high.get(pid, CONTROL_TID + 1)
            self._lane_high[pid] = tid + 1
        ctx.pid = pid
        ctx.tid = tid

    def finish(self, ctx: TraceContext, t: float) -> None:
        """Close the invocation at ``t`` and release its lane.

        Emits an ``invocation_close`` instant on the lane (carrying the
        trace id) so lane lifetimes — bind at the first span, close
        here — are reconstructible from the trace alone.  A context
        that never bound (e.g. shed before dispatch) has no lane and
        closes silently.
        """
        if ctx.pid >= 0:
            self.instants.append((t, ctx.pid, ctx.tid, "invocation_close",
                                  {"trace_id": ctx.trace_id}))
        self._release_lane(ctx)

    def _release_lane(self, ctx: TraceContext) -> None:
        if ctx.pid >= 0:
            heapq.heappush(self._free_lanes.setdefault(ctx.pid, []),
                           ctx.tid)
            ctx.pid = -1
            ctx.tid = -1

    # -- recording -------------------------------------------------------------

    def span(self, ctx: Optional[TraceContext], name: str,
             t0: float, t1: float, cat: str = "phase",
             args: Optional[Dict] = None) -> None:
        """A complete span ``[t0, t1]`` on the context's lane."""
        if ctx is None or ctx.pid < 0:
            return
        self.spans.append((t0, t1, ctx.pid, ctx.tid, name, cat,
                           ctx.trace_id, args))

    def node_span(self, node_name: str, name: str, t0: float, t1: float,
                  cat: str = "node", args: Optional[Dict] = None) -> None:
        """A span on a node's control track (teardown, background work)."""
        self.spans.append((t0, t1, self.pid_for(node_name), CONTROL_TID,
                           name, cat, 0, args))

    def instant(self, name: str, t: float,
                node: Optional[str] = None,
                ctx: Optional[TraceContext] = None,
                args: Optional[Dict] = None) -> None:
        """A point event: on the ctx lane, a node control track, or rack."""
        if ctx is not None and ctx.pid >= 0:
            pid, tid = ctx.pid, ctx.tid
        elif node is not None:
            pid, tid = self.pid_for(node), CONTROL_TID
        else:
            pid, tid = RACK_PID, CONTROL_TID
        self.instants.append((t, pid, tid, name, args))

    def link(self, kind: str, t0: float, t1: float,
             src: "OptionalCtxOrId" = 0, dst: "OptionalCtxOrId" = 0,
             args: Optional[Dict] = None) -> None:
        """A causal edge: ``dst`` spent ``[t0, t1]`` waiting on ``src``.

        ``src``/``dst`` are :class:`TraceContext` objects or raw trace
        ids; 0 means "the environment" (a crash, a breaker, the rack).
        Unlike spans, links attach to trace ids, not lanes, so they work
        for contexts that are not (yet) bound to any node.
        """
        src_id = src.trace_id if isinstance(src, TraceContext) else int(src)
        dst_id = dst.trace_id if isinstance(dst, TraceContext) else int(dst)
        self.links.append((t0, t1, kind, src_id, dst_id, args))

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe snapshot of the whole tracer state.

        Two tracers with equal snapshots are the same trace; shard
        workers hand theirs to the merge as a
        :class:`~repro.obs.merge.ShardTrace` instead.
        """
        return {
            "procs": [[name, self._procs[name]]
                      for name in sorted(self._procs,
                                         key=lambda n: self._procs[n])],
            "lane_high": [[pid, self._lane_high[pid]]
                          for pid in sorted(self._lane_high)],
            "next_id": self._next_id,
            "spans": [list(s) for s in self.spans],
            "instants": [list(s) for s in self.instants],
            "links": [list(s) for s in self.links],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SpanTracer":
        tracer = cls()
        tracer._procs = {name: int(pid) for name, pid in data["procs"]}
        tracer._lane_high = {int(pid): int(high)
                             for pid, high in data["lane_high"]}
        tracer._next_id = int(data["next_id"])
        tracer.spans = [tuple(s) for s in data["spans"]]
        tracer.instants = [tuple(s) for s in data["instants"]]
        tracer.links = [tuple(s) for s in data["links"]]
        return tracer

    # -- stats -----------------------------------------------------------------

    @property
    def n_begun(self) -> int:
        """How many contexts :meth:`begin` has handed out."""
        return self._next_id - 1

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    @property
    def n_instants(self) -> int:
        return len(self.instants)

    @property
    def n_links(self) -> int:
        return len(self.links)
