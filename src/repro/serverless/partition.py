"""Static partitioning of one cluster run into node-group shards.

A cluster run is parallelizable here only when it can be *statically*
partitioned: every invocation's target node must be a pure function of
arrival order (``DispatchPolicy.static_assignment``), because a policy
that reads live cluster state (warm pools, CPU loads) couples every
dispatch decision to the interleaved global timeline with zero
lookahead.  Likewise an armed control plane (rack-global admission
queues, breakers, retry budget) or injected faults (globally-ordered
timeout-budget consumption, crash re-dispatch) make the run
conservative-unparallelizable without breaking the bit-identical
contract — :func:`plan_shards` returns a :class:`SerialFallback` naming
each reason, and the runner takes the serial reference path.

What makes the static case safe (the PDES logical-process argument):

* shared rack state (pool, dedup store) is written only during the
  *untimed* ``register_function`` preprocessing, which every shard
  replays identically before its clock starts; during the run it is
  read-only, and read costs are pure functions of their arguments;
* all runtime randomness is per-platform (seeded per node) or
  stateless via named RNG forks, so a node's invocation stream depends
  only on the events dispatched *to that node*, in arrival order;
* per-node event subsequences preserve their relative ``(time, seq)``
  order when simulated alone, so each node's timeline is bit-identical
  to its slice of the serial timeline.

Shards own **contiguous** node blocks so that merging shard results in
shard order equals the serial per-node merge order exactly (the
recorder merge re-records results in source order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.control.config import ControlConfig
from repro.mem.layout import GB
from repro.serverless.cluster import Cluster, make_policy, make_trenv_cluster
from repro.serverless.metrics import LatencyRecorder
from repro.workloads.functions import FunctionProfile
from repro.workloads.synthetic import Workload

#: Why injected faults force the serial path: the pool-fault timeout
#: budget is consumed in global event order, and node crashes trigger
#: cross-node re-dispatch — both zero-lookahead couplings.
FAULTS_UNSAFE_REASON = (
    "faults armed: timeout budgets are consumed in global event order "
    "and crash re-dispatch crosses shards with zero lookahead")


@dataclass(frozen=True)
class PoolSpec:
    """Picklable recipe for a rack memory pool."""

    kind: str = "cxl"              # "cxl" | "rdma" | "nas"
    capacity_bytes: int = 128 * GB

    def build(self):
        from repro.mem.pools import CXLPool, NASPool, RDMAPool
        table = {"cxl": CXLPool, "rdma": RDMAPool, "nas": NASPool}
        try:
            return table[self.kind](self.capacity_bytes)
        except KeyError:
            raise ValueError(
                f"unknown pool kind {self.kind!r}; "
                f"known: {tuple(sorted(table))}") from None


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to rebuild one rack, in any process.

    ``functions`` is the full registration list **in registration
    order**: every shard worker replays it on every platform before the
    clock starts, so shared pool/store contents and per-platform
    registration-time RNG draws match the serial run exactly even
    though the worker only drives a subset of the events.
    """

    n_nodes: int
    pool: PoolSpec = field(default_factory=PoolSpec)
    seed: int = 0
    cores: int = 64
    policy: str = "round-robin"
    functions: Tuple[FunctionProfile, ...] = ()
    #: keep per-invocation results (False = streaming-only recorders,
    #: the trace-scale memory mode of rack benchmarks).
    keep_results: bool = True
    fallback_pool: Optional[PoolSpec] = None
    control: Optional[ControlConfig] = None

    def build(self) -> Cluster:
        """Rebuild the rack; identical in every process by construction."""
        cluster = make_trenv_cluster(
            self.n_nodes, self.pool.build(), seed=self.seed,
            cores=self.cores, policy=make_policy(self.policy),
            fallback_pool=(self.fallback_pool.build()
                           if self.fallback_pool is not None else None),
            control=self.control)
        for platform in cluster.platforms:
            for profile in self.functions:
                platform.register_function(profile)
            if not self.keep_results:
                platform.recorder = LatencyRecorder(keep_results=False)
        return cluster


@dataclass(frozen=True)
class SerialFallback:
    """The run is not statically partitionable; run serial instead."""

    reasons: Tuple[str, ...]


@dataclass(frozen=True)
class ParallelPlan:
    """A proven-static partition of one run into node-group shards."""

    n_shards: int
    #: Event index -> node index, for the whole workload.
    assignment: Tuple[int, ...]
    #: Shard -> [start, end) node-index block; blocks are contiguous
    #: and cover [0, n_nodes) so shard-order merge == node-order merge.
    node_groups: Tuple[Tuple[int, int], ...]

    def owned_events(self, shard: int) -> List[int]:
        start, end = self.node_groups[shard]
        return [i for i, node in enumerate(self.assignment)
                if start <= node < end]


def node_groups_for(n_nodes: int, n_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous node blocks, balanced to within one node.

    Shard ``i`` owns ``[floor(i*N/S), floor((i+1)*N/S))`` — handles
    shard counts that do not divide the node count without empty
    shards (requires ``n_shards <= n_nodes``).
    """
    if not 1 <= n_shards <= n_nodes:
        raise ValueError(
            f"need 1 <= n_shards ({n_shards}) <= n_nodes ({n_nodes})")
    return tuple((i * n_nodes // n_shards, (i + 1) * n_nodes // n_shards)
                 for i in range(n_shards))


def plan_shards(spec: ClusterSpec, workload: Workload, n_shards: int,
                faults_armed: bool = False
                ) -> Union[ParallelPlan, SerialFallback]:
    """Prove the run statically partitionable, or say why it is not."""
    from repro.control.plane import PARALLEL_UNSAFE_REASON

    reasons: List[str] = []
    n_shards = min(n_shards, spec.n_nodes)
    if n_shards <= 1:
        reasons.append("single shard: nothing to parallelize")
    if not workload.events:
        reasons.append("empty workload")
    if spec.control is not None:
        reasons.append(PARALLEL_UNSAFE_REASON)
    if faults_armed:
        reasons.append(FAULTS_UNSAFE_REASON)
    assignment: Optional[Sequence[int]] = None
    if not reasons:
        policy = make_policy(spec.policy)
        assignment = policy.static_assignment(len(workload.events),
                                              spec.n_nodes)
        if assignment is None:
            reasons.append(
                f"policy {spec.policy!r} reads live cluster state: "
                "no static event->node assignment exists")
    if reasons:
        return SerialFallback(reasons=tuple(reasons))
    assert assignment is not None
    return ParallelPlan(
        n_shards=n_shards,
        assignment=tuple(assignment),
        node_groups=node_groups_for(spec.n_nodes, n_shards))
