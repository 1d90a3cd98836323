"""Configuration surface of the overload-resilience control plane.

Everything here is plain frozen-dataclass data, validated eagerly, and
**off by default**: a :class:`Cluster <repro.serverless.cluster.Cluster>`
built without a :class:`ControlConfig` takes exactly the pre-existing
dispatch path, instruction for instruction, so golden results are
unchanged.  Passing a config arms the full plane
(:class:`repro.control.plane.ControlPlane`): admission control and load
shedding, circuit breakers, the cluster-wide retry budget, the timeout
hierarchy and SLO burn-rate accounting.

The knobs form one declarative object, sampled at cluster
construction, with the default
configuration chosen so a healthy, under-provisioned-by-less-than-2x
rack behaves almost identically to an uncontrolled one (nothing sheds,
no breaker opens, budgets never run dry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: Deterministic drop policies for a full pending queue (who gets shed).
SHED_POLICIES = ("drop-newest", "drop-oldest", "deadline", "priority")


@dataclass(frozen=True)
class SLOTarget:
    """Per-function latency SLO with multi-window burn-rate alerting.

    The error budget is ``1 - objective``; an invocation whose e2e
    latency exceeds ``threshold`` (or that never completes) consumes
    budget.  Burn rate over a window is the observed bad fraction
    divided by the budget, so burn 1.0 spends the budget exactly at the
    sustainable rate.  Shedding engages only when **both** windows burn
    above their thresholds (the SRE multi-window rule: the short window
    proves the problem is current, the long one that it is material).
    """

    threshold: float                 # e2e objective latency (seconds)
    objective: float = 0.99          # fraction of invocations under it
    fast_window: float = 30.0        # seconds
    slow_window: float = 300.0       # seconds
    fast_burn: float = 14.0          # burn-rate triggers (SRE defaults)
    slow_burn: float = 6.0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError(f"non-positive SLO threshold: {self.threshold}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1): {self.objective}")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError("windows must satisfy 0 < fast <= slow")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn-rate thresholds must be positive")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class BreakerConfig:
    """Error/latency thresholds of one circuit-breaker family.

    A breaker opens when, over the trailing ``window`` with at least
    ``min_samples`` observations, the failure fraction reaches
    ``failure_threshold`` *or* mean latency reaches ``latency_threshold``
    (if set).  It stays open for ``open_duration`` of virtual time, then
    half-opens: up to ``half_open_probes`` trial operations pass
    through; ``close_after`` consecutive probe successes close it, any
    probe failure re-opens it.
    """

    window: float = 10.0
    min_samples: int = 8
    failure_threshold: float = 0.5
    latency_threshold: Optional[float] = None
    open_duration: float = 5.0
    half_open_probes: int = 2
    close_after: int = 2

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("breaker window must be positive")
        if self.min_samples < 1:
            raise ValueError("breaker min_samples must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.latency_threshold is not None and self.latency_threshold <= 0:
            raise ValueError("latency_threshold must be positive")
        if self.open_duration <= 0:
            raise ValueError("open_duration must be positive")
        if self.half_open_probes < 1 or self.close_after < 1:
            raise ValueError("half_open_probes/close_after must be >= 1")


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Cluster-wide token bucket bounding retry/re-dispatch amplification.

    Each admitted invocation earns ``earn_per_invocation`` tokens (a
    retry *ratio*: 0.1 means at most ~10% of traffic may be retries in
    steady state); each crash re-dispatch or budgeted pool retry spends
    one.  The bucket starts full at ``capacity``, which also caps the
    burst of retries a quiet period can bank.
    """

    capacity: float = 64.0
    earn_per_invocation: float = 0.1

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("retry budget capacity must be positive")
        if self.earn_per_invocation < 0:
            raise ValueError("earn_per_invocation must be >= 0")


@dataclass(frozen=True)
class TimeoutConfig:
    """The deterministic timeout hierarchy: per-attempt < per-invocation.

    ``per_attempt`` bounds one dispatch attempt on one host (timing out
    re-dispatches, budget permitting); ``per_invocation`` bounds the
    whole invocation from its arrival, queueing included (timing out
    aborts).  Either may be None (disabled); when both are set the
    hierarchy is validated.  The per-function SLO threshold sits above
    both — :meth:`ControlConfig.validate_hierarchy` checks it.
    """

    per_attempt: Optional[float] = None
    per_invocation: Optional[float] = None

    def __post_init__(self):
        if self.per_attempt is not None and self.per_attempt <= 0:
            raise ValueError("per_attempt timeout must be positive")
        if self.per_invocation is not None and self.per_invocation <= 0:
            raise ValueError("per_invocation timeout must be positive")
        if (self.per_attempt is not None
                and self.per_invocation is not None
                and self.per_attempt > self.per_invocation):
            raise ValueError(
                f"timeout hierarchy violated: per_attempt "
                f"{self.per_attempt} > per_invocation {self.per_invocation}")


@dataclass(frozen=True)
class ControlConfig:
    """The whole control plane, declaratively.

    ``default_concurrency`` caps in-flight invocations per function
    across the rack (None = unlimited — admission then never queues);
    ``concurrency_limits`` overrides per function.  ``queue_capacity``
    bounds the per-function pending queue; overflow sheds per
    ``shed_policy``.  ``priorities`` (lower = more important) feed the
    "priority" policy; unlisted functions get ``default_priority``.
    """

    default_concurrency: Optional[int] = None
    concurrency_limits: Mapping[str, int] = field(default_factory=dict)
    queue_capacity: int = 64
    shed_policy: str = "drop-newest"
    priorities: Mapping[str, int] = field(default_factory=dict)
    default_priority: int = 100
    node_breaker: Optional[BreakerConfig] = field(
        default_factory=BreakerConfig)
    pool_breaker: Optional[BreakerConfig] = field(
        default_factory=BreakerConfig)
    retry_budget: RetryBudgetConfig = field(
        default_factory=RetryBudgetConfig)
    timeouts: TimeoutConfig = field(default_factory=TimeoutConfig)
    slos: Mapping[str, SLOTarget] = field(default_factory=dict)
    #: Fast-window burn rate at which platforms flip to degrade mode
    #: (skip pool-fault retries, go straight down the ladder).
    degrade_burn: float = 6.0
    #: Virtual seconds between SLO bucket boundaries (accounting grain).
    slo_bucket: float = 5.0

    def __post_init__(self):
        if self.default_concurrency is not None \
                and self.default_concurrency < 1:
            raise ValueError("default_concurrency must be >= 1")
        for fn, limit in sorted(dict(self.concurrency_limits).items()):
            if limit < 1:
                raise ValueError(
                    f"concurrency limit for {fn!r} must be >= 1")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(f"unknown shed policy {self.shed_policy!r}; "
                             f"known: {SHED_POLICIES}")
        if self.degrade_burn <= 0:
            raise ValueError("degrade_burn must be positive")
        if self.slo_bucket <= 0:
            raise ValueError("slo_bucket must be positive")
        self.validate_hierarchy()

    # -- derived lookups -----------------------------------------------------

    def concurrency_for(self, function: str) -> Optional[int]:
        limit = dict(self.concurrency_limits).get(function)
        return self.default_concurrency if limit is None else limit

    def priority_for(self, function: str) -> int:
        return dict(self.priorities).get(function, self.default_priority)

    def validate_hierarchy(self) -> None:
        """per-attempt < per-invocation < per-function SLO threshold."""
        per_inv = self.timeouts.per_invocation
        if per_inv is None:
            return
        for fn, slo in sorted(dict(self.slos).items()):
            if slo.threshold < per_inv:
                raise ValueError(
                    f"timeout hierarchy violated for {fn!r}: SLO "
                    f"threshold {slo.threshold} < per_invocation "
                    f"timeout {per_inv}")


def overload_defaults(functions: Tuple[str, ...] = (),
                      concurrency: int = 32,
                      slo_threshold: float = 1.0) -> ControlConfig:
    """A reasonable overload-protection preset for benches and tests."""
    slos: Dict[str, SLOTarget] = {
        fn: SLOTarget(threshold=slo_threshold) for fn in functions}
    return ControlConfig(
        default_concurrency=concurrency,
        queue_capacity=4 * concurrency,
        shed_policy="deadline",
        timeouts=TimeoutConfig(per_attempt=slo_threshold / 2,
                               per_invocation=slo_threshold),
        slos=slos,
    )
