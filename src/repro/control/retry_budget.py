"""Cluster-wide retry budget: a token bucket against retry storms.

Crash-aware re-dispatch (PR 1) retries an invocation on another host;
under a correlated failure every in-flight invocation does so at once,
and the "recovery" traffic can exceed the original load — the classic
retry storm.  The budget bounds the amplification factor globally: each
admitted invocation *earns* a fraction of a token, each retry (crash
re-dispatch, attempt-timeout re-dispatch, pool-fault retry) *spends* a
whole one, and a spend against an empty bucket is denied — the caller
degrades or aborts instead of retrying.

Purely arithmetical (no clock, no RNG): deterministic by construction.
"""

from __future__ import annotations

from repro.control.config import RetryBudgetConfig
from repro.obs import hooks


class RetryBudget:
    """Token bucket shared by every retry path in one cluster run."""

    __slots__ = ("config", "tokens", "earned", "spent", "denied")

    def __init__(self, config: RetryBudgetConfig):
        self.config = config
        self.tokens = config.capacity    # start full: tolerate early burst
        self.earned = 0.0
        self.spent = 0
        self.denied = 0

    def earn(self) -> None:
        """One invocation was admitted: accrue its retry allowance."""
        gain = self.config.earn_per_invocation
        self.tokens = min(self.config.capacity, self.tokens + gain)
        self.earned += gain

    def try_spend(self, what: str = "retry") -> bool:
        """Claim one retry token; False (and a metric) when exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        registry = hooks.registry
        if registry is not None:
            registry.inc("retry_budget_denied_total", kind=what)
        return False

    def summary(self) -> dict:
        return {
            "tokens_left": self.tokens,
            "spent": self.spent,
            "denied": self.denied,
        }
