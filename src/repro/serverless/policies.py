"""Keep-alive policies.

§3.3/§10: platforms historically fight cold starts with caching policies
— fixed keep-alive windows (OpenWhisk), histogram-based adaptive windows
(Serverless in the Wild), greedy-dual caching (FaasCache).  TrEnv's
pitch is that repurposing makes the *choice of policy* much less
important; these implementations let the benches quantify that.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class KeepAlivePolicy:
    """Decides how long an idle instance stays warm."""

    name = "base"

    def observe_arrival(self, function: str, now: float) -> None:
        """Feed an invocation arrival into the policy's statistics."""

    def window(self, function: str) -> float:
        raise NotImplementedError


class FixedKeepAlive(KeepAlivePolicy):
    """OpenWhisk-style constant window (the §9.1 default)."""

    name = "fixed"

    def __init__(self, seconds: float = 600.0):
        if seconds < 0:
            raise ValueError("negative keep-alive")
        self.seconds = seconds

    def window(self, function: str) -> float:
        return self.seconds


class NoKeepAlive(KeepAlivePolicy):
    """Destroy immediately — every invocation is a cold start."""

    name = "none"

    def window(self, function: str) -> float:
        return 0.0


class HistogramKeepAlive(KeepAlivePolicy):
    """Adaptive window from the function's inter-arrival distribution.

    Serverless-in-the-Wild-style: keep an instance warm long enough to
    cover the tail of observed inter-arrival times, bounded to
    [min_window, max_window].  Until enough history exists, fall back to
    a default.
    """

    name = "histogram"

    def __init__(self, percentile: float = 95.0, margin: float = 1.10,
                 min_window: float = 60.0, max_window: float = 1800.0,
                 default: float = 600.0, min_samples: int = 4,
                 history_limit: int = 256):
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile out of range")
        self.percentile = percentile
        self.margin = margin
        self.min_window = min_window
        self.max_window = max_window
        self.default = default
        self.min_samples = min_samples
        self.history_limit = history_limit
        self._last_arrival: Dict[str, float] = {}
        self._gaps: Dict[str, List[float]] = {}

    def observe_arrival(self, function: str, now: float) -> None:
        last = self._last_arrival.get(function)
        self._last_arrival[function] = now
        if last is None:
            return
        gaps = self._gaps.setdefault(function, [])
        gaps.append(max(0.0, now - last))
        if len(gaps) > self.history_limit:
            del gaps[:len(gaps) - self.history_limit]

    def window(self, function: str) -> float:
        gaps = self._gaps.get(function, [])
        if len(gaps) < self.min_samples:
            return self.default
        est = float(np.percentile(gaps, self.percentile)) * self.margin
        return min(max(est, self.min_window), self.max_window)

    def samples(self, function: str) -> int:
        return len(self._gaps.get(function, []))
