import pytest

from repro.core.platform import TrEnvPlatform
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.node import Node
from repro.serverless.baselines import FaasdPlatform
from repro.serverless.policies import (FixedKeepAlive, HistogramKeepAlive,
                                       NoKeepAlive)
from repro.sim.engine import Delay
from repro.workloads.functions import function_by_name


class TestFixed:
    def test_constant_window(self):
        policy = FixedKeepAlive(300.0)
        assert policy.window("anything") == 300.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedKeepAlive(-1.0)


class TestNone:
    def test_zero_window(self):
        assert NoKeepAlive().window("x") == 0.0

    def test_platform_with_no_keepalive_always_colds(self):
        node = Node(seed=3)
        platform = FaasdPlatform(node)
        platform.keep_alive_policy = NoKeepAlive()
        platform.register_function(function_by_name("DH"))

        def driver():
            a = yield from platform.invoke("DH")
            yield Delay(1.0)
            b = yield from platform.invoke("DH")
            return a, b

        a, b = node.sim.run_process(driver())
        assert a.start_kind == "cold"
        assert b.start_kind == "cold"


class TestHistogram:
    def test_default_until_enough_samples(self):
        policy = HistogramKeepAlive(default=600.0, min_samples=4)
        policy.observe_arrival("f", 0.0)
        policy.observe_arrival("f", 10.0)
        assert policy.window("f") == 600.0

    def test_adapts_to_interarrival_tail(self):
        policy = HistogramKeepAlive(min_samples=4, min_window=1.0)
        t = 0.0
        for _ in range(20):
            policy.observe_arrival("f", t)
            t += 10.0
        # p95 of ~10s gaps * 1.1 margin ~= 11s.
        assert policy.window("f") == pytest.approx(11.0, rel=0.1)

    def test_bounds_applied(self):
        policy = HistogramKeepAlive(min_samples=2, min_window=60.0,
                                    max_window=120.0)
        t = 0.0
        for _ in range(10):
            policy.observe_arrival("fast", t)
            t += 0.5
        assert policy.window("fast") == 60.0
        t = 0.0
        for _ in range(10):
            policy.observe_arrival("slow", t)
            t += 10_000.0
        assert policy.window("slow") == 120.0

    def test_history_bounded(self):
        policy = HistogramKeepAlive(history_limit=16)
        for i in range(100):
            policy.observe_arrival("f", float(i))
        assert policy.samples("f") == 16

    def test_percentile_validated(self):
        with pytest.raises(ValueError):
            HistogramKeepAlive(percentile=0.0)

    def test_adaptive_policy_keeps_warm_for_periodic_function(self):
        """A function arriving every 50 s with a 60 s adaptive floor
        stays warm, while a 30 s fixed window would cold-start it."""
        def run(policy):
            node = Node(seed=4)
            pool = CXLPool(16 * GB, node.latency)
            platform = TrEnvPlatform(node, pool)
            platform.keep_alive_policy = policy
            platform.register_function(function_by_name("DH"))
            kinds = []

            def driver():
                for _ in range(8):
                    r = yield from platform.invoke("DH")
                    kinds.append(r.start_kind)
                    yield Delay(50.0)

            node.sim.run_process(driver())
            return kinds

        adaptive = run(HistogramKeepAlive(min_samples=2, min_window=60.0))
        fixed_short = run(FixedKeepAlive(30.0))
        assert adaptive.count("warm") > fixed_short.count("warm")
