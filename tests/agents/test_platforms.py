import pytest

from repro.agents.platform import (E2BPlatform, E2BPlusPlatform,
                                   TrEnvVMPlatform, VanillaCHPlatform)
from repro.agents.spec import agent_by_name
from repro.node import Node


def run_agent(platform_cls, agent="blackjack", cores=64, **kwargs):
    node = Node(cores=cores, seed=3)
    platform = platform_cls(node, **kwargs)
    spec = agent_by_name(agent)

    def proc():
        r = yield from platform.run_agent(spec)
        return r

    result = node.sim.run_process(proc())
    return node, platform, result


class TestStartup:
    def test_trenv_startup_below_e2b(self):
        """Figure 23: TrEnv reduces startup ~40-60% vs E2B/E2B+."""
        _n, _p, e2b = run_agent(E2BPlatform)
        _n, _p, e2bp = run_agent(E2BPlusPlatform)
        _n, _p, trenv = run_agent(TrEnvVMPlatform)
        assert trenv.startup < 0.65 * e2b.startup
        assert trenv.startup < 0.65 * e2bp.startup

    def test_vanilla_ch_exceeds_700ms(self):
        """§9.6.1: CH full-copy restore pushes startup past 700 ms."""
        _n, _p, ch = run_agent(VanillaCHPlatform)
        assert ch.startup > 0.7

    def test_e2bplus_not_faster_than_e2b(self):
        _n, _p, e2b = run_agent(E2BPlatform)
        _n, _p, e2bp = run_agent(E2BPlusPlatform)
        assert e2bp.startup >= e2b.startup

    def test_concurrent_startups_inflate_e2b_more(self):
        """Figure 23(b): 10 concurrent launches."""
        def concurrent(platform_cls):
            node = Node(cores=64, seed=3)
            platform = platform_cls(node)
            spec = agent_by_name("blackjack")
            results = []

            def one():
                r = yield from platform.run_agent(spec)
                results.append(r)

            for _ in range(10):
                node.sim.spawn(one())
            node.sim.run()
            return max(r.startup for r in results)

        e2b = concurrent(E2BPlatform)
        trenv = concurrent(TrEnvVMPlatform)
        assert trenv < 0.6 * e2b


class TestE2E:
    @pytest.mark.parametrize("agent", ["blackjack", "bug-fixer",
                                       "map-reduce"])
    def test_uncontended_e2e_matches_table2(self, agent):
        spec = agent_by_name(agent)
        _n, _p, r = run_agent(E2BPlatform, agent)
        assert r.e2e == pytest.approx(spec.e2e_target, rel=0.10)

    def test_browser_agent_e2e_close_to_table2(self):
        spec = agent_by_name("shop-assistant")
        _n, _p, r = run_agent(E2BPlatform, "shop-assistant")
        # Browser launch adds a little over the recorded run.
        assert r.e2e == pytest.approx(spec.e2e_target, rel=0.10)

    def test_llm_wait_dominates(self):
        _n, _p, r = run_agent(E2BPlatform, "bug-fixer")
        assert r.llm_wait > 0.9 * r.e2e


class TestMemory:
    def test_trenv_peak_memory_below_e2b(self):
        """Figure 25 shape for a cache-heavy agent."""
        n_e2b, _p, _r = run_agent(E2BPlatform, "map-reduce")
        n_trenv, _p, _r = run_agent(TrEnvVMPlatform, "map-reduce")
        assert n_trenv.memory.peak_bytes < 0.9 * n_e2b.memory.peak_bytes

    def test_e2bplus_between_e2b_and_trenv(self):
        n_e2b, _p, _r = run_agent(E2BPlatform, "map-reduce")
        n_p, _p2, _r = run_agent(E2BPlusPlatform, "map-reduce")
        n_t, _p3, _r = run_agent(TrEnvVMPlatform, "map-reduce")
        assert n_t.memory.peak_bytes < n_p.memory.peak_bytes
        assert n_p.memory.peak_bytes < n_e2b.memory.peak_bytes

    def test_memory_released_after_session(self):
        node, _p, _r = run_agent(E2BPlatform, "blackjack")
        usage = node.memory.usage
        assert usage.get("vm-guest-anon", 0) == 0
        assert usage.get("vm-guest-cache", 0) == 0
        assert usage.get("vmm-overhead", 0) == 0
        assert usage.get("browser", 0) == 0


class TestBrowserSharing:
    def test_trenv_s_improves_browser_heavy_latency_under_overcommit(self):
        """Figure 24(b): blog-summary gains most from sharing."""
        def run_many(sharing, n=30, cores=4):
            node = Node(cores=cores, seed=5)
            platform = TrEnvVMPlatform(node, browser_sharing=sharing)
            spec = agent_by_name("blog-summary")
            results = []

            def one():
                r = yield from platform.run_agent(spec)
                results.append(r)

            for _ in range(n):
                node.sim.spawn(one())
            node.sim.run()
            return max(r.startup + r.e2e for r in results)

        dedicated = run_many(False)
        shared = run_many(True)
        assert shared < dedicated

    def test_game_design_gains_little(self):
        """Figure 24(c): infrequent browser use => minimal improvement."""
        def run_one(sharing):
            _n, _p, r = run_agent(TrEnvVMPlatform, "game-design",
                                  browser_sharing=sharing)
            return r.e2e

        dedicated = run_one(False)
        shared = run_one(True)
        assert abs(dedicated - shared) / dedicated < 0.06

    def test_trenv_s_name(self):
        node = Node()
        assert TrEnvVMPlatform(node, browser_sharing=True).name == "trenv-s"
        assert TrEnvVMPlatform(Node(), browser_sharing=False).name == "trenv-vm"


class TestRecorder:
    def test_sessions_recorded(self):
        _n, platform, _r = run_agent(E2BPlatform)
        assert platform.recorder.count() == 1
        assert platform.sessions == 1
