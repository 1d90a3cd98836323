import pytest

from repro.agents.cost import (PriceConfig, billed_memory_bytes, cost_table,
                               llm_cost, relative_cost, serverless_cost)
from repro.agents.llm import LLMTrace, ReplayLLMServer
from repro.agents.spec import (AGENTS, agent_by_name, browser_agents,
                               lightweight_agents)
from repro.mem.layout import MB
from repro.sim.engine import Simulator


class TestSpecs:
    def test_table2_roster(self):
        names = [a.name for a in AGENTS]
        assert names == ["blackjack", "bug-fixer", "map-reduce",
                         "shop-assistant", "blog-summary", "game-design"]

    def test_table2_values(self):
        bj = agent_by_name("blackjack")
        assert bj.e2e_target == 3.2
        assert bj.mem_bytes == 74 * MB
        assert bj.cpu_time == pytest.approx(0.411)
        gd = agent_by_name("game-design")
        assert gd.e2e_target == 107.0
        assert gd.mem_bytes == 1389 * MB

    def test_table3_tokens(self):
        assert agent_by_name("blackjack").input_tokens == 1690
        assert agent_by_name("blackjack").output_tokens == 8
        assert agent_by_name("game-design").input_tokens == 75121
        assert agent_by_name("blog-summary").output_tokens == 2703

    def test_cpu_utilization_low(self):
        """§2.4: agents use <25% of allocated CPU."""
        for spec in AGENTS:
            assert spec.cpu_utilization < 0.30

    def test_game_design_utilization_about_7pct(self):
        assert agent_by_name("game-design").cpu_utilization == pytest.approx(
            0.07, abs=0.01)

    def test_taxonomy(self):
        assert {a.name for a in lightweight_agents()} == {
            "blackjack", "bug-fixer", "map-reduce"}
        assert {a.name for a in browser_agents()} == {
            "shop-assistant", "blog-summary", "game-design"}

    def test_llm_wait_positive(self):
        for spec in AGENTS:
            assert spec.llm_wait > 0
            assert spec.own_cpu >= 0

    def test_unknown_agent(self):
        with pytest.raises(KeyError):
            agent_by_name("skynet")


class TestLLMTrace:
    @pytest.mark.parametrize("spec", AGENTS, ids=lambda a: a.name)
    def test_totals_match_tables(self, spec):
        trace = LLMTrace.from_spec(spec)
        assert trace.total_input_tokens == spec.input_tokens
        assert trace.total_output_tokens == spec.output_tokens
        # The workflow's critical path of LLM time equals the measured
        # wait (for map-reduce the parallel maps overlap, Fig 2b).
        assert trace.critical_path_latency(spec.workflow) == pytest.approx(
            spec.llm_wait, rel=1e-6)
        assert len(trace.calls) == spec.n_llm_calls

    def test_context_grows(self):
        trace = LLMTrace.from_spec(agent_by_name("blog-summary"))
        inputs = [c.input_tokens for c in trace.calls]
        assert inputs[-1] > inputs[0]

    def test_replay_server_deterministic(self):
        spec = agent_by_name("bug-fixer")

        def run_once():
            sim = Simulator()
            server = ReplayLLMServer()

            def proc():
                for i in range(spec.n_llm_calls):
                    yield from server.call(spec, i)
                return sim.now

            return sim.run_process(proc())

        assert run_once() == run_once()

    def test_replay_total_equals_llm_wait_for_linear_agent(self):
        spec = agent_by_name("bug-fixer")
        sim = Simulator()
        server = ReplayLLMServer()

        def proc():
            for i in range(spec.n_llm_calls):
                yield from server.call(spec, i)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(spec.llm_wait)

    def test_mapreduce_critical_path_below_total(self):
        trace = LLMTrace.from_spec(agent_by_name("map-reduce"))
        assert trace.critical_path_latency("mapreduce") < trace.total_latency

    def test_out_of_range_call(self):
        spec = agent_by_name("blackjack")
        sim = Simulator()
        server = ReplayLLMServer()

        def proc():
            yield from server.call(spec, 99)

        with pytest.raises(IndexError):
            sim.run_process(proc())

    def test_token_accounting(self):
        spec = agent_by_name("blackjack")
        sim = Simulator()
        server = ReplayLLMServer()

        def proc():
            for i in range(spec.n_llm_calls):
                yield from server.call(spec, i)

        sim.run_process(proc())
        assert server.tokens_in == spec.input_tokens
        assert server.tokens_out == spec.output_tokens


class TestCostModel:
    def test_llm_cost_equation1(self):
        spec = agent_by_name("blackjack")
        prices = PriceConfig(input_per_mtok=1.0, output_per_mtok=2.0)
        expected = (1690 * 1.0 + 8 * 2.0) / 1e6
        assert llm_cost(spec, prices) == pytest.approx(expected)

    def test_billed_memory_rounds_up_to_128mb(self):
        assert billed_memory_bytes(74 * MB) == 128 * MB
        assert billed_memory_bytes(128 * MB) == 128 * MB
        assert billed_memory_bytes(129 * MB) == 256 * MB

    def test_billed_memory_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            billed_memory_bytes(0)

    def test_serverless_cost_equation2(self):
        spec = agent_by_name("blackjack")
        cost = serverless_cost(spec)
        expected = 3.2 * 1.67e-5 * (128 / 1024)
        assert cost == pytest.approx(expected, rel=1e-3)

    def test_relative_cost_substantial_for_complex_agents(self):
        """Figure 3: serverless can reach tens of percent of LLM cost."""
        ratios = {a.name: relative_cost(a) for a in AGENTS}
        assert max(ratios.values()) > 0.40
        assert ratios["blog-summary"] == max(ratios.values())

    def test_complex_agents_cost_more_relative(self):
        """§2.3 finding 2: complex agents incur higher serverless cost."""
        light = max(relative_cost(a) for a in lightweight_agents())
        heavy = max(relative_cost(a) for a in browser_agents())
        assert heavy > light

    def test_cost_table_covers_all(self):
        table = cost_table()
        assert set(table) == {a.name for a in AGENTS}
        for row in table.values():
            assert row["relative"] == pytest.approx(
                row["serverless_usd"] / row["llm_usd"])
