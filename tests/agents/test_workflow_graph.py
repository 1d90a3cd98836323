"""Tests for Figure-2 workflow DAGs."""

import pytest

from repro.agents.llm import LLMTrace, ReplayLLMServer
from repro.agents.spec import agent_by_name
from repro.agents.workflow_graph import GraphExecutor, WorkflowGraph
from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Simulator


def run_graph(graph, cores=8):
    sim = Simulator()
    cpu = FairShareCPU(sim, cores)
    llm = ReplayLLMServer()
    executor = GraphExecutor(sim, cpu, llm)

    def driver():
        elapsed = yield from executor.run(graph)
        return elapsed

    elapsed = sim.run_process(driver())
    return elapsed, executor


class TestConstruction:
    def test_static_chain_uses_all_calls(self):
        spec = agent_by_name("bug-fixer")
        graph = WorkflowGraph.static_chain(spec)
        assert graph.llm_calls_used() == list(range(spec.n_llm_calls))

    def test_map_reduce_structure(self):
        spec = agent_by_name("map-reduce")
        graph = WorkflowGraph.map_reduce(spec)
        kinds = [n.kind for n in graph.nodes.values()]
        assert kinds.count("split") == 1
        assert kinds.count("join") == 1
        assert kinds.count("llm") == spec.n_llm_calls

    def test_react_alternates_llm_and_tool(self):
        spec = agent_by_name("game-design")
        graph = WorkflowGraph.react(spec)
        assert graph.llm_calls_used() == list(range(spec.n_llm_calls))

    def test_from_spec_dispatches_on_workflow_field(self):
        assert [n.kind for n in WorkflowGraph.from_spec(
            agent_by_name("map-reduce")).nodes.values()].count("split") == 1
        assert [n.kind for n in WorkflowGraph.from_spec(
            agent_by_name("bug-fixer")).nodes.values()].count("split") == 0

    def test_single_root_enforced(self):
        graph = WorkflowGraph(agent_by_name("blackjack"))
        graph.add("tool")
        graph.add("tool")
        with pytest.raises(ValueError):
            _ = graph.root

    def test_validation_rejects_wrong_call_set(self):
        spec = agent_by_name("blackjack")
        graph = WorkflowGraph(spec)
        a = graph.add("llm", llm_call=0)
        graph.link(a, graph.add("finish"))
        sim = Simulator()
        executor = GraphExecutor(sim, FairShareCPU(sim, 1),
                                 ReplayLLMServer())

        def driver():
            yield from executor.run(graph)

        with pytest.raises(ValueError):
            sim.run_process(driver())


class TestExecution:
    def test_static_chain_latency_matches_spec(self):
        spec = agent_by_name("bug-fixer")
        elapsed, _ex = run_graph(WorkflowGraph.static_chain(spec))
        assert elapsed == pytest.approx(spec.llm_wait + spec.own_cpu,
                                        rel=0.02)

    def test_every_node_executes_exactly_once(self):
        spec = agent_by_name("map-reduce")
        graph = WorkflowGraph.map_reduce(spec)
        _elapsed, executor = run_graph(graph)
        assert sorted(executor.executed) == sorted(graph.nodes)

    def test_map_reduce_parallelism_beats_chain(self):
        """Fig 2b: parallel map branches overlap their LLM waits."""
        spec = agent_by_name("map-reduce")
        chain, _ = run_graph(WorkflowGraph.static_chain(spec))
        dag, _ = run_graph(WorkflowGraph.map_reduce(spec))
        assert dag < 0.6 * chain

    def test_map_reduce_bounded_below_by_longest_branch(self):
        spec = agent_by_name("map-reduce")
        trace = LLMTrace.from_spec(spec)
        dag, _ = run_graph(WorkflowGraph.map_reduce(spec))
        # At minimum: plan call + slowest map call + reduce call.
        lower = (trace.calls[0].latency
                 + max(c.latency for c in trace.calls[1:-1])
                 + trace.calls[-1].latency)
        assert dag >= lower - 1e-6

    def test_react_is_fully_sequential(self):
        spec = agent_by_name("game-design")
        elapsed, _ex = run_graph(WorkflowGraph.react(spec))
        assert elapsed == pytest.approx(spec.llm_wait + spec.own_cpu,
                                        rel=0.02)

    def test_cpu_contention_stretches_tool_steps(self):
        spec = agent_by_name("map-reduce")
        fast, _ = run_graph(WorkflowGraph.map_reduce(spec), cores=8)
        # One core shared by parallel branches: tools serialise.
        slow, _ = run_graph(WorkflowGraph.map_reduce(spec), cores=1)
        assert slow >= fast
