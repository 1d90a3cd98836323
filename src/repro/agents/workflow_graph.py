"""Agent workflow graphs (Figure 2).

The paper distinguishes three workflow shapes:

* **static** (Fig 2a, e.g. Bug fixer): a fixed linear chain of
  tool→LLM steps;
* **map-reduce** (Fig 2b): a split step fans out to parallel map
  branches (chunk summaries run concurrently), then a reduce step joins
  them — end-to-end latency is the *max* over branches plus the join;
* **ReAct** (Fig 2c, e.g. OWL/OpenManus agents): a dynamic loop where
  each LLM response decides the next tool action until a finish signal.

These graphs drive the same budgets (Table 2/3 totals) as the linear
runner but with the paper's concurrency structure, so CPU contention and
LLM waits compose the way they would in the real agent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.agents.browser import BrowserPool
from repro.agents.llm import LLMTrace, ReplayLLMServer
from repro.agents.spec import AgentSpec
from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Delay, Simulator


@dataclass(frozen=True)
class StepNode:
    """One node in a workflow DAG."""

    node_id: int
    kind: str                 # "tool" | "llm" | "split" | "join" | "finish"
    cpu: float = 0.0          # tool CPU seconds
    llm_call: int = -1        # index into the agent's LLM trace
    children: tuple = ()      # node ids executed after this one


class WorkflowGraph:
    """A DAG of steps with explicit fan-out/fan-in."""

    def __init__(self, spec: AgentSpec):
        self.spec = spec
        self.nodes: Dict[int, StepNode] = {}
        self._ids = itertools.count()

    def add(self, kind: str, cpu: float = 0.0, llm_call: int = -1,
            children: Sequence[int] = ()) -> int:
        node_id = next(self._ids)
        self.nodes[node_id] = StepNode(node_id, kind, cpu, llm_call,
                                       tuple(children))
        return node_id

    def link(self, parent: int, child: int) -> None:
        node = self.nodes[parent]
        self.nodes[parent] = StepNode(node.node_id, node.kind, node.cpu,
                                      node.llm_call,
                                      node.children + (child,))

    @property
    def root(self) -> int:
        children = {c for n in self.nodes.values() for c in n.children}
        roots = [nid for nid in self.nodes if nid not in children]
        if len(roots) != 1:
            raise ValueError(f"workflow must have one root, found {roots}")
        return roots[0]

    def llm_calls_used(self) -> List[int]:
        return sorted(n.llm_call for n in self.nodes.values()
                      if n.llm_call >= 0)

    def validate(self, trace: LLMTrace) -> None:
        calls = self.llm_calls_used()
        if calls != list(range(len(trace.calls))):
            raise ValueError(
                f"workflow uses LLM calls {calls}, trace has "
                f"{len(trace.calls)}")

    # -- construction from specs ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: AgentSpec) -> "WorkflowGraph":
        if spec.workflow == "mapreduce":
            return cls.map_reduce(spec)
        if spec.workflow == "react":
            return cls.react(spec)
        return cls.static_chain(spec)

    @classmethod
    def static_chain(cls, spec: AgentSpec) -> "WorkflowGraph":
        """Fig 2a: tool -> llm -> tool -> llm -> ... -> finish."""
        graph = cls(spec)
        n = spec.n_llm_calls
        cpu_each = spec.own_cpu / n
        prev = None
        for i in range(n):
            tool = graph.add("tool", cpu=cpu_each)
            llm = graph.add("llm", llm_call=i)
            graph.link(tool, llm)
            if prev is not None:
                graph.link(prev, tool)
            prev = llm
        finish = graph.add("finish")
        graph.link(prev, finish)
        return graph

    @classmethod
    def map_reduce(cls, spec: AgentSpec) -> "WorkflowGraph":
        """Fig 2b: split -> N parallel (tool+llm) map branches -> reduce.

        The last LLM call is the reduce/summarise step; the first is the
        planning step; the rest are parallel chunk maps.
        """
        graph = cls(spec)
        n = spec.n_llm_calls
        if n < 3:
            return cls.static_chain(spec)
        n_maps = n - 2
        cpu_each = spec.own_cpu / n
        plan_tool = graph.add("tool", cpu=cpu_each)
        plan = graph.add("llm", llm_call=0)
        graph.link(plan_tool, plan)
        split = graph.add("split")
        graph.link(plan, split)
        join = graph.add("join")
        for i in range(n_maps):
            tool = graph.add("tool", cpu=cpu_each)
            llm = graph.add("llm", llm_call=1 + i)
            graph.link(split, tool)
            graph.link(tool, llm)
            graph.link(llm, join)
        reduce_tool = graph.add("tool", cpu=cpu_each)
        reduce_llm = graph.add("llm", llm_call=n - 1)
        graph.link(join, reduce_tool)
        graph.link(reduce_tool, reduce_llm)
        finish = graph.add("finish")
        graph.link(reduce_llm, finish)
        return graph

    @classmethod
    def react(cls, spec: AgentSpec) -> "WorkflowGraph":
        """Fig 2c: a thought/action loop, unrolled over the trace.

        Each iteration is LLM(decide) -> tool(act); the loop length is
        dictated by the recorded trace (the real agent stops when the
        LLM emits a finish action).
        """
        graph = cls(spec)
        n = spec.n_llm_calls
        cpu_each = spec.own_cpu / n
        prev = None
        for i in range(n):
            llm = graph.add("llm", llm_call=i)
            if prev is not None:
                graph.link(prev, llm)
            tool = graph.add("tool", cpu=cpu_each)
            graph.link(llm, tool)
            prev = tool
        finish = graph.add("finish")
        graph.link(prev, finish)
        return graph


class GraphExecutor:
    """Executes a workflow DAG on the simulation substrate.

    Fan-out nodes spawn one process per child; joins wait for every
    parent (counted arrivals).  Tool CPU goes through the fair-share
    CPU, LLM calls through the replay server.
    """

    def __init__(self, sim: Simulator, cpu: FairShareCPU,
                 llm: ReplayLLMServer, extra_tool_cpu: float = 0.0,
                 on_tool=None):
        """``extra_tool_cpu`` is added to every tool node (e.g. the
        agent's per-step browser CPU share); ``on_tool`` is an optional
        generator factory ``(tool_sequence_index) -> generator`` run
        after each tool node's CPU (file IO, memory growth)."""
        self.sim = sim
        self.cpu = cpu
        self.llm = llm
        self.extra_tool_cpu = extra_tool_cpu
        self.on_tool = on_tool
        self.executed: List[int] = []
        self._tool_seq = itertools.count()

    def run(self, graph: WorkflowGraph) -> Generator:
        """Timed: execute the whole DAG; returns elapsed seconds."""
        graph.validate(self.llm.load_trace(graph.spec))
        start = self.sim.now
        pending: Dict[int, int] = {nid: 0 for nid in graph.nodes}
        for node in graph.nodes.values():
            for child in node.children:
                pending[child] += 1

        def exec_node(node_id):
            node = graph.nodes[node_id]
            if node.kind == "tool":
                work = node.cpu + self.extra_tool_cpu
                if work > 0:
                    yield from self.cpu.compute(work)
                if self.on_tool is not None:
                    yield from self.on_tool(next(self._tool_seq))
            elif node.kind == "llm":
                yield from self.llm.call(graph.spec, node.llm_call)
            self.executed.append(node_id)
            for child in node.children:
                pending[child] -= 1
                if pending[child] == 0:
                    waiters.append(self.sim.spawn(
                        exec_node(child), name=f"wf-{child}"))

        waiters: List = []
        waiters.append(self.sim.spawn(exec_node(graph.root), name="wf-root"))
        # Drain: new waiters appear as children unblock.
        i = 0
        while i < len(waiters):
            yield waiters[i]
            i += 1
        return self.sim.now - start
