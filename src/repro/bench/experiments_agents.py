"""Agent-side experiments: Tables 2–3, Figures 3, 23–26."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from repro.agents.cost import PriceConfig, cost_table
from repro.agents.llm import LLMTrace
from repro.agents.platform import (AgentPlatform, E2BPlatform,
                                   E2BPlusPlatform, TrEnvVMPlatform,
                                   VanillaCHPlatform)
from repro.agents.spec import AGENTS, agent_by_name, browser_agents
from repro.node import Node

_AGENT_PLATFORMS: Dict[str, Type[AgentPlatform]] = {
    "e2b": E2BPlatform,
    "e2b+": E2BPlusPlatform,
    "ch": VanillaCHPlatform,
    "trenv": TrEnvVMPlatform,
}


def make_agent_platform(name: str, node: Optional[Node] = None,
                        cores: int = 64, seed: int = 3,
                        browser_sharing: Optional[bool] = None
                        ) -> AgentPlatform:
    node = node or Node(cores=cores, seed=seed)
    if name == "trenv-s":
        return TrEnvVMPlatform(node, browser_sharing=True)
    cls = _AGENT_PLATFORMS.get(name)
    if cls is None:
        raise ValueError(f"unknown agent platform {name!r}")
    return cls(node, browser_sharing=browser_sharing)


# ---------------------------------------------------------------- Table 2 --

def run_table2_agents() -> Dict[str, Dict[str, float]]:
    """Per-agent E2E latency, memory and CPU time, uncontended."""
    out: Dict[str, Dict[str, float]] = {}
    for spec in AGENTS:
        platform = make_agent_platform("e2b")
        node = platform.node

        def driver():
            r = yield from platform.run_agent(spec)
            return r

        r = node.sim.run_process(driver())
        out[spec.name] = {
            "e2e_s": r.e2e,
            "e2e_paper_s": spec.e2e_target,
            "memory_mb": spec.mem_bytes / (1 << 20),
            "peak_node_mb": node.memory.peak_bytes / (1 << 20),
            "cpu_time_s": r.active_time,
            "cpu_time_paper_s": spec.cpu_time,
            "cpu_utilization": r.active_time / max(r.e2e, 1e-9),
        }
    return out


# ---------------------------------------------------------------- Table 3 --

def run_table3_tokens() -> Dict[str, Dict[str, int]]:
    """Token usage per agent, reconstructed from the replay traces."""
    out: Dict[str, Dict[str, int]] = {}
    for spec in AGENTS:
        trace = LLMTrace.from_spec(spec)
        out[spec.name] = {
            "input_tokens": trace.total_input_tokens,
            "output_tokens": trace.total_output_tokens,
            "paper_input": spec.input_tokens,
            "paper_output": spec.output_tokens,
            "n_calls": len(trace.calls),
        }
    return out


# ---------------------------------------------------------------- Figure 3 --

def run_fig3_cost(prices: Optional[PriceConfig] = None
                  ) -> Dict[str, Dict[str, float]]:
    """Relative serverless cost vs LLM cost per agent."""
    return cost_table(prices or PriceConfig())


# ---------------------------------------------------------------- Figure 23 --

def run_fig23_startup(platforms: Sequence[str] = ("e2b", "e2b+", "ch",
                                                  "trenv"),
                      concurrency: int = 10) -> Dict:
    """Blackjack startup latency: sequential and concurrent."""
    spec = agent_by_name("blackjack")
    out: Dict = {"single": {}, "concurrent": {}}
    for name in platforms:
        platform = make_agent_platform(name)
        node = platform.node

        def driver():
            r = yield from platform.run_agent(spec)
            return r

        r = node.sim.run_process(driver())
        out["single"][name] = r.startup

        platform = make_agent_platform(name)
        node = platform.node
        startups: List[float] = []

        def one():
            r = yield from platform.run_agent(spec)
            startups.append(r.startup)

        for _ in range(concurrency):
            node.sim.spawn(one())
        node.sim.run()
        out["concurrent"][name] = {
            "mean": float(np.mean(startups)),
            "max": float(np.max(startups)),
        }
    return out


# ---------------------------------------------------------------- Figure 24 --

def run_fig24_browser_sharing(instances: int = 40, cores: int = 4,
                              agents: Optional[Sequence[str]] = None,
                              seed: int = 3) -> Dict:
    """E2E latency of browser agents with and without sharing, under
    CPU overcommitment (paper: 200 instances / 20 cores => 10x).

    The defaults keep the same 10x overcommit ratio at smaller scale.
    """
    agents = agents or [a.name for a in browser_agents()]
    out: Dict = {}
    for agent in agents:
        spec = agent_by_name(agent)
        out[agent] = {}
        for label, sharing in (("trenv", False), ("trenv-s", True)):
            node = Node(cores=cores, seed=seed)
            platform = TrEnvVMPlatform(node, browser_sharing=sharing,
                                       prewarmed_jailers=instances)
            e2es: List[float] = []

            def one():
                r = yield from platform.run_agent(spec)
                e2es.append(r.startup + r.e2e)

            for _ in range(instances):
                node.sim.spawn(one())
            node.sim.run()
            out[agent][label] = {
                "mean": float(np.mean(e2es)),
                "p99": float(np.percentile(e2es, 99)),
                "cdf": (np.sort(e2es),
                        np.arange(1, len(e2es) + 1) / len(e2es)),
            }
        base = out[agent]["trenv"]
        shared = out[agent]["trenv-s"]
        out[agent]["p99_reduction"] = 1.0 - shared["p99"] / base["p99"]
        out[agent]["mean_reduction"] = 1.0 - shared["mean"] / base["mean"]
    return out


# ---------------------------------------------------------------- Figure 25 --

def run_fig25_agent_memory(platforms: Sequence[str] = ("e2b", "e2b+",
                                                       "trenv-s"),
                           instances: int = 10,
                           agents: Optional[Sequence[str]] = None,
                           seed: int = 3) -> Dict:
    """Peak node memory running N concurrent instances of each agent."""
    agents = agents or [a.name for a in AGENTS]
    out: Dict = {}
    for agent in agents:
        spec = agent_by_name(agent)
        out[agent] = {}
        for name in platforms:
            platform = make_agent_platform(name, cores=64, seed=seed)
            node = platform.node

            def one():
                yield from platform.run_agent(spec)

            for _ in range(instances):
                node.sim.spawn(one())
            node.sim.run()
            out[agent][name] = node.memory.peak_bytes / (1 << 20)
        if "e2b" in platforms:
            base = out[agent]["e2b"]
            for name in platforms:
                out[agent][f"saving_vs_e2b:{name}"] = 1.0 - out[agent][name] / base
    return out


# ---------------------------------------------------------------- Figure 26 --

def run_fig26_memory_timeline(agents: Sequence[str] = ("map-reduce",
                                                       "blog-summary"),
                              platforms: Sequence[str] = ("e2b", "trenv-s"),
                              seed: int = 3) -> Dict:
    """Memory usage over one agent execution + usage×duration integral."""
    out: Dict = {}
    for agent in agents:
        spec = agent_by_name(agent)
        out[agent] = {}
        for name in platforms:
            platform = make_agent_platform(name, seed=seed)
            node = platform.node

            def driver():
                yield from platform.run_agent(spec)

            node.sim.run_process(driver())
            out[agent][name] = {
                "timeline": node.memory.timeline_mb(),
                "integral_mb_s": node.memory.integral_mb_seconds(),
                "peak_mb": node.memory.peak_bytes / (1 << 20),
            }
        if "e2b" in platforms and "trenv-s" in platforms:
            base = out[agent]["e2b"]["integral_mb_s"]
            ours = out[agent]["trenv-s"]["integral_mb_s"]
            out[agent]["cost_saving"] = 1.0 - ours / base
    return out
