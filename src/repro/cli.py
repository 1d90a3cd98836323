"""Command-line entry point: run any paper experiment from the shell.

Usage::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli fig21
    python -m repro.cli fig17 --workload W2 --duration 600
    python -m repro.cli fig24 --instances 20 --cores 2
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict

import numpy as np

from repro.bench import agents, container, faults


def _jsonable(obj):
    """Recursively convert experiment results to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.size > 64:
            return {"len": int(obj.size),
                    "min": float(obj.min()) if obj.size else None,
                    "max": float(obj.max()) if obj.size else None}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _fig17(args):
    return container.run_fig17_fig18(args.workload, duration=args.duration)


def _fig18b(args):
    return {fn: container.run_fig18b_scaling(fn, instances=args.instances)
            for fn in ("IR", "IFR")}


def _fig20(args):
    return container.run_fig20_traces(args.trace, duration=args.duration)


def _fig24(args):
    return agents.run_fig24_browser_sharing(instances=args.instances,
                                            cores=args.cores)


def _fig25(args):
    return agents.run_fig25_agent_memory(instances=args.instances)


EXPERIMENTS: Dict[str, Callable] = {
    "table1": lambda a: container.run_table1_components(),
    "table2": lambda a: agents.run_table2_agents(),
    "table3": lambda a: agents.run_table3_tokens(),
    "fig3": lambda a: agents.run_fig3_cost(),
    "fig4": lambda a: container.run_fig4_breakdown(),
    "fig10": lambda a: container.run_fig10_readonly(),
    "fig17": _fig17,
    "fig18b": _fig18b,
    "fig19": lambda a: container.run_fig19_noconc(),
    "fig20": _fig20,
    "fig21": lambda a: container.run_fig21_ablation(),
    "fig22": lambda a: container.run_fig22_cxl_vs_rdma(),
    "fig23": lambda a: agents.run_fig23_startup(),
    "fig24": _fig24,
    "fig25": _fig25,
    "fig26": lambda a: agents.run_fig26_memory_timeline(),
    "chaos": lambda a: faults.run_chaos_recovery(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TrEnv paper experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("lint",
                   help="simlint static analysis (see `repro lint --help`)",
                   add_help=False)
    sweep = sub.add_parser(
        "sweep",
        help="parallel experiment sweep (writes BENCH_sweep.json)")
    sweep.add_argument("--quick", action="store_true",
                       help="CI-sized grid: two shards instead of the "
                            "full (seed, policy, trace) product")
    sweep.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = CPU count, 1 = serial "
                            "in-process; shards are bit-identical either "
                            "way)")
    sweep.add_argument("--out", default="BENCH_sweep.json",
                       help="output path (default: BENCH_sweep.json)")
    sweep.add_argument("--json", action="store_true",
                       help="emit raw JSON instead of pretty print")
    sweep.add_argument("--profile", action="store_true",
                       help="cProfile the run; print top-25 by cumulative")
    sweep.add_argument("--obs-level", default="off",
                       choices=("off", "metrics", "spans"),
                       help="per-shard observability; shard registries "
                            "are merged into the sweep report")
    overload = sub.add_parser(
        "overload",
        help="overload + chaos control-plane benchmark "
             "(writes BENCH_overload.json)")
    overload.add_argument("--quick", action="store_true",
                          help="CI-sized surge: smaller rack, shorter "
                               "overload window")
    overload.add_argument("--seed", type=int, default=1)
    overload.add_argument("--jobs", type=int, default=0,
                          help="requested worker processes; overload runs "
                               "are control-armed + fault-injected, so "
                               "the report records the serial fallback "
                               "and its reasons")
    overload.add_argument("--out", default="BENCH_overload.json",
                          help="output path (default: BENCH_overload.json)")
    overload.add_argument("--json", action="store_true",
                          help="emit raw JSON instead of pretty print")
    overload.add_argument("--profile", action="store_true",
                          help="cProfile the run; print top-25 by cumulative")
    overload.add_argument("--obs-level", default="off",
                          choices=("off", "metrics", "spans"),
                          help="observe the runs: metrics embeds the "
                               "registry in the report, spans also "
                               "writes a Chrome trace")
    overload.add_argument("--trace-out", default="overload_trace.json",
                          help="Chrome-trace path for --obs-level spans")
    trace = sub.add_parser(
        "trace",
        help="run a scenario under repro.obs and export a Perfetto trace")
    trace.add_argument("scenario", choices=("w1", "w2", "cluster"),
                       help="what to trace: single-node W1/W2, or the "
                            "3-node rack on W2")
    trace.add_argument("--obs-level", default="spans",
                       choices=("off", "metrics", "spans"),
                       help="off = timing reference, metrics = registry "
                            "only, spans = registry + Chrome trace")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome-trace output path (default: "
                            "trace.json; load it in ui.perfetto.dev)")
    trace.add_argument("--platform", default="t-cxl",
                       help="platform key for w1/w2 (default: t-cxl)")
    trace.add_argument("--duration", type=float, default=60.0)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--nodes", type=int, default=3,
                       help="rack size for the cluster scenario")
    trace.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the cluster scenario "
                            "(0 = CPU count); the exported trace is "
                            "byte-identical for every worker count")
    trace.add_argument("--json", action="store_true",
                       help="emit raw JSON instead of pretty print")
    why = sub.add_parser(
        "why",
        help="critical-path latency attribution: per-phase blame, "
             "tail-cohort diff, flame-graph folded stacks")
    why.add_argument("scenario", choices=("w2", "cluster", "overload"),
                     help="what to explain: single-node W2, the sharded "
                          "rack on W2, or a control-armed surge")
    why.add_argument("--format", default="text", choices=("text", "json"),
                     dest="fmt",
                     help="stdout rendering (default: text)")
    why.add_argument("--out", default=None,
                     help="also write the JSON report to this path")
    why.add_argument("--duration", type=float, default=60.0)
    why.add_argument("--seed", type=int, default=1)
    why.add_argument("--nodes", type=int, default=3,
                     help="rack size for cluster/overload scenarios")
    why.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the cluster scenario "
                          "(the report is identical for every count)")
    why.add_argument("--platform", default="t-cxl",
                     help="platform key for the w2 scenario")
    why.add_argument("--tail", type=float, default=0.99,
                     help="tail cohort quantile (default: 0.99)")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--workload", default="W1", choices=("W1", "W2"))
        p.add_argument("--trace", default="azure",
                       choices=("azure", "huawei"))
        p.add_argument("--duration", type=float, default=900.0)
        p.add_argument("--instances", type=int, default=20)
        p.add_argument("--cores", type=int, default=4)
        p.add_argument("--json", action="store_true",
                       help="emit raw JSON instead of pretty print")
        p.add_argument("--profile", action="store_true",
                       help="cProfile the run; print top-25 by cumulative")
    return parser


def _run_profiled(fn):
    """Run ``fn`` under cProfile, print top-25 by cumulative time."""
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # Delegated wholesale: simlint owns its own argparse surface.
        from repro.analysis.simlint import main as lint_main
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        print("sweep")
        print("overload")
        print("trace")
        print("why")
        print("lint")
        return 0
    if args.command == "why":
        from repro.obs.why import render_text, run_why_scenario
        report = run_why_scenario(
            args.scenario, duration=args.duration, seed=args.seed,
            nodes=args.nodes, jobs=args.jobs, platform=args.platform,
            tail_q=args.tail)
        payload = _jsonable(report)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        if args.fmt == "json":
            json.dump(payload, sys.stdout)
            print()
        else:
            sys.stdout.write(render_text(report))
        return 0
    if args.command == "sweep":
        from repro.bench.sweep import run_sweep
        runner = lambda: run_sweep(jobs=args.jobs, quick=args.quick,
                                   out_path=args.out,
                                   obs_level=args.obs_level)
    elif args.command == "overload":
        from repro.bench.experiments_overload import run_overload_chaos

        def _overload():
            if args.obs_level != "off":
                from repro.obs.export import write_chrome_trace
                from repro.obs.observer import observed
                with observed(args.obs_level) as obs:
                    report = run_overload_chaos(seed=args.seed,
                                                quick=args.quick,
                                                jobs=args.jobs)
                report["obs"] = obs.registry.to_dict()
                if obs.tracer is not None:
                    write_chrome_trace(obs.tracer, args.trace_out)
            else:
                report = run_overload_chaos(seed=args.seed,
                                            quick=args.quick,
                                            jobs=args.jobs)
            with open(args.out, "w") as fh:
                json.dump(_jsonable(report), fh, indent=2)
                fh.write("\n")
            return report
        runner = _overload
    elif args.command == "trace":
        from repro.obs.capture import run_traced_scenario
        runner = lambda: run_traced_scenario(
            args.scenario, level=args.obs_level, out=args.out,
            platform=args.platform, duration=args.duration,
            seed=args.seed, nodes=args.nodes, jobs=args.jobs)
    else:
        runner = lambda: EXPERIMENTS[args.command](args)
    if getattr(args, "profile", False):
        result = _run_profiled(runner)
    else:
        result = runner()
    payload = _jsonable(result)
    if getattr(args, "json", False):
        json.dump(payload, sys.stdout)
        print()
    else:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
