"""One iteration of one workload, in a fresh interpreter.

Invoked by ``run.py`` (never imported by it); prints one JSON object on
its last stdout line.  Usage::

    python3 perfbench/child.py --workload W --seed N --trace 0|1 \\
        --launched <time.monotonic() of the parent just before launch>

Everything up to the first simulated event (imports, schedule build,
rack construction, registration) is set-up; the workload's run is the
timed part.  ``--trace 1`` runs the timed part under cProfile with the
layer probes installed and adds the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
SRC = os.path.join(ROOT, "src")


def _rusage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(self_.ru_maxrss, kids.ru_maxrss) / 1024.0


def _meta() -> dict:
    import numpy

    from repro import optflags
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "optflags": {name: bool(getattr(optflags, name))
                     for name in optflags.FLAGS},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s: dict, totals: dict, wall: float, outcome,
                  counts: dict) -> dict:
    """The per-layer table of one traced run (parallel.* filled later).

    ``self_s`` sums to the traced wall; ``totals`` (the same, or for a
    sharded run the sum over every process) prices per-operation costs.
    """
    from spec import LAYERS, UNOWNED

    m = {f"{layer}.self_s": self_s.get(layer, 0.0)
         for layer in list(LAYERS) + [UNOWNED]}
    recorder = outcome.recorder
    completed = recorder.count()
    control = outcome.control or {}
    admission = control.get("admission", {})
    breakers = (list(control.get("node_breakers", {}).values())
                + list(control.get("pool_breakers", {}).values()))
    faults = counts.get("faults", 0)
    attaches = counts.get("attaches", 0)
    traces = counts.get("traces", 0)
    m.update({
        "sim.us_per_inv": _ratio(totals["sim"], outcome.scheduled) * 1e6,
        "serverless.dispatch.picks": sum(outcome.dispatch_counts.values()),
        "serverless.dispatch.redispatches": outcome.redispatches,
        "serverless.platform.invokes": counts.get("invokes", 0),
        "serverless.platform.warm_hit_ratio": _ratio(
            recorder.start_kind_counts().get("warm", 0), completed),
        "serverless.metrics.records": counts.get("records", 0),
        "control.admits": admission.get("admitted", 0),
        "control.shed_ratio": _ratio(admission.get("shed_total", 0),
                                     outcome.scheduled),
        "control.breaker_rejects": sum(b["rejections"] for b in breakers),
        "mem.fault.accesses": counts.get("accesses", 0),
        "mem.fault.faults": faults,
        "mem.fault.ns_per_fault": _ratio(totals["mem.fault"], faults) * 1e9,
        "mem.pools.fetches": counts.get("fetches", 0),
        "core.template.attaches": attaches,
        "core.template.restores": counts.get("restores", 0),
        "core.template.us_per_attach": _ratio(totals["core.template"],
                                              attaches) * 1e6,
        "sandbox.repurposes": counts.get("repurposes", 0),
        "workloads.traces": traces,
        "workloads.trace_cache_hit_ratio": (
            max(0.0, 1.0 - _ratio(counts.get("traces_built", 0), traces))
            if traces else 0.0),
        "obs.spans": outcome.n_spans,
        "obs.us_per_span": _ratio(totals["obs"], outcome.n_spans) * 1e6,
        "trace.wall_s": wall,
        "trace.coverage": _ratio(
            sum(v for k, v in self_s.items() if k != UNOWNED), wall),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)

    import digest
    import layers
    from scenarios import prepare
    from spec import workload_seed

    name = args.workload
    wseed = workload_seed(args.seed)
    run, params = prepare(name, wseed)
    timers: dict = {}
    counts: dict = {}
    if name == "rack_trace_jobs2":
        # The simulation runs in the shard workers: time them, and in a
        # traced run count and profile inside each worker.
        layers.install_parallel_timers(timers, SRC,
                                       profile_shards=bool(args.trace))
    elif args.trace:
        layers.install_counters(counts)
    setup_s = time.monotonic() - args.launched

    cpu0, _ = _rusage()
    stats = None
    if args.trace:
        outcome, wall, stats, parent_self = layers.profiled(run, SRC)
    else:
        t0 = time.perf_counter()
        outcome = run()
        wall = time.perf_counter() - t0
    cpu1, peak_rss_mb = _rusage()

    view = digest.outcome_view(outcome.recorder, outcome.dispatch_counts,
                               outcome.failed, outcome.scheduled)
    out = {
        "workload": name,
        "seed": args.seed,
        "workload_seed": wseed,
        "params": params,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "scheduled": outcome.scheduled,
        "completed": outcome.recorder.count(),
        "n_failed": len(outcome.failed),
        "digest": digest.digest(view),
        "sim": digest.sim_metrics(outcome.recorder, outcome.scheduled,
                                  len(outcome.failed)),
        "meta": _meta(),
    }
    shards = [s for s in timers.get("shards", []) if s is not None]
    if timers:
        out["parallel"] = dict(
            outcome.parallel or {},
            plan_s=timers["plan_s"], merge_s=timers["merge_s"],
            shard_wall_s=[s["wall_s"] for s in shards],
            shard_cpu_s=[s["cpu_s"] for s in shards])
    if stats is not None:
        if shards and all(s["self_s"] for s in shards):
            wait = layers.cumulative(stats, "pool.py", "starmap")
            self_s = layers.critical_path(parent_self, wait, shards)
            totals = dict(parent_self)
            totals["parallel"] -= wait
            for shard in shards:
                for layer, secs in shard["self_s"].items():
                    totals[layer] = totals.get(layer, 0.0) + secs
                for key, n in shard["counts"].items():
                    counts[key] = counts.get(key, 0) + n
        else:
            self_s = totals = parent_self
        out["layers"] = layer_metrics(self_s, totals, wall, outcome, counts)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
