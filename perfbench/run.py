"""Host-time benchmark of the TrEnv simulator.  Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration runs the workload in a fresh interpreter (``child.py``),
so every timed run pays the first-run costs a CLI user pays.  Iterations
repeat until the next one would end past ``--seconds``; every one is
checked against the pinned outcome digest of its workload seed
(``expected.json``).  The last stdout line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics (see
``end_to_end``), times rescaled to the reference host by a host probe
run before every iteration; with ``--trace 1`` they are the per-layer
metrics of
traced iterations, each paired with an untraced one to price the
tracing.  The line before it is a report with the provenance block
(``meta``), the simulated outcome metrics and every iteration.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from digest import check
from spec import (DIGEST_KEY, END_TO_END, WORKLOADS, per_layer_metrics,
                  workload_seed)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0

#: The probe's best time on the reference host: a 2-vCPU microVM
#: (Xeon, 2.0 GHz), Python 3.11.  Time metrics are reported in seconds
#: of that host.
PROBE_REFERENCE_S = 0.17
PROBE_ITEMS = 60_000


class _Item:
    __slots__ = ("n", "x", "s")

    def __init__(self, n: int, x: float, s: str):
        self.n, self.x, self.s = n, x, s


def host_probe() -> float:
    """Seconds a fixed pure-Python job takes on this host right now.

    The job is shaped like the simulator's own hot loop (small objects
    in a dict, a binary heap of events) and shares no code with it, so
    it moves with the host's speed and never with the program's.
    """
    t0 = time.perf_counter()
    rng = random.Random(1)
    table = {}
    for i in range(PROBE_ITEMS):
        table[(i * 2654435761) % 1_000_003] = _Item(i, i * 0.5, str(i))
    heap: List[Tuple[float, int, _Item]] = []
    for key, item in table.items():
        heapq.heappush(heap, (rng.random(), key, item))
    total = 0
    while heap:
        total += heapq.heappop(heap)[2].n
    return time.perf_counter() - t0


def run_child(workload: str, seed: int,
              trace: int) -> Tuple[Optional[Dict], Optional[str]]:
    """One iteration in a fresh interpreter: (result, None) or (None, why)."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed",
           str(seed), "--trace", str(trace),
           "--launched", repr(time.monotonic())]
    # Own session, so a timeout kills the child's shard workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"killed after {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "no result line"


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED) as fh:
        return json.load(fh)["digests"]


def pinned(expected: Dict, workload: str, seed: int) -> Optional[str]:
    table = expected.get(DIGEST_KEY.get(workload, workload), {})
    return table.get(str(workload_seed(seed)))


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def sharding_problem(workload: str, result: Dict) -> Optional[str]:
    """Why a sharded workload did not run the sharded path, else None.

    A serial fallback, or a span merge that re-ran the workload
    serially, still reproduces the serial digest, so the digest alone
    cannot tell that the wrong path was timed.
    """
    jobs = WORKLOADS[workload]["params"].get("jobs")
    if jobs is None:
        return None
    par = result.get("parallel") or {}
    ran = (par.get("mode"), par.get("n_shards"), par.get("span_merge"))
    if ran != ("parallel", jobs, "merged"):
        return "sharded path not taken: mode={} n_shards={} span_merge={}" \
            .format(*ran)
    return None


class Runner:
    """Runs and checks iterations, keeping the run's tallies."""

    def __init__(self, seed: int, expected: Dict):
        self.seed = seed
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def iterate(self, workload: str, trace: int) -> Optional[Dict]:
        """One checked iteration; None when it produced no result.

        An iteration whose outcome differs from the pinned one still
        returns its timings, but counts as failed.
        """
        self.attempted += 1
        result, why = run_child(workload, self.seed, trace)
        if why is None:
            why = (check(result["digest"],
                         pinned(self.expected, workload, self.seed))
                   or sharding_problem(workload, result))
        if why is not None:
            self.failed += 1
            self.problems.append(f"{workload} trace={trace}: {why}")
        return result


def end_to_end(results: List[Dict], probe_s: float) -> Dict[str, float]:
    """The run's end-to-end metrics from its iterations.

    On a shared machine the same work runs up to 1.6x slower, in bursts
    of seconds and in phases of minutes (other tenants, frequency
    changes).  Against the bursts, the timed-run metrics take the best
    iteration, the one they disturbed least; set-up, a fraction of a
    second each time, takes the median of its repeats.  Against the
    phases, every time is rescaled to seconds of the reference host by
    ``probe_s``, the best host probe of the run.  Memory has no such
    skew and takes the median.
    """
    scale = PROBE_REFERENCE_S / probe_s
    return {
        "inv_per_s": max(r["scheduled"] / r["wall_s"] for r in results)
        / scale,
        "cpu_s": min(r["cpu_s"] for r in results) * scale,
        "setup_s": statistics.median(r["setup_s"] for r in results) * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def pair_layers(untraced: Dict, traced: Dict,
                serial_wall: Optional[float]) -> Dict[str, float]:
    """One traced iteration's per-layer metrics, priced by its partner."""
    m = dict(traced["layers"])
    m["trace.untraced_wall_s"] = untraced["wall_s"]
    m["trace.overhead_pct"] = (traced["wall_s"] / untraced["wall_s"]
                               - 1.0) * 100.0
    par = untraced.get("parallel") or {}
    walls = par.get("shard_wall_s") or []
    m["parallel.plan_s"] = par.get("plan_s", 0.0)
    m["parallel.merge_s"] = par.get("merge_s", 0.0)
    m["parallel.shard_wall_max_s"] = max(walls, default=0.0)
    m["parallel.imbalance"] = (max(walls) / statistics.mean(walls)
                               if walls else 0.0)
    m["parallel.speedup"] = (serial_wall / untraced["wall_s"]
                             if serial_wall and par else 0.0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the TrEnv simulator.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    runner = Runner(args.seed, load_expected())
    name = args.workload

    start = time.monotonic()
    longest = 0.0
    results: List[Dict] = []
    probes: List[float] = []
    pairs: List[Tuple[Dict, Dict]] = []
    serial_wall: Optional[float] = None
    while True:
        t0 = time.monotonic()
        if args.trace:
            untraced = runner.iterate(name, 0)
            traced = runner.iterate(name, 1)
            if untraced and traced:
                pairs.append((untraced, traced))
            if name == "rack_trace_jobs2" and serial_wall is None:
                # parallel.speedup: the same arrivals, serial, obs off.
                serial = runner.iterate("rack_rr", 0)
                serial_wall = serial["wall_s"] if serial else None
        else:
            probes.append(host_probe())
            result = runner.iterate(name, 0)
            if result:
                results.append(result)
        now = time.monotonic()
        longest = max(longest, now - t0)
        if runner.failed or now - start + longest > args.seconds:
            break

    done = results or [u for u, _ in pairs]
    if not done:
        print("perfbench: no iteration completed: "
              + "; ".join(runner.problems), file=sys.stderr)
        return 1

    if args.trace:
        rows = [pair_layers(u, t, serial_wall) for u, t in pairs]
        values = {metric: statistics.median(r[metric] for r in rows)
                  for metric, _u, _b in per_layer_metrics()}
        units = {metric: unit for metric, unit, _b in per_layer_metrics()}
    else:
        values = end_to_end(results, min(probes))
        units = {metric: unit for metric, unit, _b in END_TO_END}

    first = done[0]
    report = {
        "workload": name,
        "meta": dict(first["meta"],
                     command=["python3", "perfbench/run.py"]
                     + list(sys.argv[1:] if argv is None else argv),
                     seed=args.seed,
                     workload_seed=workload_seed(args.seed),
                     workload_params=first["params"],
                     git_sha=git_sha(), nproc=os.cpu_count(),
                     host=platform.platform()),
        "digest": first["digest"],
        "sim": first["sim"],
        "iterations": [
            {k: r.get(k) for k in ("trace", "setup_s", "wall_s", "cpu_s",
                                   "peak_rss_mb", "completed",
                                   "n_failed", "parallel")}
            for r in done + [t for _u, t in pairs]],
        "problems": runner.problems,
    }
    if probes:
        report["host_probe_s"] = min(probes)
        report["unscaled"] = end_to_end(results, PROBE_REFERENCE_S)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": values[metric],
                             "unit": units[metric]} for metric in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
