"""Spread of the end-to-end metrics over runs, workloads interleaved.

    python3 perfbench/spread.py [--seeds 10]

Runs the ``BENCHMARK.json`` command once per (seed, workload) for seeds
1, 2, ..., cycling through the workloads for each seed so that drift on
the host hits every workload alike.  Prints, per workload and
end-to-end metric, the median and
the quartile spread ``(q3 - q1) / median`` (``statistics.quantiles``
with ``n=4``) next to the metric's bound, and the spread the same runs
have without the host-probe rescaling (``unscaled`` in the report).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spread(vals):
    """(median, (q3 - q1) / median) of ``vals``."""
    med = statistics.median(vals)
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]

    runs = []
    for seed in range(1, args.seeds + 1):
        for name in workloads:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            runs.append({"workload": name, "unscaled": report["unscaled"],
                         **result})
            values = {k: round(v["value"], 4)
                      for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} {values}", flush=True)

    worst = (0.0, "")
    for name in workloads:
        mine = [r for r in runs if r["workload"] == name]
        for metric in bench["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in mine]
            med, spread = _spread(vals)
            _med, raw = _spread([r["unscaled"][metric["name"]] for r in mine])
            share = spread / metric["bound"]
            worst = max(worst, (share, f"{metric['name']} on {name}"))
            print(f"{name:18s} {metric['name']:12s} median={med:10.4f} "
                  f"spread={spread:6.3f} bound={metric['bound']:.2f} "
                  f"({share:4.0%} of bound; unscaled spread {raw:.3f})")
    print(f"worst spread: {worst[0]:.0%} of its bound ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
