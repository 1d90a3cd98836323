"""Pin the outcome digest of every workload seed into ``expected.json``.

    python3 perfbench/pin.py

Runs each workload once per workload seed (``0 .. SEED_SPACE-1``), each
in a fresh interpreter, checks that ``rack_trace_jobs2`` reproduces
``rack_rr`` for every seed, and rewrites ``expected.json``.  Re-pin only
in a change that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, run_child
from spec import DIGEST_KEY, SEED_SPACE, WORKLOADS


def _run(name: str, seed: int) -> str:
    result, why = run_child(name, seed, 0)
    if why is not None:
        raise SystemExit(f"{name} seed {seed}: {why}")
    sim = {k: round(v["value"], 3) for k, v in result["sim"].items()}
    print(f"{name} seed {seed}: {result['digest'][:16]} "
          f"completed={result['completed']} {sim}", flush=True)
    return result["digest"]


def main() -> int:
    digests = {name: {str(s): _run(name, s) for s in range(SEED_SPACE)}
               for name in WORKLOADS if name not in DIGEST_KEY}
    for name, reference in DIGEST_KEY.items():
        for seed in range(SEED_SPACE):
            if _run(name, seed) != digests[reference][str(seed)]:
                print(f"{name} seed {seed} differs from {reference}",
                      file=sys.stderr)
                return 1
    with open(EXPECTED, "w") as fh:
        json.dump({"seed_space": SEED_SPACE, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
