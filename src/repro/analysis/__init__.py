"""Correctness tooling for the simulator: static lint + runtime sanitizer.

Two cooperating layers keep the reproduction's numbers trustworthy:

* :mod:`repro.analysis.simlint` — an AST-based static-analysis pass
  (``python -m repro.cli lint``) whose per-file rules ban the constructs
  that silently break determinism or bypass accounting: wall-clock
  time and unseeded RNGs outside the bench harness, iteration over
  unordered ``set`` views in scheduling/eviction/dispatch paths, direct
  mutation of frame/charge state behind the accounting APIs, and
  process-environment reads outside the two opt-in switches.  The rest
  of the determinism contract (shard-safe state, order-free merges,
  guarded hook calls) is checked by running the code: the golden
  digests, the serial-vs-sharded trace comparison and the test suite.

* :mod:`repro.analysis.sanitizer` — an opt-in runtime invariant checker
  (the kmemleak/KASAN analog) that hooks pool allocation, PTE
  transitions, and cgroup/accountant charge paths to assert, at
  configurable barriers and at teardown: frame refcount balance, no
  write to a write-protected template page without a CoW fault, charge
  conservation, tiered-pool capacity conservation, page-cache balance,
  and event-queue time monotonicity.

The sanitizer listens on the hook bus, :mod:`repro.obs.hooks`, next to
the observer.  Instrumented hot modules (:mod:`repro.mem.pools`,
:mod:`repro.sim.engine`, ...) import only that dependency-free module,
never this package, so the disabled-sanitizer cost is a single
``is None`` check per hook site.

See ``docs/analysis.md`` for the rule and invariant catalogue.
"""
