"""Correctness tooling for the simulator: static lint + runtime sanitizer.

Two cooperating layers keep the reproduction's numbers trustworthy:

* :mod:`repro.analysis.simlint` — an AST-based static-analysis pass
  (``python -m repro.cli lint``) whose rules ban the constructs that
  silently break determinism or bypass accounting: wall-clock time and
  unseeded RNGs outside the bench harness, iteration over unordered
  ``set`` views in scheduling/eviction/dispatch paths, direct mutation
  of frame/charge state behind the accounting APIs, and optimization
  flags whose fast/slow path pair no test exercises.  ``lint --deep``
  goes whole-program: :mod:`repro.analysis.callgraph` builds a project
  call graph, :mod:`repro.analysis.effects` infers
  purity/reads-shared/writes-shared effects,
  :mod:`repro.analysis.dataflow` propagates nondeterminism taint, and
  :mod:`repro.analysis.shardcheck` certifies shard safety with rules
  SIM006–SIM010 (shared-state writes, non-associative merges,
  order-sensitive float folds, unguarded hook calls, taint reaching a
  sim sink).  :mod:`repro.analysis.sarif` renders findings as JSON or
  SARIF 2.1.0 for CI upload.

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
