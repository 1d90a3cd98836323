"""repro.obs: virtual-time tracing, metrics and Perfetto export.

Deliberately import-light: instrumented hot paths import only
:mod:`repro.obs.hooks`, the dependency-free hook bus that both the
observer and the runtime sanitizer (:mod:`repro.analysis.sanitizer`)
subscribe to, and this package root defers everything else so
``import repro.obs`` can never create a cycle with the modules it
observes.  Entry points:

* :func:`repro.obs.observer.observed` — context manager installing an
  observer at level ``"metrics"`` or ``"spans"``;
* :func:`repro.obs.capture.run_traced_scenario` — the CLI ``trace``
  subcommand's engine;
* :mod:`repro.obs.export` — Chrome-trace JSON / Prometheus text / phase
  breakdown exporters;
* :mod:`repro.obs.causal` / :mod:`repro.obs.why` — causal span graph,
  bit-exact critical-path blame, and the tail-cohort "why" engine
  behind the CLI ``why`` subcommand;
* :mod:`repro.obs.merge` — folds per-shard span traces from a parallel
  cluster run into one serial-identical tracer.
"""

from __future__ import annotations

__all__ = ["observed", "maybe_observed", "level_from_env"]


def __getattr__(name: str):
    if name in __all__:
        from repro.obs import observer
        return getattr(observer, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
