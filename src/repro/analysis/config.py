"""``[tool.simlint]`` configuration, read from ``pyproject.toml``.

Policy lives in configuration, not in rule code: the bench harness's
legitimate ``time.perf_counter`` use is expressed as a per-rule path
exclude here rather than a special case inside SIM001.

Recognised keys (all optional)::

    [tool.simlint]
    baseline = "simlint-baseline.txt"   # repo-relative allowlist file
    paths = ["src/repro"]               # default lint targets
    exclude = ["src/repro/vendored/*"]  # global path excludes (fnmatch)
    disable = ["SIM003"]                # rule ids to turn off entirely

    # Interprocedural deep mode (`lint --deep`, rules SIM006-SIM010):
    deep_baseline = "simlint-deep-baseline.txt"  # deep-rule allowlist
    deep_paths = ["src/repro"]          # whole-program analysis scope
    deep_roots = ["repro.sim.engine.Simulator.run"]  # sim entry points

    [tool.simlint.per_rule.SIM001]
    exclude = ["src/repro/bench/*"]     # per-rule path excludes
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.9/3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: Default simulation entry points for deep-mode reachability: the
#: engine's event loop plus the serverless runners/cluster whose spawned
#: generators do the per-invocation work.  A prefix matches a whole
#: module or class.
DEFAULT_DEEP_ROOTS: Tuple[str, ...] = (
    "repro.sim.engine.Simulator.run",
    "repro.serverless.runner",
    "repro.serverless.cluster",
)


@dataclass
class SimlintConfig:
    """Resolved lint configuration for one repository root."""

    root: Path
    baseline: str = "simlint-baseline.txt"
    paths: Tuple[str, ...] = ("src/repro",)
    exclude: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    per_rule_exclude: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Deep (interprocedural) mode: its own allowlist file, the paths
    #: forming the whole-program scope, and the simulation entry points
    #: reachability is anchored at (function qualnames or module/class
    #: qualname prefixes).
    deep_baseline: str = "simlint-deep-baseline.txt"
    deep_paths: Tuple[str, ...] = ("src/repro",)
    deep_roots: Tuple[str, ...] = DEFAULT_DEEP_ROOTS

    @property
    def baseline_path(self) -> Path:
        return self.root / self.baseline

    @property
    def deep_baseline_path(self) -> Path:
        return self.root / self.deep_baseline

    def rule_enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disable

    def path_excluded(self, relpath: str, rule_id: Optional[str] = None
                      ) -> bool:
        """Whether ``relpath`` (posix, repo-relative) is excluded."""
        patterns: List[str] = list(self.exclude)
        if rule_id is not None:
            patterns.extend(self.per_rule_exclude.get(rule_id, ()))
        return any(fnmatch.fnmatch(relpath, pat) for pat in patterns)


def _str_tuple(value: Any, key: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"[tool.simlint] {key} must be a list of strings")
    out: List[str] = []
    for item in value:
        if not isinstance(item, str):
            raise ValueError(f"[tool.simlint] {key} entries must be strings")
        out.append(item)
    return tuple(out)


def _from_table(root: Path, table: Mapping[str, Any]) -> SimlintConfig:
    config = SimlintConfig(root=root)
    if "baseline" in table:
        config.baseline = str(table["baseline"])
    if "paths" in table:
        config.paths = _str_tuple(table["paths"], "paths")
    if "exclude" in table:
        config.exclude = _str_tuple(table["exclude"], "exclude")
    if "disable" in table:
        config.disable = _str_tuple(table["disable"], "disable")
    if "deep_baseline" in table:
        config.deep_baseline = str(table["deep_baseline"])
    if "deep_paths" in table:
        config.deep_paths = _str_tuple(table["deep_paths"], "deep_paths")
    if "deep_roots" in table:
        config.deep_roots = _str_tuple(table["deep_roots"], "deep_roots")
    per_rule = table.get("per_rule", {})
    if not isinstance(per_rule, Mapping):
        raise ValueError("[tool.simlint.per_rule] must be a table")
    for rule_id, sub in per_rule.items():
        if not isinstance(sub, Mapping):
            raise ValueError(
                f"[tool.simlint.per_rule.{rule_id}] must be a table")
        if "exclude" in sub:
            config.per_rule_exclude[str(rule_id)] = _str_tuple(
                sub["exclude"], f"per_rule.{rule_id}.exclude")
    return config


def load_config(root: Path) -> SimlintConfig:
    """Load ``[tool.simlint]`` from ``root/pyproject.toml`` (or defaults)."""
    root = Path(root)
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return SimlintConfig(root=root)
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("simlint", {})
    if not isinstance(table, Mapping):
        raise ValueError("[tool.simlint] must be a table")
    return _from_table(root, table)
