"""``[tool.simlint]`` configuration, read from ``pyproject.toml``.

Policy lives in configuration, not in rule code: the bench harness's
legitimate ``time.perf_counter`` use is expressed as a per-rule path
exclude here rather than a special case inside SIM001.

Recognised keys (all optional)::

    [tool.simlint]
    paths = ["src/repro"]               # default lint targets

    [tool.simlint.per_rule.SIM001]
    exclude = ["src/repro/bench/*"]     # per-rule path excludes (fnmatch)
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.9/3.10 fallback
    tomllib = None  # type: ignore[assignment]


@dataclass
class SimlintConfig:
    """Resolved lint configuration for one repository root."""

    paths: Tuple[str, ...] = ("src/repro",)
    per_rule_exclude: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def path_excluded(self, relpath: str, rule_id: str) -> bool:
        """Whether ``rule_id`` skips ``relpath`` (posix, repo-relative)."""
        return any(fnmatch.fnmatch(relpath, pat)
                   for pat in self.per_rule_exclude.get(rule_id, ()))


def _str_tuple(value: Any, key: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"[tool.simlint] {key} must be a list of strings")
    out: List[str] = []
    for item in value:
        if not isinstance(item, str):
            raise ValueError(f"[tool.simlint] {key} entries must be strings")
        out.append(item)
    return tuple(out)


def _from_table(table: Mapping[str, Any]) -> SimlintConfig:
    config = SimlintConfig()
    if "paths" in table:
        config.paths = _str_tuple(table["paths"], "paths")
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
    pyproject = Path(root) / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return SimlintConfig()
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("simlint", {})
    if not isinstance(table, Mapping):
        raise ValueError("[tool.simlint] must be a table")
    return _from_table(table)
