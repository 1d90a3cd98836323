"""The simlint driver: collect files, run the per-file rules, report.

Entry points::

    python -m repro.cli lint                      # lint configured paths
    python -m repro.cli lint src/repro tests/foo  # explicit targets
    python -m repro.cli lint --list-rules         # rule catalogue

Every rule sees one parsed module at a time; policy (which paths a rule
skips) lives in ``[tool.simlint]`` (see :mod:`repro.analysis.config`).

Exit status: 0 when no violation is found, 1 when any is, 2 on
usage/config errors.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from repro.analysis.config import SimlintConfig, load_config
from repro.analysis.rules import ParsedModule, Rule, Violation, all_rules


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors


def iter_python_files(root: Path, targets: Sequence[str]) -> List[Path]:
    """Resolve lint targets (files or directories) to sorted .py files."""
    files: List[Path] = []
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"lint target not found: {target}")
    seen: Dict[Path, None] = {}
    for path in files:
        seen.setdefault(path.resolve(), None)
    return list(seen)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse(path: Path, relpath: str,
           report: LintReport) -> Optional[ParsedModule]:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        report.parse_errors.append(f"{relpath}: syntax error: {exc}")
        return None
    except OSError as exc:
        report.parse_errors.append(f"{relpath}: unreadable: {exc}")
        return None
    return ParsedModule(relpath=relpath, tree=tree, lines=source.splitlines())


def run_lint(root: Path, targets: Optional[Sequence[str]] = None,
             config: Optional[SimlintConfig] = None,
             rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint ``targets`` (default: the configured paths) under ``root``."""
    root = Path(root).resolve()
    config = config if config is not None else load_config(root)
    rules = rules if rules is not None else all_rules()
    report = LintReport()
    for path in iter_python_files(root, targets or config.paths):
        relpath = _relpath(path, root)
        module = _parse(path, relpath, report)
        if module is None:
            continue
        report.files_checked += 1
        for rule in rules:
            if not config.path_excluded(relpath, rule.rule_id):
                report.violations.extend(rule.check_file(module))
    report.violations.sort(key=lambda v: (v.relpath, v.line, v.col,
                                          v.rule_id))
    return report


def _print_report(report: LintReport, out: TextIO) -> None:
    for error in report.parse_errors:
        print(f"error: {error}", file=out)
    for violation in report.violations:
        print(violation.format(), file=out)
    status = "clean" if report.clean else "FAILED"
    print(f"simlint: {report.files_checked} files, "
          f"{len(report.violations)} violations — {status}", file=out)


def _print_rules(out: TextIO) -> None:
    for rule in all_rules():
        print(f"{rule.rule_id}  {rule.title}", file=out)
        print(f"    {rule.rationale}", file=out)


def main(argv: Optional[Sequence[str]] = None,
         out: TextIO = sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simlint: determinism/accounting static analysis")
    parser.add_argument("targets", nargs="*",
                        help="files or directories (default: configured "
                             "[tool.simlint] paths)")
    parser.add_argument("--root", default=".",
                        help="repository root holding pyproject.toml")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules(out)
        return 0

    root = Path(args.root).resolve()
    try:
        report = run_lint(root, targets=args.targets or None,
                          config=load_config(root))
    except (FileNotFoundError, ValueError) as exc:
        print(f"simlint: error: {exc}", file=out)
        return 2
    _print_report(report, out)
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
