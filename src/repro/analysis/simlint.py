"""The simlint driver: collect files, run rules, apply the baseline.

Entry points::

    python -m repro.cli lint                      # lint configured paths
    python -m repro.cli lint src/repro tests/foo  # explicit targets
    python -m repro.cli lint --deep               # + whole-program rules
    python -m repro.cli lint --deep --format sarif --out simlint.sarif
    python -m repro.cli lint --write-baseline     # acknowledge current hits
    python -m repro.cli lint --list-rules         # rule catalogue

``--deep`` additionally parses the whole program (``deep_paths`` from
``[tool.simlint]``), builds the project call graph, runs the
purity/effect and taint analyses, and evaluates the interprocedural
rules SIM006–SIM010 (see :mod:`repro.analysis.shardcheck`).  Deep
findings are acknowledged in a *separate* baseline file
(``deep_baseline``) so the per-file allowlist stays reviewable.

Exit status: 0 when every violation is baselined (or none exist),
1 when new violations are found, 2 on usage/config errors.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, TextIO

from repro.analysis import sarif
from repro.analysis.baseline import Baseline
from repro.analysis.config import SimlintConfig, load_config
from repro.analysis.rules import ParsedModule, Rule, Violation, all_rules


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0
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


def _parse_modules(files: Iterable[Path], root: Path, config: SimlintConfig,
                   report: LintReport) -> Dict[str, ParsedModule]:
    modules: Dict[str, ParsedModule] = {}
    for path in files:
        relpath = _relpath(path, root)
        if config.path_excluded(relpath):
            continue
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            report.parse_errors.append(f"{relpath}: syntax error: {exc}")
            continue
        except OSError as exc:
            report.parse_errors.append(f"{relpath}: unreadable: {exc}")
            continue
        modules[relpath] = ParsedModule(relpath=relpath, tree=tree,
                                        lines=source.splitlines())
        report.files_checked += 1
    return modules


def run_lint(root: Path, targets: Optional[Sequence[str]] = None,
             config: Optional[SimlintConfig] = None,
             baseline: Optional[Baseline] = None,
             rules: Optional[Sequence[Rule]] = None,
             deep: bool = False,
             deep_baseline: Optional[Baseline] = None) -> LintReport:
    """Lint ``targets`` under ``root``; returns the full report.

    With ``deep=True`` the whole program (``config.deep_paths``) is
    parsed in addition to ``targets`` and the interprocedural rules
    run over one shared :class:`~repro.analysis.shardcheck.DeepContext`.
    Deep findings are suppressed by ``deep_baseline`` (not the
    per-file baseline).
    """
    root = Path(root).resolve()
    config = config if config is not None else load_config(root)
    if baseline is None:
        baseline = Baseline.load(config.baseline_path)
    report = LintReport()
    files = iter_python_files(root, targets or config.paths)
    modules = _parse_modules(files, root, config, report)
    active = [rule for rule in (rules if rules is not None else all_rules())
              if config.rule_enabled(rule.rule_id)]
    raw: List[Violation] = []
    for rule in active:
        if rule.scope == "deep":
            continue
        for relpath in modules:
            if config.path_excluded(relpath, rule.rule_id):
                continue
            raw.extend(rule.check_file(modules[relpath]))
    deep_raw: List[Violation] = []
    if deep:
        if deep_baseline is None:
            deep_baseline = Baseline.load(config.deep_baseline_path)
        deep_raw = _run_deep(root, config, active, report)
    raw.sort(key=lambda v: (v.relpath, v.line, v.col, v.rule_id))
    deep_raw.sort(key=lambda v: (v.relpath, v.line, v.col, v.rule_id))
    for violation in raw:
        if baseline.suppresses(violation):
            report.suppressed += 1
        else:
            report.violations.append(violation)
    for violation in deep_raw:
        if deep_baseline is not None and deep_baseline.suppresses(violation):
            report.suppressed += 1
        else:
            report.violations.append(violation)
    return report


def _run_deep(root: Path, config: SimlintConfig,
              active: Sequence[Rule], report: LintReport
              ) -> List[Violation]:
    """Parse ``config.deep_paths`` and evaluate the deep-scope rules."""
    from repro.analysis.shardcheck import build_deep_context

    deep_files = iter_python_files(root, config.deep_paths)
    # Parse into a scratch report: the whole-program pass may overlap
    # the per-file targets, and files_checked counts lint targets only.
    scratch = LintReport()
    modules = _parse_modules(deep_files, root, config, scratch)
    report.parse_errors.extend(scratch.parse_errors)
    context = build_deep_context(modules, config)
    out: List[Violation] = []
    for rule in active:
        if rule.scope != "deep":
            continue
        for violation in rule.check_deep(context):
            if not config.path_excluded(violation.relpath, rule.rule_id):
                out.append(violation)
    return out


def _print_summary(report: LintReport, out: TextIO) -> None:
    status = "clean" if report.clean else "FAILED"
    print(f"simlint: {report.files_checked} files, "
          f"{len(report.violations)} violations, "
          f"{report.suppressed} baselined — {status}", file=out)


def _print_report(report: LintReport, out: TextIO) -> None:
    for error in report.parse_errors:
        print(f"error: {error}", file=out)
    for violation in report.violations:
        print(violation.format(), file=out)
    _print_summary(report, out)


def _print_rules(out: TextIO) -> None:
    for rule in all_rules():
        print(f"{rule.rule_id}  {rule.title} [{rule.scope}]", file=out)
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
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: configured)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every violation, ignoring the baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="acknowledge current violations into the "
                             "baseline file(s) and exit 0")
    parser.add_argument("--deep", action="store_true",
                        help="also run the whole-program rules "
                             "(SIM006-SIM010) over the configured "
                             "deep_paths")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (default: text)")
    parser.add_argument("--out", default=None,
                        help="write the report to this file instead of "
                             "stdout (summary line still printed)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules(out)
        return 0

    root = Path(args.root).resolve()
    try:
        config = load_config(root)
        if args.baseline is not None:
            config.baseline = args.baseline
        baseline = (Baseline() if args.no_baseline
                    else Baseline.load(config.baseline_path))
        deep_baseline = (Baseline() if args.no_baseline
                         else Baseline.load(config.deep_baseline_path))
        report = run_lint(root, targets=args.targets or None, config=config,
                          baseline=baseline, deep=args.deep,
                          deep_baseline=deep_baseline)
    except (FileNotFoundError, ValueError) as exc:
        print(f"simlint: error: {exc}", file=out)
        return 2

    if args.write_baseline:
        deep_ids = {rule.rule_id for rule in all_rules()
                    if rule.scope == "deep"}
        shallow = [v for v in report.violations if v.rule_id not in deep_ids]
        deep_hits = [v for v in report.violations if v.rule_id in deep_ids]
        baseline.save(config.baseline_path, shallow)
        print(f"simlint: baselined {len(shallow)} violations "
              f"into {config.baseline_path}", file=out)
        if args.deep:
            deep_baseline.save(config.deep_baseline_path, deep_hits)
            print(f"simlint: baselined {len(deep_hits)} deep violations "
                  f"into {config.deep_baseline_path}", file=out)
        return 0

    if args.fmt != "text":
        rules = [rule for rule in all_rules()
                 if config.rule_enabled(rule.rule_id)]
        if args.fmt == "json":
            payload = sarif.violations_to_json(report.violations)
        else:
            payload = sarif.violations_to_sarif(report.violations, rules)
        if args.out is not None:
            Path(args.out).write_text(payload, encoding="utf-8")
            _print_summary(report, out)
        else:
            out.write(payload)
            _print_summary(report, sys.stderr)
        return 0 if report.clean else 1

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            _print_report(report, handle)
        _print_summary(report, out)
    else:
        _print_report(report, out)
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
