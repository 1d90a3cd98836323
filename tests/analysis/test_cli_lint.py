"""End-to-end `repro.cli lint` tests over a throwaway repository."""

import io
import textwrap

import pytest

from repro.analysis.simlint import main as lint_main


BAD_SOURCE = """
    import time

    def stamp():
        return time.time()
"""

GOOD_SOURCE = """
    def pure(x):
        return x + 1
"""


def make_repo(tmp_path, source=BAD_SOURCE):
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.simlint]
        paths = ["src"]
    """), encoding="utf-8")
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def run(tmp_path, *argv):
    out = io.StringIO()
    code = lint_main(["--root", str(tmp_path), *argv], out=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero(tmp_path):
    make_repo(tmp_path, GOOD_SOURCE)
    code, output = run(tmp_path)
    assert code == 0
    assert "clean" in output


def test_violation_exits_nonzero_with_location(tmp_path):
    make_repo(tmp_path)
    code, output = run(tmp_path)
    assert code == 1
    assert "SIM001" in output and "src/mod.py:" in output
    assert "FAILED" in output


def test_explicit_targets_override_config(tmp_path):
    make_repo(tmp_path)
    extra = tmp_path / "other"
    extra.mkdir()
    (extra / "ok.py").write_text("x = 1\n", encoding="utf-8")
    code, _ = run(tmp_path, "other")
    assert code == 0


def test_missing_target_is_config_error(tmp_path):
    make_repo(tmp_path)
    code, output = run(tmp_path, "no/such/dir")
    assert code == 2
    assert "error" in output


def test_syntax_error_is_reported_not_crash(tmp_path):
    make_repo(tmp_path, "def broken(:\n")
    code, output = run(tmp_path)
    assert code == 1
    assert "syntax error" in output


def test_list_rules(tmp_path):
    code, output = run(tmp_path, "--list-rules")
    assert code == 0
    for rule_id in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM010"):
        assert rule_id in output


def test_removed_options_are_usage_errors(tmp_path):
    # One per-file pass that fails on any finding: no allowlist, no
    # alternative report formats, no whole-program mode.
    make_repo(tmp_path)
    for option in ("--deep", "--no-baseline", "--write-baseline",
                   "--format=sarif", "--out=report.txt"):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, option)
        assert excinfo.value.code == 2


def test_per_rule_path_exclusion(tmp_path):
    make_repo(tmp_path)
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.simlint]
        paths = ["src"]

        [tool.simlint.per_rule.SIM001]
        exclude = ["src/*"]
    """), encoding="utf-8")
    code, _ = run(tmp_path)
    assert code == 0


def test_repo_cli_surfaces_lint():
    from repro.cli import main as repro_main
    import contextlib
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert repro_main(["list"]) == 0
    assert "lint" in out.getvalue()
