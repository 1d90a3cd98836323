"""End-to-end `repro.cli lint` tests over a throwaway repository."""

import io
import textwrap

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
        baseline = "simlint-baseline.txt"
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


def test_write_baseline_then_clean(tmp_path):
    make_repo(tmp_path)
    code, output = run(tmp_path, "--write-baseline")
    assert code == 0
    assert "baselined 1" in output
    assert (tmp_path / "simlint-baseline.txt").is_file()

    code, output = run(tmp_path)
    assert code == 0
    assert "1 baselined" in output

    # --no-baseline surfaces the acknowledged violation again.
    code, _ = run(tmp_path, "--no-baseline")
    assert code == 1


def test_baseline_invalidated_by_editing_the_line(tmp_path):
    make_repo(tmp_path)
    run(tmp_path, "--write-baseline")
    (tmp_path / "src" / "mod.py").write_text(textwrap.dedent("""
        import time

        def stamp():
            return time.time() + 1.0
    """), encoding="utf-8")
    code, output = run(tmp_path)
    assert code == 1
    assert "SIM001" in output


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
    for rule_id in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM006"):
        assert rule_id in output


def test_per_rule_path_exclusion(tmp_path):
    make_repo(tmp_path)
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.simlint]
        baseline = "simlint-baseline.txt"
        paths = ["src"]

        [tool.simlint.per_rule.SIM001]
        exclude = ["src/*"]
    """), encoding="utf-8")
    code, _ = run(tmp_path)
    assert code == 0


def test_disable_rule_via_config(tmp_path):
    make_repo(tmp_path)
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.simlint]
        baseline = "simlint-baseline.txt"
        paths = ["src"]
        disable = ["SIM001"]
    """), encoding="utf-8")
    code, _ = run(tmp_path)
    assert code == 0


DEEP_SOURCE = """
    CACHE = {}

    class Simulator:
        def run(self):
            return remember("k")

    def remember(key):
        CACHE[key] = 1
        return key
"""


def make_deep_repo(tmp_path, source=DEEP_SOURCE):
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.simlint]
        baseline = "simlint-baseline.txt"
        paths = ["src"]
        deep_baseline = "simlint-deep-baseline.txt"
        deep_paths = ["src"]
        deep_roots = ["simx.Simulator.run"]
    """), encoding="utf-8")
    src = tmp_path / "src"
    src.mkdir()
    (src / "simx.py").write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def test_deep_mode_finds_what_per_file_rules_cannot(tmp_path):
    make_deep_repo(tmp_path)
    code, output = run(tmp_path)
    assert code == 0  # no per-file rule sees the shared-state write

    code, output = run(tmp_path, "--deep")
    assert code == 1
    assert "SIM006" in output and "CACHE" in output


def test_deep_write_baseline_splits_files(tmp_path):
    make_deep_repo(tmp_path)
    code, output = run(tmp_path, "--deep", "--write-baseline")
    assert code == 0
    assert "1 deep violations" in output
    deep_file = (tmp_path / "simlint-deep-baseline.txt").read_text()
    assert "SIM006" in deep_file
    shallow_file = (tmp_path / "simlint-baseline.txt").read_text()
    assert "SIM006" not in shallow_file

    code, output = run(tmp_path, "--deep")
    assert code == 0
    assert "1 baselined" in output


def test_deep_pragma_certification(tmp_path):
    src = DEEP_SOURCE.replace(
        "CACHE = {}",
        "CACHE = {}  # simlint: shard-safe (pure function of key)")
    make_deep_repo(tmp_path, src)
    code, output = run(tmp_path, "--deep")
    assert code == 0
    assert "clean" in output


def test_format_sarif_writes_report_file(tmp_path):
    import json
    make_deep_repo(tmp_path)
    sarif_path = tmp_path / "simlint.sarif"
    code, output = run(tmp_path, "--deep", "--format", "sarif",
                       "--out", str(sarif_path))
    assert code == 1
    assert "FAILED" in output  # summary still printed
    log = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert log["version"] == "2.1.0"
    results = log["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["SIM006"]
    assert results[0]["locations"][0]["physicalLocation"][
        "artifactLocation"]["uri"] == "src/simx.py"
    rule_ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)


def test_format_json_writes_findings_list(tmp_path):
    import json
    make_deep_repo(tmp_path)
    json_path = tmp_path / "simlint.json"
    code, _ = run(tmp_path, "--deep", "--format", "json",
                  "--out", str(json_path))
    assert code == 1
    data = json.loads(json_path.read_text(encoding="utf-8"))
    assert data["tool"] == "simlint"
    assert data["findings"][0]["rule"] == "SIM006"
    assert data["findings"][0]["path"] == "src/simx.py"


def test_list_rules_includes_deep_rules(tmp_path):
    code, output = run(tmp_path, "--list-rules")
    assert code == 0
    for rule_id in ("SIM006", "SIM007", "SIM008", "SIM009", "SIM010"):
        assert rule_id in output
    assert "[deep]" in output


def test_repo_cli_surfaces_lint():
    from repro.cli import main as repro_main
    import contextlib
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert repro_main(["list"]) == 0
    assert "lint" in out.getvalue()
