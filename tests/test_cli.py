"""Command-line interface."""

import json

import pytest

from repro.cli import (
    _exec_footer,
    EXPERIMENTS,
    lint_main,
    main,
    profile_main,
    sanitize_main,
)

RACY_TEXT = """
module racy {
  func main() {
    parallel_loop accumulate [trip=1000, access=irregular] {
      %v0 = load %data
      store sum
    }
  }
}
"""


class TestRegistry:
    def test_every_figure_present(self):
        expected = {
            "fig1", "fig2", "fig3", "tab1", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "fig13a", "fig13b",
            "fig14a", "fig14b", "fig14c", "fig15a", "fig15b", "fig15c",
            "fig16", "fig17", "ext-svm", "ext-data", "ext-port",
            "ext-churn", "ext-rodinia", "ext-energy",
        }
        assert expected == set(EXPERIMENTS)

    def test_descriptions_non_empty(self):
        for description, runner in EXPERIMENTS.values():
            assert description
            assert callable(runner)


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "tab1" in out

    def test_list_mentions_lint(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lint" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "hardware contexts" in out


class TestExecFooter:
    """The fault-tolerance footer printed after each experiment."""

    @pytest.fixture
    def stats(self):
        from repro.exec.executor import STATS

        before = (
            STATS.pool_rebuilds, STATS.serial_fallbacks,
            list(STATS.serial_fallback_causes),
        )
        yield STATS
        (STATS.pool_rebuilds, STATS.serial_fallbacks) = before[:2]
        STATS.serial_fallback_causes[:] = before[2]

    def test_quiet_when_nothing_happened(self, stats):
        assert _exec_footer(stats.snapshot()) == ""

    def test_renders_rebuilds_and_fallback_causes(self, stats):
        before = stats.snapshot()
        stats.pool_rebuilds += 2
        stats.serial_fallbacks += 1
        stats.serial_fallback_causes.append(
            "pool creation failed: PermissionError"
        )
        assert _exec_footer(before) == (
            "[exec: 2 pool rebuilds; 1 serial fallbacks "
            "(cause: pool creation failed: PermissionError)]"
        )

    def test_counts_are_deltas_not_totals(self, stats):
        stats.pool_rebuilds += 5  # damage from an earlier experiment
        before = stats.snapshot()
        stats.pool_rebuilds += 1
        assert _exec_footer(before) == "[exec: 1 pool rebuilds]"

    def test_experiment_output_stays_clean(self, capsys):
        # A healthy run must not grow an [exec: ...] footer.
        assert main(["fig1"]) == 0
        assert "[exec:" not in capsys.readouterr().out


class TestLint:
    @pytest.fixture
    def racy_file(self, tmp_path):
        path = tmp_path / "racy.ir"
        path.write_text(RACY_TEXT)
        return str(path)

    def test_registry_is_clean_under_strict(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "0 error(s), 0 warning(s)" in out

    def test_single_program_by_name(self, capsys):
        assert lint_main(["cg"]) == 0
        out = capsys.readouterr().out
        assert "cg" in out and "verdict" in out

    def test_paper_alias_resolves(self, capsys):
        assert lint_main(["bscholes"]) == 0
        assert "blackscholes" in capsys.readouterr().out

    def test_suite_name_expands(self, capsys):
        assert lint_main(["nas"]) == 0
        out = capsys.readouterr().out
        for name in ("bt", "cg", "ep", "ft", "lu", "mg", "sp"):
            assert name in out

    def test_racy_file_fails_with_location(self, racy_file, capsys):
        assert lint_main([racy_file]) == 1
        out = capsys.readouterr().out
        assert "R001 error:" in out
        assert "racy:main:accumulate#1" in out
        assert "FAIL" in out

    def test_racy_file_json_format(self, racy_file, capsys):
        assert lint_main([racy_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        [entry] = payload["modules"]
        assert entry["failed"] is True
        racy = [d for d in entry["diagnostics"] if d["code"] == "R001"]
        assert racy[0]["severity"] == "error"
        assert racy[0]["loop"] == "accumulate"
        assert racy[0]["instruction"] == 1

    def test_ignore_silences_rule(self, racy_file, capsys):
        assert lint_main([racy_file, "--ignore", "R001"]) == 0
        assert "R001" not in capsys.readouterr().out

    def test_select_runs_one_rule(self, racy_file, capsys):
        assert lint_main([racy_file, "--select", "R005,R008"]) == 0
        out = capsys.readouterr().out
        assert "R001" not in out

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        # R002 (undeclared reduction) is a warning: passes by default,
        # fails under --strict.
        path = tmp_path / "warny.ir"
        path.write_text(
            "module warny {\n"
            "  func f() {\n"
            "    parallel_loop l [trip=10] {\n"
            "      fadd\n"
            "      reduce\n"
            "    }\n"
            "  }\n"
            "}\n"
        )
        assert lint_main([str(path)]) == 0
        capsys.readouterr()
        assert lint_main([str(path), "--strict"]) == 1
        assert "R002 warning:" in capsys.readouterr().out

    def test_invalid_ir_file_reports_r000(self, tmp_path, capsys):
        # Two loops named 'l': parses, but fails structural validation.
        path = tmp_path / "dup.ir"
        path.write_text(
            "module dup {\n"
            "  func f() {\n"
            "    parallel_loop l [trip=2] {\n"
            "      fadd\n"
            "    }\n"
            "    parallel_loop l [trip=2] {\n"
            "      fmul\n"
            "    }\n"
            "  }\n"
            "}\n"
        )
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "R000 error:" in out
        assert "duplicate parallel loop 'l'" in out

    def test_unknown_target_errors(self):
        with pytest.raises(SystemExit):
            lint_main(["nosuchprogram"])

    def test_unknown_rule_code_errors(self):
        with pytest.raises(SystemExit):
            lint_main(["cg", "--select", "R999"])

    def test_main_dispatches_lint(self, capsys):
        assert main(["lint", "cg"]) == 0
        assert "cg" in capsys.readouterr().out

    def test_sarif_format(self, racy_file, capsys):
        assert lint_main([racy_file, "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        driver = document["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert "R001" in [rule["id"] for rule in driver["rules"]]
        racy = [
            result for result in document["runs"][0]["results"]
            if result["ruleId"] == "R001"
        ]
        assert racy and racy[0]["level"] == "error"
        # File targets keep their real path so code scanning can
        # anchor the alert.
        uri = racy[0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri.endswith("racy.ir")
        assert "racy:main:accumulate#1" in racy[0]["message"]["text"]

    def test_sarif_registry_targets_use_synthetic_uris(self, capsys):
        assert lint_main(["cg", "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        for result in document["runs"][0]["results"]:
            uri = result["locations"][0]["physicalLocation"][
                "artifactLocation"]["uri"]
            assert uri == "ir/cg.ir"


class TestSanitize:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "dirty.py").write_text(
            "import random\nx = random.random()\n"
        )
        return str(package)

    @pytest.fixture
    def warny_file(self, tmp_path):
        # S004 is a warning: only --strict fails on it.
        path = tmp_path / "engine.py"  # any non-zone name works for S001
        path.write_text(
            "import json\n"
            "def save(p, h):\n"
            "    json.dump(p, h)\n"
        )
        zone = tmp_path / "runtime"
        zone.mkdir()
        target = zone / "engine.py"
        target.write_text(path.read_text())
        path.unlink()
        return str(target)

    def test_default_target_is_the_package_and_clean(self, capsys):
        assert sanitize_main(["--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "verdict PASS" in out

    def test_dirty_tree_fails_with_location(self, dirty_tree, capsys):
        assert sanitize_main([dirty_tree]) == 1
        out = capsys.readouterr().out
        assert "dirty.py:2:" in out
        assert "S001 error:" in out
        assert "verdict FAIL" in out

    def test_single_file_target(self, dirty_tree, capsys):
        assert sanitize_main([dirty_tree + "/dirty.py"]) == 1
        assert "S001" in capsys.readouterr().out

    def test_warnings_fail_only_under_strict(self, warny_file, capsys):
        assert sanitize_main([warny_file]) == 0
        capsys.readouterr()
        assert sanitize_main([warny_file, "--strict"]) == 1
        assert "S004 warning:" in capsys.readouterr().out

    def test_json_format(self, dirty_tree, capsys):
        assert sanitize_main([dirty_tree, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["failed"] is True
        [finding] = payload["findings"]
        assert finding["code"] == "S001"
        assert finding["path"] == "dirty.py"

    def test_sarif_format(self, dirty_tree, capsys):
        assert sanitize_main([dirty_tree, "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        driver = document["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-sanitize"
        [result] = document["runs"][0]["results"]
        assert result["ruleId"] == "S001"
        assert result["level"] == "error"

    def test_main_dispatches_sanitize(self, capsys):
        assert main(["sanitize"]) == 0
        assert "verdict PASS" in capsys.readouterr().out


class TestProfile:
    ARGS = ["--scenario", "static-isolated", "--scale", "0.1", "--top", "5"]

    def test_profiles_one_run(self, capsys):
        assert profile_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "_run_loop" in out

    def test_output_writes_pstats(self, tmp_path, capsys):
        import pstats

        dump = tmp_path / "run.pstats"
        assert profile_main(self.ARGS + ["--output", str(dump)]) == 0
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            profile_main(["--threads", "0"])
        with pytest.raises(SystemExit):
            profile_main(["--scale", "0"])

    def test_main_dispatches_profile(self, capsys):
        assert main(["profile"] + self.ARGS) == 0
        assert "profiled" in capsys.readouterr().out


class TestPackageEntryPoints:
    def test_module_has_main(self):
        import repro.__main__  # noqa: F401

    def test_public_api_imports(self):
        import repro

        assert repro.__version__
        assert len(repro.__all__) > 30
        for name in repro.__all__:
            assert hasattr(repro, name), name
