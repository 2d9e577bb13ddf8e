"""``pccs lint`` CLI: exit codes 0 (clean) / 1 (findings) / 2 (usage)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

CLEAN = "def f(x):\n    return x + 1\n"
DIRTY = "def f(out=[]):\n    return out\n"

# Never-registered and deleted rule ids alike must be rejected loudly.
UNKNOWN_RULE_IDS = ("LINT999", "LINT010", "LINT011", "LINT012", "LINT020")


@pytest.fixture()
def clean_file(tmp_path: Path) -> Path:
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


@pytest.fixture()
def dirty_file(tmp_path: Path) -> Path:
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    return path


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file, capsys):
        assert main(["lint", str(clean_file)]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "LINT005" in out

    def test_unknown_rule_exits_two(self, clean_file, capsys):
        for rule_id in UNKNOWN_RULE_IDS:
            assert main(["lint", "--rules", rule_id, str(clean_file)]) == 2
            assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/path.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_format_usage_error(self, clean_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "yaml", str(clean_file)])
        assert excinfo.value.code == 2


class TestOutput:
    def test_json_format(self, dirty_file, capsys):
        assert main(["lint", "--format", "json", str(dirty_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "LINT005"

    def test_rule_subset(self, dirty_file, capsys):
        # LINT004 alone does not see the mutable default.
        assert main(["lint", "--rules", "LINT004", str(dirty_file)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("LINT001", "LINT004", "LINT007"):
            assert rule_id in out

    def test_directory_target(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(DIRTY)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text(DIRTY)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("LINT005") == 2

    def test_default_path_is_repro_package(self, capsys):
        # No path argument: lints the installed package (must be clean —
        # the same invariant tests/lint/test_self_clean.py pins).
        assert main(["lint"]) == 0
        capsys.readouterr()

    def test_list_rules_includes_flow_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("LINT013", "LINT016", "LINT019"):
            assert rule_id in out
        for rule_id in UNKNOWN_RULE_IDS:
            assert rule_id not in out


class TestCacheFlag:
    def test_cache_populates_and_hits(
        self, dirty_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--cache", str(dirty_file)]) == 1
        err = capsys.readouterr().err
        assert "0 hit(s), 1 miss(es)" in err
        assert (tmp_path / ".lint-cache").is_dir()
        assert main(["lint", "--cache", str(dirty_file)]) == 1
        err = capsys.readouterr().err
        assert "1 hit(s), 0 miss(es)" in err

    def test_cached_run_matches_uncached(
        self, dirty_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        main(["lint", str(dirty_file)])
        plain = capsys.readouterr().out
        main(["lint", "--cache", str(dirty_file)])
        capsys.readouterr()
        main(["lint", "--cache", str(dirty_file)])
        cached = capsys.readouterr().out
        assert cached == plain


class TestChangedOnlyFlag:
    def test_falls_back_to_full_lint_outside_git(
        self, dirty_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-repo"))
        assert main(["lint", "--changed-only", str(dirty_file)]) == 1
        assert "LINT005" in capsys.readouterr().out

    def test_interprocedural_rules_widen_to_full_lint(
        self, dirty_file, capsys
    ):
        # The default rule set includes whole-program rules, so the
        # git scoping is abandoned (with a note) and everything in the
        # requested paths is linted — even unchanged files.
        assert main(["lint", "--changed-only", str(dirty_file)]) == 1
        captured = capsys.readouterr()
        assert "widening to a full lint" in captured.err
        assert "LINT014" in captured.err
        assert "LINT005" in captured.out

    def test_per_file_rule_subset_keeps_git_scoping(
        self, dirty_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-repo"))
        assert (
            main(
                [
                    "lint",
                    "--changed-only",
                    "--rules",
                    "LINT005",
                    str(dirty_file),
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "widening" not in captured.err


class TestBaselineFlags:
    def test_write_then_ratchet(
        self, dirty_file, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        assert main(
            ["lint", "--write-baseline", str(base), str(dirty_file)]
        ) == 0
        assert "recorded 1 finding(s)" in capsys.readouterr().out
        # Recorded debt is absorbed: exit code drops to clean.
        assert main(
            ["lint", "--baseline", str(base), str(dirty_file)]
        ) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_new_finding_breaks_the_ratchet(
        self, dirty_file, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        main(["lint", "--write-baseline", str(base), str(dirty_file)])
        capsys.readouterr()
        dirty_file.write_text(
            "import time\n"
            "def f(out=[]):\n"
            "    return out\n"
            "def g():\n"
            "    return time.time()\n"
        )
        assert main(
            ["lint", "--baseline", str(base), str(dirty_file)]
        ) == 1
        out = capsys.readouterr().out
        assert "LINT005" not in out  # absorbed by the baseline

    def test_missing_baseline_is_usage_error(
        self, dirty_file, tmp_path, capsys
    ):
        assert main(
            [
                "lint",
                "--baseline",
                str(tmp_path / "absent.json"),
                str(dirty_file),
            ]
        ) == 2
        assert "baseline" in capsys.readouterr().err

    def test_rewrite_prunes_unknown_rule_entries_with_warning(
        self, dirty_file, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        base.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "file": "old.py",
                            "rule": "LINT999",
                            "message": "from a removed rule",
                            "count": 2,
                        }
                    ],
                }
            )
        )
        assert main(
            ["lint", "--write-baseline", str(base), str(dirty_file)]
        ) == 0
        captured = capsys.readouterr()
        assert "pruning 2 entries" in captured.err
        assert "LINT999" in captured.err
        rewritten = json.loads(base.read_text())
        assert all(
            entry["rule"] != "LINT999" for entry in rewritten["entries"]
        )

    def test_rewrite_without_skew_stays_silent(
        self, dirty_file, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        main(["lint", "--write-baseline", str(base), str(dirty_file)])
        capsys.readouterr()
        main(["lint", "--write-baseline", str(base), str(dirty_file)])
        assert "pruning" not in capsys.readouterr().err


class TestSarifFormat:
    def test_sarif_document_round_trips(self, dirty_file, capsys):
        assert (
            main(["lint", "--format", "sarif", str(dirty_file)]) == 1
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "LINT005"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_clean_tree_renders_empty_results(self, clean_file, capsys):
        assert (
            main(["lint", "--format", "sarif", str(clean_file)]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []
        # The full rule catalogue ships even on clean runs.
        assert len(doc["runs"][0]["tool"]["driver"]["rules"]) >= 14


class TestExplainFlag:
    def test_explain_prints_rationale_and_exits_zero(self, capsys):
        assert main(["lint", "--explain", "LINT014"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("LINT014")
        assert "SIGNATURE_INERT" in out
        assert "True positive" in out
        assert "Suppression" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["lint", "--explain", "lint016"]) == 0
        assert "_PROCESS_LOCAL_STATE" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        for rule_id in UNKNOWN_RULE_IDS:
            assert main(["lint", "--explain", rule_id]) == 2
            assert "unknown rule" in capsys.readouterr().err


class TestModuleGraphWidening:
    def test_module_graph_rules_widen_changed_only(
        self, dirty_file, capsys
    ):
        # Module-graph rules (dead code, layering) are whole-program
        # too: an edit elsewhere can orphan a symbol in an unchanged
        # file, so git scoping must be abandoned for them as well.
        assert (
            main(
                [
                    "lint",
                    "--changed-only",
                    "--rules",
                    "LINT018",
                    str(dirty_file),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "widening to a full lint" in captured.err
        assert "LINT018" in captured.err


class TestProfileFlag:
    def test_profile_prints_per_rule_seconds(self, dirty_file, capsys):
        assert main(["lint", "--profile", str(dirty_file)]) == 1
        captured = capsys.readouterr()
        assert "pccs lint --profile" in captured.err
        assert "LINT005" in captured.err
        assert "total" in captured.err
        # The findings themselves are unaffected.
        assert "LINT005" in captured.out

    def test_no_profile_no_table(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        assert "pccs lint --profile" not in capsys.readouterr().err


class TestRemovedFlags:
    def test_write_api_surface_is_rejected(self, clean_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(clean_file), "--write-api-surface"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGraphCommand:
    def write_fixture(self, tmp_path):
        src_dir = tmp_path / "src" / "repro" / "soc"
        src_dir.mkdir(parents=True)
        (src_dir / "a.py").write_text("import repro.soc.b\n")
        (src_dir / "b.py").write_text("X = 1\n")
        return tmp_path / "src"

    def test_dot_is_the_default(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        assert main(["graph", str(root)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph imports")

    def test_modules_flag_shows_module_edges(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        assert main(["graph", "--modules", str(root)]) == 0
        out = capsys.readouterr().out
        assert '"repro.soc.a" -> "repro.soc.b"' in out

    def test_json_payload(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        assert main(["graph", "--json", str(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["modules"]) == {"repro.soc.a", "repro.soc.b"}
        assert payload["cycles"] == []

    def test_out_writes_a_file(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        target = tmp_path / "graph.dot"
        assert main(["graph", str(root), "--out", str(target)]) == 0
        assert "graph: wrote" in capsys.readouterr().out
        assert target.read_text().startswith("digraph imports")

    def test_missing_path_is_an_error(self, capsys):
        assert main(["graph", "no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_repo_graph_includes_contract_layers(self, capsys):
        # Against the installed package: the real architecture.toml is
        # discovered and its layers become DOT clusters.
        assert main(["graph"]) == 0
        out = capsys.readouterr().out
        assert "cluster_core" in out
        assert '"repro.lint"' in out
