"""Lint result cache: hits, invalidation, and corruption tolerance."""

from __future__ import annotations

import shutil
from pathlib import Path

import repro.lint.cache as cache_module
from repro.lint.cache import LintCache, _analyzer_fingerprint
from repro.lint.engine import lint_files

_BAD = "def f(x=[]):\n    return x\n"
_GOOD = "def f(x=None):\n    return x\n"


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestCacheBehavior:
    def test_second_run_hits(self, tmp_path):
        target = _write(tmp_path, "mod.py", _GOOD)
        cache = LintCache(tmp_path / ".lint-cache")
        first = lint_files([target], cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        second = lint_files([target], cache=cache)
        assert cache.hits == 1
        assert first == second == []

    def test_cached_findings_match_fresh(self, tmp_path):
        target = _write(tmp_path, "mod.py", _BAD)
        cache = LintCache(tmp_path / ".lint-cache")
        fresh = lint_files([target], cache=cache)
        cached = lint_files([target], cache=cache)
        assert fresh == cached
        assert len(fresh) == 1 and fresh[0].rule == "LINT005"

    def test_content_change_invalidates(self, tmp_path):
        target = _write(tmp_path, "mod.py", _BAD)
        cache = LintCache(tmp_path / ".lint-cache")
        assert len(lint_files([target], cache=cache)) == 1
        target.write_text(_GOOD, encoding="utf-8")
        assert lint_files([target], cache=cache) == []
        assert cache.misses == 2

    def test_rule_subset_has_its_own_entries(self, tmp_path):
        target = _write(tmp_path, "mod.py", _BAD)
        cache = LintCache(tmp_path / ".lint-cache")
        all_rules = lint_files([target], cache=cache)
        subset = lint_files([target], rule_ids=["LINT001"], cache=cache)
        assert len(all_rules) == 1
        assert subset == []
        assert cache.misses == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        target = _write(tmp_path, "mod.py", _GOOD)
        cache = LintCache(tmp_path / ".lint-cache")
        lint_files([target], cache=cache)
        for entry in (tmp_path / ".lint-cache").rglob("*.json"):
            entry.write_text("{ not json", encoding="utf-8")
        assert lint_files([target], cache=cache) == []
        assert cache.misses == 2

    def test_same_content_other_path_shares_only_clean(self, tmp_path):
        # Findings embed the display path, so a non-empty entry must
        # not be replayed for a different file with identical bytes.
        first = _write(tmp_path, "a.py", _BAD)
        second = _write(tmp_path, "b.py", _BAD)
        cache = LintCache(tmp_path / ".lint-cache")
        lint_files([first], cache=cache)
        findings = lint_files([second], cache=cache)
        assert cache.misses == 2
        assert findings and findings[0].file == str(second)


class TestAnalyzerFingerprint:
    def _mirror_package(self, tmp_path, monkeypatch):
        """Copy of ``repro.lint`` plus a sibling ``units.py``."""
        lint_dir = tmp_path / "repro" / "lint"
        shutil.copytree(
            Path(cache_module.__file__).parent,
            lint_dir,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.setattr(
            cache_module, "__file__", str(lint_dir / "cache.py")
        )
        return lint_dir

    def test_units_module_is_not_an_analyzer_input(
        self, tmp_path, monkeypatch
    ):
        lint_dir = self._mirror_package(tmp_path, monkeypatch)
        units = lint_dir.parent / "units.py"
        units.write_text("GIGA = 1e9\n", encoding="utf-8")
        before = _analyzer_fingerprint()
        units.write_text("GIGA = 1e9\nMEGA = 1e6\n", encoding="utf-8")
        assert _analyzer_fingerprint() == before

    def test_lint_module_edit_changes_fingerprint(
        self, tmp_path, monkeypatch
    ):
        lint_dir = self._mirror_package(tmp_path, monkeypatch)
        before = _analyzer_fingerprint()
        with (lint_dir / "rules.py").open("a", encoding="utf-8") as fh:
            fh.write("\n# edited\n")
        assert _analyzer_fingerprint() != before
