"""Baseline ratchet: absorb recorded debt, fail only on new findings."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint.base import Finding
from repro.lint.baseline import (
    baseline_counts,
    filter_new,
    read_baseline,
    write_baseline,
)


def _finding(line: int, rule: str = "LINT003", file: str = "m.py"):
    return Finding(
        file=file, line=line, col=0, rule=rule, message="wall-clock read"
    )


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        findings = [_finding(3), _finding(9), _finding(5, rule="LINT005")]
        path = tmp_path / "base.json"
        write_baseline(findings, path)
        counts = read_baseline(path)
        assert counts[("m.py", "LINT003", "wall-clock read")] == 2
        assert counts[("m.py", "LINT005", "wall-clock read")] == 1

    def test_baseline_is_line_insensitive(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline([_finding(3)], path)
        counts = read_baseline(path)
        # The same finding on a different line is absorbed.
        assert filter_new([_finding(400)], counts) == []


class TestFilterNew:
    def test_new_finding_survives(self):
        counts = baseline_counts([_finding(3)])
        fresh = _finding(7, rule="LINT013")
        assert filter_new([_finding(3), fresh], counts) == [fresh]

    def test_extra_occurrences_beyond_allowance_survive(self):
        counts = baseline_counts([_finding(3)])
        current = [_finding(3), _finding(8), _finding(12)]
        assert len(filter_new(current, counts)) == 2

    def test_fixed_findings_shrink_the_allowance(self):
        counts = baseline_counts([_finding(3), _finding(8)])
        # Both fixed: nothing reported, allowance simply unused.
        assert filter_new([], counts) == []

    def test_empty_baseline_passes_everything(self):
        current = [_finding(1), _finding(2)]
        assert filter_new(current, baseline_counts([])) == current


class TestRuleSkew:
    """The ratchet survives rules being added, removed, or renamed."""

    def test_entries_for_unknown_rules_are_read_not_rejected(
        self, tmp_path
    ):
        path = tmp_path / "base.json"
        write_baseline(
            [_finding(3, rule="LINT999"), _finding(5)], path
        )
        counts = read_baseline(path)
        assert counts[("m.py", "LINT999", "wall-clock read")] == 1

    def test_new_rule_findings_report_as_new(self):
        # A baseline written before LINT014 existed has no allowance
        # for it: its findings all surface, ready to be ratcheted.
        counts = baseline_counts([_finding(3)])
        fresh = _finding(9, rule="LINT014")
        assert filter_new([fresh], counts) == [fresh]

    def test_split_unknown_rules_partitions_counts(self):
        from repro.lint.baseline import split_unknown_rules

        counts = baseline_counts(
            [_finding(1), _finding(2, rule="LINT999")]
        )
        known, unknown = split_unknown_rules(counts, {"LINT003"})
        assert set(known) == {("m.py", "LINT003", "wall-clock read")}
        assert set(unknown) == {("m.py", "LINT999", "wall-clock read")}

    def test_split_with_no_unknowns_is_lossless(self):
        from repro.lint.baseline import split_unknown_rules

        counts = baseline_counts([_finding(1), _finding(2)])
        known, unknown = split_unknown_rules(counts, {"LINT003"})
        assert known == counts
        assert not unknown


class TestErrors:
    def test_missing_file_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError):
            read_baseline(tmp_path / "absent.json")

    def test_invalid_json_raises_lint_error(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text("{ nope", encoding="utf-8")
        with pytest.raises(LintError):
            read_baseline(path)

    def test_wrong_schema_version_raises(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps({"version": 99, "entries": []}), encoding="utf-8"
        )
        with pytest.raises(LintError):
            read_baseline(path)

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps(
                {"version": 1, "entries": [{"file": "m.py"}]}
            ),
            encoding="utf-8",
        )
        with pytest.raises(LintError):
            read_baseline(path)
