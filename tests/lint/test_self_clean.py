"""The tier-1 invariant: the repro package itself lints clean.

This is the teeth of the linter — any future commit that reintroduces a
banned pattern (unordered scheduler iteration, unseeded randomness,
wall-clock reads in model code, exact float comparison, mutable
defaults, unpicklable jobs, bare builtin raises) fails the suite, not a
reviewer's eyeball.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import ALL_RULE_IDS, lint_paths, render_text

PACKAGE_ROOT = Path(repro.__file__).parent


class TestSelfClean:
    def test_repro_package_has_zero_findings(self):
        findings = lint_paths([str(PACKAGE_ROOT)])
        assert findings == [], "\n" + render_text(findings)

    def test_every_rule_ran(self):
        # Guard against the clean result coming from an empty registry.
        assert len(ALL_RULE_IDS) == 14
        assert ALL_RULE_IDS == tuple(
            f"LINT00{i}" for i in range(1, 8)
        ) + tuple(f"LINT0{i}" for i in range(13, 20))

    def test_flow_rules_run_in_default_set(self):
        # LINT013 and the interprocedural and module-graph rules
        # individually report the tree clean too; run them alone so a
        # registry wiring bug cannot hide them.
        for rule_id in (
            "LINT013",
            "LINT014",
            "LINT015",
            "LINT016",
            "LINT017",
            "LINT018",
            "LINT019",
        ):
            findings = lint_paths(
                [str(PACKAGE_ROOT)], rule_ids=[rule_id]
            )
            assert findings == [], "\n" + render_text(findings)

    def test_package_walk_covers_the_tree(self):
        from repro.lint.engine import iter_python_files

        files = list(iter_python_files([str(PACKAGE_ROOT)]))
        names = {f.name for f in files}
        # Spot-check that the walk reaches every layer the rules target.
        assert "engine.py" in names  # soc/engine.py and lint/engine.py
        assert "sms.py" in names
        assert "runner.py" in names
        assert len(files) > 80
