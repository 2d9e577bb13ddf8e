"""``repro.lint`` — simulator-invariant checker.

A from-scratch static-analysis engine whose rules encode this repo's
own bug classes (see ``DESIGN.md`` §2.9). The per-node pass
(LINT001–007, LINT013) catches nondeterministic iteration in scheduler
selection loops, unseeded randomness, wall-clock leakage into model
code, exact float comparison in solver code, mutable default arguments,
unpicklable members on parallel jobs, raises that bypass the
:mod:`repro.errors` hierarchy, and ``print()`` in model code. The
interprocedural pass (LINT014–016) links per-function effect
summaries (:mod:`repro.lint.effects`) into a whole-program call graph
to verify the cache-key completeness, observability-purity, and
fork-safety contracts (see ``DESIGN.md`` §2.12). The module-graph
pass (LINT017–019) builds the import graph
(:mod:`repro.lint.importgraph`) and checks it against the repo's
declared ``architecture.toml`` layer contract, finds code unreachable
from the declared roots (:mod:`repro.lint.deadcode`), and verifies
that only :mod:`repro.errors` types escape the public/CLI boundary
(see ``DESIGN.md`` §2.13).

Public surface:

- :class:`Finding` — one (file, line, rule, message) record;
- :func:`lint_paths` / :func:`lint_files` — lint trees or explicit
  file lists, optionally through a :class:`LintCache`;
- :func:`lint_source` — lint one source string (fixture-friendly);
- :data:`ALL_RULE_IDS` / :func:`rule_table` / :func:`explain_rule` —
  the rule registry and its self-documentation;
- :func:`render_text` / :func:`render_json` / :func:`render_sarif` —
  the ``--format`` renderers;
- :mod:`repro.lint.baseline` — the ``--baseline`` ratchet format;
- :mod:`repro.lint.determinism` — the dynamic PYTHONHASHSEED harness.
"""

from repro.lint.cache import LintCache
from repro.lint.engine import Finding, lint_files, lint_paths, lint_source
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.rules import ALL_RULE_IDS, explain_rule, rule_table

__all__ = [
    "ALL_RULE_IDS",
    "Finding",
    "LintCache",
    "explain_rule",
    "lint_files",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_table",
]
