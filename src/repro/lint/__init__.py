"""repro.lint — determinism, layering & isolation static analysis.

Static passes (AST-based, no imports of the analysed code):

* :mod:`repro.lint.determinism` — bans wall clocks, entropy escapes,
  the global ``random`` stream, raw ``random.Random`` construction,
  and iteration over sets (DET001–DET005).
* :mod:`repro.lint.layering` — enforces the DESIGN.md subsystem import
  DAG from the declarative table in ``pyproject.toml`` (LAY001–LAY003).
* :mod:`repro.lint.units` — keeps floats away from the integer-ns
  clock (UNIT001–UNIT002).
* :mod:`repro.lint.secflow` — the core-gap contract's static twin:
  cross-domain attribute access, undeclared µarch structures,
  callback capture and re-export leaks (SEC001–SEC004), driven by
  ``[tool.repro.lint.domains]``.
* :mod:`repro.lint.seeds` — seed discipline: every RNG stream derives
  from the run seed via a literal, domain-owned namespace
  (SEED001–SEED003).

Runtime pass:

* :mod:`repro.lint.sanitizer` — replays a small experiment under a
  permuted same-timestamp tie-break order and differing
  ``PYTHONHASHSEED``, then diffs traces/metrics (SAN001–SAN003).
  Sanitizer failures exit with code 3 (vs 1 for static findings).

Support: inline pragmas and the expiring grandfather baseline
(:mod:`repro.lint.suppress`) and SARIF 2.1.0 output
(:mod:`repro.lint.sarif`).

Run everything with ``python -m repro.lint src benchmarks``.
"""

from .contract import LintContract, load_contract
from .domains import DomainContract
from .findings import Finding, RULES, Rule, fingerprint
from .analyze import STATIC_PASSES, analyze_files
from .cli import collect_files, lint_paths, main, rules_markdown
from .reporter import render_json, render_text
from .sarif import render_sarif, validate_sarif
from .suppress import Baseline, BaselineEntry, apply_baseline, load_baseline

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "fingerprint",
    "LintContract",
    "DomainContract",
    "load_contract",
    "lint_paths",
    "collect_files",
    "analyze_files",
    "STATIC_PASSES",
    "main",
    "rules_markdown",
    "render_text",
    "render_json",
    "render_sarif",
    "validate_sarif",
    "Baseline",
    "BaselineEntry",
    "apply_baseline",
    "load_baseline",
]
