"""``python -m repro.lint`` — run the static-analysis suite.

Usage::

    python -m repro.lint [paths ...] [options]

With no paths, lints ``src`` and ``benchmarks`` relative to the
current directory.

Exit codes (CI keys off these; keep them stable):

* **0** — clean: no findings after suppressions and the baseline.
* **1** — static findings (any rule except the runtime ``SAN*``
  family), including expired/stale baseline entries.
* **2** — usage error (unknown pass, bad path, invalid flag combo,
  malformed baseline file).
* **3** — the runtime sanitizer found a divergence (``SAN001–SAN003``).
  Distinct from 1 because a sanitizer failure means *replay is
  broken*, not that a rule was violated — CI treats it as
  infrastructure-red, not lint-red, and it cannot be baselined away.

``--sanitize`` additionally runs the runtime schedule-race sanitizer
(slower: it executes a small experiment several times, including in
subprocesses with different ``PYTHONHASHSEED`` values).

``--format sarif`` emits SARIF 2.1.0 for code-scanning upload.
Grandfathered findings live in ``lint-baseline.toml`` (see
:mod:`repro.lint.suppress`); ``--explain-baseline`` prints the
fingerprint of every current finding so entries can be authored.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .analyze import STATIC_PASSES, analyze_files
from .contract import LintContract, load_contract
from .findings import Finding, RULES, fingerprint
from .reporter import render_json, render_text
from .sarif import render_sarif
from .secflow import check_reexports
from .suppress import apply_baseline, find_baseline, load_baseline

__all__ = [
    "main",
    "lint_paths",
    "collect_files",
    "STATIC_PASSES",
    "rules_markdown",
]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", "results"}

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_SANITIZER = 3


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    files.append(candidate)
    return sorted(set(files))


def lint_paths(
    paths: Sequence[Path],
    contract: Optional[LintContract] = None,
    passes: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the selected static passes over ``paths``; returns findings.

    Includes the per-file passes, pragma hygiene (SUP001) and — when
    the ``secflow`` pass is selected — the tree-level re-export pass
    (SEC004), which sees the whole file set at once.  Baseline
    application is the CLI's job, not this function's: library callers
    get the raw findings.
    """
    if contract is None:
        contract = load_contract(Path(paths[0]) if paths else None)
    selected = list(passes) if passes else list(STATIC_PASSES)
    files = collect_files([Path(p) for p in paths])
    results = analyze_files(files, contract, selected)
    findings: List[Finding] = []
    for result in results:
        findings.extend(result.findings)
    if "secflow" in selected:
        facts = [r.facts for r in results if r.facts is not None]
        findings.extend(check_reexports(facts, contract))
    if rules:
        wanted = set(rules)
        findings = [f for f in findings if f.rule in wanted]
    return findings


def rules_markdown() -> str:
    """The DESIGN.md §5.1 rule table, generated from the registry.

    ``tests/lint/test_rules_table.py`` asserts DESIGN.md contains
    exactly this text between its sync markers; regenerate with
    ``python -m repro.lint --list-rules --format markdown``.
    """
    lines = [
        "| rule | summary | guards | contract |",
        "| --- | --- | --- | --- |",
    ]
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        contract = rule.contract
        if contract.startswith("["):
            contract = f"`{contract}`"
        lines.append(
            f"| {rule_id} | {rule.summary} | {rule.guards} | {contract} |"
        )
    return "\n".join(lines)


def _rules_text() -> str:
    lines = ["rule     summary / invariant guarded / contract key", "-" * 64]
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(f"{rule_id:8s} {rule.summary}")
        lines.append(f"{'':8s}   guards: {rule.guards}")
        lines.append(f"{'':8s}   contract: {rule.contract}")
    return "\n".join(lines)


def _rules_json() -> str:
    import json

    return json.dumps(
        [
            {
                "rule": rule_id,
                "summary": RULES[rule_id].summary,
                "guards": RULES[rule_id].guards,
                "contract": RULES[rule_id].contract,
            }
            for rule_id in sorted(RULES)
        ],
        indent=2,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "determinism / layering / units / cross-domain isolation "
            "static analysis"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif", "markdown"],
        default="text",
        help="findings output (markdown is --list-rules only)",
    )
    parser.add_argument(
        "--passes",
        default=None,
        help="comma-separated subset of: " + ",".join(STATIC_PASSES),
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="only report these comma-separated rule ids",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (text/json/markdown) and exit",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: lint-baseline.toml found upward "
        "of the first path)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report grandfathered findings too",
    )
    parser.add_argument(
        "--explain-baseline",
        action="store_true",
        help="print fingerprint + finding for every pre-baseline "
        "finding (for authoring lint-baseline.toml entries)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="also run the runtime schedule-race sanitizer",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "json":
            print(_rules_json())
        elif args.format == "markdown":
            print(rules_markdown())
        else:
            print(_rules_text())
        return EXIT_CLEAN
    if args.format == "markdown":
        print(
            "repro.lint: --format markdown is only valid with --list-rules",
            file=sys.stderr,
        )
        return EXIT_USAGE

    paths = [Path(p) for p in (args.paths or ["src", "benchmarks"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            "repro.lint: no such path(s): "
            + ", ".join(str(p) for p in missing),
            file=sys.stderr,
        )
        return EXIT_USAGE
    passes = args.passes.split(",") if args.passes else None
    if passes:
        unknown = [p for p in passes if p not in STATIC_PASSES]
        if unknown:
            print(
                f"repro.lint: unknown pass(es): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    rules = args.rules.split(",") if args.rules else None
    findings = lint_paths(
        paths,
        contract=load_contract(paths[0]),
        passes=passes,
        rules=rules,
    )

    if args.explain_baseline:
        for finding in sorted(findings):
            print(f"{fingerprint(finding)}  {finding.render()}")
        return EXIT_CLEAN

    if not args.no_baseline:
        baseline_path = (
            Path(args.baseline) if args.baseline else find_baseline(paths[0])
        )
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"repro.lint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        findings, suppressed = apply_baseline(findings, baseline)
        if suppressed:
            print(
                f"repro.lint: {suppressed} finding(s) grandfathered by "
                f"{baseline.path}",
                file=sys.stderr,
            )

    if args.sanitize:
        from .sanitizer import run_sanitizer

        findings.extend(run_sanitizer())

    output = (
        render_json(findings)
        if args.format == "json"
        else render_sarif(findings, Path.cwd())
        if args.format == "sarif"
        else render_text(findings)
    )
    print(output)
    if any(f.rule.startswith("SAN") for f in findings):
        return EXIT_SANITIZER
    return EXIT_FINDINGS if findings else EXIT_CLEAN
