"""Per-file analysis pipeline.

:func:`analyze_file` is the whole unit of work for one source file:
parse, run the selected per-file passes, and extract the JSON facts the
tree-level passes need.  :func:`analyze_files` runs it over a set of
files in file order, so report order never depends on anything but the
file list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .contract import LintContract
from .determinism import check_determinism
from .findings import Finding, SourceFile, load_source
from .layering import check_layering
from .obs import check_obs
from .secflow import check_secflow, extract_facts
from .seeds import check_seeds
from .snapcov import check_snapcov
from .suppress import pragma_findings
from .units import check_units

__all__ = ["STATIC_PASSES", "FileResult", "analyze_file", "analyze_files"]

STATIC_PASSES: Dict[
    str, Callable[[SourceFile, LintContract], List[Finding]]
] = {
    "determinism": check_determinism,
    "layering": check_layering,
    "units": check_units,
    "obs": check_obs,
    "secflow": check_secflow,
    "seeds": check_seeds,
    "snapcov": check_snapcov,
}


@dataclass
class FileResult:
    """Everything one file contributes to a lint run."""

    path: str
    findings: List[Finding]
    #: :func:`repro.lint.secflow.extract_facts` output; None when the
    #: file failed to parse
    facts: Optional[Dict]


def analyze_file(
    path: Path, contract: LintContract, passes: Sequence[str]
) -> FileResult:
    """Parse + lint one file; a syntax error is a PARSE finding, not a crash."""
    try:
        source = load_source(path)
    except SyntaxError as exc:
        return FileResult(
            path=str(path),
            findings=[
                Finding(
                    str(path),
                    exc.lineno or 0,
                    "PARSE",
                    f"syntax error: {exc.msg}",
                )
            ],
            facts=None,
        )
    findings: List[Finding] = []
    for name in passes:
        findings.extend(STATIC_PASSES[name](source, contract))
    findings.extend(pragma_findings(source))
    return FileResult(
        path=str(path),
        findings=findings,
        facts=extract_facts(source),
    )


def analyze_files(
    files: Sequence[Path], contract: LintContract, passes: Sequence[str]
) -> List[FileResult]:
    """Analyse ``files``, in file order."""
    return [analyze_file(path, contract, passes) for path in files]
