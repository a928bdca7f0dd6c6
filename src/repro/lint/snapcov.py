"""Snapshot-coverage pass: the capture registry cannot rot.

:mod:`repro.snap` captures live state through the
:data:`repro.snap.fields.SNAP_FIELDS` registry — each registered class
lists every instance attribute as either captured or excluded-with-a-
reason.  A hand-rolled serializer's failure mode is silent drift: a
later PR adds ``self.retry_budget`` to ``KvmVm`` and every snapshot
quietly stops covering it.  This pass makes that a lint failure:

* **SNAP001** — an instance attribute assigned by a registered class
  (``self.x = ...`` in any method, or a dataclass field declaration)
  has no verdict in the registry.  Add it to ``fields`` or ``exclude``
  deliberately.
* **SNAP002** — a registry verdict names an attribute the class no
  longer assigns, or a registered class that no longer exists in its
  module.  Stale entries mask the next real drift, so they must go.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from ..snap.fields import SNAP_FIELDS
from .contract import LintContract
from .findings import Finding, SourceFile

__all__ = ["check_snapcov"]


def _note_target(target: ast.expr, attrs: Dict[str, int]) -> None:
    elements = target.elts if isinstance(target, ast.Tuple) else [target]
    for element in elements:
        if (
            isinstance(element, ast.Attribute)
            and isinstance(element.value, ast.Name)
            and element.value.id == "self"
        ):
            name = element.attr
            if not name.startswith("__") and name not in attrs:
                attrs[name] = element.lineno


def _collect_in(node: ast.AST, attrs: Dict[str, int]) -> None:
    """Record ``self.x`` assignment targets, not descending into nested
    classes (their ``self`` is a different object)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            continue
        if isinstance(child, ast.Assign):
            for target in child.targets:
                _note_target(target, attrs)
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            _note_target(child.target, attrs)
        elif isinstance(child, ast.For):
            _note_target(child.target, attrs)
        _collect_in(child, attrs)


def _class_attrs(classdef: ast.ClassDef) -> Dict[str, int]:
    """Instance attributes a class assigns -> first assignment line.

    Two sources: ``self.x`` targets in the class's methods, and
    class-level annotated declarations (how dataclasses declare
    fields).  ``ClassVar`` annotations and dunders are skipped; plain
    class-level ``NAME = ...`` assignments are class constants, not
    instance state.
    """
    attrs: Dict[str, int] = {}
    for stmt in classdef.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            annotation = ast.unparse(stmt.annotation)
            name = stmt.target.id
            if "ClassVar" not in annotation and not name.startswith("__"):
                attrs.setdefault(name, stmt.lineno)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _collect_in(stmt, attrs)
    return attrs


def check_snapcov(source: SourceFile, contract: LintContract) -> List[Finding]:
    module = source.module or ""
    if not (module == "repro" or module.startswith("repro.")):
        return []
    registered = {
        key.split(":", 1)[1]: key
        for key in SNAP_FIELDS
        if key.split(":", 1)[0] == module
    }
    if not registered:
        return []
    path = str(source.path)
    findings: List[Finding] = []

    def report(line: int, rule: str, message: str) -> None:
        if not source.suppressed(line, rule):
            findings.append(Finding(path, line, rule, message))

    seen_classes = set()
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef) or node.name not in registered:
            continue
        seen_classes.add(node.name)
        key = registered[node.name]
        spec = SNAP_FIELDS[key]
        attrs = _class_attrs(node)
        for name in sorted(set(attrs) - set(spec.fields) - set(spec.exclude)):
            report(
                attrs[name],
                "SNAP001",
                f"attribute {node.name}.{name} has no snapshot coverage "
                f"verdict; add it to SNAP_FIELDS[{key!r}].fields or "
                "exclude it with a reason (repro.snap.fields)",
            )
        declared = list(spec.fields) + list(spec.exclude)
        for name in sorted(set(declared) - set(attrs)):
            report(
                node.lineno,
                "SNAP002",
                f"SNAP_FIELDS[{key!r}] covers {name!r} but {node.name} "
                "no longer assigns it; delete the stale registry entry",
            )
    for class_name in sorted(set(registered) - seen_classes):
        report(
            1,
            "SNAP002",
            f"SNAP_FIELDS registers {registered[class_name]!r} but "
            f"{module} defines no class {class_name}; delete or move "
            "the stale registry entry",
        )
    return findings
