"""Durable-write discipline (the ``durable-write`` rule).

A checkpoint or sweep file is published by renaming a temp file over
the target, and the rename is durable only inside the full protocol
temp-write → fsync(file) → ``os.replace`` → fsync(dir). One function
implements it, :func:`repro.experiments.persistence._durable_replace`,
and a behavioural test spies on ``os.fsync``/``os.replace`` to pin
that order call by call.

This rule keeps that function the only publisher: a reference to
``os.replace`` or ``os.rename`` anywhere else in the package is an
error, so every durable write goes through the tested protocol instead
of restating it.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.dataflow import dotted, walk_scoped
from repro.lint.engine import LintViolation, SourceModule

RULE = "durable-write"

#: The one function allowed to rename over a published file.
OWNER_MODULE = "repro.experiments.persistence"
OWNER_FUNCTION = "_durable_replace"
RENAMES = frozenset({"os.replace", "os.rename"})


def _rename_reference(node: ast.AST) -> str | None:
    """``os.replace``/``os.rename`` when ``node`` refers to one."""
    if isinstance(node, ast.Attribute):
        name = dotted(node)
        return name if name in RENAMES else None
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        for alias in node.names:
            if f"os.{alias.name}" in RENAMES:
                return f"os.{alias.name}"
    return None


def durable_write_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Flag every rename outside the durable-replace protocol."""
    violations: list[LintViolation] = []
    for module in modules.values():
        for node, scopes in walk_scoped(module.tree):
            name = _rename_reference(node)
            if name is None:
                continue
            if (
                module.name == OWNER_MODULE
                and len(scopes) == 1
                and scopes[0].name == OWNER_FUNCTION
            ):
                continue
            violations.append(LintViolation(
                rule=RULE,
                path=module.path,
                line=getattr(node, "lineno", 1),
                message=(
                    f"{name} outside {OWNER_MODULE}.{OWNER_FUNCTION}: "
                    f"publish files through {OWNER_FUNCTION}, which "
                    "fsyncs the temp file before the rename and the "
                    "directory after it"
                ),
            ))
    return violations
