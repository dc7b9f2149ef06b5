"""Fork-safety and concurrency-discipline checks (``fork-safety``).

Work crosses process boundaries in exactly one shape: a sweep-service
worker (:mod:`repro.service.worker`) is spawned with
``multiprocessing.Process(target=worker_main, args=(host, port))`` and
receives its units as JSON wire frames over a socket. Nothing else is
pickled into a child, so no database connection, open file handle or
unseeded RNG can be smuggled across; the store opens its connection
inside the worker. The rule keeps that shape by construction:

* any reference to ``ProcessPoolExecutor`` is an error — a pool
  pickles arbitrary arguments into its workers;
* every ``Process(target=...)`` target must be a module-level function
  of the spawning module whose parameters are all annotated with a
  scalar type (:data:`SCALARS`). A target the rule cannot resolve (a
  lambda, an attribute, a name with no module-level definition) is a
  warning.

The second half enforces the scope-stack discipline introduced with
``cache_scope``/``injecting``/``recording``: the module-level LIFO
stacks (:data:`STACK_NAMES`) may only be mutated inside functions
decorated with ``@contextmanager`` — the only shape that guarantees a
matched pop on every exit path, which fault-injection tests rely on.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.dataflow import (
    CallSite,
    ProjectModel,
    call_name,
    project_model,
)
from repro.lint.engine import LintViolation, SourceModule

RULE = "fork-safety"

POOL = "ProcessPoolExecutor"
#: Parameter annotations a ``Process`` target may carry.
SCALARS = frozenset({"str", "int", "float", "bool", "bytes"})
#: Module-level LIFO scope stacks under context-manager discipline.
STACK_NAMES = frozenset({"_SCOPES", "_RECORDERS"})
#: List methods that mutate a stack.
MUTATORS = frozenset(
    {"append", "pop", "clear", "extend", "insert", "remove"}
)


def _violation(
    path: str, line: int, message: str, severity: str = "error"
) -> LintViolation:
    return LintViolation(
        rule=RULE, path=path, line=line, message=message, severity=severity
    )


def _references_pool(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == POOL
    if isinstance(node, ast.Attribute):
        return node.attr == POOL
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == POOL for alias in node.names)
    return False


def _annotation_text(annotation: ast.expr | None) -> str | None:
    """A parameter annotation as written (string annotations unquoted)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value.strip()
    return ast.unparse(annotation)


def _process_target_violations(
    site: CallSite, model: ProjectModel
) -> list[LintViolation]:
    """Check one ``Process(target=...)``: a scalar-only module function."""
    target = next(
        (kw.value for kw in site.call.keywords if kw.arg == "target"), None
    )
    if target is None:
        return []
    line = site.call.lineno
    if not isinstance(target, ast.Name):
        return [_violation(
            site.path, line,
            "Process(target=...) callee is not a module-level function "
            "name; its parameters cannot be checked", "warning",
        )]
    fn = model.functions.get(f"{site.module}:{target.id}")
    if fn is None:
        return [_violation(
            site.path, line,
            f"Process(target=...) callee {target.id!r} has no "
            "module-level definition in this module; workers can only "
            "import top-level functions", "warning",
        )]
    args = fn.node.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a is not None
    ]
    violations: list[LintViolation] = []
    for param in params:
        text = _annotation_text(param.annotation)
        if text in SCALARS:
            continue
        shape = "unannotated" if text is None else f"annotated {text}"
        violations.append(_violation(
            site.path, line,
            f"Process target {fn.name}() parameter {param.arg!r} is "
            f"{shape}; only str, int, float, bool and bytes cross the "
            "spawned-process boundary — send work as wire frames and "
            "open resources worker-side",
        ))
    return violations


def fork_safety_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Check process boundaries and scope-stack discipline."""
    model = project_model(modules)
    violations: list[LintViolation] = []
    for module in modules.values():
        for node in ast.walk(module.tree):
            if _references_pool(node):
                violations.append(_violation(
                    module.path, getattr(node, "lineno", 1),
                    f"{POOL} referenced: work crosses process "
                    "boundaries only as wire frames to sweep-service "
                    "workers; a process pool pickles arbitrary state "
                    "into its children",
                ))
    for site in model.calls:
        name = call_name(site.call)
        if name is not None and name.rsplit(".", 1)[-1] == "Process":
            violations.extend(_process_target_violations(site, model))

    violations.extend(_check_scope_stacks(modules, model))
    return violations


def _module_stacks(module: SourceModule) -> set[str]:
    """Module-level names in :data:`STACK_NAMES` bound to a list."""
    stacks: set[str] = set()
    for node in module.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in STACK_NAMES:
                stacks.add(target.id)
    return stacks


def _check_scope_stacks(
    modules: Mapping[str, SourceModule], model: ProjectModel
) -> list[LintViolation]:
    violations: list[LintViolation] = []
    stack_owners = {
        name: _module_stacks(module) for name, module in modules.items()
    }
    for site in model.calls:
        func = site.call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in stack_owners.get(site.module, set())
        ):
            continue
        stack = func.value.id
        if site.enclosing is None:
            violations.append(_violation(
                site.path, site.call.lineno,
                f"module-level scope stack {stack} mutated at import "
                "time; stacks may only change inside context managers",
            ))
        elif not site.enclosing.decorated_with("contextmanager"):
            violations.append(_violation(
                site.path, site.call.lineno,
                f"scope stack {stack} mutated in "
                f"{site.enclosing.name}(), which is not decorated with "
                "@contextmanager; an exception could leave the stack "
                "unbalanced",
            ))
    return violations
