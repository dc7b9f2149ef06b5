"""Screen-soundness direction check (the ``screen-soundness`` rule).

Bound entries are not optima: an LP-relaxation screen ``("lp", ub)``
only caps the optimum from above, and a decided interval
``("interval", lb, ub)`` only brackets it. Both are safe for
short-circuiting a verdict, never a substitute for the exact MILP
optimum. Both cache tiers enforce the ordering dynamically — the
sqlite store with its rank-ordered upsert
(``WHERE excluded.rank > entries.rank``), the memory tier with the
mirror guard in :meth:`repro.analysis.cache.AnalysisCache.put` — but
nothing stopped a new code path from *producing* a bound entry in the
first place without thinking about soundness.

This rule closes the production side: every call that stores a
literal bound-entry tuple (directly, through either arm of a
conditional expression, or through a local whose reaching definitions
include one) into a ``put``/``store`` sink must sit inside a function
carrying the :func:`repro.analysis.cache.bound_producer` decorator.
Bare parameter forwarding (``cache.put`` passing ``value`` through to
the persistent tier) is exempt — the producer was tagged at the
origin.

Two structural guards keep the dynamic enforcement honest: the rank
tables — ``ENTRY_RANKS`` in ``repro.analysis.store`` and its memory
twin ``_MEMORY_RANKS`` in ``repro.analysis.cache`` — must both order
``lp < interval < milp``, and the upsert SQL must retain its rank
comparison.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.dataflow import FunctionFlow, project_model
from repro.lint.engine import LintViolation, SourceModule

RULE = "screen-soundness"

STORE_MODULE = "repro.analysis.store"
CACHE_MODULE = "repro.analysis.cache"
DECORATOR = "bound_producer"
SINKS = frozenset({"put", "store"})
#: Entry tags that mark a bound, lowest rank first; ``milp`` (exact)
#: must rank above all of them.
BOUND_TAGS = ("lp", "interval")
#: (module, rank table) pairs whose order the rule pins.
RANK_TABLES = ((STORE_MODULE, "ENTRY_RANKS"), (CACHE_MODULE, "_MEMORY_RANKS"))


def _violation(
    path: str, line: int, message: str, severity: str = "error"
) -> LintViolation:
    return LintViolation(
        rule=RULE, path=path, line=line, message=message, severity=severity
    )


def _is_bound_tuple(node: ast.AST) -> bool:
    """A literal bound-entry tuple, possibly behind ``a if c else b``."""
    if isinstance(node, ast.IfExp):
        return _is_bound_tuple(node.body) or _is_bound_tuple(node.orelse)
    return (
        isinstance(node, ast.Tuple)
        and bool(node.elts)
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value in BOUND_TAGS
    )


def screen_soundness_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Every lp-entry producer must be explicitly tagged."""
    model = project_model(modules)
    violations: list[LintViolation] = []
    flows: dict[str, FunctionFlow] = {}

    for site in model.calls:
        func = site.call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in SINKS
            and len(site.call.args) >= 2
        ):
            continue
        value = site.call.args[1]
        bound_producing = _is_bound_tuple(value)
        if (
            not bound_producing
            and isinstance(value, ast.Name)
            and site.enclosing is not None
        ):
            flow = flows.get(site.enclosing.qualname)
            if flow is None:
                flow = FunctionFlow(site.enclosing.node)
                flows[site.enclosing.qualname] = flow
            stmt = flow.statement_of(site.call)
            if stmt is not None:
                bound_producing = any(
                    _is_bound_tuple(definition)
                    for definition in flow.reaching(stmt, value.id)
                )
        if not bound_producing:
            continue
        if site.enclosing is None:
            violations.append(_violation(
                site.path, site.call.lineno,
                "a bound entry (lp/interval) is stored at module level; "
                "bound entries may only be produced by "
                f"@{DECORATOR}-tagged functions",
            ))
        elif not site.enclosing.decorated_with(DECORATOR):
            violations.append(_violation(
                site.path, site.call.lineno,
                f"{site.enclosing.name}() stores a bound entry "
                "(lp/interval) but is not decorated with "
                f"@{DECORATOR}; tag it (and review that its bounds "
                "are proven) or store an exact entry",
            ))

    violations.extend(_check_store_guards(modules))
    return violations


def _literal_assignment(
    module: SourceModule, name: str
) -> tuple[object, int]:
    """The literal value and line of a module-level ``name = ...``."""
    for node in module.tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        value = getattr(node, "value", None)
        if isinstance(target, ast.Name) and target.id == name and value:
            try:
                return ast.literal_eval(value), node.lineno
            except ValueError:
                return None, node.lineno
    return None, 1


def _ranks_ordered(ranks: object) -> bool:
    """Whether a rank table orders ``lp < interval < milp`` strictly."""
    if not isinstance(ranks, dict):
        return False
    values = [ranks.get(tag) for tag in (*BOUND_TAGS, "milp")]
    return all(isinstance(v, int) for v in values) and all(
        low < high for low, high in zip(values, values[1:])
    )


def _check_store_guards(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for module_name, table in RANK_TABLES:
        module = modules.get(module_name)
        if module is None:
            violations.append(_violation(
                "<module set>", 0,
                f"cannot check rank guards: module {module_name} missing",
            ))
            continue
        ranks, line = _literal_assignment(module, table)
        if not _ranks_ordered(ranks):
            violations.append(_violation(
                module.path, line,
                f"{table} must rank 'lp' < 'interval' < 'milp' "
                "strictly; the upsert soundness order depends on it",
            ))
    store = modules.get(STORE_MODULE)
    if store is None:
        return violations

    guarded = any(
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "excluded.rank > entries.rank" in node.value
        for node in ast.walk(store.tree)
    )
    if not guarded:
        violations.append(_violation(
            store.path, 1,
            "the store upsert no longer carries the "
            "'excluded.rank > entries.rank' guard; a bound entry "
            "could overwrite an exact optimum",
        ))
    return violations
