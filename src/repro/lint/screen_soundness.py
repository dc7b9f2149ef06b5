"""Screen-soundness direction check (the ``screen-soundness`` rule).

Bound entries are not optima: an LP-relaxation screen ``("lp", ub)``
only caps the optimum from above, and a decided interval
``("interval", lb, ub)`` only brackets it. Both are safe for
short-circuiting a verdict, never a substitute for the exact MILP
optimum. Both cache tiers enforce the ordering dynamically — the
sqlite store with its rank-ordered upsert
(``WHERE excluded.rank > entries.rank``), the memory tier with the
same guard in :meth:`repro.analysis.cache.AnalysisCache.put` — but
nothing stops a new code path from *producing* a bound entry in the
first place without thinking about soundness.

This rule closes the production side at the construction site: every
tuple literal whose first element is ``"lp"`` or ``"interval"`` must
sit lexically inside a function carrying the
:func:`repro.analysis.cache.bound_producer` decorator. However the
entry then travels (a local, a conditional expression, a return
value) into ``put``, it was built by a tagged function.

Two structural guards keep the dynamic enforcement honest: the one
rank table, ``ENTRY_RANKS`` in ``repro.analysis.cache`` (the memory
tier uses it and the store imports it), must order
``lp < interval < milp``, and the upsert SQL must retain its rank
comparison.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.dataflow import decorated_with, walk_scoped
from repro.lint.engine import LintViolation, SourceModule

RULE = "screen-soundness"

STORE_MODULE = "repro.analysis.store"
CACHE_MODULE = "repro.analysis.cache"
RANK_TABLE = "ENTRY_RANKS"
DECORATOR = "bound_producer"
#: Entry tags that mark a bound (a set, so this table is not itself a
#: tuple of the shape the rule flags).
BOUND_TAGS = frozenset({"lp", "interval"})
#: Entry tags in the strictly increasing order the rank table keeps.
RANK_ORDER = ["lp", "interval", "milp"]


def _violation(path: str, line: int, message: str) -> LintViolation:
    return LintViolation(rule=RULE, path=path, line=line, message=message)


def _bound_tag(node: ast.AST) -> str | None:
    """The tag of a literal bound-entry tuple, ``None`` otherwise."""
    if (
        isinstance(node, ast.Tuple)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value in BOUND_TAGS
    ):
        return str(node.elts[0].value)
    return None


def screen_soundness_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Every bound-entry construction must sit in a tagged function."""
    violations: list[LintViolation] = []
    for module in modules.values():
        for node, scopes in walk_scoped(module.tree):
            tag = _bound_tag(node)
            if tag is None or any(
                decorated_with(fn, DECORATOR) for fn in scopes
            ):
                continue
            line = getattr(node, "lineno", 1)
            if not scopes:
                violations.append(_violation(
                    module.path, line,
                    f"a bound entry ({tag!r} tuple) is built at module "
                    "level; bound entries may only be built by "
                    f"@{DECORATOR}-tagged functions",
                ))
            else:
                violations.append(_violation(
                    module.path, line,
                    f"{scopes[-1].name}() builds a bound entry ({tag!r} "
                    f"tuple) but is not decorated with @{DECORATOR}; "
                    "tag it (and review that its bounds are proven) or "
                    "build an exact entry",
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
    values = [ranks.get(tag) for tag in RANK_ORDER]
    return all(isinstance(v, int) for v in values) and all(
        low < high for low, high in zip(values, values[1:])
    )


def _check_store_guards(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for module_name in (CACHE_MODULE, STORE_MODULE):
        if module_name not in modules:
            violations.append(_violation(
                "<module set>", 0,
                f"cannot check rank guards: module {module_name} missing",
            ))
    if violations:
        return violations

    cache = modules[CACHE_MODULE]
    ranks, line = _literal_assignment(cache, RANK_TABLE)
    if not _ranks_ordered(ranks):
        violations.append(_violation(
            cache.path, line,
            f"{RANK_TABLE} must rank 'lp' < 'interval' < 'milp' "
            "strictly; the upsert soundness order depends on it",
        ))
    store = modules[STORE_MODULE]
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
