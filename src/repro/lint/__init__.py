"""Project invariant linter (AST rules over the whole package).

Generic linters cannot know that this repo's analysis cache must digest
*every* semantic input of the MILP formulation, that code reachable
from the sweep work units must be deterministic, or that only one
function may rename over a published file. These rules encode exactly
those invariants; they run as ``repro lint``, as ``python
tools/lint_rules.py``, and in CI alongside ruff and mypy.

The engine (:mod:`repro.lint.engine`) parses the whole package once
and hands every rule the full module mapping; the project rules share
a :class:`~repro.lint.dataflow.ProjectModel` symbol table and
interprocedural literal resolution through the call graph
(:mod:`repro.lint.callgraph`). Where an invariant can hold by
construction (one owner function, one rank table, one wire format
across the process boundary) the rule checks that construction
syntactically and an ordinary test pins the behaviour. Findings carry
a severity (warnings fail only ``--strict``) and a stable fingerprint
for baseline suppression; ``repro lint`` can emit SARIF for CI
annotation.

Rules
-----
``cache-key-completeness``
    Every :class:`repro.model.task.Task` attribute read by the MILP
    formulation must be covered by the analysis-cache digest (or be on
    the documented exemption list). See :mod:`repro.lint.cache_key`.
``cache-key-solver-options``
    Every :class:`repro.analysis.interface.AnalysisOptions` field must
    enter ``_solver_signature`` (or carry a written exemption), and
    the persistent store must define and gate on its
    ``SCHEMA_VERSION`` — together they keep cross-run cache entries
    from aliasing across solver configurations or store formats.
``worker-determinism``
    No unseeded randomness or wall-clock-dependent values in code
    statically reachable from the sweep work units. See
    :mod:`repro.lint.determinism`.
``float-time-equality``
    No ``==``/``!=`` between time-valued floats (windows, WCRTs,
    phases); exact comparison of iterated fixpoint values is a
    tolerance bug waiting to happen.
``mutable-default-argument``
    No mutable default arguments (shared-state aliasing across calls).
``trace-contract``
    Every ``emit()``/``span()`` site resolves (through the call
    graph) to event names declared in ``EVENT_NAMES``, with declared
    payload keys and literal types; no dead catalogue entries; emit
    sinks accept the full envelope; ``bump`` counters reconcile with
    ``COUNTER_NAMES`` and the sweep report. See
    :mod:`repro.lint.trace_contract`.
``fork-safety``
    No ``ProcessPoolExecutor``; every ``multiprocessing.Process``
    target is a module-level function taking only scalar parameters,
    so work crosses the boundary as wire frames; the module-level
    scope stacks are only mutated inside ``@contextmanager``
    functions. See :mod:`repro.lint.fork_safety`.
``durable-write``
    ``os.replace``/``os.rename`` appear only inside
    ``repro.experiments.persistence._durable_replace``, whose
    fsync → rename → directory-fsync order a behavioural test pins.
    See :mod:`repro.lint.durable_write`.
``screen-soundness``
    Every bound-entry tuple (``("lp", ub)`` screens,
    ``("interval", lb, ub)`` decisions) is built inside a
    ``@bound_producer``-tagged function, the one rank table orders
    ``lp < interval < milp``, and the store keeps its rank-ordered
    upsert guard. See :mod:`repro.lint.screen_soundness`.
"""

from repro.lint.engine import (
    RULES,
    LintViolation,
    LoadedProject,
    SourceModule,
    load_baseline,
    load_project,
    load_repo_modules,
    run_lint,
    suppress_baseline,
    to_sarif,
    write_baseline,
)

__all__ = [
    "RULES",
    "LintViolation",
    "LoadedProject",
    "SourceModule",
    "load_baseline",
    "load_project",
    "load_repo_modules",
    "run_lint",
    "suppress_baseline",
    "to_sarif",
    "write_baseline",
]
