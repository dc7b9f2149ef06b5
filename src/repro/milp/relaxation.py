"""LP-relaxation backend and the LP helpers of threshold decisions.

Solves a model with all integrality constraints dropped. For a
*maximisation* the relaxed optimum upper-bounds the MILP optimum, so —
for the delay analyses in this package — the result is still a safe
(more pessimistic) delay bound at a fraction of the cost: one LP solve,
no branching. Used as the middle tier of the verdict pipeline
(closed form → LP → MILP), on the same compiled model the integer
decision then reuses, and as an ablation axis. A relaxation bound is a
screening value: the analysis cache tags it ``("lp", bound)`` and may
persist it across runs, ranked below decided intervals and exact
optima.

:func:`best_completion` lifts the first incumbent of a threshold
decision to the best point with the same integer structure.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.model import CompiledMilp, MilpBackend, MilpModel
from repro.milp.solution import MilpSolution, SolveStatus

_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def _relaxed(
    c: np.ndarray,
    constraints: LinearConstraint | None,
    bounds: Bounds,
) -> "object":
    """One LP solve (integrality dropped), with the status-4 retry."""
    result = milp(
        c=c,
        constraints=constraints,
        bounds=bounds,
        integrality=np.zeros(len(c), dtype=int),
    )
    if result.status == 4:
        result = milp(
            c=c,
            constraints=constraints,
            bounds=bounds,
            integrality=np.zeros(len(c), dtype=int),
            options={"presolve": False},
        )
    return result


class LpRelaxationBackend(MilpBackend):
    """Solve the LP relaxation (integrality dropped) with HiGHS."""

    name = "lp_relaxation"

    def solve(self, model: MilpModel) -> MilpSolution:
        return self.solve_compiled(model.compile())

    def solve_compiled(self, compiled: CompiledMilp) -> MilpSolution:
        """Solve from an existing compilation (no model re-lowering).

        The incremental fixpoint driver keeps one compiled model alive
        and patches its row bounds between iterations; this entry point
        lets the LP screen reuse that compilation directly.
        """
        constraints = None
        if compiled.num_rows:
            constraints = LinearConstraint(
                compiled.row_matrix, compiled.row_lower, compiled.row_upper
            )
        start = time.perf_counter()
        result = _relaxed(
            -compiled.objective,
            constraints,
            Bounds(compiled.var_lower, compiled.var_upper),
        )
        elapsed = time.perf_counter() - start
        status = _STATUS.get(result.status, SolveStatus.ERROR)
        if not status.has_solution or result.x is None:
            return MilpSolution(
                status=status, runtime_seconds=elapsed, backend=self.name
            )
        x = np.asarray(result.x, dtype=float)
        return MilpSolution(
            status=status,
            objective=float(compiled.objective @ x)
            + compiled.objective_constant,
            values={var: float(x[var.index]) for var in compiled.variables},
            runtime_seconds=elapsed,
            backend=self.name,
        )


def best_completion(compiled: CompiledMilp, x: np.ndarray) -> np.ndarray | None:
    """The best continuous completion of a point's integer part.

    Fixes every integer variable at its value in ``x`` (already
    integral) and maximises the objective over the continuous ones: one
    LP. ``None`` when that LP has no optimum. A threshold decision stops
    at its first incumbent, which may sit exactly on the threshold row;
    this lifts it to the best schedule with the same integer structure.
    """
    int_mask = compiled.integrality.astype(bool)
    lower = compiled.var_lower.copy()
    upper = compiled.var_upper.copy()
    lower[int_mask] = upper[int_mask] = x[int_mask]
    constraints = None
    if compiled.num_rows:
        constraints = LinearConstraint(
            compiled.row_matrix, compiled.row_lower, compiled.row_upper
        )
    result = _relaxed(-compiled.objective, constraints, Bounds(lower, upper))
    if result.status != 0 or result.x is None:
        return None
    return np.asarray(result.x, dtype=float)
