"""HiGHS backend via :func:`scipy.optimize.milp`.

This is the primary, exact backend. SciPy embeds the HiGHS solver,
which plays the role IBM CPLEX plays in the paper's experiments.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Mapping

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import BackendUnavailableError, SolverTimeoutError
from repro.milp import relaxation
from repro.milp.model import (
    DECISION_SLACK,
    CompiledMilp,
    MilpBackend,
    MilpDecision,
    MilpModel,
)
from repro.milp.solution import MilpSolution, SolveStatus
from repro.obs import events as obs

# scipy.optimize.milp status codes (see its docs).
_SCIPY_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,  # iteration/time limit with incumbent
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

# Option perturbations tried, in order, when HiGHS reports status 4
# (solver error). Some HiGHS builds fail in presolve on models that are
# perfectly solvable; others need a tighter integer-feasibility
# tolerance on degenerate models (e.g. duplicate rows from l=u memory
# demands). ``mip_feasibility_tolerance`` goes to HiGHS verbatim (see
# :func:`_milp`).
_STATUS4_RETRY_LADDER: tuple[Mapping[str, object], ...] = (
    {"presolve": False},
    {"mip_feasibility_tolerance": 1e-7},
    {"presolve": False, "mip_feasibility_tolerance": 1e-7},
)

#: Offset of the threshold row ``c @ x >= threshold + eps`` of
#: :meth:`HighsBackend.decide`. Infeasibility of that row proves
#: ``opt < threshold + eps``, which must imply the verdict's
#: ``opt <= threshold + DECISION_SLACK``: so ``eps`` stays strictly
#: inside the slack, with room for the rounding of ``threshold + eps``.
DECISION_ROW_EPS = DECISION_SLACK / 2

#: Gap options of a threshold decision: with every gap open, the first
#: incumbent HiGHS finds ends the solve (reported as scipy status 0).
#: The decision reads no bound from it, only that point or status 2.
_FIRST_INCUMBENT: Mapping[str, object] = {
    "mip_rel_gap": np.inf,
    "mip_abs_gap": np.inf,
}


class HighsBackend(MilpBackend):
    """Solve models with HiGHS through SciPy.

    Attributes:
        time_limit: Wall-clock cap in seconds (``None`` = unlimited).
        mip_rel_gap: Relative MIP gap at which HiGHS may stop. The
            delay bound stays safe for maximisation only when the gap
            is applied to the *dual* bound, so a nonzero gap should be
            paired with :attr:`use_dual_bound`.
        use_dual_bound: Report HiGHS' dual (upper) bound instead of the
            incumbent objective. For a maximisation whose result must
            upper-bound reality (our delay analyses), the dual bound is
            the safe choice whenever the solve may stop early.
        extra_options: Additional raw HiGHS options merged into every
            solve (e.g. ``{"presolve": False}``); used by the resilient
            wrapper to perturb retries.
    """

    name = "highs"

    def __init__(
        self,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
        use_dual_bound: bool = False,
        extra_options: Mapping[str, object] | None = None,
    ) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.use_dual_bound = use_dual_bound
        self.extra_options = dict(extra_options) if extra_options else {}

    def _options(self) -> dict[str, object]:
        # Both gaps are always passed: left out, HiGHS would stop at its
        # own default relative (1e-4) or absolute (1e-6) gap and report
        # an incumbent below the proven dual bound as "optimal".
        options: dict[str, object] = {
            "mip_rel_gap": self.mip_rel_gap,
            "mip_abs_gap": 0.0,
        }
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        options.update(self.extra_options)
        return options

    def solve(self, model: MilpModel) -> MilpSolution:
        compiled = model.compile()
        # scipy minimises; our canonical sense is maximise.
        c = -compiled.objective
        constraints = None
        if compiled.num_rows:
            constraints = LinearConstraint(
                compiled.row_matrix, compiled.row_lower, compiled.row_upper
            )
        bounds = Bounds(compiled.var_lower, compiled.var_upper)
        options = self._options()

        start = time.perf_counter()
        result = _milp(
            c=c,
            constraints=constraints,
            bounds=bounds,
            integrality=compiled.integrality,
            options=options,
        )
        for perturbation in _STATUS4_RETRY_LADDER:
            if result.status != 4:
                break
            obs.emit(
                "highs.retry",
                model=model.name,
                options=dict(perturbation),
            )
            result = _milp(
                c=c,
                constraints=constraints,
                bounds=bounds,
                integrality=compiled.integrality,
                options={**options, **perturbation},
            )
        elapsed = time.perf_counter() - start

        stats = (
            f"rows={compiled.num_rows}, vars={compiled.num_vars}, "
            f"elapsed={elapsed:.2f}s"
        )
        status = _SCIPY_STATUS.get(result.status, SolveStatus.ERROR)
        dual_bound = _dual_bound(result, compiled)
        obs.emit(
            "highs.solve",
            dur=elapsed,
            model=model.name,
            scipy_status=int(result.status),
            rows=compiled.num_rows,
            vars=compiled.num_vars,
            nodes=_node_count(result),
            dual_bound=dual_bound,
        )
        if status.has_solution and result.x is None:
            # Limit hit before any incumbent was found: there is no
            # value to report, not even an unsafe one.
            raise SolverTimeoutError(
                f"HiGHS hit its limit with no incumbent on model "
                f"{model.name!r} ({stats})"
            )
        if status is SolveStatus.ERROR:
            raise BackendUnavailableError(
                f"HiGHS failed (scipy status {result.status}) on model "
                f"{model.name!r}, {len(_STATUS4_RETRY_LADDER)} option "
                f"retries included ({stats})"
            )
        if not status.has_solution:
            return MilpSolution(
                status=status, runtime_seconds=elapsed, backend=self.name
            )

        x = np.asarray(result.x, dtype=float)
        # Snap integer variables to avoid 0.9999999 artefacts downstream.
        int_mask = compiled.integrality.astype(bool)
        x[int_mask] = np.round(x[int_mask])
        objective = float(compiled.objective @ x) + compiled.objective_constant
        if (
            self.use_dual_bound
            and status is SolveStatus.TIME_LIMIT
            and dual_bound is not None
        ):
            # Early stop: report the safe side. The dual bound is only
            # meaningful when the solve actually stopped early (at
            # optimality the incumbent is exact and some HiGHS builds
            # report stale dual bounds).
            objective = max(objective, dual_bound)
        values = {var: float(x[var.index]) for var in compiled.variables}
        return MilpSolution(
            status=status,
            objective=objective,
            values=values,
            runtime_seconds=elapsed,
            backend=self.name,
            node_count=_node_count(result),
        )

    def decide(self, model: MilpModel, threshold: float) -> MilpDecision:
        """Decide "optimum <= threshold?" with one first-incumbent solve.

        The compiled model gets the extra row
        ``c @ x >= threshold + DECISION_ROW_EPS`` and keeps its own
        objective, with every MIP gap open (:data:`_FIRST_INCUMBENT`):
        HiGHS only has to find *any* point above the threshold or prove
        there is none, and the objective steers its search and cuts
        toward the points that matter — no optimality proof, no bound
        to close.

        * scipy status 2 (infeasible) proves ``opt < threshold + eps``:
          the answer is "<=", with that bound as ``upper``. It is the
          only proof of "<=": with the gaps open, the bound a status-0
          solve stops at proves nothing.
        * status 0 returns a point — the first incumbent. Its integers
          are snapped and its continuous part is lifted to the best
          completion of that integer structure (one LP,
          :func:`repro.milp.relaxation.best_completion`: a first
          incumbent may sit on the threshold row, inside the slack).
          The result is the witness: it must pass
          :meth:`MilpModel.check_assignment` and its bounds, and its
          objective, evaluated here, must clear
          ``threshold + DECISION_SLACK``; the answer is then ">", with
          the witness value as ``lower``.
        * anything else (a limit, an error, a witness that fails the
          check or lands within the slack) is undecided and falls back
          to :meth:`solve` (closed gaps) plus a comparison.

        HiGHS' ``objective_bound``/``objective_target`` early stops are
        deliberately not used: scipy reports them as status 4 without a
        solution, and they have produced a wrong "optimal" before.
        """
        compiled = model.compile()
        rhs = threshold - compiled.objective_constant + DECISION_ROW_EPS
        constraints = LinearConstraint(
            np.vstack([compiled.row_matrix, compiled.objective]),
            np.append(compiled.row_lower, rhs),
            np.append(compiled.row_upper, np.inf),
        )
        start = time.perf_counter()
        result = _milp(
            c=-compiled.objective,
            constraints=constraints,
            bounds=Bounds(compiled.var_lower, compiled.var_upper),
            integrality=compiled.integrality,
            options={**self._options(), **_FIRST_INCUMBENT},
        )
        elapsed = time.perf_counter() - start
        x: np.ndarray | None = None
        witness: float | None = None
        if result.status == 0 and result.x is not None:
            x = np.asarray(result.x, dtype=float).copy()
            int_mask = compiled.integrality.astype(bool)
            x[int_mask] = np.round(x[int_mask])
            lifted = relaxation.best_completion(compiled, x)
            if lifted is not None:
                x = lifted
            witness = _verified_objective(model, compiled, x)
        if result.status == 2:
            outcome = "leq"
        elif witness is not None and witness > threshold + DECISION_SLACK:
            outcome = "gt"
        else:
            outcome = "undecided"
        obs.emit(
            "highs.solve",
            dur=elapsed,
            model=model.name,
            scipy_status=int(result.status),
            rows=compiled.num_rows + 1,
            vars=compiled.num_vars,
            nodes=_node_count(result),
            threshold=threshold,
            outcome=outcome,
        )
        if outcome == "leq":
            return MilpDecision(
                threshold, True, upper=threshold + DECISION_ROW_EPS,
                runtime_seconds=elapsed,
            )
        if outcome == "gt":
            assert x is not None
            return MilpDecision(
                threshold,
                False,
                lower=witness,
                values={var: float(x[var.index]) for var in compiled.variables},
                runtime_seconds=elapsed,
            )
        return MilpDecision.from_solution(
            threshold, self.solve(model), solves=2, runtime_seconds=elapsed
        )


def _milp(**kwargs: Any) -> Any:
    """One :func:`scipy.optimize.milp` call with raw HiGHS options.

    ``mip_abs_gap`` and ``mip_feasibility_tolerance`` are not in
    scipy's known-option list and are passed to HiGHS verbatim; scipy
    warns about that, and verbatim is exactly the intent.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options")
        return milp(**kwargs)


def _node_count(result: object) -> int | None:
    nodes = getattr(result, "mip_node_count", None)
    return None if nodes is None else int(nodes)


def _dual_bound(result: object, compiled: CompiledMilp) -> float | None:
    """HiGHS' proven bound on the maximum (scipy reports it for -obj)."""
    bound = getattr(result, "mip_dual_bound", None)
    if bound is None or not np.isfinite(bound):
        return None
    return float(-bound) + compiled.objective_constant


def _verified_objective(
    model: MilpModel, compiled: CompiledMilp, x: np.ndarray
) -> float | None:
    """Objective of a solver point re-checked in our own arithmetic.

    Integers of ``x`` are snapped in place as in
    :meth:`HighsBackend.solve`; a point that then violates a bound or a
    row of the model is no witness (``None``).
    """
    int_mask = compiled.integrality.astype(bool)
    x[int_mask] = np.round(x[int_mask])
    tol = 1e-6
    if np.any(x < compiled.var_lower - tol) or np.any(
        x > compiled.var_upper + tol
    ):
        return None
    if model.check_assignment(x.tolist(), tol):
        return None
    return float(compiled.objective @ x) + compiled.objective_constant
