"""Resilient solving: watchdog, bounded retries, safe-degradation chain.

A single hung or crashed HiGHS call must not abort a sweep of
thousands of solves. :class:`ResilientBackend` wraps any
:class:`~repro.milp.model.MilpBackend` and

1. enforces a wall-clock **watchdog** on every solve (the underlying
   solver's own time limit is cooperative; the watchdog is not);
2. **retries** transient failures — ``ERROR`` statuses,
   :class:`~repro.errors.SolverTimeoutError`,
   :class:`~repro.errors.BackendUnavailableError` — with bounded
   exponential backoff and perturbed solver options (presolve off,
   stretched time limit);
3. on exhaustion **degrades safely** through a fallback chain:
   exact solve → HiGHS with dual-bound early stop → LP relaxation →
   closed-form bound. For the delay *maximisations* of this package
   each step's result upper-bounds the previous step's optimum, so a
   degraded answer is more pessimistic, never optimistic. The level
   used is recorded in :attr:`MilpSolution.degradation`.

Definitive outcomes (``OPTIMAL``, ``INFEASIBLE``, ``UNBOUNDED``, or a
``TIME_LIMIT`` with an incumbent/dual bound) are never retried: they
are answers, not faults.

Threshold decisions (:meth:`ResilientBackend.decide`) go to the
primary's own decision procedure as one guarded attempt; when that
attempt fails they fall back to the full chain above plus a comparison.

The closed-form rung needs task-set context a backend does not have,
so it is injected as a callable by the analysis layer (keeping
``milp`` free of ``analysis`` imports, per the layering rules).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import BackendUnavailableError, SolverTimeoutError
from repro.faults import injection as faults
from repro.milp.highs import HighsBackend
from repro.milp.model import MilpBackend, MilpDecision, MilpModel
from repro.milp.relaxation import LpRelaxationBackend
from repro.milp.solution import DegradationLevel, MilpSolution, SolveStatus
from repro.obs import events as obs

#: A fallback rung: the level it reports plus the backend that runs it.
FallbackStep = tuple[DegradationLevel, MilpBackend]

_T = TypeVar("_T")


@dataclass(frozen=True)
class ResilienceConfig:
    """Analysis-facing knobs for :class:`ResilientBackend`.

    Attributes:
        watchdog_seconds: Hard wall-clock cap per solve attempt
            (``None`` disables the watchdog; the solver's own
            ``time_limit`` still applies).
        max_retries: Transient-failure retries of the primary backend
            before the fallback chain is entered.
        backoff_base: First backoff sleep in seconds; attempt ``k``
            sleeps ``backoff_base * backoff_factor**k``, capped at
            ``backoff_max`` and stretched by a deterministic jitter.
        backoff_factor: Exponential backoff multiplier.
        backoff_max: Hard cap on a single backoff sleep; without it the
            exponential schedule grows without bound across rungs.
        backoff_jitter: Jitter fraction in ``[0, 1]``: each sleep is
            stretched by up to this fraction, derived deterministically
            from the model name and attempt index (no RNG — worker
            results must not depend on entropy), so concurrent workers
            retrying the same transient fault desynchronise while every
            run's schedule stays reproducible.
        fallback_time_limit: Solver time limit of the dual-bound rung.
        max_degradation: Deepest rung the chain may reach; e.g.
            :attr:`DegradationLevel.LP_RELAXATION` forbids the
            closed-form rung even when a bound callable is available.
    """

    watchdog_seconds: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    backoff_jitter: float = 0.1
    fallback_time_limit: float = 5.0
    max_degradation: DegradationLevel = DegradationLevel.CLOSED_FORM


class ResilientBackend(MilpBackend):
    """Watchdog + retry + safe-degradation wrapper around a backend.

    Args:
        primary: The exact backend (HiGHS by default).
        watchdog_seconds: See :class:`ResilienceConfig`.
        max_retries: See :class:`ResilienceConfig`.
        backoff_base: See :class:`ResilienceConfig`.
        backoff_factor: See :class:`ResilienceConfig`.
        fallback_time_limit: See :class:`ResilienceConfig`.
        max_degradation: See :class:`ResilienceConfig`.
        fallbacks: Explicit fallback chain; defaults to
            dual-bound HiGHS then LP relaxation, truncated at
            ``max_degradation``.
        closed_form_objective: Last-resort callable returning a safe
            objective value (an upper bound for maximisation) when
            every solver rung failed. Injected by the analysis layer,
            which knows the task-set context.
        sleep: Injectable sleep (tests pass a recorder).
    """

    name = "resilient"

    def __init__(
        self,
        primary: MilpBackend | None = None,
        *,
        watchdog_seconds: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 1.0,
        backoff_jitter: float = 0.1,
        fallback_time_limit: float = 5.0,
        max_degradation: DegradationLevel = DegradationLevel.CLOSED_FORM,
        fallbacks: Sequence[FallbackStep] | None = None,
        closed_form_objective: Callable[[], float] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.primary = primary if primary is not None else HighsBackend()
        self.watchdog_seconds = watchdog_seconds
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.backoff_jitter = backoff_jitter
        self.fallback_time_limit = fallback_time_limit
        self.max_degradation = max_degradation
        self.closed_form_objective = closed_form_objective
        self._sleep = sleep
        if fallbacks is None:
            fallbacks = self._default_fallbacks()
        self.fallbacks = tuple(
            (level, backend)
            for level, backend in fallbacks
            if level <= max_degradation
        )

    @classmethod
    def from_config(
        cls,
        primary: MilpBackend,
        config: ResilienceConfig,
        closed_form_objective: Callable[[], float] | None = None,
    ) -> "ResilientBackend":
        """Build a wrapper from the analysis-facing config."""
        return cls(
            primary,
            watchdog_seconds=config.watchdog_seconds,
            max_retries=config.max_retries,
            backoff_base=config.backoff_base,
            backoff_factor=config.backoff_factor,
            backoff_max=config.backoff_max,
            backoff_jitter=config.backoff_jitter,
            fallback_time_limit=config.fallback_time_limit,
            max_degradation=config.max_degradation,
            closed_form_objective=closed_form_objective,
        )

    # ------------------------------------------------------------------
    def _default_fallbacks(self) -> list[FallbackStep]:
        gap = 0.05
        if isinstance(self.primary, HighsBackend):
            gap = max(gap, self.primary.mip_rel_gap)
        return [
            (
                DegradationLevel.DUAL_BOUND,
                HighsBackend(
                    time_limit=self.fallback_time_limit,
                    mip_rel_gap=gap,
                    use_dual_bound=True,
                ),
            ),
            (DegradationLevel.LP_RELAXATION, LpRelaxationBackend()),
        ]

    def _perturbed(self, attempt: int) -> MilpBackend:
        """A retry variant of the primary with perturbed options.

        HiGHS' rare presolve/numerics failures are tied to the option
        set, not the model, so retrying with presolve off and a
        stretched time limit gives a genuinely different code path.
        """
        if not isinstance(self.primary, HighsBackend):
            return self.primary
        time_limit = self.primary.time_limit
        if time_limit is not None:
            time_limit = time_limit * (1 + attempt)
        return HighsBackend(
            time_limit=time_limit,
            mip_rel_gap=self.primary.mip_rel_gap,
            use_dual_bound=self.primary.use_dual_bound,
            extra_options={**self.primary.extra_options, "presolve": False},
        )

    def backoff_delay(self, attempt: int, model_name: str = "") -> float:
        """Backoff sleep before retry ``attempt + 1``: capped + jittered.

        ``min(backoff_base * backoff_factor**attempt, backoff_max)``
        stretched by a jitter fraction derived from a hash of
        ``(model_name, attempt)`` — deterministic (solver retries run
        inside sweep workers, where entropy is banned) yet spread
        across models so simultaneous retries decorrelate.
        """
        delay = min(
            self.backoff_base * self.backoff_factor**attempt,
            self.backoff_max,
        )
        if self.backoff_jitter > 0.0:
            digest = hashlib.sha256(
                f"{model_name}:{attempt}".encode()
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            delay *= 1.0 + self.backoff_jitter * fraction
        return delay

    @staticmethod
    def _unusable(solution: MilpSolution) -> str | None:
        """Why a returned solution is garbage, or ``None`` if usable.

        A backend that crashes is easy; a backend that *lies* —
        reporting OPTIMAL with a NaN/infinite objective — would
        silently poison the fixpoint. Such solutions are treated
        exactly like ``ERROR`` statuses: retried, then degraded.
        """
        if solution.status is SolveStatus.ERROR:
            return "status_error"
        if solution.status.has_solution and not math.isfinite(
            solution.objective
        ):
            return "nonfinite_objective"
        return None

    def _guarded(
        self,
        backend: MilpBackend,
        model: MilpModel,
        work: Callable[[], _T] | None = None,
    ) -> _T | MilpSolution:
        """One attempt under the fault site and the wall-clock watchdog.

        ``work`` defaults to ``backend.solve(model)``. It runs in a
        worker thread (SciPy releases the GIL inside HiGHS); on expiry
        the thread is abandoned — it cannot be killed — and the attempt
        is reported as a timeout. An injected ``garbage`` fault returns
        an unusable solution in place of the work's result.
        """
        spec = faults.fire("solver.fault", backend=backend.name)
        if spec is not None:
            if spec.mode == "crash":
                raise BackendUnavailableError(
                    f"injected solver crash on model {model.name!r}"
                )
            if spec.mode == "timeout":
                raise SolverTimeoutError(
                    f"injected solver timeout on model {model.name!r}"
                )
            return MilpSolution(
                status=SolveStatus.OPTIMAL,
                objective=float("nan"),
                backend="injected-garbage",
            )
        call: Callable[[], _T | MilpSolution] = (
            work if work is not None else lambda: backend.solve(model)
        )
        if self.watchdog_seconds is None:
            return call()
        executor = ThreadPoolExecutor(max_workers=1)
        try:
            future = executor.submit(call)
            try:
                return future.result(timeout=self.watchdog_seconds)
            except _FutureTimeout:
                obs.emit(
                    "resilience.watchdog",
                    model=model.name,
                    backend=backend.name,
                    limit=self.watchdog_seconds,
                )
                raise SolverTimeoutError(
                    f"watchdog expired after {self.watchdog_seconds}s on "
                    f"model {model.name!r} (backend {backend.name!r})"
                ) from None
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def _with_retry_details(
        self, solution: MilpSolution, backoffs: list[float]
    ) -> MilpSolution:
        """Attach the realised retry/backoff schedule to a solution."""
        if not backoffs:
            return solution
        return dataclasses.replace(
            solution,
            details={
                **solution.details,
                "retries": len(backoffs),
                "backoff_schedule": tuple(backoffs),
            },
        )

    def decide(self, model: MilpModel, threshold: float) -> MilpDecision:
        """Ask the primary's own decision procedure, under the guard.

        The decision is one guarded attempt (the ``solver.fault`` site
        fires once for it). A transient failure, or a decision resting
        on an unusable solve, falls back to the full retry and
        degradation chain of :meth:`solve` plus a comparison.
        """
        try:
            decision = self._guarded(
                self.primary, model,
                lambda: self.primary.decide(model, threshold),
            )
        except (SolverTimeoutError, BackendUnavailableError) as exc:
            obs.emit(
                "resilience.retry",
                model=model.name,
                attempt=0,
                error=type(exc).__name__,
            )
        else:
            if isinstance(decision, MilpDecision) and (
                decision.solution is None
                or self._unusable(decision.solution) is None
            ):
                return decision
        return MilpDecision.from_solution(threshold, self.solve(model))

    def solve(self, model: MilpModel) -> MilpSolution:
        history: list[str] = []
        backoffs: list[float] = []

        for attempt in range(self.max_retries + 1):
            backend = self.primary if attempt == 0 else self._perturbed(attempt)
            try:
                solution = self._guarded(backend, model)
            except (SolverTimeoutError, BackendUnavailableError) as exc:
                history.append(f"attempt {attempt}: {type(exc).__name__}: {exc}")
                obs.emit(
                    "resilience.retry",
                    model=model.name,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
            else:
                reason = self._unusable(solution)
                if reason is None:
                    return self._with_retry_details(solution, backoffs)
                history.append(
                    f"attempt {attempt}: {reason} from {backend.name!r}"
                )
                obs.emit(
                    "resilience.retry",
                    model=model.name,
                    attempt=attempt,
                    error=reason,
                )
            if attempt < self.max_retries:
                delay = self.backoff_delay(attempt, model.name)
                backoffs.append(delay)
                self._sleep(delay)

        deepest = DegradationLevel.EXACT
        for level, backend in self.fallbacks:
            deepest = level
            try:
                solution = self._guarded(backend, model)
            except (SolverTimeoutError, BackendUnavailableError) as exc:
                history.append(f"{level.name}: {type(exc).__name__}: {exc}")
                continue
            reason = self._unusable(solution)
            if reason is not None:
                history.append(f"{level.name}: {reason} from {backend.name!r}")
                continue
            obs.emit(
                "resilience.fallback", model=model.name, level=level.name
            )
            return self._with_retry_details(
                dataclasses.replace(solution, degradation=level), backoffs
            )

        if (
            self.closed_form_objective is not None
            and self.max_degradation >= DegradationLevel.CLOSED_FORM
        ):
            obs.emit("resilience.closed_form", model=model.name)
            return self._with_retry_details(
                MilpSolution(
                    status=SolveStatus.TIME_LIMIT,
                    objective=float(self.closed_form_objective()),
                    backend="closed_form",
                    degradation=DegradationLevel.CLOSED_FORM,
                ),
                backoffs,
            )

        error = BackendUnavailableError(
            f"all resilience levels exhausted on model {model.name!r}: "
            + "; ".join(history)
        )
        error.degradation = deepest
        raise error
