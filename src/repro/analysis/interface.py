"""Common result and option types shared by all analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.milp.resilient import ResilienceConfig
from repro.model.platform import RegulationConfig
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs shared by the response-time analyses.

    Attributes:
        max_iterations: Cap on response-time fixpoint iterations;
            hitting it reports an unbounded (infinite) WCRT.
        stop_at_deadline: Abort the iteration as soon as the tentative
            response time exceeds the deadline. The task is then
            reported unschedulable with the last tentative bound; this
            is the mode used for schedulability experiments, where only
            the verdict matters.
        time_limit: Per-MILP wall-clock budget in seconds; when hit,
            the solver's dual bound is used, which keeps the reported
            delay a safe upper bound (at the price of pessimism).
        mip_rel_gap: Relative MIP gap passed to the solver; nonzero
            values trade tightness for speed, again on the safe side
            because the dual bound is reported.
        convergence_eps: Fixpoint convergence tolerance on the WCRT.
        screening: Enable the verdict screening cascade (closed-form
            bounds — vectorised or scalar —, batched LP screens, the
            deadline-window probe, the LP fixpoint) and the
            warm-started incremental MILP fixpoint. When ``False``,
            every exact-MILP verdict is decided by the plain bottom-up
            fixpoint. Screens only ever *prove* schedulability — a
            failed screen falls through to the exact solve — and warm
            starts are value-exact, so verdicts are bit-identical
            either way; disable only to measure the unscreened
            baseline (``BENCH_milp.json``).
        resilience: When set, every MILP solve runs through a
            :class:`repro.milp.ResilientBackend` configured from it:
            watchdog, transient-error retries, and the safe-degradation
            fallback chain down to the closed-form bound. ``None`` (the
            default) keeps the historical fail-fast behaviour.
        preemption_thresholds: For the ``threshold`` protocol: explicit
            per-task preemption thresholds as a tuple of ``(task name,
            threshold)`` pairs (a tuple, not a dict, so the frozen
            options stay hashable and ``repr``-stable for cache keys).
            A job of threshold ``theta`` can only be preempted — at its
            phase boundaries — by ready tasks with priority strictly
            less than ``theta``. ``None`` (the default) uses each
            task's own priority as its threshold.
        regulation: For the ``regulated`` protocol: the per-core memory
            bandwidth budget (see :class:`RegulationConfig`). ``None``
            means unregulated memory phases.
    """

    max_iterations: int = 60
    stop_at_deadline: bool = True
    time_limit: float | None = None
    mip_rel_gap: float = 0.0
    convergence_eps: float = 1e-6
    screening: bool = True
    resilience: ResilienceConfig | None = None
    preemption_thresholds: tuple[tuple[str, int], ...] | None = None
    regulation: RegulationConfig | None = None


@dataclass(frozen=True)
class TaskResult:
    """Per-task analysis outcome.

    Attributes:
        task: The analysed task (with the LS flag used for analysis).
        wcrt: Worst-case response-time bound (``inf`` if divergent).
        iterations: Fixpoint iterations performed.
        converged: Whether the iteration reached a fixpoint (``False``
            when it stopped early at the deadline or at the cap).
        details: Analysis-specific diagnostics (e.g. interval counts,
            MILP sizes, solver runtimes).
    """

    task: Task
    wcrt: Time
    iterations: int = 0
    converged: bool = True
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def schedulable(self) -> bool:
        """Whether the bound proves the deadline (``wcrt <= D``)."""
        return self.wcrt <= self.task.deadline + 1e-9

    @property
    def slack(self) -> Time:
        """Deadline minus WCRT bound (negative when unschedulable)."""
        if math.isinf(self.wcrt):
            return -math.inf
        return self.task.deadline - self.wcrt


@dataclass(frozen=True)
class TaskSetResult:
    """Task-set level outcome: one :class:`TaskResult` per task."""

    taskset: TaskSet
    results: tuple[TaskResult, ...]
    protocol: str

    def __post_init__(self) -> None:
        names = {r.task.name for r in self.results}
        missing = {t.name for t in self.taskset} - names
        if missing:
            raise ValueError(f"missing results for tasks {sorted(missing)}")

    @property
    def schedulable(self) -> bool:
        """Whether every task meets its deadline."""
        return all(r.schedulable for r in self.results)

    def result_for(self, name: str) -> TaskResult:
        """The result of the task called ``name``."""
        for r in self.results:
            if r.task.name == name:
                return r
        raise KeyError(name)

    @property
    def first_miss(self) -> TaskResult | None:
        """The highest-priority task that misses its deadline, if any."""
        missing = [r for r in self.results if not r.schedulable]
        if not missing:
            return None
        return min(missing, key=lambda r: r.task.priority)

    def summary_rows(self) -> list[tuple[str, float, float, bool]]:
        """``(name, wcrt, deadline, schedulable)`` rows for reporting."""
        return [
            (r.task.name, r.wcrt, r.task.deadline, r.schedulable)
            for r in self.results
        ]
