"""Priority-assignment policies.

The paper assumes "a unique priority" per task (Sec. II) without fixing
how priorities are chosen; the evaluation harness uses
deadline-monotonic (DM) ordering, the standard choice for constrained
deadlines. This module provides DM and rate-monotonic (RM) assignment
plus Audsley's Optimal Priority Assignment (OPA), which searches
priority orders using a schedulability analysis as an oracle.

OPA applicability: Audsley's algorithm is optimal for analyses where a
task's schedulability depends only on (i) its own parameters, (ii) the
*set* of higher-priority tasks (not their relative order), and (iii)
the set of lower-priority tasks only through order-independent terms.
The NPS and interval-protocol analyses in this package satisfy (i)-(ii)
— interference is a sum over the hp *set* — and use lower-priority
tasks only through blocking maxima/budgets, so OPA applies in the
standard "weakly optimal" sense. The LS *marking* interacts with
priorities, so for the proposed protocol OPA is run for a fixed
marking (all-NLS by default); the greedy LS search can be applied on
top of the found order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.errors import AnalysisError
from repro.model.task import Task
from repro.model.taskset import TaskSet

#: Oracle signature: is `task` schedulable in `taskset` at its current
#: priority? (The task is a member of the set.)
SchedulabilityOracle = Callable[[TaskSet, Task], bool]


def resolve_thresholds(
    taskset: TaskSet,
    pairs: tuple[tuple[str, int], ...] | None,
) -> dict[str, int]:
    """Per-task preemption thresholds, validated against the task set.

    ``pairs`` is the ``AnalysisOptions.preemption_thresholds`` tuple;
    tasks it does not name default to their own priority (preemptible
    at every boundary by any higher-priority task). A threshold must
    outrank-or-equal its task's priority (``theta <= pi``): anything
    else would let a job be preempted by lower-priority work.
    """
    thresholds = {t.name: t.priority for t in taskset}
    for name, theta in pairs or ():
        task = taskset.by_name(name)  # raises on unknown names
        if theta > task.priority:
            raise AnalysisError(
                f"preemption threshold {theta} of {name!r} is below its "
                f"priority {task.priority}; thresholds may only raise "
                "effective priority (theta <= priority)"
            )
        thresholds[name] = theta
    return thresholds


def _reassign(tasks: Sequence[Task]) -> TaskSet:
    """Give tasks consecutive priorities in their current order."""
    return TaskSet(
        task.with_priority(prio) for prio, task in enumerate(tasks)
    )


def deadline_monotonic(tasks: Iterable[Task]) -> TaskSet:
    """DM: shorter relative deadline = higher priority."""
    ordered = sorted(tasks, key=lambda t: (t.deadline, t.name))
    return _reassign(ordered)


def rate_monotonic(tasks: Iterable[Task]) -> TaskSet:
    """RM: shorter period = higher priority."""
    ordered = sorted(tasks, key=lambda t: (t.period, t.name))
    return _reassign(ordered)


def audsley_opa(
    tasks: Iterable[Task],
    oracle: SchedulabilityOracle,
) -> TaskSet | None:
    """Audsley's Optimal Priority Assignment.

    Assigns the lowest priority level to any task the oracle accepts at
    that level, then recurses on the rest. Returns a schedulable
    priority assignment, or ``None`` when no assignment exists that the
    oracle accepts (in which case, for an OPA-compatible oracle, *no*
    fixed-priority order is schedulable).

    Args:
        tasks: The tasks to order (their current priorities are
            ignored; the result carries fresh priorities ``0..n-1``).
        oracle: Schedulability test used at each level.
    """
    remaining = list(tasks)
    if not remaining:
        raise AnalysisError("cannot assign priorities to an empty set")
    n = len(remaining)
    assigned: list[Task] = [None] * n  # type: ignore[list-item]

    for level in range(n - 1, -1, -1):
        placed = False
        for candidate in list(remaining):
            # Build a trial set: candidate at this level, the other
            # unassigned tasks above it (their relative order is
            # irrelevant for an OPA-compatible oracle), the already
            # assigned tasks below.
            others = [t for t in remaining if t is not candidate]
            trial_order = others + [candidate] + [
                t for t in assigned[level + 1:]
            ]
            trial_set = _reassign(trial_order)
            trial_task = trial_set[len(others)]
            if oracle(trial_set, trial_task):
                assigned[level] = candidate
                remaining.remove(candidate)
                placed = True
                break
        if not placed:
            return None
    return _reassign(assigned)


def opa_with_analysis(
    tasks: Iterable[Task],
    protocol: str = "proposed",
    method: str = "milp",
) -> TaskSet | None:
    """OPA with one of the package's analyses as the oracle.

    LS marks are cleared first (see the module docstring); re-run the
    greedy LS search on the returned set if desired.
    """
    from repro.analysis.schedulability import _make_analysis

    analysis = _make_analysis(protocol, None, method)

    def oracle(taskset: TaskSet, task: Task) -> bool:
        if task.trivially_unschedulable:
            return False
        if hasattr(analysis, "verdict"):
            return analysis.verdict(taskset, task)
        return analysis.response_time(taskset, task).schedulable

    plain = [t.as_latency_sensitive(False) for t in tasks]
    return audsley_opa(plain, oracle)
