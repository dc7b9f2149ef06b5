"""Sweep runner: schedulability ratios per protocol per point.

Long sweeps are thousands of MILP solves; this runner isolates faults
per taskset/protocol pair instead of letting one bad solve abort the
sweep. Each failure is captured as a structured :class:`FailureRecord`
in a ledger on the point result, and a :class:`FailurePolicy` decides
how the failed pair enters the ratios. With ``checkpoint_path`` set,
every completed point is persisted atomically so an interrupted sweep
resumes from where it stopped (see
:mod:`repro.experiments.persistence`).

The unit layer (result dataclasses, the single per-unit evaluation
function, the completion-order-independent merge, and the
dispatch-agnostic :class:`~repro.experiments.units.UnitScheduler`)
lives in :mod:`repro.experiments.units`; this module re-exports the
public names and owns the sequential engine.

Parallel execution
------------------
``run_experiment(..., jobs=N)`` runs the sweep on a local
:class:`~repro.service.SweepService` with ``N`` forked socket workers,
one unit in flight per worker. The unit of work is one **(point, task
set)** pair: each worker regenerates the point's task-set sample from
the deterministic seed ``config.seed + point_index`` and evaluates
every protocol on its one set (:func:`_worker_evaluate`). This process
merges the per-unit integer counts in task-set order and is the *only*
writer of the trace, the checkpoint and the unit store. Both paths
open one fresh analysis cache per unit, so results and counters are
bit-identical across ``jobs``.

A worker that dies mid-unit closes its socket, which names the unit it
held; the scheduler requeues the unit, re-runs it alone, and
quarantines it into the failure ledger after a second crash (see
:mod:`repro.service.coordinator`). Deterministic fault injection for
all of this lives in :mod:`repro.faults` (``run_experiment(...,
fault_plan=...)`` / ``repro figure --inject``).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Callable

from repro.analysis.cache import AnalysisCache, cache_scope
from repro.analysis.interface import AnalysisOptions
from repro.analysis.schedulability import is_schedulable
from repro.analysis.store import PersistentStore
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, SweepPoint
from repro.experiments.units import (
    FailurePolicy,
    _coerce_policy,
    _evaluate_unit,
    _merge_units,
    _save_checkpoint_traced,
    _store_for,
    _tasksets_for,
    _UnitResult,
    PointResult,
    SweepResult,
)
from repro.experiments.units import FailureRecord as FailureRecord
from repro.faults import injection as faults
from repro.faults.plan import FaultPlan
from repro.generator.taskset_gen import generate_tasksets
from repro.model.taskset import TaskSet
from repro.obs.events import EventRecorder, TraceWriter


def run_point(
    point: SweepPoint,
    config: ExperimentConfig,
    seed: int,
    options: AnalysisOptions | None = None,
    failure_policy: FailurePolicy | str = FailurePolicy.COUNT_UNSCHEDULABLE,
    writer: TraceWriter | None = None,
    point_index: int = 0,
    fault_plan: FaultPlan | None = None,
    store: PersistentStore | None = None,
) -> PointResult:
    """Evaluate every protocol on the same task sets at one point.

    A failing taskset/protocol pair never aborts the point (unless the
    policy is ``RAISE``): it is recorded in the point's failure ledger
    and enters the ratio per ``failure_policy``. With a ``writer``,
    each unit's buffered events are appended to the trace as the unit
    completes, stamped with ``point_index`` and the unit index. With a
    ``fault_plan``, each unit is evaluated under its own injection
    scope (point/unit context, fresh trigger counters) — the same
    scoping the parallel workers use, so unit-level fault budgets
    behave identically in both modes.
    """
    policy = _coerce_policy(failure_policy)
    start = time.perf_counter()
    tasksets = list(
        generate_tasksets(point.generation, config.sets_per_point, seed)
    )
    if writer is not None:
        writer.emit(
            "gen.tasksets",
            dur=time.perf_counter() - start,
            point=point_index,
            sets=len(tasksets),
        )
    units = []
    for index, taskset in enumerate(tasksets):
        unit_scope = (
            faults.injecting(
                fault_plan, point=point_index, unit=index, attempt=0
            )
            if fault_plan is not None
            else nullcontext()
        )
        with unit_scope:
            unit = _evaluate_unit(
                point,
                config,
                seed,
                index,
                taskset,
                policy,
                options,
                recorder=EventRecorder() if writer is not None else None,
                store=store,
            )
        if writer is not None:
            writer.write_events(unit.events, point=point_index, unit=index)
        units.append(unit)
    return _merge_units(
        point, config, units, time.perf_counter() - start
    )


# ----------------------------------------------------------------------
# socket-worker dispatch
# ----------------------------------------------------------------------
def _death_check_for(
    point_index: int, taskset_index: int
) -> "Callable[[str | None], None]":
    """Worker-side ``worker.death`` hook: simulate this process dying."""

    def death_check(protocol: "str | None") -> None:
        spec = faults.fire("worker.death", protocol=protocol)
        if spec is None:
            return
        if spec.mode == "exit":
            # A real crash: no exception, no cleanup, no result frame —
            # the socket closes and the coordinator blames this unit.
            os._exit(78)
        raise RuntimeError(
            f"injected unexpected worker error "
            f"(point {point_index}, set {taskset_index})"
        )

    return death_check


def _worker_evaluate(
    config: ExperimentConfig,
    point_index: int,
    taskset_index: int,
    options: AnalysisOptions | None,
    policy_value: str,
    trace: bool = False,
    fault_plan: FaultPlan | None = None,
    attempt: int = 0,
    cache_path: "str | None" = None,
) -> _UnitResult:
    """Socket-worker entry point: evaluate one (point, task set) unit.

    The worker regenerates the point's task-set sample from the
    deterministic seed ``config.seed + point_index`` (memoised per
    process), so no task set crosses a process boundary and the sample
    is bit-identical to the sequential run's. With a ``fault_plan`` the
    evaluation runs under a fresh per-unit injection scope carrying
    the (point, unit, attempt) context.
    """
    point = config.points[point_index]
    seed = config.seed + point_index
    recorder = EventRecorder() if trace else None
    unit_scope = (
        faults.injecting(
            fault_plan,
            point=point_index,
            unit=taskset_index,
            attempt=attempt,
        )
        if fault_plan is not None
        else nullcontext()
    )
    with unit_scope:
        if recorder is not None:
            recorder.emit("worker.unit", pid=os.getpid())
            with recorder.span("gen.tasksets", sets=config.sets_per_point):
                taskset = _tasksets_for(
                    point.generation, config.sets_per_point, seed
                )[taskset_index]
        else:
            taskset = _tasksets_for(
                point.generation, config.sets_per_point, seed
            )[taskset_index]
        return _evaluate_unit(
            point,
            config,
            seed,
            taskset_index,
            taskset,
            FailurePolicy(policy_value),
            options,
            recorder=recorder,
            death_check=(
                _death_check_for(point_index, taskset_index)
                if fault_plan is not None
                else None
            ),
            store=(
                _store_for(cache_path) if cache_path is not None else None
            ),
        )


def _run_experiment_parallel(
    config: ExperimentConfig,
    options: AnalysisOptions | None,
    progress: Callable[[PointResult], None] | None,
    policy: FailurePolicy,
    checkpoint_path: "str | None",
    completed: "dict[int, PointResult]",
    jobs: int,
    writer: TraceWriter | None = None,
    fault_plan: FaultPlan | None = None,
    cache_path: "str | None" = None,
) -> SweepResult:
    """Run the pending units on a local sweep service with ``jobs`` workers.

    The service forks ``jobs`` socket workers and drives the shared
    :class:`~repro.experiments.units.UnitScheduler` over them, one unit in flight per worker
    (see :mod:`repro.service.coordinator`). This process stays the
    only writer of the trace, the checkpoint and the unit store.
    """
    import asyncio

    from repro.service.coordinator import _local_service

    async def sweep() -> SweepResult:
        async with _local_service(
            jobs, cache_path=cache_path, fault_plan=fault_plan
        ) as service:
            return await service.run_sweep(
                config,
                options,
                policy,
                completed,
                checkpoint_path=checkpoint_path,
                writer=writer,
                progress=progress,
            )

    return asyncio.run(sweep())


def run_experiment(
    config: ExperimentConfig,
    options: AnalysisOptions | None = None,
    progress: Callable[[PointResult], None] | None = None,
    failure_policy: FailurePolicy | str = FailurePolicy.COUNT_UNSCHEDULABLE,
    checkpoint_path: "str | None" = None,
    resume: bool = False,
    jobs: int = 1,
    trace_path: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    cache_path: "str | None" = None,
) -> SweepResult:
    """Run a full sweep (all points, all protocols, shared task sets).

    Args:
        config: The experiment definition.
        options: Analysis options (e.g. per-MILP time limits).
        progress: Optional callback invoked after each point, for
            long-running CLI feedback. Under ``jobs > 1`` points are
            reported in completion order (the returned sweep is always
            in point order).
        failure_policy: How failed taskset/protocol pairs enter the
            ratios (see :class:`FailurePolicy`).
        checkpoint_path: When set, each completed point is persisted
            there atomically and durably (JSON keyed by a config
            digest, per-point content digests, fsync'd temp-and-rename
            writes); only the parent process ever writes it. Stale
            ``*.tmp`` leftovers of a crashed prior run are cleaned up
            on startup.
        resume: Reload ``checkpoint_path`` and skip the points it
            already holds; point ``i`` always uses ``config.seed + i``,
            so a resumed sweep is bit-identical to an uninterrupted
            one. The load is tolerant: points that fail their content
            digest (torn by a crash, bit rot) are dropped — and hence
            re-solved — instead of aborting the resume; each recovery
            is surfaced as a ``checkpoint.recovered`` trace event.
        jobs: Worker processes. ``1`` (the default) runs in-process;
            ``N > 1`` runs (point, task set) units on a local sweep
            service with ``N`` socket workers, with bit-identical
            results (see the module docstring), including across
            worker crashes.
        trace_path: When set, a structured JSONL event trace of the
            run is written there (see :mod:`repro.obs`). The run id
            stamped on every event is the config digest, so a trace is
            attributable to its checkpoint. Points skipped via
            ``resume`` emit nothing.
        fault_plan: When set, the run executes under deterministic
            fault injection (see :mod:`repro.faults`): a run-level
            scope in the parent covers checkpoint/trace/filesystem
            sites, and every work unit — worker-side or sequential —
            gets its own (point, unit, attempt)-scoped activation.
        cache_path: When set, every unit's analysis cache is backed by
            the persistent sqlite store at this path (see
            :mod:`repro.analysis.store`), shared across runs, points,
            and worker processes. Verdicts and ratios are bit-identical
            with the store enabled, disabled, or pre-populated — the
            store only changes which tier answers a lookup — and the
            ``persistent.*`` counters in ``analysis_stats`` surface how
            much work it saved. Under ``jobs > 1`` the service also
            keeps finished units there: a unit already in the store is
            served without dispatch (its only counter is
            ``unit_store.hits``), and every dispatched unit is written
            back. A fault plan disables this unit tier in both
            directions.
    """
    policy = _coerce_policy(failure_policy)
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    plan_scope = (
        faults.injecting(fault_plan) if fault_plan is not None else nullcontext()
    )
    with plan_scope:
        completed: dict[int, PointResult] = {}
        recovered: list[str] = []
        if checkpoint_path is not None:
            from repro.experiments.persistence import cleanup_stale_tmp

            cleanup_stale_tmp(checkpoint_path)
        if checkpoint_path is not None and resume:
            from repro.experiments.persistence import (
                load_checkpoint_recovering,
            )

            completed, recovered = load_checkpoint_recovering(
                checkpoint_path, config
            )
        writer: TraceWriter | None = None
        if trace_path is not None:
            from repro.experiments.persistence import config_digest

            writer = TraceWriter(trace_path, run_id=config_digest(config)[:12])
        try:
            if writer is not None:
                writer.emit(
                    "run.start",
                    points=len(config.points),
                    sets=config.sets_per_point,
                    jobs=jobs,
                    resumed=len(completed),
                )
                for problem in recovered:
                    writer.emit("checkpoint.recovered", detail=problem)
            run_start = time.perf_counter()
            if jobs > 1:
                result = _run_experiment_parallel(
                    config,
                    options,
                    progress,
                    policy,
                    checkpoint_path,
                    completed,
                    jobs,
                    writer=writer,
                    fault_plan=fault_plan,
                    cache_path=cache_path,
                )
                if writer is not None:
                    writer.emit(
                        "run.end", dur=time.perf_counter() - run_start
                    )
                return result
            store = (
                PersistentStore(cache_path) if cache_path is not None else None
            )
            results = []
            for index, point in enumerate(config.points):
                if index in completed:
                    result_point = completed[index]
                else:
                    result_point = run_point(
                        point,
                        config,
                        seed=config.seed + index,
                        options=options,
                        failure_policy=policy,
                        writer=writer,
                        point_index=index,
                        fault_plan=fault_plan,
                        store=store,
                    )
                    completed[index] = result_point
                    if writer is not None:
                        writer.emit(
                            "point.end",
                            dur=result_point.elapsed_seconds,
                            point=index,
                            x=result_point.x,
                            failures=len(result_point.failures),
                        )
                    if checkpoint_path is not None:
                        _save_checkpoint_traced(
                            checkpoint_path, config, completed, index, writer
                        )
                if progress is not None:
                    progress(result_point)
                results.append(result_point)
            if writer is not None:
                writer.emit("run.end", dur=time.perf_counter() - run_start)
            return SweepResult(config=config, points=tuple(results))
        finally:
            if writer is not None:
                writer.close()


def compare_on_taskset(
    taskset: TaskSet,
    protocols: tuple[str, ...] = ("nps", "wasly", "proposed"),
    options: AnalysisOptions | None = None,
    method: str = "milp",
) -> dict[str, bool]:
    """Verdicts of several protocols on one concrete task set.

    All protocols share one analysis-cache scope: fixpoint solves
    whose inputs coincide across protocols are paid for once.
    """
    with cache_scope(AnalysisCache()):
        return {
            protocol: is_schedulable(
                taskset, protocol, options=options, method=method
            )
            for protocol in protocols
        }
