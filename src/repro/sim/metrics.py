"""Trace metrics: response-time statistics and resource utilisation.

Turns a simulation trace into the quantities a systems evaluation
reports: per-task response-time statistics (min/mean/max/percentiles),
CPU and DMA busy fractions, interval-length statistics, and protocol
event counts (cancellations, urgent executions). The plain-text
histogram renderer lives in :mod:`repro.obs.profile` (the trace
profiler uses it too, and obs sits below sim) and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.obs.profile import text_histogram
from repro.sim.trace import Trace
from repro.types import TIME_EPS, Time


@dataclass(frozen=True)
class ResponseStats:
    """Response-time statistics of one task over a trace.

    ``count`` covers completed jobs only; ``incomplete`` counts jobs
    released but not finished by the end of the observed span (e.g.
    cut off at the simulation horizon). ``misses`` includes both
    completed-late jobs and incomplete jobs whose absolute deadline
    fell inside the span — a job that is overdue *and* unfinished is a
    miss, not a statistic to drop. ``p95`` uses the ``"higher"``
    percentile method, so it is always an observed response time and
    never interpolates below the tail on small samples.
    """

    task_name: str
    count: int
    minimum: Time
    mean: Time
    p95: Time
    maximum: Time
    deadline: Time
    misses: int
    incomplete: int = 0

    @property
    def miss_ratio(self) -> float:
        observed = self.count + self.incomplete
        return self.misses / observed if observed else 0.0


@dataclass(frozen=True)
class TraceMetrics:
    """Aggregate metrics of one simulation trace.

    Attributes:
        per_task: Response statistics per task name.
        cpu_busy_fraction: Fraction of the observed span the CPU spent
            executing (incl. urgent copy-ins performed by the CPU).
        dma_busy_fraction: Fraction spent on DMA copy-ins/copy-outs.
        interval_count: Number of scheduling intervals (0 for NPS).
        mean_interval_length: Mean interval length (nan for NPS).
        cancellations: Cancelled copy-ins observed (R3 events).
        urgent_executions: Jobs that ran urgent (R4/R5 events).
    """

    per_task: Mapping[str, ResponseStats]
    cpu_busy_fraction: float
    dma_busy_fraction: float
    interval_count: int
    mean_interval_length: float
    cancellations: int
    urgent_executions: int

    @property
    def worst_miss_ratio(self) -> float:
        return max(
            (s.miss_ratio for s in self.per_task.values()), default=0.0
        )


def _span(trace: Trace) -> tuple[Time, Time]:
    """Smallest window covering every recorded timestamp of the trace.

    Every non-``None`` phase stamp counts, not just releases and
    copy-out completions: a horizon-truncated job contributes its
    exec/copy-in durations to the busy sums, so the span must extend to
    those stamps too or busy fractions can exceed 1.0.
    """
    events: list[Time] = []
    for job in trace.jobs:
        events.append(job.release)
        for stamp in (
            job.copy_in_start,
            job.copy_in_end,
            job.exec_start,
            job.exec_end,
            job.copy_out_start,
            job.copy_out_end,
        ):
            if stamp is not None:
                events.append(stamp)
        for a, b in job.cancelled_copy_ins:
            events.append(a)
            events.append(b)
    if not events:
        raise SimulationError("cannot compute metrics of an empty trace")
    return min(events), max(events)


def compute_metrics(trace: Trace) -> TraceMetrics:
    """Compute :class:`TraceMetrics` for a completed trace."""
    start, end = _span(trace)
    span = max(end - start, 1e-12)

    per_task: dict[str, ResponseStats] = {}
    for name in sorted({j.task.name for j in trace.jobs}):
        all_jobs = trace.jobs_of(name)
        done = [j for j in all_jobs if j.completed]
        pending = [j for j in all_jobs if not j.completed]
        deadline = all_jobs[0].task.deadline
        # An unfinished job whose absolute deadline lies inside the
        # observed span has demonstrably missed it.
        overdue = sum(
            1 for j in pending if j.release + deadline <= end + TIME_EPS
        )
        if done:
            responses = np.array([j.response_time for j in done])
            late = int((responses > deadline + TIME_EPS).sum())
            per_task[name] = ResponseStats(
                task_name=name,
                count=len(done),
                minimum=float(responses.min()),
                mean=float(responses.mean()),
                p95=float(np.percentile(responses, 95, method="higher")),
                maximum=float(responses.max()),
                deadline=deadline,
                misses=late + overdue,
                incomplete=len(pending),
            )
        elif pending:
            per_task[name] = ResponseStats(
                task_name=name,
                count=0,
                minimum=math.nan,
                mean=math.nan,
                p95=math.nan,
                maximum=math.nan,
                deadline=deadline,
                misses=overdue,
                incomplete=len(pending),
            )

    cpu_busy = 0.0
    dma_busy = 0.0
    cancellations = 0
    urgent = 0
    # Under NPS every phase runs on the CPU; the interval protocols
    # always delegate copy-outs to the DMA (rule R2 / Property 2).
    copy_out_on_cpu = trace.protocol == "nps"
    for job in trace.jobs:
        if job.exec_start is not None and job.exec_end is not None:
            cpu_busy += job.exec_end - job.exec_start
        if job.copy_in_start is not None and job.copy_in_end is not None:
            duration = job.copy_in_end - job.copy_in_start
            if job.copy_in_by == "cpu":
                cpu_busy += duration
            else:
                dma_busy += duration
        if job.copy_out_start is not None and job.copy_out_end is not None:
            duration = job.copy_out_end - job.copy_out_start
            if copy_out_on_cpu:
                cpu_busy += duration
            else:
                dma_busy += duration
        for a, b in job.cancelled_copy_ins:
            dma_busy += b - a
        cancellations += len(job.cancelled_copy_ins)
        if job.urgent:
            urgent += 1

    lengths = [iv.length for iv in trace.intervals]
    return TraceMetrics(
        per_task=per_task,
        cpu_busy_fraction=cpu_busy / span,
        dma_busy_fraction=dma_busy / span,
        interval_count=len(trace.intervals),
        mean_interval_length=(
            float(np.mean(lengths)) if lengths else math.nan
        ),
        cancellations=cancellations,
        urgent_executions=urgent,
    )


def render_metrics(metrics: TraceMetrics) -> str:
    """Human-readable metrics report."""
    lines = [
        f"intervals: {metrics.interval_count} "
        f"(mean length {metrics.mean_interval_length:.3f})"
        if metrics.interval_count
        else "intervals: none (NPS trace)",
        f"CPU busy: {metrics.cpu_busy_fraction:6.1%}   "
        f"DMA busy: {metrics.dma_busy_fraction:6.1%}",
        f"cancellations: {metrics.cancellations}   "
        f"urgent executions: {metrics.urgent_executions}",
        "",
        f"{'task':<12}{'jobs':>6}{'min':>9}{'mean':>9}{'p95':>9}"
        f"{'max':>9}{'D':>8}{'miss':>6}{'inc':>5}",
    ]
    for stats in metrics.per_task.values():
        lines.append(
            f"{stats.task_name:<12}{stats.count:>6}{stats.minimum:>9.3f}"
            f"{stats.mean:>9.3f}{stats.p95:>9.3f}{stats.maximum:>9.3f}"
            f"{stats.deadline:>8.2f}{stats.misses:>6}{stats.incomplete:>5}"
        )
    return "\n".join(lines)


__all__ = [
    "ResponseStats",
    "TraceMetrics",
    "compute_metrics",
    "render_metrics",
    "text_histogram",
]
