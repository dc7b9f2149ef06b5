"""Trace-based chain latency measurement.

Follows actual data propagation through a simulated schedule: an input
sample arrives at an arbitrary instant, is picked up by the first
stage's next job (its copy-in reads the freshest published input), and
each completed stage publishes at its copy-out completion. The worst
measured reaction time over a trace is a *lower* bound witness for the
analytic chain bound — the property tests assert measurement <= bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chains.model import TaskChain
from repro.errors import SimulationError
from repro.types import TIME_EPS, Time

if TYPE_CHECKING:
    # Annotations only: importing the package (and with it
    # ``repro.analysis``) must not load the simulators.
    from repro.sim.trace import Job, Trace


@dataclass(frozen=True)
class ReactionSample:
    """One measured end-to-end reaction.

    Attributes:
        input_time: When the external input arrived.
        completion_time: When the last stage published the result.
        path: The job names that carried the data, stage by stage.
    """

    input_time: Time
    completion_time: Time
    path: tuple[str, ...]

    @property
    def latency(self) -> Time:
        return self.completion_time - self.input_time


def _first_job_sampling_after(jobs: list[Job], instant: Time) -> Job | None:
    """The first job whose *data sampling* happens at/after ``instant``.

    A job samples its inputs when its copy-in starts (for urgent tasks
    the CPU performs the copy-in, same instant semantics). Jobs whose
    copy-in started before the input arrived carry stale data.
    """
    candidates = [
        j
        for j in jobs
        if j.completed
        and j.copy_in_start is not None
        and j.copy_in_start >= instant - TIME_EPS
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda j: j.copy_in_start)


def measure_reaction_times(
    chain: TaskChain,
    trace: Trace,
    input_times: list[Time] | None = None,
) -> list[ReactionSample]:
    """Measure end-to-end reactions through a trace.

    Args:
        chain: The chain whose stages to follow.
        trace: A completed simulation trace of the chain's task set.
        input_times: External input instants; defaults to "just after
            every release of the first stage" — the adversarial choice
            (the input barely misses a sampling opportunity).

    Returns:
        One sample per input that completed within the trace.
    """
    stage_jobs = {
        name: [j for j in trace.jobs_of(name) if j.completed]
        for name in chain.stage_names
    }
    for name, jobs in stage_jobs.items():
        if not jobs:
            raise SimulationError(
                f"trace contains no completed job of chain stage {name!r}"
            )

    if input_times is None:
        first = chain.stage_names[0]
        input_times = [
            j.release + 10 * TIME_EPS for j in stage_jobs[first]
        ]

    samples: list[ReactionSample] = []
    for input_time in input_times:
        instant = input_time
        path: list[str] = []
        completed = True
        for name in chain.stage_names:
            job = _first_job_sampling_after(stage_jobs[name], instant)
            if job is None:
                completed = False
                break
            path.append(job.name)
            instant = job.copy_out_end  # publication instant
        if completed:
            samples.append(
                ReactionSample(
                    input_time=input_time,
                    completion_time=instant,
                    path=tuple(path),
                )
            )
    return samples


def max_reaction_time(
    chain: TaskChain, trace: Trace
) -> Time:
    """Largest measured reaction latency (``-inf`` if none completed)."""
    samples = measure_reaction_times(chain, trace)
    if not samples:
        return float("-inf")
    return max(s.latency for s in samples)
