"""Limited-preemption simulator with preemption thresholds.

The runtime counterpart of
:class:`repro.analysis.threshold.ThresholdAnalysis`: memory phases run
inline on the CPU (as NPS), each of a job's three phases is a
non-preemptive chunk, and at a phase boundary the running job yields
only to ready tasks whose priority outranks the job's preemption
threshold. A job holds its threshold as its effective priority from
the moment it starts until it completes, so a preempted job re-enters
the ready queue at its threshold, not its base priority.
"""

from __future__ import annotations

import heapq
import itertools

from repro.model.priorities import resolve_thresholds
from repro.errors import SimulationError
from repro.model.taskset import TaskSet
from repro.sim.releases import ReleasePlan
from repro.sim.trace import Job, Trace


class ThresholdSimulator:
    """Simulate a release plan under preemption-threshold scheduling.

    Args:
        taskset: The workload.
        thresholds: Optional ``((name, theta), ...)`` pairs, the same
            shape as ``AnalysisOptions.preemption_thresholds``; tasks
            not named default to their own priority.
    """

    protocol = "threshold"

    def __init__(
        self,
        taskset: TaskSet,
        thresholds: tuple[tuple[str, int], ...] | None = None,
    ) -> None:
        self.taskset = taskset
        self.thresholds = resolve_thresholds(taskset, thresholds)

    def run(self, plan: ReleasePlan) -> Trace:
        """Execute the plan and return the complete trace.

        The run continues past the plan horizon until every released
        job completes, so response times are defined for all jobs.
        """
        counter = itertools.count()
        future: list[tuple[float, int, Job]] = []
        for task in self.taskset:
            for idx, release in enumerate(plan.for_task(task.name)):
                job = Job(task=task, release=release, index=idx)
                heapq.heappush(future, (release, next(counter), job))

        jobs: list[Job] = [j for (_, _, j) in future]
        # Ready entries: (effective priority, release, seq, job).
        # Unstarted jobs queue at their base priority; preempted jobs
        # re-queue at their threshold.
        ready: list[tuple[int, float, int, Job]] = []
        # Remaining phases of every started-but-unfinished job.
        pending_phases: dict[int, list[str]] = {}
        now = 0.0
        guard = 0
        max_steps = 30 * len(jobs) + 30

        def admit(until: float) -> None:
            while future and future[0][0] <= until:
                _, _, job = heapq.heappop(future)
                heapq.heappush(
                    ready,
                    (job.task.priority, job.release, next(counter), job),
                )

        def run_phase(job: Job, phase: str, start: float) -> float:
            task = job.task
            if phase == "copy_in":
                job.copy_in_start = start
                job.copy_in_end = start + task.copy_in
                job.copy_in_by = "cpu"
                return job.copy_in_end
            if phase == "exec":
                job.exec_start = start
                job.exec_end = start + task.exec_time
                return job.exec_end
            job.copy_out_start = start
            job.copy_out_end = start + task.copy_out
            return job.copy_out_end

        while future or ready:
            guard += 1
            if guard > max_steps:
                raise SimulationError(
                    "threshold simulation failed to drain jobs"
                )
            if not ready:
                release, _, job = heapq.heappop(future)
                now = max(now, release)
                heapq.heappush(
                    ready, (job.task.priority, job.release, next(counter), job)
                )
            admit(now)
            _, _, _, job = heapq.heappop(ready)
            theta = self.thresholds[job.task.name]
            phases = pending_phases.pop(
                id(job), ["copy_in", "exec", "copy_out"]
            )
            # Run phase chunks back-to-back until completion or until a
            # boundary where a ready task outranks the threshold.
            while phases:
                now = run_phase(job, phases.pop(0), now)
                admit(now)
                if phases and ready and ready[0][0] < theta:
                    pending_phases[id(job)] = phases
                    heapq.heappush(
                        ready, (theta, job.release, next(counter), job)
                    )
                    break

        return Trace(jobs=jobs, intervals=(), protocol=self.protocol)
