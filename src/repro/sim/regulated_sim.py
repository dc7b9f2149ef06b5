"""Non-preemptive simulator with memory bandwidth regulation.

The runtime counterpart of
:class:`repro.analysis.regulated.RegulatedAnalysis`: scheduling is
exactly :class:`repro.sim.nps_sim.NpsSimulator` (non-preemptive fixed
priorities, memory inline), but memory transfers draw on a per-core
regulator budget of ``Q`` transfer-time units per replenishment period
``P`` (replenished to ``Q`` at every multiple of ``P``, no
accumulation). A memory phase that exhausts the budget stalls until
the next replenishment; execution phases consume no budget. With no
regulation config (or ``Q == P``) the schedule is identical to NPS.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.model.platform import RegulationConfig
from repro.errors import SimulationError
from repro.model.taskset import TaskSet
from repro.sim.releases import ReleasePlan
from repro.sim.trace import Job, Trace

#: Float guard for budget/period boundary comparisons.
_TINY = 1e-9


class _Regulator:
    """Budget bookkeeping of one core's memory traffic."""

    def __init__(self, config: RegulationConfig) -> None:
        self.config = config
        self._period_idx = 0
        self._used = 0.0

    def transfer(self, now: float, demand: float) -> float:
        """Advance a transfer of ``demand`` starting at ``now``.

        Returns the completion time; stalls at budget exhaustion until
        the next replenishment.
        """
        budget, period = self.config.budget, self.config.period
        # Each loop pass either transfers budget or crosses a period;
        # a transfer needs at most ceil(demand/budget) + 1 periods.
        limit = 10 + 4 * int(math.ceil(demand / budget + 1e-12))
        guard = 0
        while demand > _TINY:
            guard += 1
            if guard > limit:
                raise SimulationError("regulator failed to drain a transfer")
            period_end = (self._period_idx + 1) * period
            if now >= period_end - _TINY:
                # Crossed into a later period: replenish.
                self._period_idx = int(math.floor((now + _TINY) / period))
                self._used = 0.0
                continue
            available = budget - self._used
            if available <= _TINY:
                now = period_end
                continue
            chunk = min(demand, available, period_end - now)
            now += chunk
            demand -= chunk
            self._used += chunk
        return now


class RegulatedSimulator:
    """Simulate a release plan under bandwidth-regulated NPS.

    Args:
        taskset: The workload.
        regulation: The core's memory budget, the same object as
            ``AnalysisOptions.regulation``; ``None`` simulates
            unregulated memory (plain NPS timing).
    """

    protocol = "regulated"

    def __init__(
        self,
        taskset: TaskSet,
        regulation: RegulationConfig | None = None,
    ) -> None:
        self.taskset = taskset
        self.regulation = regulation

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
        ready: list[tuple[int, float, int, Job]] = []  # (prio, release, seq)
        regulator = (
            _Regulator(self.regulation) if self.regulation is not None else None
        )

        def memory_end(start: float, demand: float) -> float:
            if regulator is None:
                return start + demand
            return regulator.transfer(start, demand)

        now = 0.0
        guard = 0
        max_steps = 10 * len(jobs) + 10

        while future or ready:
            guard += 1
            if guard > max_steps:
                raise SimulationError(
                    "regulated simulation failed to drain jobs"
                )
            if not ready:
                if not future:
                    break
                release, _, job = heapq.heappop(future)
                now = max(now, release)
                heapq.heappush(
                    ready, (job.task.priority, job.release, next(counter), job)
                )
                continue
            # Admit everything released by `now` before picking.
            while future and future[0][0] <= now:
                _, _, job = heapq.heappop(future)
                heapq.heappush(
                    ready, (job.task.priority, job.release, next(counter), job)
                )
            _, _, _, job = heapq.heappop(ready)
            task = job.task
            job.copy_in_start = now
            job.copy_in_end = memory_end(now, task.copy_in)
            job.copy_in_by = "cpu"
            job.exec_start = job.copy_in_end
            job.exec_end = job.exec_start + task.exec_time
            job.copy_out_start = job.exec_end
            job.copy_out_end = memory_end(job.copy_out_start, task.copy_out)
            now = job.copy_out_end

        return Trace(jobs=jobs, intervals=(), protocol=self.protocol)
