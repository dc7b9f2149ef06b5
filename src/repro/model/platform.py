"""Platform model (paper Sec. II, "Platform Model").

The paper targets COTS platforms such as the NXP QorIQ T1042: identical
cores, each with a private dual-ported local memory (scratch-pad, or a
locked cache with stashing) split into two same-size partitions, a
per-core DMA engine, a crossbar, and a shared global memory.

This module is a *descriptive* model: it carries the parameters the
rest of the library needs (partition sizes for footprint checks, DMA
bandwidth to derive copy-phase durations) and validates that a task set
fits a core. Timing behaviour itself lives in the analyses and the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ModelError
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time


@dataclass(frozen=True)
class LocalMemory:
    """A per-core dual-ported local memory split into two partitions.

    Attributes:
        size_bytes: Total capacity; each partition gets half (the
            protocol mandates two same-size partitions, Sec. IV).
    """

    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ModelError("local memory size must be positive")
        if self.size_bytes % 2 != 0:
            raise ModelError(
                "local memory size must be even to form two equal partitions"
            )

    @property
    def partition_bytes(self) -> int:
        """Capacity of one of the two partitions."""
        return self.size_bytes // 2

    def fits(self, task: Task) -> bool:
        """Whether the task's footprint fits one partition.

        Tasks without a declared footprint are assumed to fit (the
        paper's evaluation generates copy times directly).
        """
        if task.footprint is None:
            return True
        return task.footprint <= self.partition_bytes


@dataclass(frozen=True)
class DmaEngine:
    """A per-core DMA engine with a sustained transfer bandwidth.

    Attributes:
        bandwidth_bytes_per_ms: Sustained copy bandwidth, already
            de-rated for worst-case global-memory contention (the paper
            folds contention into ``l_i``/``u_i`` via [7, 8]).
        setup_time: Fixed per-transfer programming overhead.
    """

    bandwidth_bytes_per_ms: float
    setup_time: Time = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_ms <= 0:
            raise ModelError("DMA bandwidth must be positive")
        if self.setup_time < 0:
            raise ModelError("DMA setup time must be non-negative")

    def transfer_time(self, num_bytes: int) -> Time:
        """Worst-case time to move ``num_bytes`` between memories."""
        if num_bytes < 0:
            raise ModelError("transfer size must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.setup_time + num_bytes / self.bandwidth_bytes_per_ms


@dataclass(frozen=True)
class Core:
    """One processing core with its local memory and DMA engine."""

    index: int
    memory: LocalMemory
    dma: DmaEngine

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ModelError("core index must be non-negative")


@dataclass(frozen=True)
class Platform:
    """A multicore platform of identical cores (paper Sec. II)."""

    cores: tuple[Core, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.cores:
            raise ModelError("a platform needs at least one core")
        indices = [c.index for c in self.cores]
        if sorted(indices) != list(range(len(self.cores))):
            raise ModelError(f"core indices must be 0..{len(self.cores)-1}")

    @staticmethod
    def homogeneous(
        num_cores: int,
        memory_bytes: int = 512 * 1024,
        dma_bandwidth_bytes_per_ms: float = 4 * 1024 * 1024,
        dma_setup_time: Time = 0.0,
    ) -> "Platform":
        """Build a platform of ``num_cores`` identical cores."""
        if num_cores <= 0:
            raise ModelError("num_cores must be positive")
        memory = LocalMemory(memory_bytes)
        dma = DmaEngine(dma_bandwidth_bytes_per_ms, dma_setup_time)
        return Platform(
            tuple(Core(i, memory, dma) for i in range(num_cores))
        )

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def validate_taskset(self, core: Core, taskset: TaskSet) -> None:
        """Check every task's footprint fits the core's partitions."""
        oversized = [t.name for t in taskset if not core.memory.fits(t)]
        if oversized:
            raise ModelError(
                f"tasks {oversized} exceed the {core.memory.partition_bytes}-byte "
                f"partition of core {core.index}"
            )


@dataclass(frozen=True)
class RegulationConfig:
    """Per-core memory-bandwidth regulation (the ``regulated`` protocol).

    A MemGuard-style regulator grants each core a memory budget of
    ``budget`` time units of DMA-rate transfer per replenishment
    ``period``; a memory phase that exhausts the budget stalls until the
    next replenishment. Execution phases consume no budget. ``budget ==
    period`` degenerates to unregulated memory (the ``nps_carry``
    bound).

    Attributes:
        budget: Memory-transfer time granted per period (``Q``).
        period: Replenishment period (``P``); budgets do not accumulate
            across periods.
    """

    budget: float
    period: float

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 < self.budget <= self.period:
            raise ValueError(
                f"budget must be in (0, period], got {self.budget} "
                f"with period {self.period}"
            )


def copy_times_from_footprint(
    task_footprint_bytes: int,
    output_bytes: int,
    core: Core,
) -> tuple[Time, Time]:
    """Derive ``(l_i, u_i)`` from memory footprints and DMA bandwidth.

    ``task_footprint_bytes`` is everything loaded in the copy-in phase
    (code + input data); ``output_bytes`` is what the copy-out phase
    writes back. Raises if the footprint cannot fit one partition.
    """
    if task_footprint_bytes <= 0:
        raise ModelError("footprint must be positive")
    if output_bytes < 0 or output_bytes > task_footprint_bytes:
        raise ModelError("output size must be within the task footprint")
    if task_footprint_bytes > core.memory.partition_bytes:
        raise ModelError(
            f"footprint {task_footprint_bytes} exceeds partition size "
            f"{core.memory.partition_bytes}"
        )
    return (
        core.dma.transfer_time(task_footprint_bytes),
        core.dma.transfer_time(output_bytes),
    )
