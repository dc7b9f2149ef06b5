"""repro — reproduction of *Predictable Memory-CPU Co-Scheduling with
Support for Latency-Sensitive Tasks* (Casini et al., DAC 2020).

The package implements the paper's protocol (rules R1-R6), its MILP
worst-case-delay analysis, the two baselines it is evaluated against
(classical non-preemptive scheduling and the protocol of Wasly &
Pellizzoni [3]), a protocol zoo of further comparison points behind a
registry (limited preemption via preemption thresholds, memory
bandwidth regulation), a discrete-event simulator of each, the
workload generator of Sec. VII, and the experiment harness
regenerating the paper's figures.

Quickstart::

    from repro import Task, TaskSet, is_schedulable, registered_protocols

    ts = TaskSet.from_parameters([
        # (name,  C,   l,   u,   T,   D)
        ("cam",  2.0, 0.4, 0.4, 12.0, 10.0),
        ("ctrl", 1.0, 0.2, 0.2, 10.0,  4.0),
        ("log",  4.0, 0.8, 0.8, 40.0, 40.0),
    ])
    for protocol in registered_protocols():
        print(protocol, is_schedulable(ts, protocol))
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Public name -> the module that defines it. Names load on first
#: access (PEP 562), so importing one subpackage (``import repro.sim``)
#: loads only what that subpackage imports and the documented layering
#: holds at import time too.
_EXPORTS = {
    **dict.fromkeys(
        ["Task", "TaskSet", "Platform", "partition_tasks"], "repro.model"
    ),
    "RegulationConfig": "repro.model.platform",
    **dict.fromkeys(["TaskChain", "chain_reaction_bound"], "repro.chains"),
    **dict.fromkeys(["load_taskset", "save_taskset"], "repro.io"),
    **dict.fromkeys(
        [
            "deadline_monotonic",
            "rate_monotonic",
            "audsley_opa",
            "opa_with_analysis",
        ],
        "repro.model.priorities",
    ),
    **dict.fromkeys(
        [
            "ArrivalCurve",
            "SporadicArrival",
            "PeriodicJitterArrival",
            "BurstyArrival",
        ],
        "repro.curves",
    ),
    **dict.fromkeys(
        [
            "AnalysisOptions",
            "TaskResult",
            "TaskSetResult",
            "NpsAnalysis",
            "WaslyAnalysis",
            "ProposedAnalysis",
            "ThresholdAnalysis",
            "RegulatedAnalysis",
            "register_protocol",
            "registered_protocols",
            "analyze_taskset",
            "is_schedulable",
            "greedy_ls_assignment",
        ],
        "repro.analysis",
    ),
    "ReproError": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
