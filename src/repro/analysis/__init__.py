"""Schedulability analyses for the three compared approaches.

* :mod:`repro.analysis.nps` — classical non-preemptive fixed-priority
  scheduling, memory phases executed inline by the CPU (the paper's
  "NPS" baseline [16]).
* :mod:`repro.analysis.wasly` — the protocol of Wasly & Pellizzoni [3]
  (double-buffered intervals, up to two lower-priority blockers),
  analysed with the paper's MILP machinery specialised to
  ``Gamma_LS = emptyset`` plus a closed-form variant.
* :mod:`repro.analysis.proposed` — the paper's protocol (rules R1-R6)
  analysed with the MILP of Sec. V, NLS and LS cases.
* :mod:`repro.analysis.threshold` — limited preemption of the 3-phase
  model via per-task preemption thresholds (zoo protocol).
* :mod:`repro.analysis.regulated` — NPS under per-core memory
  bandwidth regulation (zoo protocol).
* :mod:`repro.analysis.registry` — the protocol registry every layer
  (config, CLI, report, simulators) resolves names through.
* :mod:`repro.analysis.ls_assignment` — the greedy LS-marking
  algorithm of Sec. VI and ablation heuristics.
* :mod:`repro.analysis.schedulability` — task-set level front end.
"""

from repro.analysis.cache import AnalysisCache, active_cache, cache_scope
from repro.analysis.interface import AnalysisOptions, TaskResult, TaskSetResult
from repro.analysis.nps import NpsAnalysis
from repro.analysis.wasly import WaslyAnalysis
from repro.analysis.proposed import ProposedAnalysis
from repro.analysis.threshold import ThresholdAnalysis
from repro.analysis.regulated import RegulatedAnalysis, regulated_duration
from repro.analysis.registry import (
    ProtocolSpec,
    make_analysis,
    protocol_spec,
    register_protocol,
    registered_protocols,
    simulable_protocols,
    simulator_class,
)
from repro.analysis.ls_assignment import (
    LsAssignmentOutcome,
    greedy_ls_assignment,
)
from repro.analysis.schedulability import analyze_taskset, is_schedulable
from repro.model.platform import RegulationConfig

__all__ = [
    "AnalysisCache",
    "active_cache",
    "cache_scope",
    "AnalysisOptions",
    "RegulationConfig",
    "TaskResult",
    "TaskSetResult",
    "NpsAnalysis",
    "WaslyAnalysis",
    "ProposedAnalysis",
    "ThresholdAnalysis",
    "RegulatedAnalysis",
    "regulated_duration",
    "ProtocolSpec",
    "make_analysis",
    "protocol_spec",
    "register_protocol",
    "registered_protocols",
    "simulable_protocols",
    "simulator_class",
    "LsAssignmentOutcome",
    "greedy_ls_assignment",
    "analyze_taskset",
    "is_schedulable",
]
