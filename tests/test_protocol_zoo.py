"""The protocol zoo: registry, threshold/regulated analyses + simulators.

Covers the tentpole's contract from three sides: the registry as the
single authority on protocol names, the two new analyses against their
discrete-event simulators (observed <= bound over a seeded taskset
matrix plus adversarial release search), and the degenerate cases that
tie the newcomers back to the established baselines (``regulated`` with
no regulation == ``nps_carry``, an unregulated ``RegulatedSimulator``
== ``NpsSimulator``).
"""

import numpy as np
import pytest

from repro.analysis import registry as registry_module
from repro.analysis.interface import AnalysisOptions
from repro.analysis.nps import NpsAnalysis
from repro.analysis.regulated import (
    RegulatedAnalysis,
    regulated_cost,
    regulated_duration,
)
from repro.analysis.registry import (
    ProtocolSpec,
    make_analysis,
    protocol_spec,
    register_protocol,
    registered_protocols,
    simulable_protocols,
    simulator_class,
)
from repro.analysis.schedulability import analyze_taskset
from repro.analysis.threshold import ThresholdAnalysis, max_phase
from repro.errors import AnalysisError, ReproError
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.model.platform import RegulationConfig
from repro.model.priorities import resolve_thresholds
from repro.model.taskset import TaskSet
from repro.sim.adversarial import find_worst_response
from repro.sim.nps_sim import NpsSimulator
from repro.sim.regulated_sim import RegulatedSimulator
from repro.sim.releases import sporadic_plan, synchronous_plan
from repro.sim.threshold_sim import ThresholdSimulator


@pytest.fixture
def ts():
    return TaskSet.from_parameters(
        [
            ("hi", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("mid", 2.0, 0.3, 0.3, 20.0, 18.0),
            ("lo", 4.0, 0.8, 0.8, 50.0, 45.0),
        ]
    )


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert registered_protocols() == (
            "nps", "nps_carry", "wasly", "proposed", "threshold", "regulated",
        )

    def test_unknown_protocol_lists_the_registry(self):
        with pytest.raises(AnalysisError) as err:
            protocol_spec("edf")
        message = str(err.value)
        assert "unknown protocol 'edf'" in message
        assert "registered protocols:" in message
        assert "threshold" in message and "regulated" in message

    def test_analysis_only_protocol_has_no_simulator(self):
        assert "nps_carry" not in simulable_protocols()
        with pytest.raises(AnalysisError, match="analysis-only"):
            simulator_class("nps_carry")

    def test_simulator_classes_resolve_lazily(self):
        assert simulator_class("threshold") is ThresholdSimulator
        assert simulator_class("regulated") is RegulatedSimulator

    def test_duplicate_name_rejected_identical_spec_idempotent(self):
        spec = protocol_spec("nps")
        # Re-registering the exact same spec object is a no-op ...
        assert register_protocol(spec) is spec
        # ... but a *different* spec under a taken name is an error.
        clash = ProtocolSpec(name="nps", make_analysis=spec.make_analysis)
        with pytest.raises(AnalysisError, match="already registered"):
            register_protocol(clash)

    def test_out_of_tree_protocol_flows_through_analyze_taskset(self, ts):
        spec = ProtocolSpec(
            name="zoo_test_nps",
            make_analysis=lambda options, method: NpsAnalysis(
                options, variant="carry"
            ),
            description="test-only alias of nps_carry",
        )
        register_protocol(spec)
        try:
            result = analyze_taskset(ts, "zoo_test_nps")
            reference = analyze_taskset(ts, "nps_carry")
            assert [r.wcrt for r in result.results] == [
                r.wcrt for r in reference.results
            ]
        finally:
            del registry_module._REGISTRY["zoo_test_nps"]

    def test_make_analysis_tags_protocols(self):
        assert make_analysis("threshold").protocol == "threshold"
        assert make_analysis("regulated").protocol == "regulated"


class TestThresholdAnalysis:
    def test_default_thresholds_equal_priorities(self, ts):
        resolved = resolve_thresholds(ts, None)
        assert resolved == {
            task.name: task.priority for task in ts.tasks
        }

    def test_unknown_task_name_rejected(self, ts):
        with pytest.raises(ReproError, match="no task named 'ghost'"):
            resolve_thresholds(ts, (("ghost", 0),))

    def test_threshold_above_priority_rejected(self, ts):
        # theta must be at least as urgent (numerically <=) as the
        # task's own priority; a *lazier* threshold is meaningless.
        with pytest.raises(AnalysisError):
            resolve_thresholds(ts, (("hi", 2),))

    def test_max_phase_is_the_largest_chunk(self, ts):
        assert max_phase(ts.by_name("mid")) == 2.0

    def test_blocking_never_exceeds_nps_blocking(self, ts):
        # With default thresholds every phase boundary is preemptible,
        # so the single-blocker term shrinks from a whole lp job to its
        # largest phase.
        threshold = ThresholdAnalysis(AnalysisOptions())
        thresholds = resolve_thresholds(ts, None)
        nps = NpsAnalysis(AnalysisOptions(), variant="carry")
        for task in ts.tasks:
            assert threshold.blocking(ts, task, thresholds) <= nps.blocking(
                ts, task
            )
        hi = ts.by_name("hi")
        assert threshold.blocking(ts, hi, thresholds) == pytest.approx(
            max_phase(ts.by_name("lo"))
        )

    def test_bounds_cover_own_cost(self, ts):
        analysis = ThresholdAnalysis(
            AnalysisOptions(stop_at_deadline=False)
        )
        result = analysis.analyze(ts)
        for task_result in result.results:
            own = task_result.task.total_cost
            assert task_result.wcrt >= own

    def test_custom_thresholds_shield_the_holder(self, ts):
        # Giving "lo" threshold 0 makes its started jobs immune to all
        # preemption: its own bound can only improve, and it must not
        # get worse for any setting.
        default = ThresholdAnalysis(
            AnalysisOptions(stop_at_deadline=False)
        ).analyze(ts)
        shielded = ThresholdAnalysis(
            AnalysisOptions(
                stop_at_deadline=False,
                preemption_thresholds=(("lo", 0),),
            )
        ).analyze(ts)
        lo_default = default.result_for("lo")
        lo_shielded = shielded.result_for("lo")
        assert lo_shielded.wcrt <= lo_default.wcrt + 1e-9

    def test_details_expose_blocking_and_threshold(self, ts):
        result = ThresholdAnalysis(AnalysisOptions()).response_time(
            ts, ts.by_name("mid")
        )
        assert "blocking" in result.details
        assert result.details["threshold"] == ts.by_name("mid").priority


class TestRegulatedAnalysis:
    def test_regulation_config_validation(self):
        with pytest.raises(ValueError, match="budget"):
            RegulationConfig(budget=0.0, period=1.0)
        with pytest.raises(ValueError, match="budget"):
            RegulationConfig(budget=2.0, period=1.0)
        with pytest.raises(ValueError, match="period"):
            RegulationConfig(budget=0.5, period=0.0)
        assert RegulationConfig(budget=1.0, period=1.0).budget == 1.0

    def test_regulated_duration_formula(self):
        reg = RegulationConfig(budget=0.5, period=1.0)
        # demand 1.0 needs ceil(1.0/0.5)=2 budget windows: 2 stalls.
        assert regulated_duration(1.0, reg) == pytest.approx(2.0)
        # demand 0.4 fits one window: one stall's worth of slowdown.
        assert regulated_duration(0.4, reg) == pytest.approx(0.9)
        assert regulated_duration(0.0, reg) == 0.0
        assert regulated_duration(1.0, None) == 1.0

    def test_full_budget_is_no_regulation(self, ts):
        reg = RegulationConfig(budget=2.0, period=2.0)
        for task in ts.tasks:
            assert regulated_cost(task, reg) == pytest.approx(
                task.total_cost
            )

    def test_unregulated_analysis_matches_nps_carry(self, ts):
        options = AnalysisOptions(stop_at_deadline=False)
        regulated = RegulatedAnalysis(options).analyze(ts)
        carry = NpsAnalysis(options, variant="carry").analyze(ts)
        assert [r.wcrt for r in regulated.results] == [
            r.wcrt for r in carry.results
        ]

    def test_regulation_only_inflates(self, ts):
        options = AnalysisOptions(
            stop_at_deadline=False,
            regulation=RegulationConfig(budget=0.5, period=1.0),
        )
        tight = RegulatedAnalysis(
            AnalysisOptions(stop_at_deadline=False)
        ).analyze(ts)
        throttled = RegulatedAnalysis(options).analyze(ts)
        for free, reg in zip(tight.results, throttled.results):
            assert reg.wcrt >= free.wcrt - 1e-9


class TestSimulators:
    def test_threshold_sim_runs_all_jobs(self, ts):
        trace = ThresholdSimulator(ts).run(synchronous_plan(ts, 100.0))
        assert trace.protocol == "threshold"
        for task in ts.tasks:
            assert trace.jobs_of(task.name)

    def test_threshold_sim_preempts_at_phase_boundaries_only(self, ts):
        # Under threshold scheduling "lo" is never split mid-phase:
        # every job's phases are contiguous chunks, so its measured
        # response is a sum of phase lengths plus waiting, never less
        # than its own cost.
        rng = np.random.default_rng(7)
        trace = ThresholdSimulator(ts).run(sporadic_plan(ts, 300.0, rng))
        lo_jobs = [j for j in trace.jobs_of("lo") if j.completed]
        assert lo_jobs
        for job in lo_jobs:
            assert job.response_time >= ts.by_name("lo").total_cost - 1e-9

    def test_unregulated_sim_is_nps(self, ts):
        plan = synchronous_plan(ts, 150.0)
        nps = NpsSimulator(ts).run(plan)
        reg = RegulatedSimulator(ts).run(plan)
        def shape(trace):
            return [
                (j.name, j.release, j.copy_in_start, j.copy_in_end,
                 j.exec_start, j.exec_end, j.copy_out_start, j.copy_out_end)
                for j in trace.jobs
            ]

        assert shape(nps) == shape(reg)

    def test_regulated_sim_stalls_memory_phases(self, ts):
        plan = synchronous_plan(ts, 150.0)
        free = RegulatedSimulator(ts).run(plan)
        throttled = RegulatedSimulator(
            ts, regulation=RegulationConfig(budget=0.1, period=1.0)
        ).run(plan)
        # Same job population, strictly later finishes for jobs whose
        # memory demand exceeds one budget.
        assert len(free.jobs) == len(throttled.jobs)
        lo_free = free.jobs_of("lo")[0]
        lo_throttled = throttled.jobs_of("lo")[0]
        assert lo_throttled.copy_out_end > lo_free.copy_out_end


class TestCrossValidation:
    """Observed response <= analysis bound, adversarially searched."""

    def test_threshold_observed_within_bound(self, ts):
        options = AnalysisOptions(stop_at_deadline=False)
        analysis = ThresholdAnalysis(options)
        for seed, victim in enumerate(("hi", "mid", "lo")):
            adv = find_worst_response(
                ts, victim, ThresholdSimulator,
                rng=np.random.default_rng(40 + seed),
            )
            bound = analysis.response_time(ts, ts.by_name(victim)).wcrt
            assert adv.worst_response <= bound + 1e-6

    def test_threshold_custom_thetas_observed_within_bound(self, ts):
        thresholds = (("mid", 0), ("lo", 1))
        options = AnalysisOptions(
            stop_at_deadline=False, preemption_thresholds=thresholds
        )
        analysis = ThresholdAnalysis(options)
        for seed, victim in enumerate(("hi", "mid", "lo")):
            adv = find_worst_response(
                ts, victim,
                lambda taskset: ThresholdSimulator(
                    taskset, thresholds=thresholds
                ),
                rng=np.random.default_rng(50 + seed),
            )
            bound = analysis.response_time(ts, ts.by_name(victim)).wcrt
            assert adv.worst_response <= bound + 1e-6

    def test_regulated_observed_within_bound(self, ts):
        regulation = RegulationConfig(budget=0.5, period=1.0)
        options = AnalysisOptions(
            stop_at_deadline=False, regulation=regulation
        )
        analysis = RegulatedAnalysis(options)
        for seed, victim in enumerate(("hi", "mid", "lo")):
            adv = find_worst_response(
                ts, victim,
                lambda taskset: RegulatedSimulator(
                    taskset, regulation=regulation
                ),
                rng=np.random.default_rng(60 + seed),
            )
            bound = analysis.response_time(ts, ts.by_name(victim)).wcrt
            assert adv.worst_response <= bound + 1e-6

    @pytest.mark.parametrize("seed", [101, 202])
    def test_generated_matrix_threshold(self, seed):
        config = GenerationConfig(n=4, utilization=0.35, gamma=0.15)
        options = AnalysisOptions(stop_at_deadline=False)
        analysis = ThresholdAnalysis(options)
        for taskset in generate_tasksets(config, count=2, seed=seed):
            victim = taskset.tasks[0].name
            adv = find_worst_response(
                taskset, victim, ThresholdSimulator,
                restarts=6, rng=np.random.default_rng(seed),
            )
            bound = analysis.response_time(
                taskset, taskset.by_name(victim)
            ).wcrt
            assert adv.worst_response <= bound + 1e-6

    @pytest.mark.parametrize("seed", [303, 404])
    def test_generated_matrix_regulated(self, seed):
        config = GenerationConfig(n=4, utilization=0.3, gamma=0.15)
        regulation = RegulationConfig(budget=0.6, period=1.0)
        options = AnalysisOptions(
            stop_at_deadline=False, regulation=regulation
        )
        analysis = RegulatedAnalysis(options)
        for taskset in generate_tasksets(config, count=2, seed=seed):
            victim = taskset.tasks[-1].name
            adv = find_worst_response(
                taskset, victim,
                lambda ts_: RegulatedSimulator(ts_, regulation=regulation),
                restarts=6, rng=np.random.default_rng(seed),
            )
            bound = analysis.response_time(
                taskset, taskset.by_name(victim)
            ).wcrt
            assert adv.worst_response <= bound + 1e-6
