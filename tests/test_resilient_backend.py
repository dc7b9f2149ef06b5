"""Resilient backend: watchdog, retries, and the safe-degradation chain."""

import time

import pytest

from repro.analysis.interface import AnalysisOptions
from repro.analysis.proposed.closed_form import closed_form_delay_bound
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.errors import BackendUnavailableError
from repro.milp import (
    DegradationLevel,
    HighsBackend,
    LpRelaxationBackend,
    MilpModel,
    ResilienceConfig,
    ResilientBackend,
    SolveStatus,
)
from repro.milp.model import MilpBackend
from repro.model.taskset import TaskSet


@pytest.fixture
def reference_taskset():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("b", 2.0, 0.4, 0.4, 20.0, 16.0),
            ("c", 3.0, 0.5, 0.5, 40.0, 35.0),
        ]
    )


@pytest.fixture
def reference_milp(reference_taskset):
    task = reference_taskset.by_name("c")
    window = task.deadline - task.exec_time - task.copy_out
    built = build_delay_milp(reference_taskset, task, window, AnalysisMode.NLS)
    return built.model


class _AlwaysFail(MilpBackend):
    name = "always_fail"

    def __init__(self):
        self.calls = 0

    def solve(self, model):
        self.calls += 1
        raise BackendUnavailableError("injected fault")


class _FlakyBackend(MilpBackend):
    """Fails the first ``failures`` solves, then delegates to HiGHS."""

    name = "flaky"

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def solve(self, model):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendUnavailableError(f"injected fault #{self.calls}")
        return HighsBackend().solve(model)


class _HangingBackend(MilpBackend):
    name = "hanging"

    def __init__(self, seconds=10.0):
        self.seconds = seconds

    def solve(self, model):
        time.sleep(self.seconds)
        return HighsBackend().solve(model)


class TestRetries:
    def test_transient_failures_are_retried(self, reference_milp):
        flaky = _FlakyBackend(failures=2)
        sleeps = []
        backend = ResilientBackend(
            flaky, max_retries=2, backoff_base=0.01, sleep=sleeps.append
        )
        solution = backend.solve(reference_milp)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.degradation is DegradationLevel.EXACT
        assert flaky.calls == 3

    def test_backoff_is_exponential(self, reference_milp):
        sleeps = []
        backend = ResilientBackend(
            _FlakyBackend(failures=2),
            max_retries=2,
            backoff_base=0.01,
            backoff_factor=2.0,
            backoff_jitter=0.0,
            sleep=sleeps.append,
        )
        backend.solve(reference_milp)
        assert sleeps == [0.01, 0.02]

    def test_no_retry_on_definitive_result(self, reference_milp):
        flaky = _FlakyBackend(failures=0)
        backend = ResilientBackend(flaky, max_retries=3, sleep=lambda s: None)
        backend.solve(reference_milp)
        assert flaky.calls == 1

    def test_perturbed_retry_disables_presolve(self):
        backend = ResilientBackend(HighsBackend(time_limit=2.0))
        perturbed = backend._perturbed(1)
        assert perturbed.extra_options["presolve"] is False
        assert perturbed.time_limit == pytest.approx(4.0)


class TestWatchdog:
    def test_watchdog_falls_back_on_hang(self, reference_milp):
        backend = ResilientBackend(
            _HangingBackend(seconds=30.0),
            watchdog_seconds=0.2,
            max_retries=0,
            fallbacks=[(DegradationLevel.LP_RELAXATION, LpRelaxationBackend())],
            sleep=lambda s: None,
        )
        start = time.perf_counter()
        solution = backend.solve(reference_milp)
        assert time.perf_counter() - start < 10.0
        assert solution.degradation is DegradationLevel.LP_RELAXATION

    def test_watchdog_exhaustion_raises_with_history(self, reference_milp):
        backend = ResilientBackend(
            _AlwaysFail(),
            max_retries=1,
            fallbacks=[],
            sleep=lambda s: None,
        )
        with pytest.raises(BackendUnavailableError) as excinfo:
            backend.solve(reference_milp)
        assert "injected fault" in str(excinfo.value)
        assert "all resilience levels exhausted" in str(excinfo.value)


class TestFallbackChainIsSafe:
    """Every degradation level upper-bounds the exact MILP objective."""

    def test_dual_bound_level(self, reference_milp):
        exact = HighsBackend().solve(reference_milp).objective
        backend = ResilientBackend(_AlwaysFail(), max_retries=0, sleep=lambda s: None)
        solution = backend.solve(reference_milp)
        assert solution.degradation is DegradationLevel.DUAL_BOUND
        assert solution.objective >= exact - 1e-9

    def test_lp_relaxation_level(self, reference_milp):
        exact = HighsBackend().solve(reference_milp).objective
        backend = ResilientBackend(
            _AlwaysFail(),
            max_retries=0,
            fallbacks=[(DegradationLevel.LP_RELAXATION, LpRelaxationBackend())],
            sleep=lambda s: None,
        )
        solution = backend.solve(reference_milp)
        assert solution.degradation is DegradationLevel.LP_RELAXATION
        assert solution.objective >= exact - 1e-9

    def test_closed_form_level(self, reference_taskset, reference_milp):
        """The closed-form rung upper-bounds the exact MILP *fixpoint*.

        Unlike the solver rungs (compared objective-to-objective at the
        same window), the closed form is itself a fixpoint analysis, so
        the safety statement is at the WCRT level.
        """
        task = reference_taskset.by_name("c")
        exact_wcrt = (
            ProposedAnalysis(AnalysisOptions(stop_at_deadline=False))
            .response_time(reference_taskset, task)
            .wcrt
        )
        cf_wcrt = closed_form_delay_bound(
            reference_taskset, task, blocking_intervals=2, urgent_possible=True
        )
        assert cf_wcrt >= exact_wcrt - 1e-9

        backend = ResilientBackend(
            _AlwaysFail(),
            max_retries=0,
            fallbacks=[],
            closed_form_objective=lambda: cf_wcrt - task.copy_out,
            sleep=lambda s: None,
        )
        solution = backend.solve(reference_milp)
        assert solution.degradation is DegradationLevel.CLOSED_FORM
        assert solution.backend == "closed_form"
        assert solution.objective + task.copy_out >= exact_wcrt - 1e-9

    def test_max_degradation_truncates_chain(self, reference_milp):
        backend = ResilientBackend(
            _AlwaysFail(),
            max_retries=0,
            max_degradation=DegradationLevel.DUAL_BOUND,
            closed_form_objective=lambda: 1.0,
            sleep=lambda s: None,
        )
        assert [level for level, _ in backend.fallbacks] == [
            DegradationLevel.DUAL_BOUND
        ]


class TestAnalysisIntegration:
    def test_options_resilience_routes_solves(self, reference_taskset):
        """With a dead solver, the analysis still upper-bounds the exact one."""
        # True fixpoints (no deadline early-out) so the two runs are
        # comparable point-for-point.
        exact = ProposedAnalysis(
            AnalysisOptions(stop_at_deadline=False)
        ).analyze(reference_taskset)
        degraded = ProposedAnalysis(
            AnalysisOptions(
                stop_at_deadline=False,
                resilience=ResilienceConfig(max_retries=0, backoff_base=0.0),
            ),
            backend_factory=_AlwaysFail,
        ).analyze(reference_taskset)
        for task in reference_taskset:
            exact_wcrt = exact.result_for(task.name).wcrt
            degraded_wcrt = degraded.result_for(task.name).wcrt
            assert degraded_wcrt >= exact_wcrt - 1e-9

    def test_resilience_off_by_default(self, reference_taskset):
        analysis = ProposedAnalysis(AnalysisOptions(), backend_factory=_AlwaysFail)
        with pytest.raises(BackendUnavailableError):
            analysis.analyze(reference_taskset)

    def test_from_config_copies_knobs(self):
        config = ResilienceConfig(
            watchdog_seconds=1.5, max_retries=5,
            max_degradation=DegradationLevel.LP_RELAXATION,
        )
        backend = ResilientBackend.from_config(HighsBackend(), config)
        assert backend.watchdog_seconds == 1.5
        assert backend.max_retries == 5
        assert all(
            level <= DegradationLevel.LP_RELAXATION
            for level, _ in backend.fallbacks
        )


class TestDegradationRecording:
    def test_exact_solution_reports_exact_level(self):
        m = MilpModel()
        x = m.var("x", 0.0, 2.0)
        m.maximize(x)
        solution = ResilientBackend(HighsBackend()).solve(m)
        assert solution.degradation is DegradationLevel.EXACT
        assert solution.objective == pytest.approx(2.0)


class _CountingHighs(HighsBackend):
    """HiGHS that records which entry point each call came through."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def solve(self, model):
        self.calls.append("solve")
        return super().solve(model)

    def decide(self, model, threshold):
        self.calls.append("decide")
        return super().decide(model, threshold)


class TestDecisions:
    def test_decide_reaches_primary_decision(self, reference_milp):
        primary = _CountingHighs()
        optimum = HighsBackend().solve(reference_milp).objective
        decision = reference_milp.decide(
            optimum + 1.0, ResilientBackend(primary)
        )
        assert decision.leq
        assert primary.calls == ["decide"]
        assert decision.solution is None  # proved by infeasibility

    def test_injected_crash_falls_back_to_solve(self, reference_milp):
        from repro.faults import FaultPlan, FaultSpec, injecting

        primary = _CountingHighs()
        optimum = HighsBackend().solve(reference_milp).objective
        plan = FaultPlan(
            specs=(FaultSpec(site="solver.fault", mode="crash", times=1),)
        )
        backend = ResilientBackend(primary, sleep=lambda _: None)
        with injecting(plan) as scope:
            above = reference_milp.decide(optimum + 1.0, backend)
        assert [f.site for f in scope.fired] == ["solver.fault"]
        assert primary.calls == ["solve"]
        assert above.leq and above.solution is not None
        below = reference_milp.decide(optimum - 1.0, backend)
        assert not below.leq
