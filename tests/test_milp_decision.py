"""Threshold decisions: "is the optimum <= theta?" without solving it.

``MilpBackend.decide`` answers with an ordinary solve plus a comparison;
``HighsBackend.decide`` overrides it with one first-incumbent solve
(the model's own objective, every MIP gap open) whose answers are
proofs. These tests pin that the proofs are never wrong:
against the exact optimum on generated delay models, against the
pure-Python branch-and-bound backend, and at near-ties of the 1e-9
verdict slack. They also pin the solver-gap fix and the telemetry every
HiGHS call emits.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.milp.highs as highs_module
from repro.analysis.cache import AnalysisCache, cache_scope
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.milp import BranchBoundBackend, HighsBackend, MilpModel, SolveStatus
from repro.milp.expr import LinExpr
from repro.milp.highs import DECISION_ROW_EPS
from repro.milp.model import DECISION_SLACK, MilpDecision
from repro.obs import recording

DATA = Path(__file__).resolve().parent / "data"
OFFSETS = (-0.5, -1e-3, 1e-3, 0.5)


def _delay_models():
    """Delay MILPs of generated sets in the NLS, LS-a and WASLY modes."""
    config = GenerationConfig(n=4, utilization=0.6, gamma=0.3)
    models = []
    for index, taskset in enumerate(generate_tasksets(config, 3, 2024)):
        low = taskset[len(taskset) - 1]  # lowest priority: most interference
        window = low.deadline - low.exec_time - low.copy_out
        models.append(build_delay_milp(taskset, low, window, AnalysisMode.NLS))
        models.append(
            build_delay_milp(taskset, low, window, AnalysisMode.WASLY)
        )
        marked = taskset.with_ls_marks([low.name])
        models.append(
            build_delay_milp(
                marked, marked.by_name(low.name), window,
                AnalysisMode.LS_CASE_A,
            )
        )
    return [built.model for built in models]


DELAY_MODELS = _delay_models()


def _objective(model: MilpModel, values) -> float:
    return model.objective.value(values)


def _assert_sound(model: MilpModel, decision: MilpDecision, opt: float):
    """The decision agrees with the exact comparison, or fell back."""
    exact = opt <= decision.threshold + DECISION_SLACK
    assert decision.leq == exact
    if decision.solution is not None:
        return  # undecided: answered by the exact solve
    if decision.leq:
        assert decision.upper is not None and opt <= decision.upper
    else:
        assert decision.lower is not None
        assert decision.threshold + DECISION_SLACK < decision.lower
        assert decision.lower <= opt + 1e-7
        # The witness is a feasible point whose value was re-checked.
        values = [decision.values[v] for v in model.variables]
        assert model.check_assignment(values) == []
        assert _objective(model, decision.values) == pytest.approx(
            decision.lower, abs=1e-9
        )


class TestDecideOnDelayModels:
    @pytest.mark.parametrize(
        "index", range(len(DELAY_MODELS)),
        ids=[m.name for m in DELAY_MODELS],
    )
    def test_never_wrong_around_the_optimum(self, index):
        model = DELAY_MODELS[index]
        opt = model.solve(HighsBackend()).objective
        decided = 0
        for offset in OFFSETS:
            decision = HighsBackend().decide(model, opt + offset)
            _assert_sound(model, decision, opt)
            decided += decision.solution is None
        # Far from the optimum the feasibility solve always settles it.
        assert decided >= 2

    def test_every_mode_is_exercised(self):
        names = " ".join(m.name for m in DELAY_MODELS)
        for mode in ("nls", "wasly", "ls_a"):
            assert mode in names


def _small_models():
    """Small MILPs the pure-Python branch and bound solves quickly."""
    rng = np.random.default_rng(11)
    models = []
    for k in range(6):
        m = MilpModel(f"small{k}")
        xs = [m.var(f"x{i}", 0.0, 3.0, integer=True) for i in range(4)]
        y = m.continuous("y", 0.0, 2.5)
        weights = rng.integers(1, 6, size=4)
        m.add(LinExpr.total(int(w) * x for w, x in zip(weights, xs)) + y <= 9.5)
        m.add(xs[0] + xs[1] <= 4)
        values = rng.integers(1, 9, size=4)
        m.maximize(
            LinExpr.total(int(v) * x for v, x in zip(values, xs)) + 0.5 * y
        )
        models.append(m)
    return models


class TestSecondSolverCrossCheck:
    @pytest.mark.parametrize("model", _small_models(), ids=lambda m: m.name)
    def test_highs_agrees_with_branch_and_bound(self, model):
        reference = model.solve(BranchBoundBackend())
        assert reference.status is SolveStatus.OPTIMAL
        for offset in OFFSETS:
            theta = reference.objective + offset
            ours = HighsBackend().decide(model, theta)
            theirs = BranchBoundBackend().decide(model, theta)
            assert theirs.solution is not None  # the default: solve+compare
            assert ours.leq == theirs.leq
            _assert_sound(model, ours, reference.objective)


class TestNearTies:
    def test_threshold_row_sits_inside_the_verdict_slack(self):
        assert 0.0 < DECISION_ROW_EPS < DECISION_SLACK

    @pytest.mark.parametrize("scale", [1.0, 37.25, 1234.5])
    @pytest.mark.parametrize("gap", [-2.0, -1.0, -0.5, 0.5, 2.0])
    def test_optimum_within_a_few_slacks_of_the_threshold(self, scale, gap):
        # Integer optimum ``scale`` exactly; the threshold sits ``gap``
        # verdict slacks below it. The decision must agree with the
        # exact comparison the verdict makes, whichever way it answers.
        m = MilpModel("tie")
        x = m.var("x", 0.0, 10.0, integer=True)
        y = m.continuous("y", 0.0, 1.0)
        m.add(x + y <= 1.0)
        m.maximize(scale * x)
        theta = scale - gap * DECISION_SLACK
        decision = HighsBackend().decide(m, theta)
        _assert_sound(m, decision, scale)
        assert decision.leq == (scale <= theta + DECISION_SLACK)


def _captured_gap_model() -> MilpModel:
    data = json.loads((DATA / "gap_delay_milp.json").read_text())
    m = MilpModel("captured-gap")
    xs = [
        m.var(f"x{i}", lo if lo is not None else -np.inf,
              hi if hi is not None else np.inf, integer=bool(flag))
        for i, (lo, hi, flag) in enumerate(
            zip(data["var_lower"], data["var_upper"], data["integer"])
        )
    ]
    rows: dict[int, list] = {}
    for r, c, coef in data["entries"]:
        rows.setdefault(r, []).append(coef * xs[c])
    for r, (lo, hi) in enumerate(zip(data["row_lower"], data["row_upper"])):
        expr = LinExpr.total(rows.get(r, []))
        if lo is not None and hi is not None and lo == hi:
            m.add(expr == lo)
            continue
        if lo is not None:
            m.add(expr >= lo)
        if hi is not None:
            m.add(expr <= hi)
    m.maximize(LinExpr.total(c * x for c, x in zip(data["maximize"], xs)))
    return m


def _record_milp_calls(monkeypatch):
    """Pass every HiGHS call through, recording its objective and options."""
    calls = []
    real = highs_module.milp

    def spy(**kwargs):
        calls.append((np.array(kwargs["c"]), dict(kwargs["options"])))
        return real(**kwargs)

    monkeypatch.setattr(highs_module, "milp", spy)
    return calls


def _assert_exact_solve_reaches_the_dual_bound(model, monkeypatch):
    calls = _record_milp_calls(monkeypatch)
    with recording() as recorder:
        solution = model.solve(HighsBackend())
    assert solution.status is SolveStatus.OPTIMAL
    ((_, options),) = calls
    assert options["mip_rel_gap"] == 0.0
    assert options["mip_abs_gap"] == 0.0
    (event,) = [e for e in recorder.events if e["name"] == "highs.solve"]
    dual_bound = event["f"]["dual_bound"]
    assert dual_bound is not None
    assert solution.objective >= dual_bound - 1e-9


class TestSolverGap:
    def test_reported_optimum_is_not_below_the_dual_bound(self, monkeypatch):
        # Before the relative gap was always passed, HiGHS stopped on
        # this model at its default 1e-4 relative gap and reported
        # 20.21385 as optimal against a proven bound of 20.21526. Its
        # default 1e-6 absolute gap would allow the same below 1e-6, so
        # both gaps reach HiGHS as 0.
        _assert_exact_solve_reaches_the_dual_bound(
            _captured_gap_model(), monkeypatch
        )

    @pytest.mark.parametrize("model", DELAY_MODELS, ids=lambda m: m.name)
    def test_delay_models_reach_their_dual_bound(self, model, monkeypatch):
        _assert_exact_solve_reaches_the_dual_bound(model, monkeypatch)


class TestObjectiveGuidedDecisions:
    def test_decision_keeps_the_objective_and_opens_the_gaps(
        self, monkeypatch
    ):
        model = DELAY_MODELS[0]
        opt = model.solve(HighsBackend()).objective
        calls = _record_milp_calls(monkeypatch)
        decision = HighsBackend().decide(model, opt - 0.5)
        assert decision.solution is None and not decision.leq
        ((c, options),) = calls
        assert np.array_equal(c, -model.compile().objective)
        assert options["mip_rel_gap"] == np.inf
        assert options["mip_abs_gap"] == np.inf

    def test_undecided_fallback_solves_with_closed_gaps(self, monkeypatch):
        # The optimum 1 sits half a slack above the threshold: the first
        # incumbent lands inside the slack, so the decision falls back
        # to an exact solve, which must not inherit the open gaps.
        m = MilpModel("tie")
        x = m.var("x", 0.0, 10.0, integer=True)
        y = m.continuous("y", 0.0, 1.0)
        m.add(x + y <= 1.0)
        m.maximize(1.0 * x)
        calls = _record_milp_calls(monkeypatch)
        decision = HighsBackend().decide(m, 1.0 - 0.5 * DECISION_SLACK)
        assert decision.solution is not None  # undecided, then solved
        assert decision.leq and decision.solves == 2
        (_, decide_options), (c, solve_options) = calls
        assert decide_options["mip_rel_gap"] == np.inf
        assert solve_options["mip_rel_gap"] == 0.0
        assert solve_options["mip_abs_gap"] == 0.0
        assert np.array_equal(c, -m.compile().objective)


class TestTelemetry:
    def test_one_event_per_highs_call_with_decision_fields(self):
        model = DELAY_MODELS[0]
        opt = model.solve(HighsBackend()).objective
        with recording() as recorder:
            far = HighsBackend().decide(model, opt + 0.5)
            HighsBackend().solve(model)
        events = [e for e in recorder.events if e["name"] == "highs.solve"]
        assert len(events) == 1 + far.solves
        decision_event = events[0]["f"]
        assert decision_event["threshold"] == opt + 0.5
        assert decision_event["outcome"] == "leq"
        solve_event = events[-1]["f"]
        assert "threshold" not in solve_event
        assert solve_event["nodes"] is not None
        assert solve_event["dual_bound"] == pytest.approx(opt, abs=1e-6)

    def test_verdicts_count_every_highs_call_as_one_solve(self):
        config = GenerationConfig(n=6, utilization=0.7, gamma=0.3)
        cache = AnalysisCache()
        with cache_scope(cache), recording() as recorder:
            for taskset in generate_tasksets(config, 4, 7):
                ProposedAnalysis().is_schedulable(taskset)
        highs = [e for e in recorder.events if e["name"] == "highs.solve"]
        assert len(highs) == cache.stats()["milp_solves"]
        assert any("threshold" in e["f"] for e in highs)


class TestPersistedDecisions:
    def test_warm_verdict_sweep_makes_no_highs_call(self, tmp_path):
        import dataclasses

        from repro.experiments.config import figure2_config
        from repro.experiments.report import aggregate_analysis_stats
        from repro.experiments.runner import run_experiment
        from repro.obs import read_trace

        full = figure2_config("fig2a", sets_per_point=2, seed=2020)
        config = dataclasses.replace(full, points=full.points[2:5:2])
        store = str(tmp_path / "store.sqlite")
        runs = {}
        for name in ("cold", "warm"):
            trace = tmp_path / f"{name}.jsonl"
            result = run_experiment(
                config, cache_path=store, trace_path=str(trace)
            )
            highs = [
                e for e in read_trace(str(trace)) if e["name"] == "highs.solve"
            ]
            runs[name] = (result, highs)
        cold, cold_highs = runs["cold"]
        warm, warm_highs = runs["warm"]
        assert [p.ratios for p in warm.points] == [
            p.ratios for p in cold.points
        ]
        # The cold run decided at least one threshold and stored it...
        assert any("threshold" in e["f"] for e in cold_highs)
        # ...so the warm run answers every verdict from the store.
        assert warm_highs == []
        stats = aggregate_analysis_stats(warm.points)
        assert stats["milp_solves"] == 0 and stats["lp_solves"] == 0
