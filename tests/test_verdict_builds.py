"""The verdict path builds only the delay models a verdict reaches.

The closed-form tier runs ahead for the whole task set; everything
after it runs inside one task's verdict. A task whose verdict reaches
the integer decision at its deadline window ``t_D`` builds that model
once: the LP screen relaxes it and the decision reuses the very same
compilation. A sweep that stops at its first unschedulable task builds
nothing for the tasks after it.
"""

import pytest

from repro.analysis.cache import AnalysisCache, cache_scope
from repro.analysis.proposed import response_time
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.milp.highs import HighsBackend
from repro.milp.relaxation import LpRelaxationBackend


@pytest.fixture
def spies(monkeypatch):
    """Record every delay-model build, LP screen and decision."""
    log = {"builds": [], "relaxed": [], "decided": []}
    build = response_time.build_delay_milp
    solve_compiled = LpRelaxationBackend.solve_compiled
    decide = HighsBackend.decide

    def spy_build(taskset, task, window, mode, hp_wcrt=None):
        built = build(taskset, task, window, mode, hp_wcrt=hp_wcrt)
        log["builds"].append((task.name, window, mode, built))
        return built

    def spy_solve_compiled(self, compiled):
        log["relaxed"].append(compiled)
        return solve_compiled(self, compiled)

    def spy_decide(self, model, threshold):
        log["decided"].append((model, model.compile()))
        return decide(self, model, threshold)

    monkeypatch.setattr(response_time, "build_delay_milp", spy_build)
    monkeypatch.setattr(
        LpRelaxationBackend, "solve_compiled", spy_solve_compiled
    )
    monkeypatch.setattr(HighsBackend, "decide", spy_decide)
    return log


def test_decided_verdict_builds_and_compiles_its_model_once(spies):
    # Both t0 and t1 of this set fail the closed form and the LP screen
    # at t_D and are proved by a "<=" decision there.
    config = GenerationConfig(n=4, utilization=0.2, gamma=0.3)
    taskset = list(generate_tasksets(config, 8, 5))[1]
    with cache_scope(AnalysisCache()):
        assert ProposedAnalysis().first_unschedulable(taskset) is None
    assert len(spies["decided"]) >= 2
    for model, compiled in spies["decided"]:
        ((name, window, mode),) = [
            (name, window, mode)
            for name, window, mode, built in spies["builds"]
            if built.model is model
        ]
        same_window = [
            b for b in spies["builds"] if b[:3] == (name, window, mode)
        ]
        assert len(same_window) == 1, f"{name} t_D model built twice"
        # The LP screen relaxed the compilation the decision then used.
        assert any(c is compiled for c in spies["relaxed"])


def test_first_unschedulable_task_stops_all_later_builds(spies):
    config = GenerationConfig(n=4, utilization=0.5, gamma=0.3)
    for taskset in generate_tasksets(config, 6, 7):
        spies["builds"].clear()
        with cache_scope(AnalysisCache()):
            first = ProposedAnalysis().first_unschedulable(taskset)
        assert first is taskset[0]
        built_for = {name for name, *_ in spies["builds"]}
        assert built_for == {first.name}
