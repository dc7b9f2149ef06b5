"""Single-pass expression sums equal the pairwise ``+`` fold they replace.

``LinExpr.total`` and the formulation's ``_lin`` accumulate one dict
instead of copying the accumulator at every ``+``. The results must be
the same expressions — same terms, same insertion order, bit-identical
coefficients and constant — so every delay MILP compiles to the same
arrays it did when built with the pairwise fold.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.proposed import formulation
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.milp.expr import LinExpr, Var

POOL = [Var(f"v{i}", 0.0, 10.0) for i in range(4)]

coefficients = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.integers(-5, 5),
    st.floats(-1e6, 1e6, allow_nan=False),
)
pool_vars = st.sampled_from(POOL)
expressions = st.builds(
    LinExpr,
    st.dictionaries(pool_vars, coefficients, max_size=4),
    st.floats(-1e3, 1e3, allow_nan=False),
)
items = st.lists(
    st.one_of(pool_vars, expressions, coefficients), max_size=12
)


def _pairwise_total(values):
    acc = LinExpr()
    for value in values:
        acc = acc + value
    return acc


def _pairwise_lin(pairs):
    expr = LinExpr()
    for var, coef in pairs:
        if var is not None and coef != 0.0:
            expr = expr + coef * var
    return expr


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_identical(ours: LinExpr, reference: LinExpr) -> None:
    assert list(ours.terms) == list(reference.terms)  # same insertion order
    for var, coef in reference.terms.items():
        assert _bits(ours.terms[var]) == _bits(coef), var.name
    assert _bits(ours.constant) == _bits(reference.constant)


@settings(max_examples=300, deadline=None)
@given(items)
def test_total_equals_the_pairwise_fold(values):
    _assert_identical(LinExpr.total(values), _pairwise_total(values))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.none(), pool_vars), coefficients),
        max_size=12,
    )
)
def test_lin_equals_the_pairwise_fold(pairs):
    _assert_identical(formulation._lin(pairs), _pairwise_lin(pairs))


def test_total_does_not_alias_its_inputs():
    x, y = POOL[:2]
    first = LinExpr({x: 1.0}, 2.0)
    total = LinExpr.total([first, y, 3])
    assert first.terms == {x: 1.0} and first.constant == 2.0
    assert total.terms == {x: 1.0, y: 1.0} and total.constant == 5.0
    assert total.terms is not first.terms


def _models():
    """Delay MILPs of one generated set, built in the NLS, LS-a and
    WASLY modes at the deadline window of the lowest-priority task."""
    config = GenerationConfig(n=5, utilization=0.6, gamma=0.3)
    (taskset,) = generate_tasksets(config, 1, 31)
    low = taskset[len(taskset) - 1]
    window = low.deadline - low.exec_time - low.copy_out
    marked = taskset.with_ls_marks([taskset[0].name, low.name])
    return [
        (taskset, low, window, AnalysisMode.NLS),
        (taskset, low, window, AnalysisMode.WASLY),
        (marked, marked.by_name(low.name), window, AnalysisMode.LS_CASE_A),
    ]


@pytest.mark.parametrize(
    "case", _models(), ids=lambda case: case[3].value
)
def test_compiled_model_equals_a_pairwise_sum_build(case, monkeypatch):
    taskset, task, window, mode = case
    fast = build_delay_milp(taskset, task, window, mode).model
    with monkeypatch.context() as patch:
        patch.setattr(LinExpr, "total", staticmethod(_pairwise_total))
        patch.setattr(formulation, "_lin", _pairwise_lin)
        slow = build_delay_milp(taskset, task, window, mode).model
    ours, reference = fast.compile(), slow.compile()
    assert [v.name for v in ours.variables] == [
        v.name for v in reference.variables
    ]
    assert [c.name for c in fast.constraints] == [
        c.name for c in slow.constraints
    ]
    for field in (
        "objective", "row_matrix", "row_lower", "row_upper",
        "var_lower", "var_upper", "integrality",
    ):
        a, b = getattr(ours, field), getattr(reference, field)
        assert a.shape == b.shape, field
        assert np.array_equal(a, b), field
        # Bit-identical, signed zeros included.
        assert a.tobytes() == b.tobytes(), field
    assert _bits(ours.objective_constant) == _bits(
        reference.objective_constant
    )
