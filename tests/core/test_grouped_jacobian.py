"""The column-grouped epigraph Jacobian of the SLSQP solve.

SciPy's dense 2-point differencing (``approx_derivative`` with
``abs_step=√eps`` and the variable bounds, what SLSQP does for a
constraint without a Jacobian) is the oracle: the grouped Jacobian must
equal it bit for bit — interior points, entries at their upper bound
(backward steps), and pinned entries (``lb == ub``: no step, NaN
columns) — at one evaluation per object row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize
from scipy.optimize._numdiff import approx_derivative

from repro.core.initial import initial_layout
from repro.core.pinning import PinningConstraints
from repro.core.solver import (
    EpigraphConstraint,
    _snap,
    slsqp_bounds,
    solve_slsqp,
)

from tests.conftest import make_problem, mixed_problem, random_layout

ABS_STEP = np.sqrt(np.finfo(np.float64).eps)


def _epigraph(problem, evaluator=None):
    upper, fixed_rows = problem.pinning.resolve(problem.object_names,
                                                problem.target_names)
    lower, upper_x = slsqp_bounds(upper, fixed_rows)
    evaluator = evaluator or problem.evaluator()
    shape = (problem.n_objects, problem.n_targets)
    return EpigraphConstraint(evaluator, shape, lower, upper_x)


def _dense(epigraph, x):
    evaluator, shape = epigraph.evaluator, epigraph.shape

    def fun(z):
        return z[-1] - evaluator.utilizations(z[:-1].reshape(shape))

    with np.errstate(invalid="ignore"):
        return approx_derivative(fun, x, method="2-point", abs_step=ABS_STEP,
                                 bounds=(epigraph.lower, epigraph.upper))


def _point(problem, seed, mode):
    """A feasible ``(L, t)`` point; ``mode`` places entries on bounds."""
    rng = np.random.default_rng(seed)
    n, m = problem.n_objects, problem.n_targets
    upper, fixed_rows = problem.pinning.resolve(problem.object_names,
                                                problem.target_names)
    layout = random_layout(rng, n, m) * upper
    empty = layout.sum(axis=1) == 0.0
    layout[empty] = upper[empty]
    layout /= layout.sum(axis=1, keepdims=True)
    if mode == "upper":
        for i in rng.choice(n, size=max(1, n // 2), replace=False):
            layout[i] = 0.0
            layout[i, rng.choice(np.flatnonzero(upper[i] > 0))] = 1.0
    for i, row in fixed_rows.items():
        layout[i] = row
    t = 0.0 if mode == "upper" else float(rng.uniform(0.0, 2.0))
    return np.concatenate([layout.ravel(), [t]])


def _pinning(n, m, seed):
    rng = np.random.default_rng(seed)
    names = ["o%d" % i for i in range(n)]
    fixed = {names[0]: np.eye(m)[rng.integers(0, m)].tolist()}
    allowed = {names[-1]: ["t%d" % j for j in range(m) if j % 2 == 0]} \
        if n > 1 else {}
    return PinningConstraints(allowed=allowed, fixed=fixed)


@pytest.mark.parametrize("mode", ["interior", "upper", "pinned"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       m=st.integers(1, 5))
def test_grouped_jacobian_equals_dense_scipy(mode, seed, n, m):
    pinning = _pinning(n, m, seed) if mode == "pinned" else None
    problem = mixed_problem(seed, n, m, pinning=pinning)
    epigraph = _epigraph(problem)
    x = _point(problem, seed, mode)

    grouped = epigraph.jac(x)
    dense = np.atleast_2d(_dense(epigraph, x))
    assert grouped.shape == dense.shape
    assert grouped.tobytes() == dense.tobytes()


def test_backward_steps_and_pinned_columns_are_exercised():
    problem = mixed_problem(7, 3, 4, pinning=_pinning(3, 4, 7))
    epigraph = _epigraph(problem)
    x = _point(problem, 7, "upper")
    jac = epigraph.jac(x)
    upper_hit = (x == epigraph.upper) & (epigraph.lower < epigraph.upper)
    assert upper_hit.any()
    assert np.isnan(jac[:, epigraph.lower == epigraph.upper]).all()
    assert jac.tobytes() == _dense(epigraph, x).tobytes()


def _counting(evaluator):
    calls = []
    original = evaluator.utilization_matrix

    def utilization_matrix(matrix):
        calls.append(1)
        return original(matrix)

    evaluator.utilization_matrix = utilization_matrix
    return calls


@pytest.mark.parametrize("n,m", [(1, 3), (4, 4), (6, 5)])
def test_jacobian_costs_n_utilization_matrix_calls(n, m):
    problem = mixed_problem(n * m, n, m)
    evaluator = problem.evaluator()
    epigraph = _epigraph(problem, evaluator)
    x = _point(problem, n, "interior")
    epigraph.fun(x)
    calls = _counting(evaluator)
    epigraph.jac(x)
    assert len(calls) == n


def test_rows_pinned_whole_cost_no_evaluation():
    problem = mixed_problem(5, 4, 3, pinning=_pinning(4, 3, 5))
    evaluator = problem.evaluator()
    epigraph = _epigraph(problem, evaluator)
    x = _point(problem, 5, "pinned")
    epigraph.fun(x)
    calls = _counting(evaluator)
    epigraph.jac(x)
    assert len(calls) == problem.n_objects - 1


@pytest.mark.parametrize("pinning", [
    None,
    PinningConstraints(allowed={"big": ["t0", "t1"]}),
    PinningConstraints(fixed={"small": [1.0, 0.0, 0.0, 0.0]}),
], ids=["free", "allowed", "fixed"])
def test_slsqp_trajectory_equals_dense_jacobian_solve(monkeypatch, pinning):
    problem = make_problem(pinning=pinning)
    start = initial_layout(problem)
    grouped_eval = problem.evaluator()
    grouped = solve_slsqp(problem, start, evaluator=grouped_eval)

    monkeypatch.setattr(EpigraphConstraint, "jac", _dense)
    dense_eval = problem.evaluator()
    dense = solve_slsqp(problem, start, evaluator=dense_eval)

    assert grouped.layout.matrix.tobytes() == dense.layout.matrix.tobytes()
    assert grouped.utilizations.tobytes() == dense.utilizations.tobytes()
    assert grouped.success == dense.success
    assert grouped_eval.evaluations < dense_eval.evaluations


def _scipy_differenced_solve(problem, start):
    """The SLSQP solve with the epigraph Jacobian left to SciPy, which
    then also drops the fixed variables (``lb == ub``) itself."""
    n, m = problem.n_objects, problem.n_targets
    evaluator = problem.evaluator()
    upper, fixed_rows = problem.pinning.resolve(problem.object_names,
                                                problem.target_names)
    lower, upper_x = slsqp_bounds(upper, fixed_rows)
    x0 = np.append(start.matrix.ravel(),
                   evaluator.objective(start.matrix) * 1.05 + 1e-6)
    layout = lambda x: x[:-1].reshape(n, m)  # noqa: E731
    integrity_jac = np.zeros((n, n * m + 1))
    capacity_jac = np.zeros((m, n * m + 1))
    for i in range(n):
        integrity_jac[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        capacity_jac[j, j:n * m:m] = -problem.sizes
    constraints = [
        {"type": "eq", "fun": lambda x: layout(x).sum(axis=1) - 1.0,
         "jac": lambda x: integrity_jac},
        {"type": "ineq",
         "fun": lambda x: problem.capacities - problem.sizes @ layout(x),
         "jac": lambda x: capacity_jac},
        {"type": "ineq",
         "fun": lambda x: x[-1] - evaluator.utilizations(layout(x))},
    ]
    objective_jac = np.zeros(n * m + 1)
    objective_jac[-1] = 1.0
    result = minimize(lambda x: x[-1], x0, jac=lambda x: objective_jac,
                      bounds=list(zip(lower, upper_x)),
                      constraints=constraints, method="SLSQP",
                      options={"maxiter": 150, "ftol": 1e-6})
    return _snap(layout(result.x), upper)


@pytest.mark.parametrize("pinning", [
    None,
    PinningConstraints(allowed={"big": ["t0", "t1"]}),
    PinningConstraints(allowed={"big": ["t1", "t2", "t3"],
                                "medium": ["t0", "t3"]}),
], ids=["free", "allowed", "allowed-two"])
def test_slsqp_matches_scipy_differenced_solve(pinning):
    problem = make_problem(pinning=pinning)
    start = initial_layout(problem)
    result = solve_slsqp(problem, start)
    expected = _scipy_differenced_solve(problem, start)
    assert result.success
    assert result.layout.matrix.tobytes() == expected.tobytes()
