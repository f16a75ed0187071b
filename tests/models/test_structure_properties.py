"""Structural invariants of the utilization estimator (Fig. 7, Eq. 1–2).

µ_j depends on column j of the layout alone — the contention numerator
of χ_ij sums other objects' shares *on target j*, and the run count and
per-target rate read L_ij only — so perturbing column k must leave every
other column of µ bit-identical.  The grouped SLSQP Jacobian relies on
exactly this.  Relabelling objects or targets must permute µ the same
way (up to summation-order rounding).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.problem import LayoutProblem
from repro.core.robust import RobustProblem
from repro.models.target_model import estimate_utilization_matrix

from tests.conftest import MODEL_KINDS, mixed_problem, random_layout

KINDS = [(kind,) for kind in MODEL_KINDS] + [MODEL_KINDS]

shapes = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 5),
                   st.integers(2, 6))


def _mu(problem, layout):
    return estimate_utilization_matrix(
        problem.workloads, layout, problem.models,
        stripe_size=problem.stripe_size,
    )


def _perturb_column(rng, layout, k):
    perturbed = layout.copy()
    column = rng.random(layout.shape[0])
    column[rng.random(layout.shape[0]) < 0.3] = 0.0
    perturbed[:, k] = column
    return perturbed


def _others(mu, k):
    return np.delete(mu, k, axis=-1).tobytes()


@pytest.mark.parametrize("kinds", KINDS, ids="+".join)
@settings(max_examples=25, deadline=None)
@given(shape=shapes, data=st.data())
def test_column_separability(kinds, shape, data):
    seed, n, m = shape
    problem = mixed_problem(seed, n, m, kinds=kinds)
    rng = np.random.default_rng(seed)
    layout = random_layout(rng, n, m)
    k = data.draw(st.integers(0, m - 1))
    perturbed = _perturb_column(rng, layout, k)

    assert _others(_mu(problem, perturbed), k) \
        == _others(_mu(problem, layout), k)
    evaluator = problem.evaluator()
    assert _others(evaluator.utilizations(perturbed), k) \
        == _others(evaluator.utilizations(layout), k)


@settings(max_examples=25, deadline=None)
@given(shape=shapes, data=st.data())
def test_column_separability_through_robust_evaluator(shape, data):
    seed, n, m = shape
    base = mixed_problem(seed, n, m)
    problem = RobustProblem(
        dict(zip(base.object_names, base.sizes)), base.targets,
        [base.workloads, [w.scaled(1.7) for w in base.workloads]],
    )
    rng = np.random.default_rng(seed)
    layout = random_layout(rng, n, m)
    k = data.draw(st.integers(0, m - 1))
    perturbed = _perturb_column(rng, layout, k)
    evaluator = problem.evaluator()

    assert _others(evaluator.utilizations(perturbed), k) \
        == _others(evaluator.utilizations(layout), k)
    assert _others(evaluator.utilization_matrix(perturbed), k) \
        == _others(evaluator.utilization_matrix(layout), k)


@settings(max_examples=25, deadline=None)
@given(shape=shapes, data=st.data())
def test_object_permutation_equivariance(shape, data):
    seed, n, m = shape
    problem = mixed_problem(seed, n, m)
    layout = random_layout(np.random.default_rng(seed), n, m)
    perm = data.draw(st.permutations(range(n)))
    relabelled = LayoutProblem(
        {problem.object_names[i]: problem.sizes[i] for i in perm},
        problem.targets, problem.workloads,
    )

    np.testing.assert_allclose(
        _mu(relabelled, layout[perm]), _mu(problem, layout)[perm],
        rtol=1e-12, atol=0.0,
    )


@settings(max_examples=25, deadline=None)
@given(shape=shapes, data=st.data())
def test_target_permutation_equivariance(shape, data):
    seed, n, m = shape
    problem = mixed_problem(seed, n, m)
    layout = random_layout(np.random.default_rng(seed), n, m)
    perm = data.draw(st.permutations(range(m)))
    models = [problem.models[j] for j in perm]

    permuted = estimate_utilization_matrix(
        problem.workloads, layout[:, perm], models,
        stripe_size=problem.stripe_size,
    )
    np.testing.assert_allclose(permuted, _mu(problem, layout)[:, perm],
                               rtol=1e-12, atol=0.0)
