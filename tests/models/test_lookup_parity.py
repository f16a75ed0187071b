"""Bit-for-bit parity of the table lookup and the batched estimator.

``trilinear_oracle`` is the table lookup as first written: three
clamped brackets and an 8-corner trilinear blend by fancy indexing.  The
production lookup collapses a one-point size axis to a 4-corner
bilinear blend and indexes a flat cost array; both must return the same
bits for every query, clamped or not, in every shape the evaluator uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.target_model import (
    batch_model_groups,
    estimate_utilization_matrix,
    workload_arrays,
)
from repro.workload.contention import contention_factors
from repro.workload.layout_model import per_target_run_counts

from tests.conftest import mixed_problem, random_layout, random_table


def _oracle_bracket(coords, queries):
    idx = np.searchsorted(coords, queries, side="right") - 1
    idx = np.clip(idx, 0, max(0, len(coords) - 2))
    if len(coords) == 1:
        return idx, np.zeros_like(queries, dtype=float)
    lo = coords[idx]
    hi = coords[idx + 1]
    weight = np.clip((queries - lo) / np.maximum(hi - lo, 1e-12), 0.0, 1.0)
    return idx, weight


def trilinear_oracle(model, sizes, run_counts, chis):
    size_q = np.log(np.maximum(np.asarray(sizes, dtype=float), 1.0))
    run_q = np.log(np.maximum(np.asarray(run_counts, dtype=float), 1.0))
    chi_q = np.log1p(np.maximum(np.asarray(chis, dtype=float), 0.0))
    size_q, run_q, chi_q = np.broadcast_arrays(size_q, run_q, chi_q)

    si, sw = _oracle_bracket(np.log(model.sizes), size_q)
    qi, qw = _oracle_bracket(np.log(model.run_counts), run_q)
    ci, cw = _oracle_bracket(np.log1p(model.contentions), chi_q)

    s_hi = np.minimum(si + 1, len(model.sizes) - 1)
    q_hi = np.minimum(qi + 1, len(model.run_counts) - 1)
    c_hi = np.minimum(ci + 1, len(model.contentions) - 1)
    costs = model.costs

    c00 = costs[si, qi, ci] * (1 - cw) + costs[si, qi, c_hi] * cw
    c01 = costs[si, q_hi, ci] * (1 - cw) + costs[si, q_hi, c_hi] * cw
    c10 = costs[s_hi, qi, ci] * (1 - cw) + costs[s_hi, qi, c_hi] * cw
    c11 = costs[s_hi, q_hi, ci] * (1 - cw) + costs[s_hi, q_hi, c_hi] * cw
    c0 = c00 * (1 - qw) + c01 * qw
    c1 = c10 * (1 - qw) + c11 * qw
    return c0 * (1 - sw) + c1 * sw


def _same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _queries(rng, model, shape):
    """Queries spanning the grid and beyond it on every axis."""
    def spread(axis, low_factor, high_factor, size):
        return rng.uniform(axis[0] * low_factor - 1.0,
                           axis[-1] * high_factor + 1.0, size)

    return (spread(model.sizes, 0.5, 2.0, shape[0]),
            spread(model.run_counts, 0.5, 2.0, shape[1]),
            spread(model.contentions, 0.0, 2.0, shape[1]) - 0.5)


# Sizes vs (run count, χ) shapes: the estimator's (N, 1) x (N, K), the
# incremental probe's (P, 1, 1) x (P, K, C), per-candidate (P, K, 1) x
# (P, K, C), elementwise, and a sizes array wider than the other two.
SHAPES = [((6, 1), (6, 4)), ((3, 1, 1), (3, 5, 4)), ((3, 5, 1), (3, 5, 4)),
          ((7,), (7,)), ((4, 3), (3,))]


@pytest.mark.parametrize("size_shape,query_shape", SHAPES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       axes=st.tuples(*[st.integers(1, 4)] * 3))
def test_lookup_matches_trilinear_oracle(size_shape, query_shape, seed,
                                         axes):
    rng = np.random.default_rng(seed)
    model = random_table(rng, axes)
    sizes, runs, chis = _queries(rng, model, (size_shape, query_shape))
    _same_bits(model.lookup(sizes, runs, chis),
               trilinear_oracle(model, sizes, runs, chis))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       axes=st.tuples(*[st.integers(1, 4)] * 3))
def test_scalar_and_on_grid_lookups_match_oracle(seed, axes):
    rng = np.random.default_rng(seed)
    model = random_table(rng, axes)
    for size in model.sizes:
        for run in model.run_counts:
            for chi in model.contentions:
                _same_bits(model.lookup(size, run, chi),
                           trilinear_oracle(model, size, run, chi))
    sizes, runs, chis = _queries(rng, model, ((), ()))
    _same_bits(model.lookup(sizes, runs, chis),
               trilinear_oracle(model, sizes, runs, chis))


def test_clamped_queries_match_oracle():
    model = random_table(np.random.default_rng(3), (1, 3, 3))
    sizes = np.array([0.0, 1.0, 1e12])
    runs = np.array([0.0, 1e9, model.run_counts[1]])
    chis = np.array([-1.0, 1e9, model.contentions[-1]])
    _same_bits(model.lookup(sizes, runs, chis),
               trilinear_oracle(model, sizes, runs, chis))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       m=st.integers(1, 8))
def test_grouped_estimate_matches_per_target_loop(seed, n, m):
    problem = mixed_problem(seed, n, m)
    layout = random_layout(np.random.default_rng(seed), n, m)
    groups = batch_model_groups(problem.models)
    if m >= 5:
        # Tables rebuilt per target still batch by content.
        assert len(groups) < m

    a = workload_arrays(problem.workloads)
    run_counts = per_target_run_counts(a["run_count"], a["mean_size"],
                                       layout, problem.stripe_size)
    chi = contention_factors(a["total_rate"], a["overlap"], layout)
    expected = np.empty((n, m))
    for j, model in enumerate(problem.models):
        cols = [j]
        read = model.read_model.lookup(a["read_size"][:, None],
                                       run_counts[:, cols], chi[:, cols])
        write = model.write_model.lookup(a["write_size"][:, None],
                                         run_counts[:, cols], chi[:, cols])
        expected[:, cols] = (a["read_rate"][:, None] * layout[:, cols] * read
                             + a["write_rate"][:, None] * layout[:, cols]
                             * write)

    for kwargs in ({}, {"groups": groups}, {"arrays": a, "groups": groups}):
        _same_bits(estimate_utilization_matrix(
            problem.workloads, layout, problem.models,
            stripe_size=problem.stripe_size, **kwargs), expected)
    _same_bits(problem.evaluator().utilization_matrix(layout), expected)


def test_table_batch_key_is_content():
    table = random_table(np.random.default_rng(0), (2, 3, 2))
    twin = type(table).from_dict(table.to_dict())
    assert table.batch_key() == twin.batch_key()
    assert hash(table.batch_key()) == hash(twin.batch_key())
    # Changing any one of the grid axes or the costs changes the key.
    for field in ("sizes", "run_counts", "contentions", "costs"):
        data = table.to_dict()
        data[field] = (np.asarray(data[field]) * 1.5).tolist()
        assert type(table).from_dict(data).batch_key() != table.batch_key()
