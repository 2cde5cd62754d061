"""Property tests for the weighted Minkowski sum ``weighted_sum``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MeanProcessState, mean_process_extend, mean_process_mean
from setmeans.geometry import (
    GeometryError,
    hausdorff,
    hull,
    scale,
    sphere_grid,
    support,
    weighted_sum,
)

# derandomized, so a tier-1 run is reproducible; no example database on disk
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def families(draw, max_atoms=4):
    """Bodies of one dimension: hulls of 1..6 points on a quarter grid."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-8, 8).map(lambda k: k / 4.0)
    point = st.lists(coord, min_size=dim, max_size=dim)
    atoms = draw(st.integers(1, max_atoms))
    return [hull(draw(st.lists(point, min_size=1, max_size=6))) for _ in range(atoms)]


def coefficients(count):
    coef = st.one_of(st.just(0.0), st.floats(0.001, 3.0, allow_nan=False, allow_infinity=False))
    return st.lists(coef, min_size=count, max_size=count)


def envelope(bodies, coefs):
    return float(sum(c * body.max_norm for body, c in zip(bodies, coefs)))


@PROPERTY
@given(st.data())
def test_support_is_additive(data):
    bodies = data.draw(families())
    coefs = data.draw(coefficients(len(bodies)))
    combo = weighted_sum(bodies, coefs)
    tol = 1e-9 * (1.0 + envelope(bodies, coefs))
    for u in sphere_grid(bodies[0].dim, 24):
        expected = sum(c * support(body, u) for body, c in zip(bodies, coefs))
        assert abs(support(combo, u) - expected) <= tol


@PROPERTY
@given(st.data())
def test_order_of_the_summands_does_not_matter(data):
    bodies = data.draw(families())
    coefs = data.draw(coefficients(len(bodies)))
    order = data.draw(st.permutations(range(len(bodies))))
    shuffled = weighted_sum([bodies[j] for j in order], [coefs[j] for j in order])
    distance = hausdorff(weighted_sum(bodies, coefs), shuffled)
    assert distance <= 1e-9 * (1.0 + envelope(bodies, coefs))


@PROPERTY
@given(st.data())
def test_integer_counts_match_the_draw_by_draw_mean(data):
    bodies = data.draw(families(max_atoms=3))
    counts = data.draw(st.lists(st.integers(0, 3), min_size=len(bodies), max_size=len(bodies))
                       .filter(lambda c: sum(c) > 0))
    draws = data.draw(st.permutations([j for j, c in enumerate(counts) for _ in range(c)]))
    state = MeanProcessState()
    for j in draws:
        state = mean_process_extend(state, bodies[j])
    n = sum(counts)
    mean = weighted_sum(bodies, np.array(counts) / n)
    distance = hausdorff(mean, mean_process_mean(state))
    assert distance <= 1e-9 * (1.0 + max(body.max_norm for body in bodies))


def test_all_zero_coefficients_give_the_origin():
    combo = weighted_sum([hull([(1, 2), (3, 4)])], [0.0])
    assert combo.vertices.tolist() == [[0.0, 0.0]]


def test_a_lone_term_below_one_is_scaled_exactly():
    a = hull([(0, 0), (1, 0)])
    b = hull([(0, 0), (1, 0), (1, 1e-3)])
    combo = weighted_sum([a, b], [0.0, 1e-7])
    assert np.array_equal(combo.vertices, scale(b, 1e-7).vertices)
    # the merge tolerance scales with the body: (1e-7, 0) and (1e-7, 1e-10) stay apart
    assert np.array_equal(combo.vertices, 1e-7 * b.vertices)


def test_negative_coefficients_are_rejected():
    with pytest.raises(GeometryError):
        weighted_sum([hull([(0, 0), (1, 0)]), hull([(0, 0), (0, 1)])], [0.5, -0.5])


def test_one_coefficient_per_body_is_required():
    with pytest.raises(GeometryError):
        weighted_sum([hull([(0, 0), (1, 0)])], [0.5, 0.5])
    with pytest.raises(GeometryError):
        weighted_sum([], [])
