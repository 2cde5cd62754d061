"""Property tests for the 2-D normal-fan Hausdorff kernel ``normal_fan``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import checkpoints, translate
from setmeans.cli import parse_scene
from setmeans.geometry import (
    GeometryError,
    hausdorff,
    hull,
    normal_fan,
    weighted_sum,
)
from setmeans.simulate import (
    ExperimentConfig,
    clt_hausdorff_experiment,
    lln_experiment,
)

# derandomized, so a tier-1 run is reproducible; no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COORD = st.integers(-8, 8).map(lambda k: k / 4.0)
POINT = st.tuples(COORD, COORD)


@st.composite
def atoms(draw):
    """Point sets on a quarter grid: a point, a segment, collinear points or a polygon."""
    kind = draw(st.sampled_from(["point", "segment", "collinear", "polygon"]))
    if kind == "point":
        return np.array([draw(POINT)])
    if kind == "segment":
        return np.array(draw(st.lists(POINT, min_size=2, max_size=2)))
    if kind == "collinear":
        a, b = np.array(draw(POINT)), np.array(draw(POINT))
        steps = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=5))
        return a + np.array(steps, dtype=float)[:, None] * b
    return np.array(draw(st.lists(POINT, min_size=3, max_size=7)))


def coefficients(count):
    coef = st.one_of(st.just(0.0), st.floats(0.001, 3.0, allow_nan=False, allow_infinity=False))
    return st.lists(coef, min_size=count, max_size=count).map(np.array)


@st.composite
def combinations(draw, count=2):
    """A family of 1..4 atoms and ``count`` coefficient vectors for it."""
    family = draw(st.lists(atoms(), min_size=1, max_size=4))
    return family, [draw(coefficients(len(family))) for _ in range(count)]


def size(bodies, *coefs):
    return max(float(sum(c * body.max_norm for body, c in zip(bodies, v))) for v in coefs)


@PROPERTY
@given(combinations(), st.integers(-6, 6))
def test_fan_matches_wolfe_at_every_scale(combination, k):
    # Wolfe's gap tolerance is absolute below unit scale, so the exact
    # reference is taken at unit scale and scaled: H(sA, sB) = s H(A, B).
    family, (coefs, ref) = combination
    s = 10.0 ** k
    unit = [hull(P) for P in family]
    fan = normal_fan([hull(s * P) for P in family])
    exact = s * hausdorff(weighted_sum(unit, coefs), weighted_sum(unit, ref))
    assert abs(fan.hausdorff(coefs, ref) - exact) <= 1e-12 * (1.0 + s * size(unit, coefs, ref))


@PROPERTY
@given(combinations(count=3), POINT)
def test_fan_distance_is_a_translation_invariant_metric(combination, t):
    family, (a, b, c) = combination
    bodies = [hull(P) for P in family]
    fan = normal_fan(bodies)
    tol = 1e-12 * (1.0 + size(bodies, a, b, c))
    assert fan.hausdorff(a, a) == 0.0
    assert abs(fan.hausdorff(a, b) - fan.hausdorff(b, a)) <= tol
    assert fan.hausdorff(a, c) <= fan.hausdorff(a, b) + fan.hausdorff(b, c) + tol
    # translating every atom by t moves combinations of equal total weight alike
    a, b = a + 1.0, b + 1.0
    a, b = a / a.sum(), b / b.sum()
    moved = normal_fan([translate(body, t) for body in bodies])
    assert abs(moved.hausdorff(a, b) - fan.hausdorff(a, b)) <= tol + 1e-12 * np.hypot(*t)


def test_points_only_is_one_cell_with_the_distance_of_the_means():
    fan = normal_fan([hull([[0.0, 0.0]]), hull([[3.0, 4.0]])])
    assert fan.directions.shape == (1, 2) and fan.vertices.shape == (1, 2, 2)
    assert fan.hausdorff([1.0, 0.0], [0.0, 1.0]) == pytest.approx(5.0, rel=1e-15)
    assert fan.hausdorff([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_segment_adds_two_antipodal_normals():
    fan = normal_fan([hull([[0.0, 0.0], [2.0, 0.0]]), hull([[1.0, 1.0]])])
    assert len(fan.directions) == 2
    assert np.allclose(fan.directions[0], -fan.directions[1], atol=1e-15)


def test_fan_rejects_other_dimensions_and_bad_coefficients():
    with pytest.raises(GeometryError, match="2-D"):
        normal_fan([hull([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])])
    with pytest.raises(GeometryError):
        normal_fan([])
    fan = normal_fan([hull([[0.0, 0.0], [1.0, 0.0]])])
    with pytest.raises(GeometryError, match="one coefficient per body"):
        fan.hausdorff([1.0, 0.0], [1.0, 0.0])
    with pytest.raises(GeometryError, match="negative"):
        fan.hausdorff([-1.0], [1.0])


# a 2-D law with a point atom and a segment atom next to two polygons
MIXED_LAW = json.dumps({
    "version": 1,
    "dim": 2,
    "atoms": [
        {"weight": 0.2, "vertices": [[0.3, -0.1]]},
        {"weight": 0.3, "vertices": [[-0.5, 0.0], [0.5, 0.25]]},
        {"weight": 0.25, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        {"weight": 0.25, "vertices": [[0.2, 0.2], [0.6, 0.1], [0.7, 0.5], [0.1, 0.6]]},
    ],
})


@pytest.mark.parametrize("experiment, scaled", [(lln_experiment, False),
                                                (clt_hausdorff_experiment, True)])
def test_experiments_match_the_body_path_record_for_record(experiment, scaled):
    y = parse_scene(MIXED_LAW)
    config = ExperimentConfig(master_seed=3, sample_sizes=(4, 16, 64), replications=20)
    records = experiment(y, config).records
    ey = weighted_sum(y.bodies, y.weights)
    expected = [(rep, n, hausdorff(weighted_sum(y.bodies, counts / n), ey))
                for rep, n, counts in checkpoints(y, config)]
    assert [r[:2] for r in records] == [e[:2] for e in expected]
    for (_, n, (stat,)), (_, _, dist) in zip(records, expected):
        value = stat / np.sqrt(n) if scaled else stat
        assert abs(value - dist) <= 1e-12 * (1.0 + y.envelope)
