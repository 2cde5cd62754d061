"""Property tests for the 2-D normal-fan Hausdorff kernel ``normal_fan``.

The fan is checked against Wolfe's min-norm solver
(``oracles.wolfe_hausdorff``): ``geometry.hausdorff`` is closed form in
2-D, so Wolfe keeps the fan's reference independent of both."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LAW_3D, checkpoints, translate, wolfe_hausdorff
from setmeans.cli import parse_scene
from setmeans.geometry import (
    ConvexBody,
    GeometryError,
    _fold,
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
    exact = s * wolfe_hausdorff(weighted_sum(unit, coefs), weighted_sum(unit, ref))
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


def argmax_vertices(fan, bodies):
    """Per fan cell, each body's vertex of largest value in the direction
    of the middle of the cell's arc, ties to the first in canonical order."""
    angles = np.arctan2(fan.directions[:, 1], fan.directions[:, 0])
    mids = angles + np.diff(angles, append=angles[0] + 2.0 * np.pi) / 2.0
    mid_dirs = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    return np.stack([body.vertices[np.argmax(mid_dirs @ body.vertices.T, axis=1)]
                     for body in bodies], axis=1)


def test_fan_vertices_are_the_argmax_at_the_middle_of_each_cell():
    rng = np.random.default_rng(5)
    laws = [parse_scene(MIXED_LAW).bodies]
    for _ in range(60):
        s, shift = 10.0 ** rng.uniform(-3, 3), rng.choice([0.0, 1e3, 1e6]) * rng.normal(size=2)
        laws.append([hull(shift + s * rng.normal(size=(int(rng.integers(1, 12)), 2)))
                     for _ in range(int(rng.integers(1, 9)))])
    laws.append([hull(np.array(P, dtype=float)) for P in
                 ([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (2, 0)], [(1, 1)], [(0, 0), (1, 1)])])
    for bodies in laws:
        fan = normal_fan(bodies)
        assert fan.vertices.tobytes() == argmax_vertices(fan, bodies).tobytes()
    # a raw body with a vertex that is not extreme walks its hull's ring, byte for byte
    bent = ConvexBody(np.array([[-1.03, -1.37], [-1.01, 0.49], [-0.8, 0.12], [-0.01, -0.35],
                                [0.08, 1.34]]))
    assert [x.tobytes() for x in bent._walk] == [x.tobytes() for x in hull(bent.vertices)._walk]
    assert normal_fan([bent]).vertices.tobytes() == normal_fan([hull(bent.vertices)]).vertices.tobytes()


def broadcast_arc_sup(fan, D, signed):
    """``NormalFan._arc_sup`` with each dot product taken by ``np.sum``
    over the broadcast coordinate axis: the reference for its rounding."""
    angles = np.arctan2(fan.directions[:, 1], fan.directions[:, 0])
    spans = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    starts = (D * fan.directions).sum(axis=-1)
    ends = (D * np.roll(fan.directions, -1, axis=0)).sum(axis=-1)
    if not signed:
        starts, ends = np.abs(starts), np.abs(ends)
    inside = (np.arctan2(D[..., 1], D[..., 0]) - angles) % (2.0 * np.pi if signed else np.pi) <= spans
    out = np.where(inside, np.hypot(D[..., 0], D[..., 1]), np.maximum(starts, ends))
    return np.maximum(out.max(axis=-1), 0.0)


def test_the_kernel_rounds_as_the_broadcast_fold_and_sum():
    """The fold over flattened rows and the dot products split by
    coordinate give the bytes, signed zeros included, of the fold
    broadcast over ``(..., 1, 1)`` and of ``np.sum``."""
    rng = np.random.default_rng(8)
    # a point, a segment and polygons, all in the negative quadrant: a zero
    # coefficient difference folds to -0.0
    bodies = [hull(rng.normal(size=(k, 2)) - 5.0) for k in (1, 2, 6, 9)]
    fan, J = normal_fan(bodies), len(bodies)
    by_body = fan.vertices.swapaxes(0, 1)
    ref = np.full(J, 1.0 / J)
    coefs = rng.multinomial(16, ref, size=(6, 4)) / 16.0
    coefs[0, 0] = ref
    for c in (coefs, coefs - ref, ref):
        want = c[..., 0, None, None] * by_body[0]
        for j in range(1, J):
            want = want + c[..., j, None, None] * by_body[j]
        assert _fold(c, by_body).tobytes() == want.tobytes()
    D = _fold(coefs - ref, by_body)
    assert np.signbit(D[0, 0]).any() and not D[0, 0].any()
    assert fan.hausdorff(coefs, ref).tobytes() == broadcast_arc_sup(fan, D, False).tobytes()
    x = fan.support_points(ref)[0]   # a vertex of the mean: zero in a cell at coefs[0, 0]
    D = x - _fold(coefs, by_body)
    assert fan.point_distance(coefs, x).tobytes() == broadcast_arc_sup(fan, D, True).tobytes()


def test_fan_of_a_4000_gon_takes_memory_linear_in_its_cells():
    t = 2.0 * np.pi * np.arange(4000) / 4000
    bodies = [hull(np.stack([np.cos(t), np.sin(t)], axis=1)), hull([(0, 0), (1, 2), (3, 1)])]
    normal_fan(bodies[1:])   # numpy's first-call set-up is not the fan's
    tracemalloc.start()
    try:
        fan = normal_fan(bodies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fan.vertices.shape == (4003, 2, 2)
    assert peak < 2 * 2 ** 20   # an (m, n) matrix of directions and vertices: 122 MiB


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


# off 2-D there is no fan: every checkpoint takes the body path
@pytest.mark.parametrize("experiment, scaled, law, sizes", [
    pytest.param(lln_experiment, False, MIXED_LAW, (4, 16, 64), id="lln_experiment-False"),
    pytest.param(clt_hausdorff_experiment, True, MIXED_LAW, (4, 16, 64),
                 id="clt_hausdorff_experiment-True"),
    pytest.param(lln_experiment, False, LAW_3D, (4, 16), id="lln_experiment-False-3d"),
    pytest.param(clt_hausdorff_experiment, True, LAW_3D, (4, 16),
                 id="clt_hausdorff_experiment-True-3d"),
])
def test_experiments_match_the_body_path_record_for_record(experiment, scaled, law, sizes):
    y = parse_scene(law)
    config = ExperimentConfig(master_seed=3, sample_sizes=sizes, replications=20)
    records = experiment(y, config).records
    ey = weighted_sum(y.bodies, y.weights)
    expected = [(rep, n, wolfe_hausdorff(weighted_sum(y.bodies, counts / n), ey))
                for rep, n, counts in checkpoints(y, config)]
    assert records.shape == (20, len(sizes), 1)
    for rep, n, dist in expected:
        stat = records[rep, config.sample_sizes.index(n), 0]
        value = stat / np.sqrt(n) if scaled else stat
        assert abs(value - dist) <= 1e-12 * (1.0 + y.envelope)
