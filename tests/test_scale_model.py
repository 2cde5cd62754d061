"""One scale model: answers do not depend on the units or the position of a scene.

Every tolerance is ``tolerance(rel, box) = rel * extent + ROUNDOFF *
magnitude`` of the points a decision is about, so the public queries are
equivariant under scaling by 10^k and under translation by many body
diameters.  The face of a Minkowski combination is the same combination
of the atom faces (the face rule); ``oracles.exact_support_face`` decides
it in exact arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_support_face
from setmeans.geometry import (
    REL_TOL,
    ROUNDOFF,
    ConvexBody,
    box_of,
    hausdorff,
    hull,
    is_facet_at,
    nearest_point,
    normal_fan,
    point_distance,
    sphere_grid,
    support_face,
    tolerance,
    weighted_sum,
)
from setmeans.randomsets import check_face_commutation

# derandomized, so a tier-1 run is reproducible; no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# pinned defects of a tolerance that grows with the distance from the origin

def test_tolerance_is_relative_to_the_extent_plus_round_off():
    box = ConvexBody(np.array([[1e6, 1e6], [1e6 + 3e-3, 1e6 + 4e-3]])).box
    assert box == pytest.approx((5e-3, 1e6 + 4e-3))
    assert tolerance(1e-9, box) == pytest.approx(5e-12 + ROUNDOFF * (1e6 + 4e-3))
    assert ROUNDOFF < 1e-14


def test_far_small_square_keeps_its_vertices():
    square = 1e-3 * np.array([[0, 0], [1, 0], [0, 1], [1, 1]]) + 1e6
    assert hull(square).vertex_count == 4


def test_support_face_far_from_the_origin_drops_a_vertex_below_the_top():
    # the runner-up vertex lies 1e-7 below the maximum in direction (1, 1e-4)
    square = hull(1e-3 * np.array([[0, 0], [1, 0], [0, 1], [1, 1]]) + 1e3)
    cert = support_face(square, (1.0, 1e-4))
    assert cert.face.vertex_count == 1


def test_is_facet_at_measures_a_sliver_face_inside_its_hyperplane():
    # the bottom edges differ by 1e-12 in slope: the face of their sum has
    # three vertices, and inside the line y = 0 it is one segment
    a = hull([[0, 0], [1, 0], [1, 1], [0, 1]])
    b = hull([[0, 0], [1, 1e-12], [1, 1], [0, 1]])
    mean = weighted_sum([a, b], [0.5, 0.5])
    assert support_face(mean, (0, -1)).face.vertex_count == 3
    assert is_facet_at(mean, (0.5, 0.0), (0, -1))
    assert not is_facet_at(mean, (1e-7, 0.0), (0, -1))   # within the margin of an end


# ---------------------------------------------------------------------------
# equivariance under scaling and translation

@st.composite
def polygons(draw):
    """A 2-D body: points on the unit circle at distinct slots of 15 degrees
    (every one extreme, none close to another) and interior points."""
    slots = draw(st.lists(st.integers(0, 23), min_size=3, max_size=8, unique=True))
    shift = draw(st.floats(0.0, 0.2))
    angles = 2.0 * np.pi * np.array(sorted(slots)) / 24.0 + shift
    rim = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mix = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=len(rim),
                                          max_size=len(rim)).filter(lambda m: sum(m) > 0.1),
                                 max_size=4))).reshape(-1, len(rim))
    centroid = rim.mean(axis=0)
    inner = centroid + 0.5 * (mix / mix.sum(axis=1, keepdims=True) @ rim - centroid)
    return rim, inner


@st.composite
def transforms(draw):
    """``p -> s * p + t``: s = 10^k, |t| up to 10^6 scaled body diameters."""
    s = 10.0 ** draw(st.integers(-12, 12))
    theta = draw(st.floats(0.0, 2.0 * np.pi))
    reach = 2.0 * s * 10.0 ** draw(st.floats(0.0, 6.0))
    return s, reach * np.array([np.cos(theta), np.sin(theta)])


def matched(got: np.ndarray, want: np.ndarray, atol: float) -> bool:
    """Same number of rows, each row of ``want`` within ``atol`` of a row of ``got``."""
    if got.shape != want.shape:
        return False
    return all(np.abs(got - w).max(axis=1).min() <= atol for w in want)


@PROPERTY
@given(polygons(), polygons(), transforms(), st.floats(0.0, 2.0 * np.pi),
       st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_queries_are_equivariant_under_scaling_and_translation(pa, pb, transform, angle, x):
    s, t = transform
    atol = 1e-9 * s + 1e-12 * float(np.linalg.norm(t))   # scale and translation round-off

    def move(P):
        return s * P + t

    a, b = hull(np.vstack(pa)), hull(np.vstack(pb) + 0.5)
    ma, mb = hull(move(np.vstack(pa))), hull(move(np.vstack(pb) + 0.5))
    assert matched(ma.vertices, move(a.vertices), atol)
    x = np.array(x)

    edges = np.roll(pa[0], -1, axis=0) - pa[0]      # the rim is in counterclockwise order
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    for u in [np.array([np.cos(angle), np.sin(angle)]), *normals]:
        cert, moved = support_face(a, u), support_face(ma, u)
        assert matched(moved.face.vertices, move(cert.face.vertices), atol)
        assert abs(moved.support_value - (s * cert.support_value + moved.direction @ t)) <= atol

    assert matched(nearest_point(ma, move(x))[None], move(nearest_point(a, x))[None], atol)
    assert abs(point_distance(ma, move(x)) - s * point_distance(a, x)) <= atol
    assert abs(hausdorff(ma, mb) - s * hausdorff(a, b)) <= atol

    v0, v1, v2, n = pa[0][0], pa[0][1], pa[0][2], normals[0]
    for k, facet in [(0.7 * v0 + 0.3 * v1, True), (v0, False), (0.5 * v1 + 0.5 * v2, False)]:
        assert is_facet_at(a, k, n) is facet
        assert is_facet_at(ma, move(k), n) is facet

    # coefficients summing to 1 move a combination by t
    coefs, ref = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    fan, moved_fan = normal_fan([a, b]), normal_fan([ma, mb])
    assert abs(moved_fan.hausdorff(coefs, ref) - s * fan.hausdorff(coefs, ref)) <= atol
    assert abs(moved_fan.point_distance(coefs, move(x))
               - s * fan.point_distance(coefs, x)) <= atol


# ---------------------------------------------------------------------------
# the face rule against exact arithmetic

DELTA = 2.0 ** -24   # quarter-grid points moved by DELTA stay exact floats
GRID_DIRECTIONS = [(0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (1, -1), (-1, -1), (1, 2), (2, -1)]


@st.composite
def near_tie_atoms(draw):
    """2-D atoms of 1..3 quarter-grid points, each with a twin moved by DELTA
    along a small integer vector: their gaps in a grid direction are 0 or
    at least DELTA / sqrt(5), far above an atom's face tolerance, and a
    mean that draws the atom rarely shrinks them below its own."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        points = []
        for _ in range(draw(st.integers(1, 3))):
            q = np.array(draw(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))) / 4.0
            nudge = np.array(draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1))))
            points += [q, q + DELTA * nudge]
        atoms.append(hull(np.array(points)))
    return atoms


@PROPERTY
@given(near_tie_atoms(), st.sampled_from(GRID_DIRECTIONS), st.data())
def test_face_rule_equals_the_exact_face(atoms, u, data):
    f = np.array(u) / np.linalg.norm(u)
    n = data.draw(st.sampled_from([1, 4, 16, 64, 256]))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=len(atoms) - 1,
                                     max_size=len(atoms) - 1)))
    counts = np.diff([0, *cuts, n]).tolist()
    coefs = np.array(counts) / n
    atom_faces = [support_face(body, f).face for body in atoms]
    face = check_face_commutation(weighted_sum(atoms, coefs), atom_faces, coefs, f)
    exact = exact_support_face(atoms, [Fraction(c, n) for c in counts], u)
    assert face.vertex_count == len(exact)
    assert np.abs(face.vertices - exact).max() <= 1e-12


# ---------------------------------------------------------------------------
# the exact Hausdorff distance (closed form in 2-D, Wolfe's solver in 3-D) is a metric

@st.composite
def body_triples(draw):
    """Three bodies of one dimension (2 or 3): hulls of 1..8 points of the
    sphere grid, scaled and shifted."""
    dim = draw(st.sampled_from([2, 3]))
    grid = sphere_grid(dim, 64)
    bodies = []
    for _ in range(3):
        idx = draw(st.lists(st.integers(0, 63), min_size=1, max_size=8, unique=True))
        radius = draw(st.floats(0.1, 2.0))
        shift = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        bodies.append(hull(radius * grid[idx] + shift))
    return bodies


@PROPERTY
@given(body_triples())
def test_wolfe_hausdorff_is_symmetric_and_obeys_the_triangle_inequality(bodies):
    a, b, c = bodies
    tol = tolerance(REL_TOL, box_of(np.vstack([a.vertices, b.vertices, c.vertices])))
    assert hausdorff(a, b) == hausdorff(b, a)
    assert hausdorff(a, a) <= tol
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + tol
