import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FAR_POLYGON,
    FAR_QUERY,
    exact_nearest,
    qhull_minkowski_sum,
    rederived_weighted_sum,
    reduced_box_of,
    same_body,
    translate,
)
from setmeans import geometry
from setmeans.geometry import (
    FACET_REL_MARGIN,
    REL_TOL,
    ROUNDOFF,
    ConvexBody,
    DimensionMismatch,
    GeometryError,
    _canonical,
    _merged_sum,
    _nearest_offsets,
    _open,
    _rank_cut,
    box_of,
    deviation,
    hausdorff,
    hausdorff_via_support,
    hull,
    is_facet_at,
    minkowski_sum,
    nearest_point,
    norm_gradient,
    point_distance,
    scale,
    shapley_folkman_gap,
    sphere_grid,
    support,
    support_face,
    tolerance,
    weighted_sum,
)

SQ2 = np.sqrt(2.0)


def square(lo=0.0, hi=1.0):
    return hull([(lo, lo), (hi, lo), (lo, hi), (hi, hi)])


def triangle():
    return hull([(0, 0), (1, 0), (0, 1)])


def point_key(p, tol=1e-9):
    return tuple(np.round(np.asarray(p, dtype=float) / tol) * tol)


def vertex_set(body, tol=1e-9):
    return {point_key(v, tol) for v in body.vertices}


def random_body(rng, dim=2, max_vertices=10, spread=1.0):
    n = rng.integers(dim + 1, max_vertices + 1)
    return hull(rng.uniform(-spread, spread, size=(n, dim)))


# ---------------------------------------------------------------------------
# hull

def brute_extreme(points):
    """Oracle: a point is extreme iff some direction strictly exposes it."""
    points = np.asarray(points, dtype=float)
    dirs = sphere_grid(2, 720)
    keep = set()
    for u in dirs:
        vals = points @ u
        top = np.max(vals)
        winners = np.nonzero(vals >= top - 1e-12)[0]
        if len(winners) == 1:
            keep.add(int(winners[0]))
    return {point_key(points[i]) for i in keep}


def test_hull_singleton():
    b = hull([(0, 0)])
    assert b.vertices.tolist() == [[0.0, 0.0]]


def test_hull_prunes_collinear_midpoint():
    b = hull([(0, 0), (1, 0), (0.5, 0)])
    assert vertex_set(b) == {(0.0, 0.0), (1.0, 0.0)}


def test_hull_triangle_interior_point_matches_brute_force():
    pts = [(0, 0), (1, 0), (0, 1), (0.25, 0.25)]
    expected = brute_extreme(pts)
    assert expected == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    assert vertex_set(hull(pts)) == expected


def test_hull_random_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        pts = rng.uniform(-1, 1, size=(rng.integers(3, 12), 2))
        assert vertex_set(hull(pts)) == brute_extreme(pts)


def test_hull_idempotent_and_order_invariant():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = rng.uniform(-1, 1, size=(8, 2))
        b = hull(pts)
        assert np.allclose(hull(b.vertices).vertices, b.vertices)
        shuffled = pts[rng.permutation(len(pts))]
        assert vertex_set(hull(shuffled)) == vertex_set(b)


def test_hull_rejects_bad_input():
    with pytest.raises(GeometryError):
        hull(np.empty((0, 2)))
    with pytest.raises(GeometryError):
        hull([(0.0, np.nan)])


def test_hull_3d_cube_with_planted_interior_points():
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    extra = [(0.5, 0.5, 0.5), (0.5, 0.5, 0.0), (0.5, 0.0, 0.0)]
    b = hull(corners + extra)
    assert vertex_set(b) == {tuple(map(float, c)) for c in corners}


def test_hull_3d_degenerate_planar_input():
    b = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0.3, 0.4, 0)])
    assert b.vertex_count == 4


# ---------------------------------------------------------------------------
# support function

def test_support_box_axis():
    assert support(square(), (1, 0)) == pytest.approx(1.0)


def test_support_zero_functional():
    assert support(triangle(), (0, 0)) == 0.0


def test_support_triangle_diagonal():
    # oracle: explicit max of dot products over the three vertices
    verts = [(0, 0), (1, 0), (0, 1)]
    expected = max(x + y for x, y in verts)
    assert expected == 1.0
    assert support(triangle(), (1, 1)) == pytest.approx(expected)


def test_support_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        support(square(), (1, 0, 0))


def test_support_additivity_and_homogeneity():
    rng = np.random.default_rng(17)
    for dim in (2, 3):
        for _ in range(20):
            a = random_body(rng, dim)
            b = random_body(rng, dim)
            s = minkowski_sum(a, b)
            dirs = rng.normal(size=(100, dim))
            for u in dirs:
                assert abs(support(s, u) - support(a, u) - support(b, u)) <= 1e-9
            for lam in (0.0, 0.5, 1.0, 3.0):
                u = dirs[0]
                assert abs(support(scale(a, lam), u) - lam * support(a, u)) <= 1e-9


# ---------------------------------------------------------------------------
# support faces

def test_support_face_bottom_edge():
    cert = support_face(square(), (0, -1))
    assert vertex_set(cert.face) == {(0.0, 0.0), (1.0, 0.0)}
    assert cert.face.vertex_count >= 2
    assert np.linalg.norm(cert.direction) == pytest.approx(1.0)


def test_support_face_corner():
    cert = support_face(square(), (1, 1))
    assert vertex_set(cert.face) == {(1.0, 1.0)}
    assert cert.face.vertex_count == 1


def test_support_face_segment_endpoint():
    seg = hull([(0, 0), (1, 0)])
    cert = support_face(seg, (1, 0))
    assert vertex_set(cert.face) == {(1.0, 0.0)}


def test_support_face_zero_direction():
    with pytest.raises(GeometryError):
        support_face(square(), (0, 0))


def test_face_vertices_belong_to_body():
    rng = np.random.default_rng(23)
    for _ in range(30):
        body = random_body(rng)
        u = rng.normal(size=2)
        cert = support_face(body, u)
        body_vs = vertex_set(body)
        assert vertex_set(cert.face) <= body_vs
        assert support(cert.face, cert.direction) == pytest.approx(cert.support_value, abs=1e-12)


def test_face_of_minkowski_mean_is_mean_of_faces():
    rng = np.random.default_rng(31)
    for _ in range(20):
        bodies = [random_body(rng) for _ in range(rng.integers(2, 5))]
        n = len(bodies)
        acc = None
        for b in bodies:
            piece = scale(b, 1.0 / n)
            acc = piece if acc is None else minkowski_sum(acc, piece)
        u = rng.normal(size=2)
        left = support_face(acc, u).face
        mix = None
        for b in bodies:
            piece = scale(support_face(b, u).face, 1.0 / n)
            mix = piece if mix is None else minkowski_sum(mix, piece)
        assert hausdorff(left, mix) <= 1e-9


# ---------------------------------------------------------------------------
# Minkowski arithmetic and scaling

def test_minkowski_identity_element():
    a = triangle()
    origin = hull([(0, 0)])
    assert same_body(minkowski_sum(a, origin), a, tol=1e-12)


def test_minkowski_segments_to_parallelogram():
    s1 = hull([(0, 0), (6, 0)])
    s2 = hull([(0, 0), (2, 2)])
    out = minkowski_sum(s1, s2)
    assert vertex_set(out) == {(0.0, 0.0), (6.0, 0.0), (2.0, 2.0), (8.0, 2.0)}


def test_minkowski_box_doubling():
    assert same_body(minkowski_sum(square(), square()), square(0, 2), tol=1e-12)


def test_minkowski_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_sum(square(), hull([(0, 0, 0)]))


def test_scale_examples():
    a = triangle()
    assert same_body(scale(a, 1.0), a, tol=1e-12)
    assert same_body(scale(square(0, 2), 0.5), square(), tol=1e-12)
    assert vertex_set(scale(a, 3.0)) == {(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)}
    zero = scale(a, 0.0)
    assert zero.vertices.tolist() == [[0.0, 0.0]]
    with pytest.raises(GeometryError):
        scale(a, -1.0)


# ---------------------------------------------------------------------------
# nearest point / distances

def grid_nearest(body_pts, x, steps=220):
    """Oracle: dense barycentric grid search over a triangle."""
    a, b, c = (np.asarray(p, dtype=float) for p in body_pts)
    best, best_d = None, np.inf
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            lam = (i / steps, j / steps, 1 - i / steps - j / steps)
            p = lam[0] * a + lam[1] * b + lam[2] * c
            d = np.linalg.norm(p - x)
            if d < best_d:
                best, best_d = p, d
    return best, best_d


def test_nearest_point_interior_and_face():
    assert np.allclose(nearest_point(square(), (0.5, 0.5)), (0.5, 0.5), atol=1e-9)
    assert np.allclose(nearest_point(square(), (2, 0.5)), (1, 0.5), atol=1e-9)


def test_nearest_point_hypotenuse_matches_grid_oracle():
    x = np.array([1.0, 1.0])
    oracle_pt, oracle_d = grid_nearest([(0, 0), (1, 0), (0, 1)], x)
    k = nearest_point(triangle(), x)
    assert np.allclose(k, (0.5, 0.5), atol=1e-8)
    assert np.linalg.norm(k - oracle_pt) <= 1e-2  # grid resolution
    assert abs(point_distance(triangle(), x) - oracle_d) <= 1e-4


def test_nearest_point_optimality_certificate():
    rng = np.random.default_rng(41)
    for _ in range(50):
        body = random_body(rng)
        x = rng.uniform(-2, 2, size=2)
        k = nearest_point(body, x)
        for v in body.vertices:
            assert np.dot(x - k, v - k) <= 1e-8


def test_nearest_point_agrees_with_dense_grid_on_random_triangles():
    rng = np.random.default_rng(43)
    for _ in range(5):
        pts = rng.uniform(-1, 1, size=(3, 2))
        body = hull(pts)
        if body.vertex_count != 3:
            continue
        x = rng.uniform(-2, 2, size=2)
        _, oracle_d = grid_nearest(pts, x)
        assert point_distance(body, x) <= oracle_d + 1e-12
        assert abs(point_distance(body, x) - oracle_d) <= 1e-4


def test_point_distance_examples():
    assert point_distance(square(), (0.5, 0.5)) == pytest.approx(0.0, abs=1e-9)
    assert point_distance(square(), (0.5, -1)) == pytest.approx(1.0)
    assert point_distance(triangle(), (1, 1)) == pytest.approx(SQ2 / 2)


# derandomized, so a tier-1 run is reproducible; no example database on disk
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

COORD = st.integers(-8, 8).map(lambda k: k / 4.0)
POINT = st.tuples(COORD, COORD)


@st.composite
def placed_bodies(draw):
    """A 2-D body at scale 10^k, k in [-6, 6], moved by up to 1e6: a point,
    a segment, collinear points (hulled, or kept whole as a flat ring the
    way a support face can hold them) or a polygon."""
    kind = draw(st.sampled_from(["point", "segment", "collinear", "flat", "polygon"]))
    if kind == "point":
        P = np.array([draw(POINT)])
    elif kind == "segment":
        P = np.array(draw(st.lists(POINT, min_size=2, max_size=2, unique=True)))
    elif kind in ("collinear", "flat"):
        a, b = np.array(draw(POINT)), np.array(draw(st.tuples(st.integers(1, 4), st.integers(-4, 4))))
        steps = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=5, unique=True))
        P = a + np.array(steps, dtype=float)[:, None] * b / 4.0
    else:
        P = np.array(draw(st.lists(POINT, min_size=3, max_size=8)))
    s = 10.0 ** draw(st.integers(-6, 6))
    shift = np.array(draw(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))))
    P = shift + s * P
    return (ConvexBody(_canonical(P)) if kind == "flat" else hull(P)), s


@st.composite
def queries(draw, body, s):
    """A query inside, on a vertex, on an edge or (mostly) outside the body
    placed at scale ``s``."""
    z = _open(body._walk[0])
    ring = np.column_stack([z.real, z.imag])
    i = draw(st.integers(0, len(ring) - 1))
    where = draw(st.sampled_from(["inside", "vertex", "edge", "outside"]))
    if where == "vertex":
        return ring[i]
    if where == "edge":
        return ring[i] + draw(st.floats(0.0, 1.0)) * (ring[(i + 1) % len(ring)] - ring[i])
    if where == "inside":
        w = np.array(draw(st.lists(st.integers(0, 4), min_size=len(ring), max_size=len(ring))),
                     dtype=float) + 0.5
        return (w / w.sum()) @ ring
    return ring[i] + s * draw(st.sampled_from([1e-6, 1.0, 1e3])) * np.array(draw(POINT))


def exact_tolerance(body, x):
    return tolerance(REL_TOL, body.box) + ROUNDOFF * float(np.abs(x).max())


@PROPERTY
@given(st.data())
def test_nearest_points_match_exact_rational_distances(data):
    body, s = data.draw(placed_bodies())
    x = data.draw(queries(body, s))
    d2, p = exact_nearest(body.vertices, x)
    tol = exact_tolerance(body, x)
    assert abs(point_distance(body, x) - math.sqrt(d2)) <= tol
    assert np.linalg.norm(nearest_point(body, x) - np.array(p, dtype=float)) <= tol
    # deviation takes every vertex of a body at once, with the same answers
    probe = hull(np.vstack([x, body.vertices[:1]]))
    want = max(math.sqrt(exact_nearest(body.vertices, v)[0]) for v in probe.vertices)
    assert abs(deviation(probe, body) - want) <= exact_tolerance(body, probe.vertices)


@PROPERTY
@given(st.data())
def test_2d_queries_do_not_depend_on_how_a_body_was_built(data):
    placed, s = data.draw(placed_bodies())
    body, other = hull(placed.vertices), data.draw(placed_bodies())[0]
    X = np.array([data.draw(queries(body, s)) for _ in range(4)])
    V = body.vertices
    # the raw body of the hull's vertices, and raw bodies of them in rotated order
    builds = [ConvexBody(np.roll(V, -k, axis=0)) for k in range(len(V))]

    def answers(b):
        return ([nearest_point(b, x).tobytes() for x in X], point_distance(b, X).tobytes(),
                hausdorff(b, other), hausdorff(other, b))

    want = answers(body)
    for b in builds:
        assert answers(b) == want


def test_point_distance_takes_an_array_of_points():
    rng = np.random.default_rng(5)
    for body in (square(), hull(rng.normal(size=(12, 3)))):
        X = rng.normal(scale=2.0, size=(9, body.dim))
        want = [point_distance(body, x) for x in X]
        assert point_distance(body, X).tolist() == want
        assert point_distance(body, np.asfortranarray(X)).tolist() == want
    with pytest.raises(DimensionMismatch):
        point_distance(square(), np.zeros((3, 3)))


def test_far_small_polygon_has_exact_distances():
    body = hull(FAR_POLYGON)
    d2, p = exact_nearest(body.vertices, FAR_QUERY)
    tol = exact_tolerance(body, FAR_QUERY)
    assert abs(point_distance(body, FAR_QUERY) - math.sqrt(d2)) <= tol
    assert np.linalg.norm(nearest_point(body, FAR_QUERY) - np.array(p, dtype=float)) <= tol
    # H(body, {x}) is the larger of d(x, body) and the farthest vertex from x
    far = max(math.sqrt(exact_nearest([FAR_QUERY], v)[0]) for v in body.vertices)
    assert abs(hausdorff(body, hull([FAR_QUERY])) - max(math.sqrt(d2), far)) <= tol


def test_deviation_examples():
    a = square()
    assert deviation(a, a) == pytest.approx(0.0, abs=1e-12)
    assert deviation(square(), square(0, 2)) == pytest.approx(0.0, abs=1e-12)
    assert deviation(square(0, 2), square()) == pytest.approx(SQ2)
    assert deviation(translate(square(), (3, 0)), square()) == pytest.approx(3.0)


def test_hausdorff_examples():
    assert hausdorff(square(), square()) == pytest.approx(0.0, abs=1e-12)
    assert hausdorff(square(), translate(square(), (3, 0))) == pytest.approx(3.0)
    assert hausdorff(square(), square(0, 2)) == pytest.approx(SQ2)


@pytest.mark.parametrize("k", range(-12, 13))
def test_distances_are_equivariant_under_scaling(k):
    # vertex arrays taken as they are (no hull, no dedup), so only the
    # distance kernel's own arithmetic meets the scale
    rng = np.random.default_rng(3)
    s = 10.0 ** k
    for _ in range(8):
        a = hull(rng.uniform(-1, 1, size=(int(rng.integers(3, 9)), 2))).vertices
        b = hull(rng.uniform(-1, 1, size=(int(rng.integers(1, 9)), 2)) + 0.5).vertices
        x = rng.uniform(-2, 2, size=2)
        unit = (point_distance(ConvexBody(a), x), hausdorff(ConvexBody(a), ConvexBody(b)))
        scaled = (point_distance(ConvexBody(s * a), s * x),
                  hausdorff(ConvexBody(s * a), ConvexBody(s * b)))
        for got, want in zip(scaled, unit):
            assert got == pytest.approx(s * want, rel=1e-12, abs=1e-12 * s)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(47)
    for _ in range(25):
        a, b, c = (random_body(rng) for _ in range(3))
        assert abs(hausdorff(a, b) - hausdorff(b, a)) <= 1e-9
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9
        assert deviation(a, c) <= deviation(a, b) + deviation(b, c) + 1e-9


# ---------------------------------------------------------------------------
# Minkowski sums by ring merge

# a raw body with a vertex that is not extreme
BENT = np.array([[-1.03, -1.37], [-1.01, 0.49], [-0.8, 0.12], [-0.01, -0.35], [0.08, 1.34]])


@st.composite
def generic_pairs(draw):
    """Two hulls of 3..8 Gaussian points from one random stream (generic:
    no parallel edges, no three points on a line), each at scale 10^k,
    k in [-6, 6], and moved by up to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    pair = []
    for _ in range(2):
        s = 10.0 ** draw(st.integers(-6, 6))
        shift = np.array(draw(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))))
        pair.append(hull(shift + s * rng.normal(size=(draw(st.integers(3, 8)), 2))))
    return pair


@st.composite
def summands(draw, a):
    """A second summand for ``a``: any placed body, or one sharing edge
    directions with ``a`` (a scaled copy: parallel edges; a reflected copy:
    antiparallel ones), or ``a`` with a vertex doubled at a distance of
    1e-12..1e-7 of its extent."""
    kind = draw(st.sampled_from(["placed", "scaled", "reflected", "near-duplicate"]))
    if kind == "placed":
        return draw(placed_bodies())[0]
    if kind == "scaled":
        return scale(a, draw(st.sampled_from([1e-6, 0.5, 1.0, 3.0, 1e6])))
    if kind == "reflected":
        return ConvexBody(_canonical(-a.vertices))
    i = draw(st.integers(0, a.vertex_count - 1))
    step = (draw(st.sampled_from([1e-12, 1e-9, 3e-9, 1e-7])) * max(a.box[0], 1.0)
            * np.array(draw(POINT)))
    return hull(np.vstack([a.vertices, a.vertices[i] + step]))


@PROPERTY
@given(st.data())
def test_ring_merge_gives_the_qhull_sum_byte_for_byte(data):
    a, b = data.draw(generic_pairs())
    want = qhull_minkowski_sum(a, b).vertices.tobytes()
    assert minkowski_sum(a, b).vertices.tobytes() == want


@PROPERTY
@given(st.data())
def test_degenerate_sums_stay_within_tolerance_of_the_qhull_sum(data):
    a, _ = data.draw(placed_bodies())
    b = data.draw(summands(a))
    got, want = minkowski_sum(a, b), qhull_minkowski_sum(a, b)
    assert hausdorff(got, want) <= tolerance(REL_TOL, want.box)
    if _merged_sum(a, b) is None:
        assert got.vertices.tobytes() == want.vertices.tobytes()
    else:  # certified: every vertex is extreme, so hull keeps them all
        assert np.array_equal(hull(got.vertices).vertices, got.vertices)


def test_edges_of_equal_angle_merge_into_one():
    hexagon = hull([(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)])
    flat = ConvexBody(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # as a support face holds it
    for a, b in [(square(), square()), (square(), hull([(0, 0), (3, 0)])),
                 (hexagon, scale(hexagon, 0.5)), (flat, triangle())]:
        merged = _merged_sum(a, b)
        assert merged is not None
        assert merged.vertices.tobytes() == qhull_minkowski_sum(a, b).vertices.tobytes()
    assert _merged_sum(square(), square()).vertices.tolist() == [[0, 0], [0, 2], [2, 0], [2, 2]]


def test_a_one_vertex_operand_translates_the_other_body():
    point = hull([(0.5, 0.25)])
    for a, b in [(triangle(), point), (point, square()), (point, hull([(3, -4)])),
                 (hull([(0, 0), (1, 1)]), point), (square(), hull([(1e6, -1e6)]))]:
        merged = _merged_sum(a, b)
        assert merged is not None
        assert merged.vertices.tobytes() == qhull_minkowski_sum(a, b).vertices.tobytes()


def walks_its_hull(body):
    """Whether the body's walk is its hull's, byte for byte."""
    return [x.tobytes() for x in body._walk] == [x.tobytes() for x in hull(body.vertices)._walk]


def test_an_uncertified_merge_falls_back_to_the_qhull_sum():
    cases = [
        (hull([(0, 0), (1, 0)]), hull([(2, 0), (3, 0)])),        # collinear: a segment
        (hull([(0, 0), (1e-9, 0)]), hull([(1e6, 0)])),            # a translate within tolerance
        (triangle(), hull([(0, 0), (1, 1e-13)])),                # a vertex on a chord
        (triangle(), hull([(0, 0), (1e-12, 1), (1, 0)])),        # an edge below tolerance
    ]
    cube = hull(np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).reshape(3, -1).T)
    for a, b in cases + [(cube, cube)]:
        if a.dim == 2:
            assert _merged_sum(a, b) is None
        assert minkowski_sum(a, b).vertices.tobytes() == qhull_minkowski_sum(a, b).vertices.tobytes()
    # raw bodies with a vertex that is not extreme merge on their hulls' walks, certified
    flat = ConvexBody(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))
    for a, b in [(flat, hull([(0.5, 0.25)])),                    # a translate of a flat vertex
                 (ConvexBody(BENT),
                  ConvexBody(np.array([[-1.59, -0.73], [0.12, -0.65], [0.77, 0.25], [0.99, -0.63]])))]:
        assert walks_its_hull(a) and walks_its_hull(b)
        merged, want = _merged_sum(a, b), qhull_minkowski_sum(a, b).vertices.tobytes()
        assert merged is not None and merged.vertices.tobytes() == want
        assert minkowski_sum(a, b).vertices.tobytes() == want


def test_merged_and_scaled_bodies_carry_the_ring_a_fresh_sort_gives():
    rng = np.random.default_rng(19)
    for _ in range(30):
        P = rng.normal(size=(7, 2))
        a = hull(P + rng.uniform(-1e3, 1e3, size=2))
        unread = ConvexBody(a.vertices.copy())   # walks its hull when scale reads it
        bodies = [a, hull(P[:2]), hull(P[:1]), hull(P + 1e6),
                  minkowski_sum(a, hull(rng.normal(size=(5, 2)))),
                  scale(a, rng.uniform(1e-3, 1e3)), scale(unread, rng.uniform(1e-3, 1e3)),
                  minkowski_sum(square(), a)]   # the merge starts atop the square's left edge
        assert all("_walk" in vars(body) for body in bodies)
        # raw bodies: one with a vertex that is not extreme, scaled, and a near-flat support face
        turn = rng.uniform(0.0, 2.0 * np.pi)
        turn = np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]])
        top = np.array([[0.0, 0.0], [1.0, 1e-10], [2.0, 0.0], [1.0, -1.0]]) @ turn
        bent = ConvexBody(BENT)
        bodies += [bent, scale(bent, rng.uniform(1e-3, 1e3)),
                   support_face(hull(top + P[0]), turn[1]).face]
        assert bodies[-1].vertex_count == 3
        for body in bodies:
            fresh = ConvexBody(body.vertices.copy())
            assert body._walk[0].tobytes() == fresh._walk[0].tobytes()
            V = body.vertices
            X = np.vstack([V, (V + np.roll(V, 1, axis=0)) / 2,
                           V.mean(axis=0) + rng.normal(size=(40, 2))])
            assert _nearest_offsets(body, X).tobytes() == _nearest_offsets(fresh, X).tobytes()


def test_weighted_sum_does_not_depend_on_cached_rings():
    rng = np.random.default_rng(29)
    atoms = [hull(rng.normal(size=(6, 2)) + rng.normal(size=2)) for _ in range(5)]
    coefs = rng.uniform(0.1, 1.0, size=5)
    sorted_rings = [ConvexBody(atom.vertices.copy()) for atom in atoms]   # raw: their hulls' walks
    assert (weighted_sum(atoms, coefs).vertices.tobytes()
            == weighted_sum(sorted_rings, coefs).vertices.tobytes())


# ---------------------------------------------------------------------------
# walks: the sorted outer-normal angles a fold carries from body to body

def fold_law(kind, rng):
    """2-D atoms of one kind: generic hulls, lattice polygons and squares
    (parallel and antiparallel edges, exactly equal angles) then a point
    and a level segment (a translate, and edges of a square's angles),
    slivers of aspect 1e7 at random angles, or generic hulls moved to 1e6."""
    J = int(rng.integers(2, 9))
    if kind == "generic":
        return [hull(rng.normal(size=(8, 2)) + rng.normal(size=2)) for _ in range(J)]
    if kind == "lattice":
        return [hull(rng.integers(-3, 4, size=(int(rng.integers(1, 7)), 2)).astype(float))
                if j % 2 else square(0.0, float(rng.integers(1, 4))) for j in range(J)] \
            + [hull([(1.0, -2.0)]), hull([(-2.0, 1.0), (1.0, 1.0)])]
    if kind == "sliver":
        turns = [np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
                 for t in rng.uniform(0.0, 2.0 * np.pi, J)]
        return [hull((rng.normal(size=(6, 2)) * [1.0, 1e-7]) @ turn) for turn in turns]
    return [hull(rng.normal(size=(6, 2)) + 1e6) for _ in range(J)]


def merged_angles(*angles):
    """The angles of a certified merge of walks with these angles, taken
    by one stable sort: the operands' angles, an earlier operand's first,
    one per run of equal angles."""
    phi = np.sort(np.concatenate(angles), kind="stable")
    return phi[np.concatenate(([True], phi[1:] != phi[:-1]))]


def bits(box):
    """The bytes of a box's two floats: ``==`` would not tell 0.0 from -0.0."""
    return np.array(box).tobytes()


def carries_a_walk_of_its_ring(body):
    """The walk's ring lists the body's vertices, closed by a copy of its
    first, with one ascending angle per edge."""
    ring, phi = body._walk
    assert not ring.flags.writeable and not phi.flags.writeable   # scale shares them
    assert len(ring) == len(phi) + 1
    assert (phi[1:] >= phi[:-1]).all()
    assert (_canonical(_open(ring)[:, None].view(float)).tobytes()
            == _canonical(body.vertices).tobytes())
    assert ring[-1] == ring[0]
    return ring, phi


@pytest.mark.parametrize("kind", ["generic", "lattice", "sliver", "far"])
def test_weighted_sum_is_the_fold_that_derives_every_angle_afresh(kind):
    rng = np.random.default_rng(["generic", "lattice", "sliver", "far"].index(kind))
    dropped = 0   # certified merges that dropped the vertex between two edges of equal angle
    for _ in range(8):
        atoms = fold_law(kind, rng)
        weights = rng.dirichlet(np.ones(len(atoms)))
        for n in (1, 3, 16, 256, 4096):
            coefs = rng.multinomial(n, weights) / n
            got, want = weighted_sum(atoms, coefs), rederived_weighted_sum(atoms, coefs)
            assert got.vertices.tobytes() == want.vertices.tobytes()
            assert got._walk[0].tobytes() == want._walk[0].tobytes()
            terms = [scale(atom, c) for atom, c in zip(atoms, coefs) if c]
            total = terms[0]
            for term in terms[1:]:   # a certified merge carries its operands' angles and box
                merged = _merged_sum(total, term)
                if merged is not None:
                    want_angles = merged_angles(total._walk[1], term._walk[1])
                    assert merged._walk[1].tobytes() == want_angles.tobytes()
                    assert bits(vars(merged)["box"]) == bits(box_of(merged.vertices))
                    dropped += len(want_angles) < len(total._walk[1]) + len(term._walk[1])
                total = minkowski_sum(total, term)
            assert got._walk[1].tobytes() == total._walk[1].tobytes()
            assert bits(got.box) == bits(box_of(got.vertices))
            if kind in ("generic", "far"):   # no parallel edges: every merge is certified
                merged = functools.reduce(_merged_sum, terms)
                assert merged is not None and merged.vertices.tobytes() == got.vertices.tobytes()
                want_angles = merged_angles(*(term._walk[1] for term in terms))
                assert got._walk[1].tobytes() == want_angles.tobytes()
    assert (dropped > 0) == (kind == "lattice")


def test_hulls_and_raw_bodies_derive_their_walk_once_from_their_ring():
    rng = np.random.default_rng(7)
    raw_polygon = ConvexBody(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]]))
    flat = ConvexBody(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # as a support face holds it
    hulls = [hull(rng.normal(size=(9, 2))), hull([(0, 0), (1, 2)]), hull([(3, 4)]),
             hull(rng.normal(size=(9, 2)) + 1e6)]
    for body in hulls + [raw_polygon]:
        assert ("_walk" in vars(body)) == any(body is h for h in hulls)   # raw: derived when read
        ring, phi = carries_a_walk_of_its_ring(body)
        assert body._walk is body._walk
        if len(phi):
            z = _open(ring)
            E = np.roll(z, -1) - z
            angles = np.arctan2(-E.real, E.imag)   # outer normals of a counterclockwise ring
            assert phi.tobytes() == angles.tobytes()   # from the least
    # a raw body of three or more vertices walks its hull's ring, also where
    # one is not extreme (``flat`` walks a segment)
    bent = ConvexBody(BENT)
    assert walks_its_hull(raw_polygon) and walks_its_hull(flat) and walks_its_hull(bent)
    assert flat._walk[0].tolist() == [0, 2, 0]
    ring, phi = bent._walk
    twice = scale(bent, 2.0)
    assert carries_a_walk_of_its_ring(twice)[1] is phi
    assert twice._walk[0].tobytes() == (2.0 * ring.view(float)).view(complex).tobytes()
    for a, b in [(bent, square()), (hull([(1, 1)]), bent), (flat, triangle())]:
        merged = _merged_sum(a, b)
        assert merged is not None
        assert merged.vertices.tobytes() == qhull_minkowski_sum(a, b).vertices.tobytes()


def test_scale_and_the_merge_carry_their_operands_angles():
    rng = np.random.default_rng(11)
    point = hull([(0.25, -0.5)])
    for kind in ("generic", "lattice", "sliver", "far"):
        for a in fold_law(kind, rng):
            b = hull(rng.normal(size=(5, 2)) * a.box[0] + a.vertices[0])
            scaled = scale(a, rng.uniform(1e-3, 1e3))
            assert "_walk" in vars(scaled) and "vertices" not in vars(scaled)   # one ring, the walk's
            ring, phi = carries_a_walk_of_its_ring(scaled)
            assert phi is a._walk[1]
            moved = _merged_sum(a, point)
            if moved is not None:     # a translate
                assert "_walk" in vars(moved)
                assert carries_a_walk_of_its_ring(moved)[1] is a._walk[1]
            merged = _merged_sum(scaled, b)
            if merged is not None and merged.vertex_count > 2:
                assert "_walk" in vars(merged) and "vertices" not in vars(merged)
                ring, phi = carries_a_walk_of_its_ring(merged)
                want = np.unique(np.concatenate((scaled._walk[1], b._walk[1])))
                assert phi.tobytes() == want.tobytes()


def derived(body):
    """Whether the body holds a vertex array: a raw body always does, a
    body built from its walk once ``vertices`` has been read."""
    return "vertices" in vars(body)


@pytest.mark.parametrize("kind", ["generic", "lattice", "sliver", "far"])
def test_walk_built_bodies_derive_their_vertices_on_first_read(kind, monkeypatch):
    rng = np.random.default_rng(["generic", "lattice", "sliver", "far"].index(kind) + 40)
    built, unmerged = [], []
    with_walk, merged_sum = geometry._with_walk, geometry._merged_sum

    def recording_walk(z, phi):
        built.append(with_walk(z, phi))
        return built[-1]

    def recording_merge(a, b):
        merged = merged_sum(a, b)
        if merged is None:   # the pairwise fallback reads both operands' vertices
            unmerged.extend((a, b))
        return merged

    monkeypatch.setattr(geometry, "_with_walk", recording_walk)
    monkeypatch.setattr(geometry, "_merged_sum", recording_merge)
    for _ in range(6):
        atoms = fold_law(kind, rng)
        coefs = rng.multinomial(64, rng.dirichlet(np.ones(len(atoms)))) / 64
        built.clear()
        unmerged.clear()
        pieces = [scale(atoms[0], coefs[0] + 0.5), minkowski_sum(atoms[0], atoms[-1])]
        got = weighted_sum(atoms, coefs)
        made, read = list(built), list(unmerged)
        assert got in made   # the fold's last step is a scale, a merge or a hull
        for body in atoms + made:
            assert body.dim == 2 and body.vertex_count >= 1
        assert not any(derived(body) for body in atoms + made if body not in read)
        V = got.vertices
        assert got.vertex_count == len(V) and got.vertices is V
        assert not V.flags.writeable and V.flags.c_contiguous
        assert [body for body in made if derived(body)] == \
            [body for body in made if body is got or body in read]
        if kind == "far":   # generic hulls: every merge is certified
            assert not read and sum(derived(body) for body in made) == 1
        assert V.tobytes() == rederived_weighted_sum(atoms, coefs).vertices.tobytes()
        assert all(body in made for body in pieces)
    with pytest.raises(AttributeError):
        got.vertices = V


def test_box_of_takes_the_extremes_the_axis_reductions_take():
    rng = np.random.default_rng(17)
    for trial in range(400):
        P = rng.normal(size=(int(rng.integers(1, 60)), 2 + trial % 2))
        P *= 10.0 ** rng.integers(-300, 150, size=P.shape[1])
        if trial % 3 == 0:   # a constant column
            P[:, 0] = P[0, 0]
        if trial % 4 == 0:   # signed zeros among the coordinates
            P[rng.random(P.shape) < 0.5] = rng.choice([0.0, -0.0])
        if trial % 5 == 0:   # a column of zeros of both signs
            P[:, -1] = rng.choice([0.0, -0.0], size=len(P))
        assert bits(box_of(P)) == bits(reduced_box_of(P))
    assert bits(box_of(np.array([[-0.0, 0.0], [0.0, -0.0]]))) == bits((0.0, 0.0))


def test_a_body_that_overflows_raises_where_it_is_made():
    big, low = scale(square(), 1e308), scale(square(-1.0, 0.0), 1e308)   # finite: at most 1e308
    near = hull([(1.5e308, -1.5e308)])
    cube = hull(np.array(np.meshgrid([0, 2], [0, 2], [0, 2])).reshape(3, -1).T)
    for make in (lambda: scale(square(0.0, 2.0), 1e308),
                 lambda: scale(cube, 1e308),
                 lambda: minkowski_sum(big, big),
                 lambda: minkowski_sum(low, low),
                 lambda: minkowski_sum(big, hull([(1e308, 0.0)])),   # a translate
                 lambda: minkowski_sum(near, near),                  # a point
                 lambda: weighted_sum([big, big, triangle()], [1.0, 1.0, 0.5]),
                 lambda: weighted_sum([square(0.0, 2.0), triangle()], [1e308, 1.0])):
        # numpy warns of the overflow; the body that would hold it is never made
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GeometryError, match="infinite"):
                make()


def test_a_box_whose_squared_diagonal_overflows_raises():
    # beyond a diagonal of sqrt(max float), about 1.34e154, every tolerance
    # would be infinite and the dedup would merge every point into one;
    # no RuntimeWarning may escape on the way (the suite makes it an error)
    big = scale(square(), 1e308)
    for make in (lambda: hull([(0, 0), (1e200, 0), (0, 1e200)]),
                 lambda: hull([(0.0, 0.0), (1e154, 0.0), (0.0, 1e154)]),
                 lambda: hull([(-1e308, 0.0), (1e308, 0.0), (0.0, 1.0)]),   # max - min overflows
                 lambda: minkowski_sum(triangle(), big),
                 lambda: weighted_sum([triangle(), big, big], [0.5, 1.0, 1.0]),
                 lambda: big.box):
        with pytest.raises(GeometryError, match="diagonal"):
            make()
    inside = hull([(0.0, 0.0), (9e153, 0.0), (0.0, 9e153)])
    assert inside.vertices.tolist() == [[0.0, 0.0], [0.0, 9e153], [9e153, 0.0]]
    assert inside.box == (pytest.approx(math.sqrt(2.0) * 9e153), 9e153)


@pytest.mark.parametrize("kind", ["generic", "lattice", "sliver", "far"])
def test_the_distance_of_walk_built_bodies_queries_their_rings(kind):
    rng = np.random.default_rng(["generic", "lattice", "sliver", "far"].index(kind) + 60)
    for _ in range(6):
        atoms = fold_law(kind, rng)
        weights = rng.dirichlet(np.ones(len(atoms)))
        for n in (1, 3, 64, 4096):
            mean = weighted_sum(atoms, rng.multinomial(n, weights) / n)
            expected = weighted_sum(atoms, weights)
            both = [hausdorff(mean, expected), hausdorff(expected, mean),
                    deviation(mean, expected), deviation(expected, mean)]
            # neither body derived a vertex array to be queried at its vertices
            assert sum(derived(body) for body in (mean, expected)) == 0
            raw_mean, raw_expected = ConvexBody(mean.vertices), ConvexBody(expected.vertices)
            raw = [hausdorff(raw_mean, raw_expected), hausdorff(raw_expected, raw_mean),
                   deviation(raw_mean, raw_expected), deviation(raw_expected, raw_mean)]
            assert np.array(both).tobytes() == np.array(raw).tobytes()


# ---------------------------------------------------------------------------
# support-grid Hausdorff

def test_grid_hausdorff_identical_bodies():
    for m in (8, 100, 3600):
        assert hausdorff_via_support(square(), square(), m) == pytest.approx(0.0, abs=1e-12)


def test_grid_hausdorff_translation():
    b = translate(square(), (3, 0))
    assert abs(hausdorff_via_support(square(), b, 3600) - 3.0) <= 1e-3


def test_grid_hausdorff_nested_boxes():
    assert abs(hausdorff_via_support(square(), square(0, 2), 3600) - SQ2) <= 2e-3


def test_grid_hausdorff_monotone_and_below_exact():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a, b = random_body(rng), random_body(rng)
        exact = hausdorff(a, b)
        prev = -1.0
        for m in (8, 16, 32, 64, 128, 3600):
            g = hausdorff_via_support(a, b, m)
            assert g >= prev - 1e-15
            assert g <= exact + 1e-12
            prev = g
        assert abs(exact - hausdorff_via_support(a, b, 3600)) <= 5e-3


def test_sphere_grid_properties():
    g2 = sphere_grid(2, 64)
    assert np.allclose(np.linalg.norm(g2, axis=1), 1.0)
    g3 = sphere_grid(3, 200)
    assert np.allclose(np.linalg.norm(g3, axis=1), 1.0, atol=1e-12)
    with pytest.raises(GeometryError):
        sphere_grid(4, 64)
    with pytest.raises(GeometryError):
        hausdorff_via_support(square(), square(), 4)


# ---------------------------------------------------------------------------
# norm gradient

def test_norm_gradient_examples():
    assert np.allclose(norm_gradient((0, 3)), (0, 1))
    assert np.allclose(norm_gradient((1, 1)), (SQ2 / 2, SQ2 / 2))
    assert np.allclose(norm_gradient((-2, 0)), (-1, 0))
    with pytest.raises(GeometryError):
        norm_gradient((0, 0))


def test_norm_gradient_duality_bounds():
    rng = np.random.default_rng(59)
    for _ in range(20):
        x = rng.normal(size=3)
        g = norm_gradient(x)
        assert np.dot(g, x) == pytest.approx(np.linalg.norm(x))
        h = rng.normal(size=3)
        assert abs(np.dot(g, h)) <= np.linalg.norm(h) + 1e-12


# ---------------------------------------------------------------------------
# facet queries

def test_is_facet_at_examples():
    assert is_facet_at(square(), (0.5, 0), (0, -1))
    assert not is_facet_at(square(), (0, 0), (0, -1))
    assert not is_facet_at(triangle(), (1, 0), (1, 1))
    # the margin is tolerance(FACET_REL_MARGIN, box): 1e-6 times the box
    # diagonal sqrt(5), not times the diameter 2
    wide = hull([(0, 0), (2, 0), (1, 1)])
    assert not is_facet_at(wide, (1.9e-6, 0), (0, -1))
    assert not is_facet_at(wide, (2.1e-6, 0), (0, -1))
    assert is_facet_at(wide, (2.3e-6, 0), (0, -1))


@pytest.mark.parametrize("cuts", [1.25, 1.75])
def test_is_facet_at_reads_the_rank_of_a_face_as_hull_does(cuts):
    # a bottom face no wider than twice the rank cut is the segment hull
    # makes of it, so its centroid lies inside, not within round-off of an edge
    h = cuts * _rank_cut(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    bottom = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, h, 0.0]])
    assert hull(bottom[:, :2]).vertex_count == 2
    body = ConvexBody(np.vstack((bottom, [[0.5, 0.3, 1.0]])))
    assert is_facet_at(body, (0.5, h / 3.0, 0.0), (0, 0, -1))


def test_is_facet_at_rejects_a_polygon_face_above_three_dimensions():
    simplex = ConvexBody(np.vstack((np.zeros(4), np.eye(4))))
    with pytest.raises(GeometryError, match="at most two dimensions"):
        is_facet_at(simplex, (0.2, 0.2, 0.2, 0.0), (0, 0, 0, -1))


def test_is_facet_at_two_point_face_with_rounding_noise():
    # the centred 2x2 SVD of this segment has a second singular value just
    # above the rank threshold; two points still span one dimension
    V = np.array([[-0.1313246005548126, -0.041364562857149165],
                  [-0.13021936858219443, -0.04789009341875548]])
    d = V[1] - V[0]
    f = np.array([d[1], -d[0]]) / np.linalg.norm(d)
    assert is_facet_at(ConvexBody(V), V.mean(axis=0), f)


def test_is_facet_at_point_outside():
    with pytest.raises(GeometryError):
        is_facet_at(square(), (5, 5), (0, -1))


def test_is_facet_at_point_on_other_face():
    # interior body point not on the bottom edge
    assert not is_facet_at(square(), (0.5, 0.5), (0, -1))


def test_is_facet_at_3d_facet():
    cube = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert is_facet_at(cube, (0.5, 0.5, 0), (0, 0, -1))
    assert not is_facet_at(cube, (0, 0, 0), (0, 0, -1))


def test_is_facet_at_measures_a_3d_face_against_its_slanted_edges():
    hexagon = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    prism = hull([(x, y, z) for x, y in hexagon for z in (0.0, 1.0)])
    margin = tolerance(FACET_REL_MARGIN, prism.box)
    mid = np.array([1.5, 1.0, 0.0])                  # the middle of the edge (2, 0)-(1, 2)
    inward = -np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)  # minus the edge's outer normal
    for f in [(0, 0, -1), (0, 0, 1)]:
        k = mid + np.array([0.0, 0.0, 0.5 + 0.5 * f[2]])
        assert is_facet_at(prism, k + 2.0 * margin * inward, f)
        assert not is_facet_at(prism, k + 0.5 * margin * inward, f)


# ---------------------------------------------------------------------------
# Shapley-Folkman gap

def grid_covering_lower_bound(raw_points, steps=160):
    """Oracle: max over a bounding-box grid (clipped to the hull) of the
    distance to the nearest raw point; a lower bound on the true gap."""
    body = hull(raw_points)
    lo = raw_points.min(axis=0)
    hi = raw_points.max(axis=0)
    xs = np.linspace(lo[0], hi[0], steps)
    ys = np.linspace(lo[1], hi[1], steps)
    best = 0.0
    for gx in xs:
        for gy in ys:
            p = np.array([gx, gy])
            if point_distance(body, p) > 1e-9:
                continue
            best = max(best, np.min(np.linalg.norm(raw_points - p, axis=1)))
    return best


def test_sfs_single_two_point_set():
    gap, bound = shapley_folkman_gap([np.array([[0.0, 0.0], [1.0, 0.0]])])
    assert gap == pytest.approx(0.5)
    assert bound == pytest.approx(SQ2)
    assert gap <= bound


def test_sfs_singletons():
    gap, bound = shapley_folkman_gap([np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])])
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_sfs_ten_copies():
    sets = [np.array([[0.0, 0.0], [1.0, 0.0]])] * 10
    gap, bound = shapley_folkman_gap(sets)
    assert gap == pytest.approx(0.05)  # half the raw-sum lattice spacing
    assert gap <= SQ2 / 10


@pytest.mark.parametrize("shift", [1e3, 1e6])
def test_sfs_gap_does_not_depend_on_where_the_sets_lie(shift):
    """The covering radius far from the origin matches the one at the
    origin within the tolerance of the averaged raw sum it is measured on."""
    rng = np.random.default_rng(67)
    offset = shift * np.array([0.6, -0.8])
    for _ in range(5):
        sets = [rng.uniform(-1, 1, size=(4, 2)) for _ in range(3)]
        moved = [s + offset for s in sets]
        raw = np.array([sum(points) for points in itertools.product(*moved)]) / len(moved)
        gap = shapley_folkman_gap(moved)[0]
        assert abs(gap - shapley_folkman_gap(sets)[0]) <= tolerance(REL_TOL, box_of(raw))


@pytest.mark.parametrize("sites, gap", [
    ([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]], 13.0 / 12.0),  # acute: the circumradius
    # obtuse: the circumcenter lies outside; the gap is attained on the
    # longest edge, where it is equidistant from an end and the apex
    ([[0.0, 0.0], [4.0, 0.0], [2.0, 1.0]], 1.25),
])
def test_sfs_gap_of_three_sites(sites, gap):
    assert shapley_folkman_gap([np.array(sites)])[0] == pytest.approx(gap, rel=1e-12)


def test_sfs_gap_matches_grid_oracle_on_small_instances():
    rng = np.random.default_rng(61)
    for _ in range(6):
        sets = [rng.uniform(-1, 1, size=(rng.integers(2, 4), 2)) for _ in range(rng.integers(1, 4))]
        gap, bound = shapley_folkman_gap(sets)
        assert gap <= bound + 1e-12
        raw = np.zeros((1, 2))
        for s in sets:
            raw = (raw[:, None, :] + s[None, :, :]).reshape(-1, 2)
        raw = raw / len(sets)
        lower = grid_covering_lower_bound(raw)
        assert gap >= lower - 1e-9
        assert gap <= lower + 0.05  # grid resolution slack


def test_sfs_rejects_empty():
    with pytest.raises(GeometryError):
        shapley_folkman_gap([])
    with pytest.raises(GeometryError):
        shapley_folkman_gap([np.empty((0, 2))])


# ---------------------------------------------------------------------------
# body invariants

def test_vertices_are_immutable():
    b = square()
    with pytest.raises(ValueError):
        b.vertices[0, 0] = 5.0


def test_minimal_representation_no_near_duplicates():
    rng = np.random.default_rng(67)
    for _ in range(20):
        body = random_body(rng)
        V = body.vertices
        if len(V) > 1:
            d2 = ((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
            np.fill_diagonal(d2, np.inf)
            assert d2.min() > (1e-9 * (1 + np.abs(V).max())) ** 2
