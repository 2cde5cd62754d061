import numpy as np
import pytest

from oracles import same_body, translate
from setmeans.geometry import (
    ConvexBody,
    DimensionMismatch,
    GeometryError,
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
    assert not cert.is_exposed
    assert cert.facet_direction is not None
    assert np.dot(cert.direction, cert.facet_direction) == pytest.approx(1.0)


def test_support_face_corner():
    cert = support_face(square(), (1, 1))
    assert vertex_set(cert.face) == {(1.0, 1.0)}
    assert cert.is_exposed
    assert cert.facet_direction is None


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
    # min-norm solver's own tolerances meet the scale
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
