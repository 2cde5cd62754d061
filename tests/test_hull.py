"""Property tests for ``hull`` against the exact monotone-chain oracle, and
for its near-duplicate merge against the all-pairs oracle."""

import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import chain_hull, dense_dedup
from setmeans.geometry import (
    REL_TOL,
    ConvexBody,
    _canonical,
    _dedup,
    _depths,
    _merged_sum,
    _width,
    box_of,
    hull,
    minkowski_sum,
    point_distance,
    scale,
    tolerance,
    weighted_sum,
)

# derandomized, so a tier-1 run is reproducible; no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

KINDS_2D = ("random", "near-collinear", "clustered", "sliver")


def cloud(kind: str, seed: int, n: int) -> np.ndarray:
    """Seeded point cloud of the named kind."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4)
    if kind == "near-collinear":  # a segment with 1e-14 noise across it
        t = rng.uniform(-1.0, 1.0, n)
        return rng.normal(size=2) + t[:, None] * rng.normal(size=2) + 1e-14 * rng.normal(size=(n, 2))
    if kind == "clustered":  # groups of points 1e-11 apart, merged by the dedup
        centres = rng.normal(size=(max(1, n // 4), 2))
        return centres[rng.integers(0, len(centres), n)] + 1e-11 * rng.normal(size=(n, 2))
    if kind == "sliver":  # a tilted rectangle of relative height 1e-15 .. 1e-3
        height = 10.0 ** rng.uniform(-15.0, -3.0)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        box = np.c_[rng.uniform(-1.0, 1.0, n), height * rng.uniform(-1.0, 1.0, n)]
        return rng.normal(size=2) + box @ q
    if kind == "lattice":  # integers times a power of two: exact in binary, many collinear
        return rng.integers(-4, 5, size=(n, 2)) * 2.0 ** int(rng.integers(-30, 31))
    if kind == "random-3d":
        return rng.normal(size=(n, 3))
    if kind == "planar-3d":  # affine rank 2 in R^3
        return rng.normal(size=(n, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)
    if kind == "axis-plane":  # a plane at most 1e-6 off x = 0.3, with round-off across it
        P = np.c_[np.full(n, 0.3), rng.normal(size=(n, 2))]
        slope = 10.0 ** rng.integers(-16, -5) * rng.normal(size=2) * rng.integers(0, 2)
        P[:, 0] += P[:, 1:] @ slope
        P[:, 0] = np.where(rng.integers(0, 2, n) == 1, P[:, 0], (P[:, 0] + 1.0) - 1.0)
        return np.roll(P, int(rng.integers(0, 3)), axis=1)
    raise ValueError(kind)


def setup(kinds):
    return st.tuples(st.sampled_from(kinds), st.integers(0, 2 ** 32 - 1), st.integers(3, 60))


@PROPERTY
@given(setup(KINDS_2D))
@example(("near-collinear", 71, 16))  # the two differ at round-off here
@example(("sliver", 246, 17))
@example(("sliver", 1015, 32))  # qhull on unscaled coordinates loses a vertex 3.6e-11 out
def test_hull_matches_the_chain_oracle(case):
    kind, seed, n = case
    P = cloud(kind, seed, n)
    got = hull(P).vertices
    want = chain_hull(P)
    if kind in ("random", "clustered"):
        assert np.array_equal(got, want)
        return
    # On near-degenerate input the two may differ by a vertex that lies
    # within round-off of the other hull's boundary.
    tol = 1e-12 * (1.0 + float(np.abs(P).max()))
    for mine, other in ((got, want), (want, got)):
        shared = {tuple(v) for v in other}
        for v in mine:
            if tuple(v) not in shared:
                assert point_distance(ConvexBody(other), v) <= tol


# a unit square in the plane x = 0.3, half of its points written 0.1 + 0.2
SQUARE_ACROSS_X = np.array([[0.3, 0.0, 0.0], [0.1 + 0.2, 1.0, 0.0],
                            [0.3, 1.0, 1.0], [0.1 + 0.2, 0.0, 1.0]])


def turned(P: np.ndarray, angle: float) -> np.ndarray:
    """``P`` turned by ``angle`` about the z-axis."""
    c, s = np.cos(angle), np.sin(angle)
    return P @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


@PROPERTY
@given(setup(("random-3d", "planar-3d", "axis-plane")).map(lambda case: cloud(*case)),
       st.randoms(use_true_random=False))
@example(SQUARE_ACROSS_X, Random(0))
@example(turned(SQUARE_ACROSS_X, 1e-9), Random(0))
@example(np.array([[1e6, 1e6, 1e6], [1e6 + 1e-8, 1e6, 1e6]]), Random(1))  # apart, yet rank 0
def test_hull_is_idempotent_and_permutation_invariant_in_3d(P, random):
    body = hull(P)
    assert np.array_equal(hull(body.vertices).vertices, body.vertices)
    order = list(range(len(P)))
    random.shuffle(order)
    assert np.array_equal(hull(P[order]).vertices, body.vertices)


@pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_hull_of_a_square_across_an_axis_has_four_vertices(axis, angle):
    # the sweep of a planar cloud must follow the plane, not the round-off across it
    P = np.roll(turned(SQUARE_ACROSS_X, angle), axis, axis=1)
    body = hull(P)
    assert body.vertex_count == 4
    assert len(np.unique(body.vertices, axis=0)) == 4
    assert np.array_equal(hull(body.vertices[::-1]).vertices, body.vertices)


@st.composite
def moved_clouds(draw):
    """A 2-D cloud of one of ``KINDS_2D`` or an integer lattice, moved by up to 1e6."""
    kind, seed, n = draw(setup(KINDS_2D + ("lattice",)))
    shift = draw(st.sampled_from([0.0, 1e2, 1e4, 1e6]))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    return cloud(kind, seed, n) + shift * np.array([np.cos(angle), np.sin(angle)])


@PROPERTY
@given(moved_clouds(), st.randoms(use_true_random=False))
@example(np.array([[-2.0, 0.0], [0.0, 0.0], [0.0, 1.0], [3.0, 0.0]]), Random(0))  # (0, 0) on an edge
def test_hull_is_idempotent_and_permutation_invariant_in_2d(P, random):
    body = hull(P)
    assert np.array_equal(hull(body.vertices).vertices, body.vertices)
    order = list(range(len(P)))
    random.shuffle(order)
    assert np.array_equal(hull(P[order]).vertices, body.vertices)


@PROPERTY
@given(moved_clouds(), moved_clouds(), st.floats(-17.0, -5.0), st.floats(1e-3, 1e3),
       st.randoms(use_true_random=False))
def test_every_walk_ascends_and_closes(P, Q, noise, lam, random):
    # walks of hull, scale, the merge, weighted_sum and raw bodies, also of
    # points at a relative distance of 1e-17 .. 1e-5 from a line
    rng = np.random.default_rng(random.getrandbits(32))
    t = rng.uniform(-1.0, 1.0, len(P))[:, None]
    line = P[0] + t * (P[-1] - P[0]) + 10.0 ** noise * box_of(P)[0] * rng.normal(size=P.shape)
    a, b, c = hull(P), hull(Q), hull(line)
    bodies = [a, b, c, scale(a, lam), minkowski_sum(a, b), minkowski_sum(c, b),
              weighted_sum([a, b, c], rng.dirichlet(np.ones(3))),
              ConvexBody(_canonical(P)), ConvexBody(_canonical(line))]
    bodies += [body for body in (_merged_sum(a, b), _merged_sum(b, c)) if body is not None]
    for body in bodies:
        ring, phi = body._walk
        assert len(ring) == len(phi) + 1 and ring[0] == ring[-1]
        assert (phi[1:] > phi[:-1]).all()


@PROPERTY
@given(moved_clouds())
def test_ring_width_is_the_least_edge_depth_of_the_farthest_vertex(P):
    walk = hull(P)._walk
    z = walk[0][:-1]
    assume(len(z) > 2)
    assert _width(*walk) == _depths(z, z).max(axis=1).min()


def test_hull_of_many_points_on_a_circle_keeps_memory_linear():
    # the ring width once took an (m, m) array: 489 MiB for these points
    t = 2.0 * np.pi * np.arange(4000) / 4000
    tracemalloc.start()
    try:
        body = hull(np.c_[np.cos(t), np.sin(t)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert body.vertex_count == 4000
    assert peak < 16 * 2 ** 20


def sweep_ties(kind: str, rng, n: int, dim: int) -> np.ndarray:
    """Points sharing coordinates or a sweep window, with exact and near duplicates."""
    if kind == "across" and dim > 1:  # a line across the sweep direction of ``_dedup``
        u = np.sqrt(np.arange(2.0, dim + 2.0))
        across = np.zeros(dim)
        across[:2] = -u[1], u[0]
        t = rng.integers(0, n // 2 + 1, n) + 1e-11 * rng.integers(0, 2, n)
        return rng.normal(size=dim) + t[:, None] * across / np.linalg.norm(across)
    if kind in ("vertical", "across"):  # one line along the last axis, steps of 1 and of 1e-11
        P = np.zeros((n, dim))
        P[:, 0] = rng.normal()
        P[:, -1] = rng.integers(0, n // 2 + 1, n) + 1e-11 * rng.integers(0, 2, n)
        return P
    if kind == "lattice":  # a small integer lattice, some rows moved 1e-11 along one axis
        P = rng.integers(-2, 3, size=(n, dim)).astype(float)
        P[:, rng.integers(0, dim)] += 1e-11 * rng.integers(0, 2, n)
        return P
    # the pairwise sums of two axis-aligned squares, one side 1 or 1e-12
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sums = (corners[:, None, :] + rng.choice([1.0, 1e-12]) * corners[None, :, :]).reshape(-1, 2)
    return np.pad(sums, ((0, 0), (0, max(dim, 2) - 2)))


@PROPERTY
@given(st.sampled_from(["clustered", "chained", "vertical", "lattice", "square-sums", "across"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 3))
def test_dedup_matches_the_dense_oracle(kind, seed, n, dim):
    rng = np.random.default_rng(seed)
    groups = max(1, n // 8)
    starts = rng.normal(size=(groups, dim))
    if kind in ("vertical", "lattice", "square-sums", "across"):  # ties and wide windows
        P = sweep_ties(kind, rng, n, dim)
    elif kind == "clustered":  # groups of points 1e-11 apart
        P = starts[rng.integers(0, groups, n)] + 1e-11 * rng.normal(size=(n, dim))
    else:  # chains with steps of 0.45 merge radii: only transitive merges join their ends
        steps = rng.normal(size=(groups, dim))
        radius = tolerance(REL_TOL, box_of(starts))  # the chains barely widen the box
        steps *= 0.45 * radius / np.linalg.norm(steps, axis=1, keepdims=True)
        i = rng.permutation(n)
        P = starts[i % groups] + (i // groups)[:, None] * steps[i % groups]
    assert np.array_equal(_dedup(P), dense_dedup(P))


@PROPERTY
@given(st.sampled_from(["gaussian", "lattice", "far", "near-duplicates"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
def test_hull_of_points_on_a_line_is_their_interval(kind, seed, n):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        P = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-8, 9)
    elif kind == "lattice":  # integers with repeats
        P = rng.integers(-3, 4, size=(n, 1)).astype(float)
    elif kind == "far":  # a spread of 2e-4 around 1e6
        P = 1e6 + 1e-4 * rng.uniform(-1.0, 1.0, size=(n, 1))
    else:  # pairs of points 1e-12 apart
        P = np.repeat(rng.normal(size=(n, 1)), 2, axis=0) + 1e-12 * rng.normal(size=(2 * n, 1))
    kept = dense_dedup(P)[:, 0]
    assert np.array_equal(hull(P).vertices, np.unique([kept.min(), kept.max()])[:, None])


# ---------------------------------------------------------------------------
# rank decisions far from the origin

def collinear_cloud(shape: str, seed: int, scale: float, shift: float) -> np.ndarray:
    """Seeded points on one line: ``scale`` times a pattern along a unit
    direction (the first axis for even seeds, a random one for odd
    seeds), translated by ``shift`` in a random direction."""
    rng = np.random.default_rng(seed)
    if shape == "three":     # two ends and a point between them
        t = np.array([-0.5, 0.0, 0.25])
    elif shape == "even":    # evenly spaced, ends included
        t = np.linspace(-1.0, 1.0, 9)
    else:                    # uniform on an interval
        t = rng.uniform(-1.0, 1.0, 20)
    angle = rng.uniform(0.0, 2.0 * np.pi) if seed % 2 else 0.0
    offset = rng.uniform(0.0, 2.0 * np.pi)
    along = np.array([np.cos(angle), np.sin(angle)])
    return shift * np.array([np.cos(offset), np.sin(offset)]) + scale * t[:, None] * along


@pytest.mark.parametrize("shape", ["three", "even", "random"])
def test_hull_of_collinear_points_is_a_segment_at_every_scale_and_place(shape):
    for scale in 10.0 ** np.arange(-6, 7):
        for shift in (0.0, 1e2, 1e4, 1e6):
            for seed in range(4):
                P = collinear_cloud(shape, seed, scale, shift)
                body = hull(P)
                assert body.vertex_count == 2, (shape, scale, shift, seed)
                assert hull(body.vertices).vertices.tobytes() == body.vertices.tobytes()


def test_hull_in_2d_applies_the_rank_cut_wherever_a_point_lies():
    eps = float(np.finfo(float).eps)
    # a point 0.3 cuts or one ulp outside the edge (1, -1)-(1, 1) of a triangle is no
    # vertex, whether it is the rightmost point or, turned by 90 degrees, the topmost
    # one; the edge's end (1, 1), which the sweep visits before that point, stays one
    cut = tolerance(8 * 4 * eps, box_of(np.array([[0.0, 0.0], [1.0, -1.0], [1.0, 1.0]])))
    for offset in (0.3 * cut, 2.0 ** -52):
        P = np.array([[0.0, 0.0], [1.0, -1.0], [1.0, 1.0], [1.0 + offset, 0.0]])
        for Q in (P, P @ np.array([[0.0, 1.0], [-1.0, 0.0]])):
            body, raw = hull(Q), ConvexBody(Q)   # a raw body walks its hull's ring
            assert body.vertex_count == 3 and Q[2].tolist() in body.vertices.tolist()
            assert raw._walk[0].tobytes() == body._walk[0].tobytes()
            for b in (body, raw):
                assert point_distance(b, Q).max() <= cut
    # points 0.7 cuts either side of a line lie within the cut of that line: a segment
    t = np.linspace(-1.0, 1.0, 9)
    cut = tolerance(8 * 9 * eps, box_of(np.c_[t, 0.0 * t]))
    body = hull(np.c_[t, 0.7 * cut * (-1.0) ** np.arange(9)])
    assert body.vertex_count == 2
    assert hull(body.vertices).vertices.tobytes() == body.vertices.tobytes()


def test_hull_far_from_the_origin_cases():
    # three points on a vertical line far out: qhull saw a flat simplex
    body = hull([[699051.4307437737, 0], [699051.4307437737, 1], [699051.4307437737, 0.5]])
    assert body.vertices.tolist() == [[699051.4307437737, 0.0], [699051.4307437737, 1.0]]
    # exactly collinear points: the middle one is not extreme
    ring = np.array([[-0.5, 153.0], [0.0, 153.5], [0.25, 153.75]])
    assert hull(ring).vertices.tolist() == [[-0.5, 153.0], [0.25, 153.75]]
    # the pairwise sums of that ring and the ring scaled by 1e-6
    body = hull((ring[:, None, :] + 1e-6 * ring[None, :, :]).reshape(-1, 2))
    assert body.vertex_count == 2
    assert hull(body.vertices).vertices.tobytes() == body.vertices.tobytes()
