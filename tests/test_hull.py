"""Property tests for ``hull`` against the exact monotone-chain oracle, and
for its near-duplicate merge against the all-pairs oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import chain_hull, dense_dedup
from setmeans.geometry import REL_TOL, ConvexBody, _dedup, box_of, hull, point_distance, tolerance

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
    if kind == "random-3d":
        return rng.normal(size=(n, 3))
    if kind == "planar-3d":  # affine rank 2 in R^3
        return rng.normal(size=(n, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)
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


@PROPERTY
@given(setup(("random-3d", "planar-3d")), st.randoms(use_true_random=False))
def test_hull_is_idempotent_and_permutation_invariant_in_3d(case, random):
    kind, seed, n = case
    P = cloud(kind, seed, n)
    body = hull(P)
    assert np.array_equal(hull(body.vertices).vertices, body.vertices)
    order = list(range(n))
    random.shuffle(order)
    assert np.array_equal(hull(P[order]).vertices, body.vertices)


@PROPERTY
@given(st.sampled_from(["clustered", "chained"]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 60), st.integers(1, 3))
def test_dedup_matches_the_dense_oracle(kind, seed, n, dim):
    rng = np.random.default_rng(seed)
    groups = max(1, n // 8)
    starts = rng.normal(size=(groups, dim))
    if kind == "clustered":  # groups of points 1e-11 apart
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
