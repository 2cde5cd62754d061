"""Slow reference implementations and test-only helpers shared by the tests.

The mean process adds draws one Minkowski sum at a time; it is the
draw-by-draw oracle for the count-driven sample means of
``setmeans.simulate`` (``weighted_sum`` of the atoms at ``counts / N``).
``chain_hull`` is the 2-D reference for ``setmeans.geometry.hull``: the
same merge and rank rules, then Andrew's monotone chain with orientation
signs evaluated in exact rational arithmetic.  ``checkpoints`` draws the
counts one replication at a time and ``body_values`` measures every
checkpoint's folded mean body: together they are the per-record
reference for the blocked count kernels of ``setmeans.simulate``.
``exact_support_face`` decides the support face of a Minkowski
combination in exact rational arithmetic over every combination of atom
vertices, without face commutation: the reference for the face rule.
``exact_nearest`` is the exact-rational 2-D nearest point and distance,
the reference for the closed-form kernel behind ``nearest_point``,
``point_distance`` and ``hausdorff``; ``wolfe_point_distance`` and
``wolfe_hausdorff`` measure with Wolfe's min-norm solver in every
dimension, the reference the normal fan is checked against.
``qhull_minkowski_sum`` is ``hull`` of all pairwise vertex sums, the
reference for the 2-D ring merge behind ``minkowski_sum``.
``records_csv`` formats a records array one value and one row at a
time, the reference for the bytes ``write_report`` writes.
``FAR_POLYGON`` and ``FAR_QUERY`` pin a small polygon far from the
origin on which Wolfe's solver ran out of iterations.
``translate``, ``serialize_scene``, ``sample``, ``uniform`` and
``normal_cdf`` are test-only helpers; ``uniform`` recomputes one
splitmix64 draw with Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from setmeans.cli import SCENE_VERSION, _format_float
from setmeans.geometry import (
    REL_TOL,
    ConvexBody,
    DimensionMismatch,
    _as_vector,
    _canonical,
    _min_norm_point,
    box_of,
    hausdorff,
    hull,
    is_facet_at,
    minkowski_sum,
    nearest_point,
    point_distance,
    scale,
    support,
    support_face,
    tolerance,
    weighted_sum,
)
from setmeans.randomsets import DiscreteRandomSet, sample_many
from setmeans.rng import uniforms


def translate(a: ConvexBody, t) -> ConvexBody:
    """Shift a body by the vector t."""
    return ConvexBody(_canonical(a.vertices + _as_vector(t, a.dim)))


def serialize_scene(y: DiscreteRandomSet) -> dict:
    """Scene document of a law, the inverse of ``setmeans.cli.parse_scene``."""
    return {
        "version": SCENE_VERSION,
        "dim": y.dim,
        "atoms": [
            {"weight": float(w), "vertices": body.vertices.tolist()}
            for w, body in zip(y.weights, y.bodies)
        ],
    }


def sample(y: DiscreteRandomSet, u: float) -> int:
    """Atom index of one uniform by inverse CDF over the cumulative weights."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    return int(np.searchsorted(y.cumulative_weights, u, side="right"))


def normal_cdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    """CDF of N(mu, sigma^2) from the stdlib error function."""
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


_MASK = (1 << 64) - 1


def _splitmix_finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def word(master_seed: int, replication: int, index: int) -> int:
    """Word ``index`` of replication ``replication``: splitmix64 on Python ints."""
    base = _splitmix_finalize(_splitmix_finalize(master_seed) ^ (replication & _MASK))
    return _splitmix_finalize(base + (index + 1) * 0x9E3779B97F4A7C15)


def uniform(master_seed: int, replication: int, index: int) -> float:
    """Draw ``index`` of replication ``replication``, from its word."""
    return (word(master_seed, replication, index) >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class MeanProcessState:
    """Running Minkowski sum of draws; the mean is the sum scaled by 1/count."""

    count: int = 0
    running_sum: Optional[ConvexBody] = None


def mean_process_extend(state: MeanProcessState, body: ConvexBody) -> MeanProcessState:
    """Add one draw to the running sum, hull-pruned."""
    if state.running_sum is None:
        return MeanProcessState(count=1, running_sum=body)
    if body.dim != state.running_sum.dim:
        raise DimensionMismatch("draw dimension does not match the running sum")
    return MeanProcessState(count=state.count + 1,
                            running_sum=minkowski_sum(state.running_sum, body))


def mean_process_mean(state: MeanProcessState) -> ConvexBody:
    if state.count < 1 or state.running_sum is None:
        raise ValueError("mean of an empty process is undefined")
    return scale(state.running_sum, 1.0 / state.count)


def qhull_minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """``a + b`` as ``hull`` of all pairwise vertex sums."""
    return hull((a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim))


def records_csv(records, sizes) -> str:
    """The ``records.csv`` text of an ``(R, S, k)`` records array at ``sizes``, value by value."""
    width = records.shape[-1]
    header = "replication,N,stat" if width == 1 else \
        "replication,N," + ",".join(f"stat_{i}" for i in range(width))
    lines = [header]
    for rep, per_size in enumerate(records.tolist()):
        for n, stat in zip(sizes, per_size):
            lines.append(f"{rep},{n}," + ",".join(_format_float(s) for s in stat))
    return "\n".join(lines) + "\n"


def same_body(a: ConvexBody, b: ConvexBody, tol: float = 1e-9) -> bool:
    """Equality of minimal representations up to a tolerance."""
    if a.dim != b.dim or a.vertex_count != b.vertex_count:
        return False
    return hausdorff(a, b) <= tol


def dense_dedup(P: np.ndarray) -> np.ndarray:
    """Merge points closer than ``tolerance(REL_TOL, box_of(P))``, all pairs compared.

    Each cluster of the proximity graph is represented by its
    lexicographically smallest member; survivors keep their input order.
    """
    n = len(P)
    tol = tolerance(REL_TOL, box_of(P))
    close = ((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2) <= tol * tol
    label = list(range(n))

    def root(i):
        while label[i] != i:
            i = label[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if close[i, j]:
                label[root(j)] = root(i)
    best: dict[int, int] = {}
    for i in sorted(range(n), key=lambda i: tuple(P[i])):
        best.setdefault(root(i), i)
    return P[sorted(best.values())]


def chain_hull(points) -> np.ndarray:
    """Minimal hull vertices of 2-D points in lexicographic order.

    Points are merged by ``dense_dedup``; an affine rank of at most 1 by
    the hull's SVD test keeps the two extreme points along the leading
    singular vector, any other input goes to the monotone chain, which
    drops collinear points.
    """
    P = dense_dedup(np.asarray(points, dtype=float))
    if len(P) > 2:
        M = P - P.mean(axis=0)
        _, svals, Vt = np.linalg.svd(M, full_matrices=False)
        rank_tol = svals[0] * max(M.shape) * np.finfo(float).eps * 8.0
        if svals[0] <= 0.0:
            P = P[:1]
        elif svals[1] <= rank_tol:
            t = M @ Vt[0]
            P = P[sorted({int(np.argmin(t)), int(np.argmax(t))})]
        else:
            pts = sorted({(Fraction(x), Fraction(y)) for x, y in P.tolist()})

            def half(seq):
                out = []
                for p in seq:
                    while len(out) >= 2:
                        o, a = out[-2], out[-1]
                        if (a[0] - o[0]) * (p[1] - o[1]) - (p[0] - o[0]) * (a[1] - o[1]) <= 0:
                            out.pop()
                        else:
                            break
                    out.append(p)
                return out

            ring = half(pts)[:-1] + half(pts[::-1])[:-1]
            P = np.array([[float(x), float(y)] for x, y in ring])
    return P[np.lexsort(P.T[::-1])]


def checkpoints(y, config):
    """``(rep, n, counts)`` of every checkpoint in record order, one
    ``uniforms`` call per replication."""
    sizes = config.sample_sizes
    for rep in range(config.replications):
        draws = sample_many(y, uniforms(config.master_seed, rep, sizes[-1]))
        for n in sizes:
            yield rep, n, np.bincount(draws[:n], minlength=y.atom_count)


def body_values(kind, y, vector, config) -> dict:
    """Per checkpoint ``(rep, n)``, the statistic of a kernel of
    ``setmeans.simulate`` measured on the folded mean body.

    ``exposed``: the exposed point in direction ``vector`` (NaN when the
    face is tied); ``tangent``: the support in direction ``vector`` and
    the distance of the mean of the atom faces to their ``y.weights``
    mean; ``facet``: the distance to ``vector = (x, f)`` and 1.0 for an
    excursion off the facet in direction ``f``; ``flags``: 1.0 when the
    face in direction ``vector`` has two or more vertices.
    """
    out = {}
    for rep, n, counts in checkpoints(y, config):
        mean = weighted_sum(y.bodies, counts / n)
        if kind == "exposed":
            face = support_face(mean, vector).face
            value = face.vertices[0] if face.vertex_count == 1 else np.full(y.dim, np.nan)
        elif kind == "tangent":
            faces = [support_face(body, vector).face for body in y.bodies]
            value = [support(mean, vector), hausdorff(weighted_sum(faces, counts / n),
                                                      weighted_sum(faces, y.weights))]
        elif kind == "facet":
            x, f = vector
            dist = point_distance(mean, x)
            outside = dist <= tolerance(REL_TOL, y.box) or \
                not is_facet_at(mean, nearest_point(mean, x), f)
            value = [dist, float(outside)]
        else:
            value = float(support_face(mean, vector).face.vertex_count >= 2)
        out[rep, n] = np.asarray(value, dtype=float)
    return out


def exact_support_face(bodies, coefs, u) -> np.ndarray:
    """Vertices of the support face of ``sum_j coefs[j] * bodies[j]`` (2-D) in
    the integer direction ``u``, in lexicographic order.

    Decided in exact rational arithmetic: vertex coordinates and
    ``coefs`` (ints or ``Fraction``) are read as rationals, every
    combination of one vertex per body with a nonzero coefficient is
    evaluated, and the face is the segment between the maximizers that
    are extreme along ``u`` turned by 90 degrees.  No tolerance and no
    face commutation are involved.
    """
    u = [Fraction(int(c)) for c in u]
    terms = [(Fraction(c), [tuple(map(Fraction, v)) for v in body.vertices.tolist()])
             for body, c in zip(bodies, coefs) if c != 0]
    best, face = None, []
    for combo in itertools.product(*(vertices for _, vertices in terms)):
        p = tuple(sum(c * v[i] for (c, _), v in zip(terms, combo)) for i in range(2))
        value = u[0] * p[0] + u[1] * p[1]
        if best is None or value > best:
            best, face = value, [p]
        elif value == best:
            face.append(p)

    def along(p):
        return u[0] * p[1] - u[1] * p[0]

    ends = {min(face, key=along), max(face, key=along)}
    return np.array(sorted({(float(x), float(y)) for x, y in ends}))


FAR_POLYGON = [[12037.51731517066, -5884.016698305081], [12037.517365170661, -5884.016848305081],
               [12037.51741517066, -5884.016848305081], [12037.51746517066, -5884.016498305081],
               [12037.51751517066, -5884.0167983050815], [12037.51751517066, -5884.016598305081],
               [12037.51756517066, -5884.016698305081]]
FAR_QUERY = (12037.517578659275, -5884.016641976418)


def exact_nearest(vertices, x) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Squared distance from the 2-D point ``x`` to the convex hull of the
    rows of ``vertices``, and the nearest point, in exact rational
    arithmetic on the floats as given.

    The hull is Andrew's monotone chain with exact orientation signs
    (collinear points dropped).  ``x`` is inside when no edge of a ring
    of three or more vertices has it strictly on its right; otherwise
    the nearest point is the closest of the exact projections onto the
    ring's edges (a single point is its own edge).
    """
    q = tuple(Fraction(c) for c in np.asarray(x, dtype=float).tolist())
    pts = sorted({(Fraction(a), Fraction(b)) for a, b in np.asarray(vertices, dtype=float).tolist()})

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    ring = half(pts)[:-1] + half(pts[::-1])[:-1] if len(pts) > 1 else pts
    edges = list(zip(ring, ring[1:] + ring[:1]))
    if len(ring) >= 3 and all(cross(a, b, q) >= 0 for a, b in edges):
        return Fraction(0), q
    best = None
    for a, b in edges:
        e = (b[0] - a[0], b[1] - a[1])
        w = (q[0] - a[0], q[1] - a[1])
        ee = e[0] * e[0] + e[1] * e[1]
        t = min(Fraction(1), max(Fraction(0), (w[0] * e[0] + w[1] * e[1]) / ee)) if ee else 0
        p = (a[0] + t * e[0], a[1] + t * e[1])
        d2 = (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2
        if best is None or d2 < best[0]:
            best = (d2, p)
    return best


def wolfe_point_distance(a: ConvexBody, x) -> float:
    """Distance from ``x`` to ``a`` by Wolfe's min-norm solver, in any dimension."""
    return float(np.linalg.norm(_min_norm_point(a.vertices - _as_vector(x, a.dim))))


def wolfe_hausdorff(a: ConvexBody, b: ConvexBody) -> float:
    """Hausdorff distance from per-vertex Wolfe solves, in any dimension."""
    return max(max(wolfe_point_distance(b, v) for v in a.vertices),
               max(wolfe_point_distance(a, v) for v in b.vertices))
