"""Exact convex-polytope geometry on vertex lists.

Bodies are compact convex polytopes stored as minimal extreme-vertex
arrays in lexicographic order.  That representation keeps Minkowski
sums, scalar scaling and support queries exact up to floating-point
round-off, which is what the sample-mean experiments need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import ConvexHull as _Qhull
from scipy.spatial import QhullError, Voronoi, cKDTree

REL_TOL = 1e-9            # vertex merges, face and membership decisions, times the extent
ROUNDOFF = 32 * float(np.finfo(float).eps)  # round-off of a coordinate, times its magnitude
FACET_REL_MARGIN = 1e-6   # relative-interior margin, scaled by diameter
MIN_NORM_GAP_TOL = 1e-12  # duality-gap threshold for the min-norm solver


class GeometryError(ValueError):
    """Invalid geometric input."""


class DimensionMismatch(GeometryError):
    """Operands live in different ambient dimensions."""


class ConvergenceError(RuntimeError):
    """An iterative routine exceeded its iteration cap."""


# ---------------------------------------------------------------------------
# input validation helpers

def _as_points(points) -> np.ndarray:
    try:
        P = np.asarray(points, dtype=float)
    except ValueError as exc:  # ragged input: mixed dimensions
        raise GeometryError(f"points must share one dimension: {exc}") from exc
    if P.ndim == 1:
        P = P.reshape(1, -1)
    if P.ndim != 2 or P.shape[0] == 0:
        raise GeometryError(f"expected a nonempty (n, d) point array, got shape {P.shape}")
    if P.shape[1] < 1:
        raise GeometryError("points must have dimension >= 1")
    if not np.all(np.isfinite(P)):
        raise GeometryError("points contain NaN or infinite coordinates")
    return P


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("vector contains NaN or infinite coordinates")
    return v


def box_of(P: np.ndarray) -> tuple[float, float]:
    """Scale of a point array: ``(extent, magnitude)``, the diagonal of its
    bounding box and its largest absolute coordinate."""
    return float(np.linalg.norm(P.max(axis=0) - P.min(axis=0))), float(np.abs(P).max())


def tolerance(rel: float, box: tuple[float, float]) -> float:
    """The one tolerance model: ``rel * extent + ROUNDOFF * magnitude``.

    ``box`` is the ``(extent, magnitude)`` of the points a decision is
    about (:func:`box_of`, :attr:`ConvexBody.box`).  The extent term is
    invariant under translation and equivariant under scaling, and box
    widths add under Minkowski sums; the magnitude term only covers the
    round-off of coordinates far from the origin.  Every geometric
    threshold of the library is one of these.
    """
    extent, magnitude = box
    return rel * extent + ROUNDOFF * magnitude


def _canonical(V: np.ndarray) -> np.ndarray:
    """Sort vertex rows lexicographically (first coordinate is primary)."""
    order = np.lexsort(V.T[::-1])
    return np.ascontiguousarray(V[order])


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True, eq=False)
class ConvexBody:
    """Compact convex polytope given by its minimal extreme-vertex list.

    Construct bodies through :func:`hull`; the raw constructor trusts its
    input to be a minimal, deduplicated vertex set.
    """

    vertices: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
            raise GeometryError(f"vertex array must have shape (k>=1, d>=1), got {V.shape}")
        if not np.all(np.isfinite(V)):
            raise GeometryError("vertices contain NaN or infinite coordinates")
        V = np.ascontiguousarray(V)
        V.setflags(write=False)
        object.__setattr__(self, "vertices", V)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def max_norm(self) -> float:
        return float(np.sqrt((self.vertices ** 2).sum(axis=1)).max())

    @cached_property
    def box(self) -> tuple[float, float]:
        """``(extent, magnitude)`` of the vertices, see :func:`tolerance`."""
        return box_of(self.vertices)

    @cached_property
    def diameter(self) -> float:
        V = self.vertices
        if len(V) == 1:
            return 0.0
        diff = V[:, None, :] - V[None, :, :]
        return float(np.sqrt((diff ** 2).sum(axis=2)).max())

    def __repr__(self):
        return f"ConvexBody({self.vertex_count} vertices, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class FaceCertificate:
    """Support face of a body in a given direction.

    ``direction`` is the unit functional, ``face`` its argmax set,
    ``support_value`` the attained maximum.  ``facet_direction`` is a
    vector ``d`` with ``<direction, d> = 1``; it is populated exactly
    when the face has affine dimension >= 1.
    """

    direction: np.ndarray
    face: ConvexBody
    support_value: float
    is_exposed: bool
    facet_direction: Optional[np.ndarray]


# ---------------------------------------------------------------------------
# deduplication and extreme-point extraction

def _dedup(P: np.ndarray) -> np.ndarray:
    """Merge points closer than ``tolerance(REL_TOL, box_of(P))``.

    Clusters are formed from the pairwise proximity graph, so the result
    does not depend on input order; each cluster is represented by its
    lexicographically smallest member.
    """
    n = len(P)
    if n == 1:
        return P
    tol = tolerance(REL_TOL, box_of(P))
    pairs = cKDTree(P).query_pairs(tol, output_type="ndarray")
    if len(pairs) == 0:
        return P

    root = list(range(n))  # union-find over the close pairs, with path halving

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in pairs.tolist():
        a, b = find(i), find(j)
        root[max(a, b)] = min(a, b)
    labels = np.array([find(i) for i in range(n)])
    order = np.lexsort(P.T[::-1])
    _, first = np.unique(labels[order], return_index=True)
    return P[np.sort(order[first])]


def _affine_frame(P: np.ndarray):
    """SVD of the centred rows of P, truncated to their affine rank.

    Returns ``(centroid, U, s, Vt)`` with ``P - centroid ~= U @ diag(s) @ Vt``
    and ``len(s)`` the affine rank.  ``U * s`` are Euclidean coordinates in
    the affine hull; ``U`` itself is an affine image of them with unit
    spread along every axis, which keeps thin slivers well conditioned.
    """
    centroid = P.mean(axis=0)
    U, s, Vt = np.linalg.svd(P - centroid, full_matrices=False)
    rank = int((s > s[0] * max(P.shape) * np.finfo(float).eps * 8.0).sum())
    rank = min(rank, len(P) - 1)  # n points span at most n - 1 dimensions; the rest is rounding
    return centroid, U[:, :rank], s[:rank], Vt[:rank]


def _qhull(coords: np.ndarray) -> _Qhull:
    """Qhull of full-rank coordinates (2-D vertices come counterclockwise)."""
    try:
        return _Qhull(coords)
    except QhullError as exc:  # pragma: no cover - rank reduction should prevent this
        raise GeometryError(f"hull construction failed: {exc}") from exc


def _extreme_indices(P: np.ndarray) -> np.ndarray:
    """Indices of the extreme points of P (deduplicated input)."""
    if len(P) <= 2:
        return np.arange(len(P))
    _, U, _, _ = _affine_frame(P)  # extreme points are invariant under affine maps
    if U.shape[1] == 0:
        return np.array([0])
    if U.shape[1] == 1:
        lo, hi = int(np.argmin(U[:, 0])), int(np.argmax(U[:, 0]))
        return np.array([lo]) if lo == hi else np.array([lo, hi])
    return _qhull(U).vertices


# ---------------------------------------------------------------------------
# construction and Minkowski arithmetic

def hull(points) -> ConvexBody:
    """Convex hull as a minimal extreme-vertex body.

    Idempotent: ``hull(body.vertices)`` reproduces the body.
    """
    P = _dedup(_as_points(points))
    if P.shape[1] == 1:
        lo, hi = float(P.min()), float(P.max())
        V = np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        return ConvexBody(V)
    return ConvexBody(_canonical(P[_extreme_indices(P)]))


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Minkowski sum; support functions add: s_{A+B} = s_A + s_B."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot add bodies of dimension {a.dim} and {b.dim}")
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return hull(sums)


def scale(a: ConvexBody, lam: float) -> ConvexBody:
    """Scale a body by a nonnegative factor; lam = 0 gives the origin."""
    lam = float(lam)
    if lam < 0.0:
        raise GeometryError("negative scale factors (reflections) are not supported")
    if lam == 0.0:
        return ConvexBody(np.zeros((1, a.dim)))
    return ConvexBody(_canonical(lam * a.vertices))  # the merge tolerance scales along


def weighted_sum(bodies: Sequence[ConvexBody], coefs) -> ConvexBody:
    """Minkowski combination sum_j coefs[j] * bodies[j] with coefs >= 0.

    Folds ``minkowski_sum`` over the scaled vertex lists in input order
    and skips zero coefficients; an all-zero combination is the origin.
    The pieces are not pruned on their own, since the hull of each sum
    prunes them; a lone nonzero term is ``scale(body, c)``.
    """
    if len(bodies) == 0 or len(bodies) != len(coefs):
        raise GeometryError("need one coefficient per body and at least one body")
    if any(c < 0 for c in coefs):
        raise GeometryError("negative scale factors (reflections) are not supported")
    terms = [(body, c) for body, c in zip(bodies, coefs) if c != 0]
    if not terms:
        return ConvexBody(np.zeros((1, bodies[0].dim)))
    (body, c), *rest = terms
    if not rest:
        return scale(body, c)
    acc = ConvexBody(c * body.vertices)
    for body, c in rest:
        acc = minkowski_sum(acc, ConvexBody(c * body.vertices))
    return acc


# ---------------------------------------------------------------------------
# support functions and faces

def support(a: ConvexBody, u) -> float:
    """Maximum of the linear functional u over the body."""
    u = _as_vector(u, a.dim)
    return float((a.vertices @ u).max())


def support_face(a: ConvexBody, u) -> FaceCertificate:
    """Argmax set of a nonzero functional, with exposure classification.

    All vertices within ``tolerance(REL_TOL, a.box)`` of the maximum
    belong to the face.  The face's vertices are vertices of the body,
    hence the face body needs no re-hulling.
    """
    u = _as_vector(u, a.dim)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise GeometryError("support face of the zero functional is undefined")
    f = u / norm
    vals = a.vertices @ f
    smax = float(vals.max())
    face_vertices = a.vertices[vals >= smax - tolerance(REL_TOL, a.box)]
    face = ConvexBody(_canonical(face_vertices))
    exposed = face.vertex_count == 1
    f.setflags(write=False)
    facet_dir = None if exposed else f
    return FaceCertificate(direction=f, face=face, support_value=smax,
                           is_exposed=exposed, facet_direction=facet_dir)


def norm_gradient(x) -> np.ndarray:
    """Derivative of the Euclidean norm at x != 0, i.e. x normalized."""
    x = np.asarray(x, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise GeometryError("norm derivative is undefined at the origin")
    return x / norm


# ---------------------------------------------------------------------------
# nearest points and distances

def _affine_min_norm_coeffs(V: np.ndarray) -> np.ndarray:
    """Affine coefficients of the min-norm point in the affine hull of rows of V."""
    m = len(V)
    if m == 1:
        return np.array([1.0])
    G = V @ V.T
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = G
    A[:m, m] = 1.0
    A[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return sol[:m]


def _min_norm_point(P: np.ndarray) -> np.ndarray:
    """Min-norm point of conv(P) via Wolfe's corral algorithm.

    Terminates when the duality gap ||x||^2 - min_p <x, p> drops below
    ``MIN_NORM_GAP_TOL * max_p |p|^2``, a tolerance relative to the
    scale of P (so distances are equivariant under scaling); the
    iteration cap is
    10 * n * d, exceeding it raises :class:`ConvergenceError`.
    """
    n, d = P.shape
    norms2 = (P ** 2).sum(axis=1)
    gap_tol = MIN_NORM_GAP_TOL * float(norms2.max())
    start = int(np.argmin(norms2))
    corral = [start]
    lam = np.array([1.0])
    x = P[start].astype(float)
    cap = max(10 * n * d, 16)

    for _ in range(cap):
        dots = P @ x
        j = int(np.argmin(dots))
        gap = float(x @ x - dots[j])
        if gap <= gap_tol or j in corral:
            return x
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            V = P[corral]
            alpha = _affine_min_norm_coeffs(V)
            if np.all(alpha > 1e-12):
                lam = alpha
                x = V.T @ alpha
                break
            neg = alpha <= 1e-12
            denom = lam[neg] - alpha[neg]
            valid = denom > 1e-300
            if not np.any(valid):
                return x  # numerically stalled; x is optimal to round-off
            theta = float(np.min(lam[neg][valid] / denom[valid]))
            lam = lam + theta * (alpha - lam)
            lam[lam < 1e-12] = 0.0
            keep = lam > 0.0
            if not np.any(keep):
                keep[int(np.argmax(alpha))] = True
                lam[keep] = 1.0
            corral = [corral[i] for i in range(len(corral)) if keep[i]]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = P[corral].T @ lam
    raise ConvergenceError(f"min-norm solver did not converge within {cap} iterations")


def nearest_point(a: ConvexBody, x) -> np.ndarray:
    """Euclidean projection of x onto the body (unique by strict convexity)."""
    x = _as_vector(x, a.dim)
    z = _min_norm_point(a.vertices - x)
    return x + z


def point_distance(a: ConvexBody, x) -> float:
    """Distance from x to the body; zero iff x lies inside."""
    x = _as_vector(x, a.dim)
    z = _min_norm_point(a.vertices - x)
    return float(np.linalg.norm(z))


def deviation(a: ConvexBody, b: ConvexBody) -> float:
    """One-sided deviation of a from b: farthest a-point from b.

    d(., b) is convex, so its maximum over a is attained at a vertex.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("deviation requires equal dimensions")
    return max(point_distance(b, v) for v in a.vertices)


def hausdorff(a: ConvexBody, b: ConvexBody) -> float:
    """Hausdorff distance: the larger of the two one-sided deviations."""
    return max(deviation(a, b), deviation(b, a))


@lru_cache(maxsize=32)
def _sphere_grid_cached(dim: int, m: int) -> np.ndarray:
    if dim == 1:
        grid = np.array([[1.0], [-1.0]])
    elif dim == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        grid = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif dim == 3:
        k = np.arange(m)
        z = 1.0 - (2.0 * k + 1.0) / m
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        grid = np.stack([r * np.cos(golden * k), r * np.sin(golden * k), z], axis=1)
    else:
        raise GeometryError(f"direction grids are only generated for dimension <= 3, got {dim}")
    grid.setflags(write=False)
    return grid


def sphere_grid(dim: int, m: int) -> np.ndarray:
    """Deterministic unit-direction grid: uniform angles (2-D), Fibonacci sphere (3-D)."""
    if m < 1:
        raise GeometryError("grid size must be positive")
    return _sphere_grid_cached(int(dim), int(m))


def hausdorff_via_support(a: ConvexBody, b: ConvexBody, m: int) -> float:
    """Hausdorff distance approximated by max |s_A - s_B| over a direction grid.

    Never exceeds the exact value for convex inputs and converges to it
    as the grid is refined.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("support comparison requires equal dimensions")
    if m < 8:
        raise GeometryError("direction grid needs at least 8 points")
    grid = sphere_grid(a.dim, m)
    sa = (grid @ a.vertices.T).max(axis=1)
    sb = (grid @ b.vertices.T).max(axis=1)
    return float(np.abs(sa - sb).max())


# ---------------------------------------------------------------------------
# 2-D normal fans: exact Hausdorff distances between Minkowski combinations

@dataclass(frozen=True, eq=False)
class NormalFan:
    """Common refinement of the outer normal fans of a family of 2-D bodies.

    Cell ``i`` is the counterclockwise arc from ``directions[i]`` to
    ``directions[i + 1]`` (the last cell wraps around to the first
    direction); ``vertices[i, j]`` is the vertex of body ``j`` attaining
    its support on that arc.  Support functions are linear in the
    coefficients, so on cell ``i`` the support function of
    ``sum_j c[j] * K_j`` is ``u -> <u, c @ vertices[i]>``.  Build it with
    :func:`normal_fan`.
    """

    directions: np.ndarray   # (m, 2) unit vectors, sorted by angle
    vertices: np.ndarray     # (m, J, 2)

    def __post_init__(self):
        angles = np.arctan2(self.directions[:, 1], self.directions[:, 0])
        object.__setattr__(self, "_angles", angles)
        object.__setattr__(self, "_spans", np.diff(angles, append=angles[0] + 2.0 * np.pi))
        object.__setattr__(self, "_ends", np.roll(self.directions, -1, axis=0))

    def _coefficients(self, coefs) -> np.ndarray:
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape[-1:] != (self.vertices.shape[1],):
            raise GeometryError("need one coefficient per body")
        if (coefs < 0.0).any():
            raise GeometryError("negative scale factors (reflections) are not supported")
        return coefs

    def _combine(self, coefs: np.ndarray) -> np.ndarray:
        """``sum_j coefs[..., j] * vertices[:, j]``, shape ``(..., m, 2)``.

        Folded over the bodies in input order, so the value of one
        combination does not depend on how many are evaluated at once.
        """
        c = coefs[..., None, None]
        acc = c[..., 0, :, :] * self.vertices[:, 0]
        for j in range(1, self.vertices.shape[1]):
            acc = acc + c[..., j, :, :] * self.vertices[:, j]
        return acc

    def support_points(self, coefs) -> np.ndarray:
        """Per cell, the vertex of ``sum_j coefs[..., j] * K_j`` attaining its
        support on that cell: shape ``(..., m, 2)``.  Every vertex of the
        combination is among them."""
        return self._combine(self._coefficients(coefs))

    def hausdorff(self, coefs, ref):
        """Exact ``H(sum_j coefs[j] * K_j, sum_j ref[j] * K_j)`` for coefficients >= 0.

        ``H(A, B) = sup_{|u|=1} |h_A(u) - h_B(u)|``.  On a cell that
        difference is ``<u, D>`` with ``D = (coefs - ref) @ vertices[i]``,
        whose largest absolute value on the arc is ``|D|`` when ``D`` or
        ``-D`` points into the arc, and otherwise the larger of the two
        endpoint values.  ``coefs`` and ``ref`` may carry leading batch
        axes ``(..., J)``; the result then has shape ``(...)``.
        """
        D = self._combine(self._coefficients(coefs) - self._coefficients(ref))
        ends = np.maximum(np.abs((D * self.directions).sum(axis=-1)),
                          np.abs((D * self._ends).sum(axis=-1)))
        # D or -D lies in the arc iff its angle from the start, modulo pi, is within the span
        inside = (np.arctan2(D[..., 1], D[..., 0]) - self._angles) % np.pi <= self._spans
        out = np.where(inside, np.hypot(D[..., 0], D[..., 1]), ends).max(axis=-1)
        return float(out) if out.ndim == 0 else out

    def point_distance(self, coefs, x):
        """Exact distance from the point ``x`` to ``sum_j coefs[j] * K_j``.

        ``d(x, K) = max(0, sup_{|u|=1} <u, x> - h_K(u))``.  On a cell
        that difference is ``<u, D>`` with ``D = x - coefs @ vertices[i]``,
        whose largest value on the arc is ``|D|`` when ``D`` points into
        the arc, and otherwise the larger endpoint value.  Batched like
        :meth:`hausdorff`.
        """
        D = np.asarray(x, dtype=float) - self.support_points(coefs)
        ends = np.maximum((D * self.directions).sum(axis=-1), (D * self._ends).sum(axis=-1))
        inside = (np.arctan2(D[..., 1], D[..., 0]) - self._angles) % (2.0 * np.pi) <= self._spans
        out = np.maximum(np.where(inside, np.hypot(D[..., 0], D[..., 1]), ends).max(axis=-1), 0.0)
        return float(out) if out.ndim == 0 else out


def _normal_angles(V: np.ndarray) -> np.ndarray:
    """Angles of the outer edge normals of a minimal 2-D vertex list.

    A point has none and a segment has two antipodal ones.  The vertices
    of a polygon are all extreme, so sorting them by angle about their
    centroid lists them counterclockwise.
    """
    if len(V) == 1:
        return np.empty(0)
    if len(V) > 2:
        C = V - V.mean(axis=0)
        V = V[np.argsort(np.arctan2(C[:, 1], C[:, 0]))]
    E = np.roll(V, -1, axis=0) - V
    return np.arctan2(-E[:, 0], E[:, 1])  # E rotated clockwise: outward for a CCW ring


def normal_fan(bodies: Sequence[ConvexBody]) -> NormalFan:
    """Common refinement of the outer normal fans of 2-D bodies.

    The cell boundaries are the edge normals of all bodies; on each cell
    every body's support is attained at one vertex, read off at the
    middle of the arc.  A family of points has no normals and gives a
    single cell, the whole circle, starting at direction ``(1, 0)``.
    """
    if len(bodies) == 0:
        raise GeometryError("need at least one body")
    if any(body.dim != 2 for body in bodies):
        raise GeometryError("normal fans are built for 2-D bodies only")
    angles = np.unique(np.concatenate([_normal_angles(body.vertices) for body in bodies]))
    if len(angles) == 0:
        angles = np.zeros(1)
    mids = angles + np.diff(angles, append=angles[0] + 2.0 * np.pi) / 2.0
    mid_dirs = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    vertices = np.stack([body.vertices[np.argmax(mid_dirs @ body.vertices.T, axis=1)]
                         for body in bodies], axis=1)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return NormalFan(directions, vertices)


# ---------------------------------------------------------------------------
# facet classification

def _relative_boundary_distance(Q: np.ndarray, q: np.ndarray, tol: float) -> float:
    """Signed distance from q to the relative boundary of conv(Q), negative
    outside; -inf when q is farther than ``tol`` from the affine hull of Q.

    Supports point sets of affine rank <= 2, which covers the faces of
    bodies of dimension <= 3 measured inside their hyperplane.
    """
    centroid, U, s, Vt = _affine_frame(Q)
    rank = len(s)
    r = q - centroid
    if rank == 0 or np.linalg.norm(r - (Vt @ r) @ Vt) > tol:
        return -np.inf
    if rank == 1:
        t, ts = float(Vt[0] @ r), U[:, 0] * s[0]
        return min(t - float(ts.min()), float(ts.max()) - t)
    if rank == 2:
        eq = _qhull(U * s).equations
        return float(-(eq[:, :2] @ (Vt @ r) + eq[:, 2]).max())
    raise GeometryError(f"facet test needs a face of affine rank <= 2, got rank {rank}")


def _in_facet(face: ConvexBody, k: np.ndarray, f: np.ndarray, margin: float, tol: float) -> bool:
    """Whether the face of the unit functional ``f`` has two or more vertices,
    ``k`` lies on its hyperplane within ``tol`` and, measured inside the
    hyperplane ``f``-perp where the face lives, keeps more than ``margin``
    from the face's relative boundary.  In 2-D every such face is a
    segment or a point, however its vertices scatter along ``f``."""
    V = face.vertices
    if len(V) < 2 or abs(float((V @ f).max() - k @ f)) > tol:
        return False
    perp = np.linalg.svd(f[None, :])[2][1:]   # orthonormal rows spanning f-perp
    return _relative_boundary_distance(V @ perp.T, perp @ k, tol) > margin


def is_facet_at(a: ConvexBody, k, f) -> bool:
    """Whether the support face of f has affine dimension >= 1 and contains
    k in its relative interior, measured inside the hyperplane f-perp
    (margin of 1e-6 times the diameter)."""
    k = _as_vector(k, a.dim)
    tol = tolerance(REL_TOL, a.box)
    if point_distance(a, k) > tol:
        raise GeometryError("query point lies outside the body")
    cert = support_face(a, f)
    return _in_facet(cert.face, k, cert.direction, FACET_REL_MARGIN * a.diameter, tol)


# ---------------------------------------------------------------------------
# Shapley-Folkman gap

def shapley_folkman_gap(sets: Sequence) -> tuple[float, float]:
    """Gap between the averaged raw sum of finite sets and its convexification.

    The raw Minkowski sum is enumerated exhaustively; the gap is the
    exact Hausdorff distance between the scaled raw sum and its convex
    hull (a covering-radius computation).  The bound is
    sqrt(d)/N * max_i max_{p in K_i} ||p||, and gap <= bound always.
    """
    arrays = [_as_points(s) for s in sets]
    if not arrays:
        raise GeometryError("need at least one point set")
    d = arrays[0].shape[1]
    for s in arrays:
        if s.shape[1] != d:
            raise DimensionMismatch("all point sets must share one dimension")
    n_sets = len(arrays)

    raw = np.zeros((1, d))
    for s in arrays:
        raw = (raw[:, None, :] + s[None, :, :]).reshape(-1, d)
        raw = np.unique(raw, axis=0)
    scaled = raw / n_sets

    gap = _covering_radius(scaled)
    max_set_norm = max(float(np.sqrt((s ** 2).sum(axis=1)).max()) for s in arrays)
    bound = math.sqrt(d) / n_sets * max_set_norm
    return gap, bound


def _covering_radius(sites: np.ndarray) -> float:
    """Exact max over conv(sites) of the distance to the nearest site."""
    _, U, s, _ = _affine_frame(sites)
    coords = U * s
    rank = len(s)
    if rank == 0:
        return 0.0
    if rank == 1:
        return float(np.diff(np.sort(coords[:, 0])).max() / 2.0)
    if rank == 2:
        return _covering_radius_2d(coords, _qhull(coords))
    raise GeometryError(
        f"convexification gap is exact only for point sets of affine rank <= 2, got rank {rank}"
    )


def _covering_radius_2d(sites: np.ndarray, qh: _Qhull) -> float:
    """Largest empty circle centered in the hull of the sites, sites as obstacles.

    Candidate centers are the circumcenters of site triples (interior
    local maxima) and the crossings of site-pair bisectors with the ring
    edges (boundary local maxima); evaluating the nearest-site distance
    at each candidate is exact.
    """
    n = len(sites)
    ring = sites[qh.vertices]  # counterclockwise
    tree = cKDTree(sites)
    box = box_of(sites)
    tol = tolerance(REL_TOL, box)
    candidates = []

    if n <= 12:
        pair_idx = np.array(list(itertools.combinations(range(n), 2)))
        interior = []
        for i, j, k in itertools.combinations(range(n), 3):
            c = _circumcenter(sites[i], sites[j], sites[k], tol * box[0])
            if c is not None:
                interior.append(c)
        interior = np.array(interior) if interior else np.empty((0, 2))
    else:
        vor = Voronoi(sites)
        pair_idx = vor.ridge_points
        interior = vor.vertices

    if len(interior):
        inside = (interior @ qh.equations[:, :2].T + qh.equations[:, 2] <= tol).all(axis=1)
        candidates.append(interior[inside])

    # bisector lines of site pairs crossed with each ring edge
    a = sites[pair_idx[:, 0]]
    b = sites[pair_idx[:, 1]]
    normals = b - a
    consts = ((b ** 2).sum(axis=1) - (a ** 2).sum(axis=1)) / 2.0
    m = len(ring)
    for i in range(m):
        e0, e1 = ring[i], ring[(i + 1) % m]
        delta = e1 - e0
        den = normals @ delta
        num = consts - normals @ e0
        ok = np.abs(den) > ROUNDOFF * np.linalg.norm(normals, axis=1) * np.linalg.norm(delta)
        t = num[ok] / den[ok]
        on_edge = (t >= 0.0) & (t <= 1.0)
        if np.any(on_edge):
            candidates.append(e0 + t[on_edge, None] * delta)

    if not candidates:
        return 0.0
    points = np.vstack(candidates)
    if len(points) == 0:
        return 0.0
    dists, _ = tree.query(points)
    return float(dists.max())


def _circumcenter(p, q, r, min_det: float):
    """Circumcenter of a triangle; None when ``|det|`` (eight times its area)
    is at most ``min_det``."""
    A = 2.0 * np.array([q - p, r - p])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) <= min_det:
        return None
    rhs = np.array([q @ q - p @ p, r @ r - p @ p])
    return np.linalg.solve(A, rhs)
