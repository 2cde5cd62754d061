"""Exact convex-polytope geometry on vertex lists.

Bodies are compact convex polytopes given by minimal extreme-vertex
arrays in lexicographic order; a 2-D body that a hull, scale or sum
builds stores its boundary walk instead and derives that array on first
read.  That representation keeps Minkowski
sums, scalar scaling and support queries exact up to floating-point
round-off, which is what the sample-mean experiments need.

Hulls of affine rank 2 (every 2-D body and planar 3-D clouds) come from
a monotone chain in numpy and Python; qhull (``scipy.spatial``) is
loaded only for rank-3 hulls and the covering radius of
:func:`shapley_folkman_gap`, so a 2-D run never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

REL_TOL = 1e-9            # vertex merges, face and membership decisions, times the extent
ROUNDOFF = 32 * float(np.finfo(float).eps)  # round-off of a coordinate, times its magnitude
FACET_REL_MARGIN = 1e-6   # relative-interior margin of the facet test, relative (see `tolerance`)
SFS_MAX_SUMS = 2 ** 18    # most raw sums `shapley_folkman_gap` enumerates in one step
MIN_NORM_GAP_TOL = 1e-12  # duality-gap threshold for the min-norm solver

_OCTAGON = np.exp(-0.25j * np.pi * np.arange(8))  # conjugates of the directions k * 45 degrees


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


def _extremes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest value of each coordinate (column) of
    the ``(n, d)`` array ``P``, each taken in one contiguous pass."""
    by_coordinate = P.T.copy()
    return np.minimum.reduce(by_coordinate, axis=1), np.maximum.reduce(by_coordinate, axis=1)


def box_of(P: np.ndarray) -> tuple[float, float]:
    """Scale of a point array: ``(extent, magnitude)``, the diagonal of its
    bounding box and its largest absolute coordinate.  A coordinate that is
    not finite, or a diagonal whose square overflows (beyond about 1.3e154,
    where every tolerance would be infinite), raises :class:`GeometryError`."""
    lo, hi = _extremes(P)
    extremes = lo.tolist() + hi.tolist()
    if not all(map(math.isfinite, extremes)):
        raise GeometryError("vertices contain NaN or infinite coordinates")
    magnitude = max(map(abs, extremes))
    with np.errstate(over="ignore"):
        d = hi - lo
        extent2 = float(d.dot(d))   # the sum np.linalg.norm takes
    if not math.isfinite(extent2):
        raise GeometryError(f"the bounding box of coordinates up to {magnitude!r} has a "
                            f"diagonal beyond about 1.3e154, whose square overflows")
    return math.sqrt(extent2), magnitude


def tolerance(rel: float, box: tuple[float, float]) -> float:
    """The one tolerance model: ``rel * extent + ROUNDOFF * magnitude``.

    ``box`` is the ``(extent, magnitude)`` of the points a decision is
    about (:func:`box_of`, :attr:`ConvexBody.box`).  The extent term is
    invariant under translation and equivariant under scaling, and box
    widths add under Minkowski sums; the magnitude term only covers the
    round-off of coordinates far from the origin.  Every geometric
    threshold of the library is one.
    """
    extent, magnitude = box
    return rel * extent + ROUNDOFF * magnitude


def _canonical(V: np.ndarray) -> np.ndarray:
    """Sort vertex rows lexicographically (first coordinate is primary)."""
    order = np.lexsort(V.T[::-1])
    return np.ascontiguousarray(V[order])


def _edges(z: np.ndarray) -> np.ndarray:
    """Edges ``z[i + 1] - z[i]`` of the closed ring of complex vertices
    ``z``, wrapping around: a segment has two antiparallel edges."""
    return np.concatenate((z[1:], z[:1])) - z


# ---------------------------------------------------------------------------
# core types

class ConvexBody:
    """Compact convex polytope given by its minimal extreme-vertex list.

    Construct bodies through :func:`hull`; the raw constructor trusts its
    input to be a minimal, deduplicated vertex set.  A body is immutable.
    A 2-D body that :func:`hull`, :func:`scale` or the merge builds
    stores only its walk (:attr:`_walk`, :func:`_with_walk`) and derives
    :attr:`vertices` from it on first read; :attr:`dim` and
    :attr:`vertex_count` do not read them.  A raw 2-D body of three or
    more vertices reads the walk of their :func:`hull`: every walk's
    angles ascend.
    """

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
            raise GeometryError(f"vertex array must have shape (k>=1, d>=1), got {V.shape}")
        if not np.isfinite(V).all():
            raise GeometryError("vertices contain NaN or infinite coordinates")
        V = np.ascontiguousarray(V)
        V.setflags(write=False)
        self.__dict__["vertices"] = V

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a ConvexBody is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a ConvexBody is immutable")

    @cached_property
    def vertices(self) -> np.ndarray:
        """The ``(k, d)`` vertices in lexicographic order, C-contiguous and
        read-only.  A raw body stores them; a body built from its walk
        derives them here, once, from the walk's ring."""
        V = _canonical(_open(self._walk[0]).view(float).reshape(-1, 2))
        V.setflags(write=False)
        return V

    @property
    def dim(self) -> int:
        return self.vertices.shape[1] if "vertices" in self.__dict__ else 2

    @property
    def vertex_count(self) -> int:
        if "vertices" in self.__dict__:
            return self.vertices.shape[0]
        return len(_open(self._walk[0]))

    @cached_property
    def max_norm(self) -> float:
        return float(np.sqrt((self.vertices ** 2).sum(axis=1)).max())

    @cached_property
    def box(self) -> tuple[float, float]:
        """``(extent, magnitude)`` of the vertices, see :func:`tolerance`."""
        return box_of(self.vertices)

    @cached_property
    def _walk(self):
        """2-D only: ``(ring, angles)``, the one boundary a body stores, as
        :func:`_merged_sum` and :func:`normal_fan` walk it.

        ``angles`` are the outer-normal angles of the edges, started at the
        least and ascending; ``ring`` lists the vertices counterclockwise
        from where that edge starts, closed by a copy of it, so edge ``k``
        runs from ``ring[k]`` to ``ring[k + 1]`` and ``ring[k]`` attains
        the support on the arc from ``angles[k - 1]`` to ``angles[k]``.  A
        point is its own ring, with no angles.  Both arrays are read-only:
        :func:`scale` shares the angles.

        :func:`hull`, :func:`scale` and the merge build the body from it
        (:func:`_with_walk`), and that body derives its :attr:`vertices`
        from ``ring``.  A raw body derives the walk here, once: a point or
        a segment from its own vertices (:func:`_walk_of`), a body of three
        or more vertices as the walk of their :func:`hull`, which it then
        answers queries, merges and fans on.
        """
        z = self.vertices.view(complex)[:, 0]
        return (hull(self.vertices) if len(z) > 2 else _with_walk(*_walk_of(z)))._walk

    def __repr__(self):
        return f"ConvexBody({self.vertex_count} vertices, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class FaceCertificate:
    """Support face of a body in a given direction.

    ``direction`` is the unit functional, ``face`` its argmax set,
    ``support_value`` the attained maximum.
    """

    direction: np.ndarray
    face: ConvexBody
    support_value: float


# ---------------------------------------------------------------------------
# deduplication and extreme-point extraction

def _dedup(P: np.ndarray) -> np.ndarray:
    """Merge points closer than ``tolerance(REL_TOL, box_of(P))``.

    Clusters are formed from the pairwise proximity graph, so the result
    does not depend on input order; each cluster is represented by its
    lexicographically smallest member.  The close pairs are found by a
    sweep: the points are sorted along the direction ``(sqrt 2, sqrt 3,
    2, ...)``, which no nonzero integer vector of up to six dimensions is
    orthogonal to, so the points of a lattice get distinct sweep
    coordinates.  Each point is compared exactly with the points whose
    sweep coordinate is at most ``2 tol`` above its own (one more
    tolerance covers the rounding of the projection), visited one offset
    of the sorted order at a time: memory stays O(n), and time is O(n)
    plus the number of points in those windows.
    """
    n = len(P)
    if n == 1:
        return P
    tol = tolerance(REL_TOL, box_of(P))
    u = np.sqrt(np.arange(2.0, P.shape[1] + 2.0))
    x = P @ (u / np.linalg.norm(u))
    order = np.argsort(x, kind="stable")
    x = x[order]
    pairs = []
    m = np.arange(n - 1)  # the points whose window reaches the offset k
    for k in range(1, n):
        m = m[m + k < n]
        m = m[x[m + k] - x[m] <= 2.0 * tol]
        if len(m) == 0:
            break
        pi, pj = order[m], order[m + k]
        close = ((P[pi] - P[pj]) ** 2).sum(axis=1) <= tol * tol
        pairs.append(np.stack((pi[close], pj[close]), axis=1))
    pairs = np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=int)
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


def _rank_cut(P: np.ndarray) -> float:
    """``tolerance(8 n eps, box_of(P))`` with ``n = max(P.shape)``: how far
    a point may lie from a line or plane and still count as on it, so
    that the round-off of points far from the origin is never read as
    another dimension."""
    return tolerance(8.0 * max(P.shape) * float(np.finfo(float).eps), box_of(P))


def _affine_frame(P: np.ndarray):
    """SVD of the centred rows of P, truncated to their affine rank.

    Returns ``(centroid, U, s, Vt)`` with ``P - centroid ~= U @ diag(s) @ Vt``
    and ``len(s)`` the affine rank: the fewest leading axes that leave
    every point within :func:`_rank_cut` of its projection.  ``U * s``
    are Euclidean coordinates in the affine hull; ``U`` itself is an
    affine image of them with unit spread along every axis, which keeps
    thin slivers well conditioned.
    """
    centroid = P.mean(axis=0)
    U, s, Vt = np.linalg.svd(P - centroid, full_matrices=False)
    W2 = (U * s) ** 2
    # residual[r]: the largest distance of a point from its projection onto axes 0 .. r-1
    residual = np.sqrt(np.cumsum(W2[:, ::-1], axis=1)[:, ::-1].max(axis=0))
    rank = int((residual > _rank_cut(P)).sum())
    return centroid, U[:, :rank], s[:rank], Vt[:rank]


def _depths(ring: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``(m, n)`` distances of the complex points ``z`` to the left of
    each edge of the closed counterclockwise ``ring`` of ``m`` complex
    vertices, each distinct from the next: positive inside."""
    E = _edges(ring)
    return (E.conj()[:, None] * (z - ring[:, None])).imag / np.abs(E)[:, None]


def _width(ring: np.ndarray, phi: np.ndarray) -> float:
    """``_depths(z, z).max(axis=1).min()`` for the walk ``(ring, phi)``
    (:func:`_walk_of`) of a convex counterclockwise ring ``z`` of three or
    more complex vertices, in O(m) memory: the width of its narrowest
    strip.

    Rotating calipers: the outer-normal angles ``phi`` ascend, and the
    vertex farthest from edge ``i`` is where they pass ``phi[i] + pi``.
    Each edge's depths are taken, by the formula of :func:`_depths`, at
    that vertex and its two neighbours.
    """
    z = _open(ring)
    E = _edges(z)
    half = phi + np.pi
    far = np.searchsorted(phi, np.where(half > phi[-1], half - 2.0 * np.pi, half))
    far = (far[:, None] + np.arange(-1, 2)) % len(z)
    depths = (E.conj()[:, None] * (z[far] - z[:, None])).imag / np.abs(E)[:, None]
    return float(depths.max(axis=1).min())


def _chain(z: np.ndarray, cut: float, order: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the planar points ``z`` (as complex
    numbers), counterclockwise from the first in ``order``; two indices
    when they are all on a line.  Of coincident points, one is kept.

    Andrew's monotone chain (*Inf. Process. Lett.* 9, 1979) on the
    points swept in ``order``, the order of a linear functional with its
    ties broken by another: a middle point on or beyond the chord of its
    neighbours is popped, and so is one within ``cut`` of it between its
    ends, but not one past an end, as on a chord across the sweep.  An
    end of the sweep within ``cut`` of the chord of its ring neighbours,
    between them, is dropped; that moves its neighbours no nearer their
    new chords.  ``z`` must be Euclidean coordinates, so that ``cut`` is
    a distance.  Points inside the octagon of the axis and diagonal
    extremes by more than ``cut`` are no vertices; they are dropped
    first, in one vectorised step, which leaves the Python loop only the
    points near the boundary.  The octagon is taken on the swept points,
    so ties pick the same extremes whatever the input order.
    """
    z = z[order]
    O = z[np.argmax((_OCTAGON[:, None] * z).real, axis=1)]  # counterclockwise
    O = O[np.concatenate((O[1:], O[:1])) != O]
    near = ~(_depths(O, z) > cut).all(axis=0)
    order = order[near]
    pts = z[near].tolist()

    def pops(o, b, p, behind):   # b within the cut of the chord o-p and between, or behind it
        d = p - o
        w = (b - o).conjugate() * d   # real part: along the chord, imaginary: across it
        return ((behind and w.imag <= 0.0)
                or (w.imag <= cut * abs(d) and 0.0 <= w.real <= (d * d.conjugate()).real))

    def half(seq):
        out = []
        for k in seq:
            while len(out) >= 2 and pops(pts[out[-2]], pts[out[-1]], pts[k], True):
                out.pop()
            out.append(k)
        return out[:-1]

    m = len(pts)
    lower = half(range(m))
    ring = lower + half(range(m - 1, -1, -1))
    for i in (len(lower), 0):   # the ends of the sweep, the later first
        if len(ring) > 2 and pops(pts[ring[i - 1]], pts[ring[i]], pts[ring[(i + 1) % len(ring)]], False):
            del ring[i]
    return order[ring]


def _planar_extremes(W: np.ndarray, P: np.ndarray, order: np.ndarray):
    """``(indices, walk)`` of the extreme points of the distinct points
    ``P`` of affine rank 2, given as Euclidean coordinates ``W`` in their
    plane and swept in ``order`` (see :func:`_chain`); the walk
    (:func:`_walk_of`) is of their coordinates ``W``.

    The ring of :func:`_chain` with ``cut = _rank_cut(P)``, unless it is
    no wider than ``2 cut``: then every point lies within ``cut`` of the
    middle line of its narrowest strip, which is the rank-1 rule of
    :func:`_rank_cut`, and the points are the segment between the two
    ring vertices farthest apart.  The width is :func:`_width` of the
    ring's walk, in O(m) memory.  Each vertex of the chain lies more than
    the cut outside the chord of its neighbours, or past an end of it,
    where the chain turns nearly back: far above the round-off of the
    walk's angles either way, so they ascend.
    """
    cut = _rank_cut(P)
    z = np.ascontiguousarray(W).view(complex)[:, 0]
    ring = _chain(z, cut, order)
    walk = _walk_of(z[ring])
    if len(ring) == 2 or _width(*walk) > 2.0 * cut:
        return ring, walk
    z = z[ring]
    i, j = divmod(int(np.abs(z[:, None] - z).argmax()), len(ring))
    return ring[[i, j]], _walk_of(z[[i, j]])


def _qhull(coords: np.ndarray):
    """Qhull of full-rank coordinates (2-D vertices come counterclockwise)."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(coords)
    except QhullError as exc:  # pragma: no cover - rank reduction should prevent this
        raise GeometryError(f"hull construction failed: {exc}") from exc


def _extreme_indices(P: np.ndarray) -> np.ndarray:
    """Indices of the extreme points of P (deduplicated input) off 2-D.

    Extreme points are invariant under affine maps, so they are found in
    the frame of :func:`_affine_frame`: the two ends of a rank-1 frame, and
    qhull on ``U`` of a rank-3 frame.  A rank-2 frame is charted by the
    two coordinates ``(i, j)`` of its largest Plücker coordinate (in 3-D,
    the axes other than that of the normal's largest coordinate).  Each
    point is moved along the other axes into the plane, where its
    Euclidean coordinates are an affine image of ``P[:, [i, j]]``, and
    the chain sweeps the points in the lexicographic order of that chart,
    then of the other coordinates, which follows the plane even where one
    coordinate varies across it by round-off only.  The chart is
    oriented by the sign of that Plücker coordinate.  Neither depends on
    the frame the SVD picks, which changes with the input order.  All
    use the cut of :func:`_rank_cut`.
    """
    if len(P) == 1:
        return np.array([0])
    centroid, U, s, Vt = _affine_frame(P)
    if U.shape[1] == 0:  # one point up to round-off: the lexicographically smallest
        return np.lexsort(P.T[::-1])[:1]
    if U.shape[1] == 1:
        return np.array([np.argmin(U[:, 0]), np.argmax(U[:, 0])])
    if U.shape[1] == 2:
        plucker = np.outer(Vt[0], Vt[1]) - np.outer(Vt[1], Vt[0])
        i, j = divmod(int(np.argmax(np.abs(plucker))), P.shape[1])
        chart = P[:, [i, j]]
        W = (chart - centroid[[i, j]]) @ np.linalg.inv(Vt[:, [i, j]])  # chart = centroid + W @ Vt
        W[:, 1] *= np.sign(plucker[i, j])
        rest = [k for k in range(P.shape[1]) if k not in (i, j)]
        return _planar_extremes(W, P, np.lexsort(P[:, rest[::-1] + [j, i]].T))[0]
    return _qhull(U).vertices


# ---------------------------------------------------------------------------
# construction and Minkowski arithmetic

def hull(points) -> ConvexBody:
    """Convex hull as a minimal extreme-vertex body.

    Idempotent: ``hull(body.vertices)`` reproduces the body.  A 2-D body
    stores the walk of the counterclockwise ring of its chain, the one
    whose angles the width test read (:func:`_planar_extremes`,
    :func:`_with_walk`).
    """
    P = _dedup(_as_points(points))
    if P.shape[1] != 2:
        return ConvexBody(_canonical(P[_extreme_indices(P)]))
    if len(P) == 1:
        return _with_walk(*_walk_of(P.copy().view(complex)[:, 0]))
    return _with_walk(*_planar_extremes(P, P, np.lexsort(P.T[::-1]))[1])


def _open(ring: np.ndarray) -> np.ndarray:
    """The ring of a walk without its closing copy; a point is itself."""
    return ring[:len(ring) - 1 or 1]


def _walk_of(z: np.ndarray):
    """The walk ``(ring, angles)`` (see :attr:`ConvexBody._walk`) of the
    counterclockwise ring ``z`` of complex vertices, which may start
    anywhere: the angles of its outer edge normals (its edges' angles
    minus pi/2; a segment has two antipodal ones) started at the least,
    and ``z`` started where that edge starts.  They ascend for a point, a
    segment and a ring of the chain (:func:`_planar_extremes`).  This is
    the one place a 2-D ring's angles are taken."""
    if len(z) == 1:
        return z, np.empty(0)
    E = _edges(z)
    phi = np.arctan2(-E.real, E.imag)  # E rotated clockwise: outward for a CCW ring
    s = int(np.argmin(phi))
    return np.concatenate((z[s:], z[:s], z[s:s + 1])), np.concatenate((phi[s:], phi[:s]))


def _with_walk(z: np.ndarray, phi: np.ndarray) -> ConvexBody:
    """Body of the walk ``(z, phi)`` (see :attr:`ConvexBody._walk`) of
    finite vertices: it stores the walk alone, read-only, and derives
    its :attr:`~ConvexBody.vertices` from the ring on first read."""
    z.setflags(write=False)
    phi.setflags(write=False)
    body = object.__new__(ConvexBody)
    body.__dict__["_walk"] = (z, phi)
    return body


def _merged_sum(a: ConvexBody, b: ConvexBody):
    """``a + b`` for 2-D polygons by merging their walks, or None where
    the merge is not certified.

    Each walk (:attr:`ConvexBody._walk`) starts at its edge of smallest
    outer-normal angle; merging the two ascending angle lists walks the
    boundary of the sum counterclockwise (de Berg et al., *Computational
    Geometry*, 13.3), and an edge of ``a`` goes before an edge of ``b``
    of equal angle.  So each edge is placed by rank: edge ``k`` of ``a``
    goes to slot ``k`` plus the number of ``b``'s edges of smaller angle,
    edge ``k`` of ``b`` to slot ``k`` plus the number of ``a``'s edges of
    smaller or equal angle.  Vertex ``k`` is ``a_ring[i_k] + b_ring[j_k]``,
    with ``i_k`` and ``j_k`` the edges of ``a`` and ``b`` walked before
    it: the same float sum the pairwise cloud of :func:`minkowski_sum`
    holds, gathered into the ring from the edge's own slot.  Where two
    angles tie, the vertex between the two edges is dropped.  A
    one-vertex operand translates the other's walk, by the same float
    sums.  The sum stores the merged walk: its ring, and the angles of
    the operands' edges, one per run of equal angles.  Every walk's
    angles ascend, so every merge has them to merge.  It is certified
    when every vertex of the sum lies more than ``tolerance(REL_TOL,
    box)`` to the outside of the chord of its two neighbours (so every
    edge is longer than that too); a translate of fewer than three
    vertices needs only its vertices that far apart.  Then it is the
    body :func:`hull` gives, and keeps ``box``, taken from its ring, as
    its :attr:`ConvexBody.box`.
    """
    (za, pa), (zb, pb) = a._walk, b._walk
    if len(pa) == 0 or len(pb) == 0:
        z, phi = za + zb, (pa if len(pb) == 0 else pb)
    else:
        sa = pb.searchsorted(pa, "left")    # b's edges walked before each of a's
        sb = pa.searchsorted(pb, "right")   # a's edges walked before each of b's
        ia, ib = np.arange(len(pa)) + sa, np.arange(len(pb)) + sb   # their slots in the merge
        phi = np.empty(len(pa) + len(pb))
        phi[ia], phi[ib] = pa, pb
        z = np.empty(len(phi) + 1, dtype=complex)   # the ring, with its closing slot
        z[ia], z[ib] = za[:-1] + zb[sa], za[sb] + zb[:-1]
        tie = phi[1:] == phi[:-1]
        if np.count_nonzero(tie):
            keep = np.concatenate(([True], ~tie, [True]))
            z, phi = z[keep], phi[keep[:-1]]
            if len(phi) < 3:
                return None
        z[-1] = z[0]
    box = box_of(_open(z).view(float).reshape(-1, 2))
    tol = tolerance(REL_TOL, box)
    if len(phi) == 2 and abs(z[1] - z[0]) <= tol:
        return None
    if len(phi) > 2:
        E = np.empty(len(z), dtype=complex)   # E[k + 1] is edge k, E[0] the last edge again
        np.subtract(z[1:], z[:-1], out=E[1:])
        E[0] = E[-1]
        if np.count_nonzero((E[:-1].conj() * E[1:]).imag <= tol * np.abs(E[:-1] + E[1:])):
            return None
    body = _with_walk(z, phi)
    body.__dict__["box"] = box
    return body


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Minkowski sum; support functions add: s_{A+B} = s_A + s_B.

    In 2-D, a certified merge of the two edge rings (:func:`_merged_sum`);
    otherwise, and in other dimensions, :func:`hull` of all pairwise sums.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot add bodies of dimension {a.dim} and {b.dim}")
    if a.dim == 2:
        merged = _merged_sum(a, b)
        if merged is not None:
            return merged
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return hull(sums)


def scale(a: ConvexBody, lam: float) -> ConvexBody:
    """Scale a body by a nonnegative factor; lam = 0 gives the origin.

    A 2-D body's walk is scaled along: the result stores ``lam`` times
    the walk's ring and the same angles (:func:`_with_walk`).  The merge
    tolerance scales along too, so nothing is merged.  A scale that
    overflows a coordinate raises :class:`GeometryError`.
    """
    lam = float(lam)
    if lam < 0.0:
        raise GeometryError("negative scale factors (reflections) are not supported")
    if lam == 0.0:
        return ConvexBody(np.zeros((1, a.dim)))
    if a.dim != 2:
        return ConvexBody(_canonical(lam * a.vertices))
    z, phi = a._walk
    x = lam * z.view(float)
    if not np.isfinite(x).all():
        raise GeometryError("vertices contain NaN or infinite coordinates")
    return _with_walk(x.view(complex), phi)


def weighted_sum(bodies: Sequence[ConvexBody], coefs) -> ConvexBody:
    """Minkowski combination sum_j coefs[j] * bodies[j] with coefs >= 0.

    Folds ``minkowski_sum`` over the bodies scaled by ``scale``, in input
    order, and skips zero coefficients; an all-zero combination is the
    origin.
    The pieces are not pruned on their own, since each sum prunes them.
    """
    if len(bodies) == 0 or len(bodies) != len(coefs):
        raise GeometryError("need one coefficient per body and at least one body")
    if any(c < 0 for c in coefs):
        raise GeometryError("negative scale factors (reflections) are not supported")
    terms = [scale(body, c) for body, c in zip(bodies, coefs) if c != 0]
    if not terms:
        return ConvexBody(np.zeros((1, bodies[0].dim)))
    return reduce(minkowski_sum, terms)


# ---------------------------------------------------------------------------
# support functions and faces

def support(a: ConvexBody, u) -> float:
    """Maximum of the linear functional u over the body."""
    u = _as_vector(u, a.dim)
    return float((a.vertices @ u).max())


def support_face(a: ConvexBody, u) -> FaceCertificate:
    """Argmax set of a nonzero functional.

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
    f.setflags(write=False)
    return FaceCertificate(direction=f, face=ConvexBody(_canonical(face_vertices)),
                           support_value=smax)


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
    scale of P (so distances are equivariant under scaling), or when a
    major cycle fails to lower ``x @ x``, a round-off stall; the
    iteration cap is 10 * n * d, exceeding it raises
    :class:`ConvergenceError`.
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
        xx = float(x @ x)
        if xx - dots[j] <= gap_tol or j in corral:
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
        if x @ x >= xx:   # exact arithmetic lowers |x| in every major cycle
            return x
    raise ConvergenceError(f"min-norm solver did not converge within {cap} iterations")


def _nearest_offsets(a: ConvexBody, X: np.ndarray) -> np.ndarray:
    """``nearest_point(a, X[i]) - X[i]`` for every row of the ``(n, d)``
    array ``X``: the nearest points are ``X + Z``, the distances the row
    norms of ``Z``, which keeps them exact far from the origin.

    In 2-D this is closed form on the counterclockwise ring of the body's
    walk (:attr:`ConvexBody._walk`), read as stored, with points as
    complex numbers, so that one product gives a query's dot and cross
    product with an edge.  A query is inside when no edge has it on its
    right (every edge cross product is >= 0) and it lies in the ring's
    bounding box; the box keeps out a point beyond the end of a flat
    ring, where every cross product is round-off.  Otherwise its nearest
    point is the closest of its projections onto the edges, each clamped
    to its segment, the first in walk order of any that tie.  Other
    dimensions run Wolfe's solver on each row.
    """
    if a.dim != 2:
        return np.array([_min_norm_point(a.vertices - x) for x in X])
    V = _open(a._walk[0])
    E = _edges(V)
    L = (E * E.conj()).real                         # squared edge lengths, 1 for a zero edge
    L[L == 0.0] = 1.0
    lo, hi = _extremes(V[:, None].view(float))
    X = np.ascontiguousarray(X)
    W = X.view(complex) - V                         # (n, m): each vertex to each query
    p = W * E.conj()                                # real part: edge dot, imaginary: edge cross
    t = np.minimum(np.maximum(p.real / L, 0.0), 1.0)
    D = t * E - W                                   # query to each edge's nearest point
    Z = D[np.arange(len(X)), np.abs(D).argmin(axis=1)]
    Z[np.logical_and.reduce(p.imag >= 0.0, axis=1)
      & np.logical_and.reduce((X >= lo) & (X <= hi), axis=1)] = 0.0
    return Z[:, None].view(float)


def nearest_point(a: ConvexBody, x) -> np.ndarray:
    """Euclidean projection of x onto the body (unique by strict convexity)."""
    x = _as_vector(x, a.dim)
    return x + _nearest_offsets(a, x[None])[0]


def point_distance(a: ConvexBody, x):
    """Distance from x to the body; zero iff x lies inside.

    An ``(n, d)`` array of points gets the array of their ``n`` distances.
    """
    X = _as_points(x) if np.ndim(x) == 2 else _as_vector(x, a.dim)[None]
    if X.shape[1] != a.dim:
        raise DimensionMismatch(f"expected points of dimension {a.dim}, got {X.shape[1]}")
    Z = _nearest_offsets(a, X)
    r = np.sqrt(np.add.reduce(Z * Z, axis=1))
    return r if np.ndim(x) == 2 else float(r[0])


def deviation(a: ConvexBody, b: ConvexBody) -> float:
    """One-sided deviation of a from b: farthest a-point from b.

    d(., b) is convex, so its maximum over a is attained at a vertex.  A
    2-D body that holds no vertex array yet is queried at its walk's
    ring, in walk order: the maximum does not depend on the order, and
    the vertex array is never derived for it.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("deviation requires equal dimensions")
    V = a.vertices if "vertices" in vars(a) else _open(a._walk[0])[:, None].view(float)
    return float(point_distance(b, V).max())


def hausdorff(a: ConvexBody, b: ConvexBody) -> float:
    """Hausdorff distance: the larger of the two one-sided deviations."""
    return max(deviation(a, b), deviation(b, a))


def sphere_grid(dim: int, m: int) -> np.ndarray:
    """Deterministic unit-direction grid: uniform angles (2-D), Fibonacci sphere (3-D)."""
    if m < 1:
        raise GeometryError("grid size must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        k = np.arange(m)
        z = 1.0 - (2.0 * k + 1.0) / m
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        return np.stack([r * np.cos(golden * k), r * np.sin(golden * k), z], axis=1)
    raise GeometryError(f"direction grids are only generated for dimension <= 3, got {dim}")


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


def _fold(coefs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``sum_j coefs[..., j] * points[j]``, shape ``coefs.shape[:-1] +
    points.shape[1:]``, folded in input order: the rounding of the vertex
    ``weighted_sum`` builds from one point per body (``@`` may sum in
    another order), and the value of one combination does not depend on
    how many are evaluated at once."""
    P = points.reshape(len(points), -1)   # one row per body, so each product is one long loop
    acc = coefs[..., 0, None] * P[0]
    for j in range(1, len(points)):
        acc += coefs[..., j, None] * P[j]
    return acc.reshape(coefs.shape[:-1] + points.shape[1:])


# ---------------------------------------------------------------------------
# 2-D normal fans: exact Hausdorff distances between Minkowski combinations

@dataclass(frozen=True, eq=False)
class NormalFan:
    """Common refinement of the outer normal fans of a family of 2-D bodies.

    Cell ``i`` is the counterclockwise arc from ``angles[i]`` to
    ``angles[i + 1]`` (the last cell wraps around to the first angle),
    starting at the unit vector ``directions[i]``; ``vertices[i, j]`` is
    the vertex of body ``j`` attaining its support on that arc.  Support
    functions are linear in the coefficients, so on cell ``i`` the
    support function of ``sum_j c[j] * K_j`` is ``u -> <u, c @
    vertices[i]>``.  Build it with :func:`normal_fan`.
    """

    angles: np.ndarray       # (m,) ascending, within 2 pi of the first
    vertices: np.ndarray     # (m, J, 2)

    def __post_init__(self):
        directions = np.stack([np.cos(self.angles), np.sin(self.angles)], axis=1)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "_spans", np.diff(self.angles, append=self.angles[0] + 2.0 * np.pi))
        object.__setattr__(self, "_ends", np.roll(directions, -1, axis=0))
        object.__setattr__(self, "_by_body", self.vertices.swapaxes(0, 1))   # (J, m, 2)

    def _coefficients(self, coefs) -> np.ndarray:
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape[-1:] != (self.vertices.shape[1],):
            raise GeometryError("need one coefficient per body")
        if (coefs < 0.0).any():
            raise GeometryError("negative scale factors (reflections) are not supported")
        return coefs

    def support_points(self, coefs) -> np.ndarray:
        """Per cell, the vertex of ``sum_j coefs[..., j] * K_j`` attaining its
        support on that cell: shape ``(..., m, 2)``.  Every vertex of the
        combination is among them."""
        return _fold(self._coefficients(coefs), self._by_body)

    def _arc_sup(self, D: np.ndarray, signed: bool):
        """``max(0, sup g(<u, D[..., i, :]>))`` over the cells ``i`` and the
        unit ``u`` on their arcs, with ``g`` the identity when ``signed``
        and ``abs`` otherwise: ``(...)`` for ``D`` of shape ``(..., m, 2)``.
        On an arc it is ``|D|`` when ``D`` (or, for ``abs``, ``-D``) points
        into the arc, and otherwise the larger endpoint value."""
        # the dot products by coordinate, rounded as np.sum rounds them: it
        # starts from +0.0, which sets the sign of a zero
        X, Y = D[..., 0], D[..., 1]
        (c, s), (ce, se) = self.directions.T, self._ends.T
        starts, ends = (0.0 + X * c) + Y * s, (0.0 + X * ce) + Y * se
        if not signed:
            starts, ends = np.abs(starts), np.abs(ends)
        # the angle of D from the arc's start, modulo 2 pi (pi to admit -D), within the span
        period = 2.0 * np.pi if signed else np.pi
        inside = (np.arctan2(Y, X) - self.angles) % period <= self._spans
        out = np.where(inside, np.hypot(X, Y), np.maximum(starts, ends))
        out = np.maximum(out.max(axis=-1), 0.0)
        return float(out) if out.ndim == 0 else out

    def hausdorff(self, coefs, ref):
        """Exact ``H(sum_j coefs[j] * K_j, sum_j ref[j] * K_j)`` for coefficients >= 0.

        ``H(A, B) = sup_{|u|=1} |h_A(u) - h_B(u)|``, and on cell ``i`` that
        difference is ``<u, D>`` with ``D = (coefs - ref) @ vertices[i]``.
        ``coefs`` and ``ref`` may carry leading batch axes ``(..., J)``;
        the result then has shape ``(...)``.
        """
        D = _fold(self._coefficients(coefs) - self._coefficients(ref), self._by_body)
        return self._arc_sup(D, signed=False)

    def point_distance(self, coefs, x):
        """Exact distance from the point ``x`` to ``sum_j coefs[j] * K_j``.

        ``d(x, K) = max(0, sup_{|u|=1} <u, x> - h_K(u))``, and on cell
        ``i`` that difference is ``<u, D>`` with ``D = x - coefs @
        vertices[i]``.  Batched like :meth:`hausdorff`.
        """
        return self._arc_sup(np.asarray(x, dtype=float) - self.support_points(coefs), signed=True)


def normal_fan(bodies: Sequence[ConvexBody]) -> NormalFan:
    """Common refinement of the outer normal fans of 2-D bodies.

    The cell boundaries are the edge normals of all bodies; on each cell
    every body's support is attained at one vertex, the one its walk
    (:attr:`ConvexBody._walk`) reaches at the middle of the arc: that of
    ``ring[k]``, with ``k`` the number of its angles below the middle; a
    raw body of three or more vertices walks its hull's ring.  A point
    repeats itself in every cell.  A family of points has no normals and
    gives a single cell, the whole circle, starting at direction ``(1, 0)``.
    """
    if len(bodies) == 0:
        raise GeometryError("need at least one body")
    if any(body.dim != 2 for body in bodies):
        raise GeometryError("normal fans are built for 2-D bodies only")
    walks = [body._walk for body in bodies]
    angles = np.unique(np.concatenate([phi for _, phi in walks]))
    if len(angles) == 0:
        angles = np.zeros(1)
    mids = angles + np.diff(angles, append=angles[0] + 2.0 * np.pi) / 2.0
    z = np.stack([ring[np.searchsorted(phi, mids)] for ring, phi in walks], axis=1)
    return NormalFan(angles, z[..., None].view(float))


# ---------------------------------------------------------------------------
# facet classification

def _relative_boundary_distance(Q: np.ndarray, q: np.ndarray, tol: float) -> float:
    """Signed distance from q to the relative boundary of conv(Q), negative
    outside, with conv(Q) read as :func:`hull` reads it.

    One vertex gives -inf.  Two give a segment: -inf when q is farther
    than ``tol`` from its line, else the distance from q to the nearer
    end.  More give a polygon, which needs 2-D points: q is measured
    against the edges of its ring.  That covers the faces of bodies of
    dimension <= 3 measured inside their hyperplane.
    """
    face = hull(Q)
    V = face.vertices
    if len(V) == 1:
        return -np.inf
    if len(V) == 2:
        e, r = V[1] - V[0], q - V[0]
        t = float(r @ e) / float(e @ e)   # where q projects: 0 and 1 at the ends
        if np.linalg.norm(r - t * e) > tol:
            return -np.inf
        return min(t, 1.0 - t) * float(np.linalg.norm(e))
    if face.dim != 2:
        raise GeometryError(f"facet test needs a face of at most two dimensions, got "
                            f"{len(V)} vertices in dimension {face.dim}")
    return float(_depths(_open(face._walk[0]), q.view(complex)).min())


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
    k in its relative interior, measured inside the hyperplane f-perp with
    the margin ``tolerance(FACET_REL_MARGIN, a.box)``; for bodies of
    dimension <= 3 (a polygon face raises :class:`GeometryError` above)."""
    k = _as_vector(k, a.dim)
    tol = tolerance(REL_TOL, a.box)
    if point_distance(a, k) > tol:
        raise GeometryError("query point lies outside the body")
    cert = support_face(a, f)
    return _in_facet(cert.face, k, cert.direction, tolerance(FACET_REL_MARGIN, a.box), tol)


# ---------------------------------------------------------------------------
# Shapley-Folkman gap

def shapley_folkman_gap(sets: Sequence) -> tuple[float, float]:
    """Gap between the averaged raw sum of finite sets and its convexification.

    The raw Minkowski sum is enumerated exhaustively, one set at a time,
    and a step of more than ``SFS_MAX_SUMS`` sums raises
    :class:`GeometryError`; the gap is the
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
        if len(raw) * len(s) > SFS_MAX_SUMS:
            raise GeometryError(f"the raw sum would enumerate {len(raw) * len(s)} sums, more "
                                f"than the limit of {SFS_MAX_SUMS}")
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
        return _covering_radius_2d(coords)
    raise GeometryError(
        f"convexification gap is exact only for point sets of affine rank <= 2, got rank {rank}"
    )


def _covering_radius_2d(sites: np.ndarray) -> float:
    """Largest empty circle centered in the hull of the sites, sites as obstacles.

    Candidate centers are the Voronoi vertices inside the hull (interior
    local maxima) and the crossings of the Voronoi ridges' bisectors with
    the ring edges (boundary local maxima); evaluating the nearest-site
    distance at each candidate is exact.
    """
    from scipy.spatial import Voronoi, cKDTree

    qh = _qhull(sites)
    ring = sites[qh.vertices]  # counterclockwise
    tree = cKDTree(sites)
    tol = tolerance(REL_TOL, box_of(sites))
    candidates = []

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

