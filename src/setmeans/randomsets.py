"""Finitely supported random convex bodies and their expectations.

A law is a weighted finite family of convex bodies.  The expectation is
the weighted Minkowski sum of the atoms; support faces of the
expectation are weighted Minkowski sums of the atom faces, and the
module enforces that identity as a hard internal check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import (
    ConvexBody,
    DimensionMismatch,
    hausdorff,
    nearest_point,
    support,
    support_face,
    weighted_sum,
)

WEIGHT_SUM_TOL = 1e-6          # acceptable deviation of raw weights from 1
COMMUTATION_TOL = 1e-9         # face-of-expectation consistency threshold
SELECTION_COMPAT_TOL = 1e-6    # nearest-point selection mean vs projected mean


class NotExposed(ValueError):
    """The direction fails to expose a unique point of the expectation.

    ``atoms`` lists the offending atoms (1-based, matching scene order).
    """

    def __init__(self, atoms: Sequence[int]):
        self.atoms = tuple(atoms)
        listed = ", ".join(str(a) for a in self.atoms)
        super().__init__(
            f"direction does not expose a point of the expectation: "
            f"atom(s) {listed} have non-singleton support faces"
        )


class CommutationError(RuntimeError):
    """Face of the expectation disagrees with the mean of atom faces."""


@dataclass(frozen=True, eq=False)
class DiscreteRandomSet:
    """Random convex body with finitely many outcomes.

    Weights must be strictly positive and sum to 1 within ``WEIGHT_SUM_TOL``;
    they are renormalized exactly on construction.
    """

    weights: np.ndarray
    bodies: tuple[ConvexBody, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        bodies = tuple(self.bodies)
        if len(bodies) == 0:
            raise ValueError("a random set needs at least one atom")
        if w.shape[0] != len(bodies):
            raise ValueError("one weight per atom required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, outside 1 +/- {WEIGHT_SUM_TOL}")
        w = w / total
        dim = bodies[0].dim
        for body in bodies:
            if body.dim != dim:
                raise DimensionMismatch("all atoms must share one dimension")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bodies", bodies)

    @property
    def dim(self) -> int:
        return self.bodies[0].dim

    @property
    def atom_count(self) -> int:
        return len(self.bodies)

    @cached_property
    def envelope(self) -> float:
        """Uniform bound on the outcomes: max over atoms of the max vertex norm."""
        return max(body.max_norm for body in self.bodies)

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        c = np.cumsum(self.weights)
        c[-1] = 1.0
        c.setflags(write=False)
        return c


@dataclass(frozen=True, eq=False)
class Selection:
    """One point per atom with the induced discrete mean and covariance."""

    points: np.ndarray      # (J, d), points[j] in atom j
    mean: np.ndarray        # weighted mean
    covariance: np.ndarray  # weighted, symmetric PSD

    @classmethod
    def from_points(cls, points: np.ndarray, weights: np.ndarray) -> "Selection":
        points = np.asarray(points, dtype=float)
        mean = weights @ points
        centered = points - mean
        cov = (centered * weights[:, None]).T @ centered
        cov = (cov + cov.T) / 2.0
        for arr in (points, mean, cov):
            arr.setflags(write=False)
        return cls(points=points, mean=mean, covariance=cov)


def expectation(y: DiscreteRandomSet) -> ConvexBody:
    """Expected body: the weighted Minkowski sum of the atoms."""
    return weighted_sum(y.bodies, y.weights)


def check_face_commutation(face: ConvexBody, atom_faces: Sequence[ConvexBody], coefs):
    """Hard check that a face of sum_j coefs[j] * K_j is the same weighted sum
    of the atom faces, within ``COMMUTATION_TOL``.

    A violation indicates a geometry bug, not a soft condition, and raises
    :class:`CommutationError`.
    """
    residual = hausdorff(face, weighted_sum(atom_faces, coefs))
    if residual > COMMUTATION_TOL:
        raise CommutationError(
            f"face deviates from the weighted sum of the atom faces by {residual:.3e}"
        )


def expectation_face(y: DiscreteRandomSet, f) -> tuple[ConvexBody, list[ConvexBody]]:
    """Support face of the expectation together with the per-atom faces,
    checked by :func:`check_face_commutation`."""
    ey = expectation(y)
    face = support_face(ey, f).face
    atom_faces = [support_face(body, f).face for body in y.bodies]
    check_face_commutation(face, atom_faces, y.weights)
    return face, atom_faces


def exposed_selection(y: DiscreteRandomSet, f) -> Selection:
    """The unique selection picked out by a direction that exposes a point.

    Each atom must have a singleton support face in direction f;
    otherwise the expectation face is non-singleton and
    :class:`NotExposed` reports the offending atoms.
    """
    face, atom_faces = expectation_face(y, f)
    offenders = [j + 1 for j, af in enumerate(atom_faces) if af.vertex_count != 1]
    if offenders:
        raise NotExposed(offenders)
    points = np.vstack([af.vertices[0] for af in atom_faces])
    sel = Selection.from_points(points, y.weights)
    exposed_point = face.vertices[0]
    residual = float(np.linalg.norm(sel.mean - exposed_point))
    if residual > COMMUTATION_TOL * (1.0 + y.envelope):
        raise CommutationError(
            f"selection mean deviates from the exposed point by {residual:.3e}"
        )
    return sel


def nearest_point_selection(y: DiscreteRandomSet, x) -> tuple[Selection, bool]:
    """Per-atom nearest points to x, plus a compatibility flag.

    The flag is True when the selection mean agrees with the nearest
    point of the expectation within ``SELECTION_COMPAT_TOL``; the facet
    fluctuation experiment requires that agreement.
    """
    points = np.vstack([nearest_point(body, x) for body in y.bodies])
    sel = Selection.from_points(points, y.weights)
    projected = nearest_point(expectation(y), x)
    compatible = bool(np.linalg.norm(sel.mean - projected) <= SELECTION_COMPAT_TOL)
    return sel, compatible


def tangent_variance(y: DiscreteRandomSet, u) -> float:
    """Variance of the support value in direction u under the law."""
    s = np.array([support(body, u) for body in y.bodies])
    mean = float(y.weights @ s)
    var = float(y.weights @ (s * s)) - mean * mean
    return max(var, 0.0)


def facet_inheritance(y: DiscreteRandomSet, f, n: int) -> tuple[float, float]:
    """Probability weight of facet atoms and the chance a size-n mean has the facet.

    An atom carries the facet when its support face in direction f has
    affine dimension >= 1; the sample mean inherits it as soon as one
    such atom is drawn, hence 1 - (1 - p)^n.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    p_facet = 0.0
    for w, body in zip(y.weights, y.bodies):
        if support_face(body, f).face.vertex_count >= 2:
            p_facet += float(w)
    p_facet = min(p_facet, 1.0)
    return p_facet, 1.0 - (1.0 - p_facet) ** n


def sample(y: DiscreteRandomSet, u: float) -> int:
    """Atom index by inverse CDF over the cumulative weights."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    return int(np.searchsorted(y.cumulative_weights, u, side="right"))


def sample_many(y: DiscreteRandomSet, u: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF sampling; identical to :func:`sample` per entry."""
    idx = np.searchsorted(y.cumulative_weights, np.asarray(u, dtype=float), side="right")
    return np.minimum(idx, y.atom_count - 1)
