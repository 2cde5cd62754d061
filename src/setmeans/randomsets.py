"""Finitely supported random convex bodies and their expectations.

A law is a weighted finite family of convex bodies.  The expectation is
the weighted Minkowski sum of the atoms.  Faces follow the face rule:
the support face of a Minkowski combination of the atoms is the same
combination of the atom faces, each decided once at its atom's own
tolerance; :func:`check_face_commutation` builds such a face and checks
it against the body as a hard internal check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import (
    ConvexBody,
    DimensionMismatch,
    box_of,
    deviation,
    nearest_point,
    support,
    support_face,
    tolerance,
    weighted_sum,
)

WEIGHT_SUM_TOL = 1e-6          # acceptable deviation of raw weights from 1
COMMUTATION_TOL = 1e-8         # face rule versus the body, relative (see `tolerance`)
SELECTION_COMPAT_TOL = 1e-6    # nearest-point selection mean vs projected mean, relative


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
    they are renormalized on construction unless they already sum to 1 up
    to round-off, so renormalized weights pass through unchanged.
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
        if abs(total - 1.0) > len(w) * np.finfo(float).eps:
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
    def box(self) -> tuple[float, float]:
        """``(extent, magnitude)`` of all atom vertices together: the scale of
        every body the law generates (see ``geometry.tolerance``)."""
        return box_of(np.vstack([body.vertices for body in self.bodies]))

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


def check_face_commutation(body: ConvexBody, atom_faces: Sequence[ConvexBody], coefs,
                           f: np.ndarray) -> ConvexBody:
    """The face rule: the support face of ``body = sum_j coefs[j] * K_j`` in
    the unit direction ``f`` is ``sum_j coefs[j] * F_j``, with ``F_j`` the
    atom faces, each decided once at its atom's own tolerance.

    Returns that face after a hard check of what the body decides without
    the rule: its support value equals the face's, and every vertex of
    the face lies on the body, within ``tolerance(COMMUTATION_TOL,
    body.box)``.  A violation indicates a geometry bug, not a soft
    condition, and raises :class:`CommutationError`.
    """
    face = weighted_sum(atom_faces, coefs)
    gap = abs(support(body, f) - float((face.vertices @ f).max()))
    off = deviation(face, body)
    if max(gap, off) > tolerance(COMMUTATION_TOL, body.box):
        raise CommutationError(f"the mean of the atom faces misses the body's support by "
                               f"{gap:.3e} and lies {off:.3e} off the body")
    return face


def expectation_face(y: DiscreteRandomSet, f) -> tuple[ConvexBody, list[ConvexBody]]:
    """Support face of the expectation, ``sum_j w_j F_j`` by the face rule,
    together with the per-atom faces ``F_j``; checked by
    :func:`check_face_commutation`."""
    certs = [support_face(body, f) for body in y.bodies]
    atom_faces = [cert.face for cert in certs]
    face = check_face_commutation(expectation(y), atom_faces, y.weights, certs[0].direction)
    return face, atom_faces


def exposed_selection(y: DiscreteRandomSet, f) -> Selection:
    """The unique selection picked out by a direction that exposes a point.

    Each atom must have a singleton support face in direction f;
    otherwise the expectation face is non-singleton and
    :class:`NotExposed` reports the offending atoms.
    """
    _, atom_faces = expectation_face(y, f)   # the face rule, checked on E
    offenders = [j + 1 for j, af in enumerate(atom_faces) if af.vertex_count != 1]
    if offenders:
        raise NotExposed(offenders)
    return Selection.from_points(np.vstack([af.vertices[0] for af in atom_faces]), y.weights)


def nearest_point_selection(y: DiscreteRandomSet, x) -> tuple[Selection, bool]:
    """Per-atom nearest points to x, plus a compatibility flag.

    The flag is True when the selection mean agrees with the nearest
    point of the expectation within ``tolerance(SELECTION_COMPAT_TOL,
    y.box)``; the facet fluctuation experiment requires that agreement.
    """
    points = np.vstack([nearest_point(body, x) for body in y.bodies])
    sel = Selection.from_points(points, y.weights)
    projected = nearest_point(expectation(y), x)
    compatible = bool(np.linalg.norm(sel.mean - projected)
                      <= tolerance(SELECTION_COMPAT_TOL, y.box))
    return sel, compatible


def tangent_variance(y: DiscreteRandomSet, u) -> float:
    """Variance of the support value in direction u under the law, taken
    about the mean so that it does not depend on where the law sits."""
    s = np.array([support(body, u) for body in y.bodies])
    return float(y.weights @ (s - y.weights @ s) ** 2)


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


def sample_many(y: DiscreteRandomSet, u: np.ndarray) -> np.ndarray:
    """Atom indices of uniforms ``u`` in [0, 1), by inverse CDF over the
    cumulative weights: ``u`` draws atom ``#{k : cw[k] <= u}``.

    The per-draw oracle: ``simulate._count_blocks`` counts draws by
    thresholding the stream's words (``rng.words``) instead, and the
    benchmark's gate and the tests recompute those counts through this
    function from ``rng.uniforms``.
    """
    idx = np.searchsorted(y.cumulative_weights, np.asarray(u, dtype=float), side="right")
    return np.minimum(idx, y.atom_count - 1)
