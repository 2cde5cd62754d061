"""Seeded Monte Carlo experiments for the sample-mean process of random sets.

Each experiment draws i.i.d. outcomes of a finitely supported random
body, forms Minkowski sample means at checkpoint sizes and records a
boundary-local statistic per (replication, size).  Verdicts compare the
empirical distributions against the analytic limits.

Draw ``i`` of replication ``r`` is keyed by ``(master_seed, r, i)``, so
reports are reproducible bit-for-bit and replications are order
independent.  Since the atoms are convex, the Minkowski sum of ``c``
copies of an atom equals the atom scaled by ``c``, so the mean of ``N``
draws is ``weighted_sum(atoms, counts / N)``: every statistic depends on
a replication only through its per-atom draw counts.  ``_count_blocks``
draws the counts of a block of replications at once, and each experiment
maps the block to its statistic with array operations (a count kernel),
at a cost per checkpoint independent of the sample size.  The body path
(fold the mean body, then measure it) stays as the oracle: it
recomputes replications ``0 .. ORACLE_REPS - 1`` at every size, and it
decides the checkpoints a kernel flags as too close to a threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import stats
from .geometry import (
    FACE_REL_TOL,
    FACET_REL_MARGIN,
    MEMBERSHIP_REL,
    GeometryError,
    hausdorff,
    is_facet_at,
    nearest_point,
    norm_gradient,
    normal_fan,
    point_distance,
    support,
    support_face,
    weighted_sum,
)
from .randomsets import (
    DiscreteRandomSet,
    check_face_commutation,
    expectation,
    exposed_selection,
    facet_inheritance,
    nearest_point_selection,
    sample_many,
    tangent_variance,
)
from .rng import uniforms

DEGENERATE_FACE_LIMIT = 1e-3   # tolerated fraction of degenerate replications
DRAW_BUDGET = 2 ** 15          # draws per block of replications drawn by `_count_blocks`
ORACLE_REPS = 3                # replications recomputed along the body path at every size
ORACLE_REL = 1e-9              # kernel-versus-body-path tolerance, times 1 + envelope
GUARD_REL = 1e-8               # half-width of the kernels' guard bands, times 1 + envelope
FACE_EXTENT_REL = 1e-6         # facets shorter than this, times 1 + envelope, take the body path


class DegenerateFace(RuntimeError):
    """Too many replications produced tied (non-singleton) faces."""


class IncompatibleSelection(ValueError):
    """Nearest-point selection mean disagrees with the projected expectation."""


class NoFacet(ValueError):
    """The nearest point of the expectation is not inside a facet."""


class InsideBody(ValueError):
    """The query point lies inside the expectation."""


class OracleMismatch(RuntimeError):
    """A count kernel disagrees with the body path (fold the mean, then measure it)."""


# ---------------------------------------------------------------------------
# configuration and reports

@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    sample_sizes: tuple[int, ...]
    replications: int

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        if len(sizes) == 0 or any(n < 1 for n in sizes):
            raise ValueError("sample sizes must be positive")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sample sizes must be strictly increasing")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        seed = int(self.master_seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "master_seed", seed)


@dataclass
class ExperimentReport:
    """Outcome of one experiment: records, summary moments and verdicts.

    ``records`` holds one ``(replication, size, statistic_components)``
    tuple per checkpoint; every verdict is recomputable from them.
    """

    experiment: str
    config: dict
    records: list[tuple[int, int, tuple[float, ...]]]
    moments: dict
    verdicts: dict
    discarded: int = 0
    duration_seconds: float = 0.0

    @property
    def stat_width(self) -> int:
        return len(self.records[0][2]) if self.records else 1

    def passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts.values())

    def failed_verdicts(self) -> list[str]:
        return [name for name, v in self.verdicts.items() if not v["pass"]]


def _config_echo(config: ExperimentConfig, **extra) -> dict:
    echo = {
        "master_seed": config.master_seed,
        "sample_sizes": list(config.sample_sizes),
        "replications": config.replications,
    }
    echo.update(extra)
    return echo


def _group_by_size(records, component: int = 0) -> dict[int, np.ndarray]:
    groups: dict[int, list[float]] = {}
    for _, n, stat in records:
        groups.setdefault(n, []).append(stat[component])
    return {n: np.array(vals) for n, vals in groups.items()}


# ---------------------------------------------------------------------------
# draw machinery

def _count_blocks(y: DiscreteRandomSet,
                  config: ExperimentConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per-atom draw counts of blocks of replications, in record order.

    Yields ``(reps, counts)``: the replication indices of a block and an
    ``(len(reps), S, J)`` int array whose entry ``[r, s, j]`` counts the
    draws of atom ``j`` among the first ``sizes[s]`` draws of replication
    ``reps[r]``.  A block holds about ``DRAW_BUDGET`` draws, and the
    kernels about as many values per atom vertex (at least one per atom
    and fan cell) and size, so memory stays flat whatever the replication
    count; records never depend on the block size.
    """
    sizes = config.sample_sizes
    atoms = y.atom_count
    vertices = sum(body.vertex_count for body in y.bodies)
    per_block = max(1, DRAW_BUDGET // max(sizes[-1], len(sizes) * vertices))
    for start in range(0, config.replications, per_block):
        reps = np.arange(start, min(start + per_block, config.replications))
        draws = sample_many(y, uniforms(config.master_seed, reps, sizes[-1]))
        # one bincount per size over the new draws, keyed by (replication, atom)
        keys = draws.reshape(len(reps), -1) + atoms * np.arange(len(reps))[:, None]
        counts = np.empty((len(reps), len(sizes), atoms), dtype=np.int64)
        total = np.zeros(len(reps) * atoms, dtype=np.int64)
        lo = 0
        for s, n in enumerate(sizes):
            total += np.bincount(keys[:, lo:n].ravel(), minlength=len(total))
            counts[:, s] = total.reshape(len(reps), atoms)
            lo = n
        yield reps, counts


def _fold(coefs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``sum_j coefs[..., j] * points[j]`` folded in atom order, whatever the
    block shape: the rounding of the vertex ``weighted_sum`` builds from
    one point per atom (``@`` may sum in another order)."""
    acc = coefs[..., 0, None] * points[0]
    for j in range(1, len(points)):
        acc = acc + coefs[..., j, None] * points[j]
    return acc


def _face_gaps(bodies, f, faces) -> tuple[np.ndarray, np.ndarray]:
    """Per atom: how far below its support in direction ``f`` its best vertex
    off the support face lies (inf when every vertex is on it), and the
    spread of ``f`` over the face's own vertices."""
    gaps, spreads = [], []
    for body, face in zip(bodies, faces):
        vals = body.vertices @ f
        on_face = (body.vertices[:, None, :] == face.vertices[None, :, :]).all(axis=-1).any(axis=-1)
        top = vals.max()
        gaps.append(float(top - vals[~on_face].max()) if not on_face.all() else np.inf)
        spreads.append(float(top - vals[on_face].min()))
    return np.array(gaps), np.array(spreads)


def _tie_band(counts: np.ndarray, coefs: np.ndarray, gaps: np.ndarray, spreads: np.ndarray,
              envelope: float) -> np.ndarray:
    """Checkpoints whose mean may have a support face other than the weighted
    sum of the drawn atoms' faces, as ``support_face`` would find it.

    A mean vertex off that face is below the support by at least
    ``min_{c_j > 0} (c_j / n) * gap_j``, and a vertex of that face by at
    most ``sum_j (c_j / n) * spread_j``.  When the bound is within the
    guard band of ``FACE_REL_TOL * (1 + envelope)``, or the spread is not
    well inside ``FACE_REL_TOL``, only the body path can tell.
    """
    drawn = counts > 0
    bound = (np.where(drawn, coefs, np.inf) * gaps).min(axis=-1)
    spread = (coefs * spreads).sum(axis=-1)
    return ((bound <= (FACE_REL_TOL + GUARD_REL) * (1.0 + envelope))
            | (spread > FACE_REL_TOL / 2.0))


def _segment_band(counts: np.ndarray, faces, f: np.ndarray) -> np.ndarray:
    """Checkpoints whose facet ``sum_j (c_j / n) F_j`` need not be a segment:
    a drawn atom face of three or more vertices, or two drawn segment faces
    that are not exactly parallel.  ``is_facet_at`` takes the relative
    boundary of such a face in its own affine hull."""
    tilts = []
    for face in faces:
        V = face.vertices
        if len(V) == 2:
            tilts.append(float((V[1] - V[0]) @ f / np.linalg.norm(V[1] - V[0])))
        else:
            tilts.append(np.nan if len(V) == 1 else np.inf)
    tilts = np.array(tilts)
    segments = (counts > 0) & np.isfinite(tilts)
    low = np.where(segments, tilts, np.inf).min(axis=-1)
    high = np.where(segments, tilts, -np.inf).max(axis=-1)
    return (high > low) | ((counts > 0) & np.isposinf(tilts)).any(axis=-1)


def _reconcile(reps: np.ndarray, sizes: tuple[int, ...], coefs: np.ndarray,
               values: np.ndarray, band: np.ndarray, body, envelope: float,
               oracle_reps: Optional[int] = None) -> np.ndarray:
    """Body-path values where the kernel is unsure, and the in-run oracle.

    ``values[r, s]`` is the kernel's statistic of checkpoint
    ``(reps[r], sizes[s])`` and ``band`` marks the checkpoints whose
    statistic the kernel cannot decide; those take
    ``body(coefs[r, s], rep)``.  Every checkpoint of the replications
    below ``oracle_reps`` (default ``ORACLE_REPS``) is recomputed along
    the body path as well, and a difference beyond
    ``ORACLE_REL * (1 + envelope)`` raises :class:`OracleMismatch`.
    """
    tol = ORACLE_REL * (1.0 + envelope)
    oracle_reps = ORACLE_REPS if oracle_reps is None else oracle_reps
    redo = band | (reps < oracle_reps)[:, None]
    for r, s in zip(*np.nonzero(redo)):
        slow = body(coefs[r, s], int(reps[r]))
        if band[r, s]:
            values[r, s] = slow
        elif not np.all(np.abs(values[r, s] - slow) <= tol):
            raise OracleMismatch(f"count kernel gives {values[r, s].tolist()!r} where the body "
                                 f"path gives {np.asarray(slow).tolist()!r} "
                                 f"(replication {reps[r]}, N={sizes[s]})")
    return values


def _records(reps: np.ndarray, sizes: tuple[int, ...], stats: np.ndarray) -> list:
    """Records ``(rep, n, stat)`` of a block of ``(R, S, k)`` statistics, in record order."""
    return [(rep, n, tuple(stat))
            for rep, per_size in zip(reps.tolist(), stats.tolist())
            for n, stat in zip(sizes, per_size)]


def _distances(y: DiscreteRandomSet,
               config: ExperimentConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``H(mean_N, E)`` of every checkpoint, per block ``(reps, (R, S) distances)``.

    In 2-D the distance comes straight from the draw counts through the
    atoms' normal fan; replication 0 is recomputed along the body path
    (fold the mean, then Wolfe) at every size as an oracle, and a
    disagreement beyond ``1e-9 * (1 + envelope)`` raises
    :class:`OracleMismatch`.  Other dimensions take the body path.  No
    distance may exceed the largest atom-to-expectation distance.
    """
    ey = expectation(y)
    fan = normal_fan(y.bodies) if y.dim == 2 else None
    sizes = config.sample_sizes

    def body_distance(coefs, rep=0):
        return hausdorff(weighted_sum(y.bodies, coefs), ey)

    units = np.eye(y.atom_count)
    if fan is None:
        max_atom_dist = max(body_distance(unit) for unit in units)
    else:
        max_atom_dist = float(fan.hausdorff(units, y.weights).max())
    for reps, counts in _count_blocks(y, config):
        coefs = counts / np.array(sizes)[:, None]
        if fan is None:
            dist, band = np.zeros(counts.shape[:2]), np.ones(counts.shape[:2], dtype=bool)
        else:
            dist, band = fan.hausdorff(coefs, y.weights), np.zeros(counts.shape[:2], dtype=bool)
        dist = _reconcile(reps, sizes, coefs, dist, band, body_distance, y.envelope,
                          oracle_reps=1)
        if (dist > max_atom_dist + 1e-9).any():
            raise GeometryError("sample mean left the hull of the atoms")
        yield reps, dist


def _exposed_points(y: DiscreteRandomSet, f: np.ndarray,
                    config: ExperimentConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exposed point of every checkpoint's mean in direction ``f``, per block
    ``(reps, (R, S, d) points)``; a tied (non-singleton) face gives NaN.

    By face commutation the point is ``sum_j (c_j / n) * v_j`` with ``v_j``
    the exposed vertex of atom ``j``, folded as ``weighted_sum`` folds.
    Ties are decided by the body path only, on the checkpoints that
    :func:`_tie_band` flags.  The atoms' faces must be singletons.
    """
    atom_faces = [support_face(body, f).face for body in y.bodies]
    tops = np.array([face.vertices[0] for face in atom_faces])
    gaps, spreads = _face_gaps(y.bodies, f, atom_faces)
    sizes = config.sample_sizes

    def body(coefs, rep):
        cert = support_face(weighted_sum(y.bodies, coefs), f)
        if cert.face.vertex_count != 1:
            return np.full(y.dim, np.nan)
        if rep < ORACLE_REPS:
            check_face_commutation(cert.face, atom_faces, coefs)
        return cert.face.vertices[0]

    for reps, counts in _count_blocks(y, config):
        coefs = counts / np.array(sizes)[:, None]
        band = _tie_band(counts, coefs, gaps, spreads, y.envelope)
        yield reps, _reconcile(reps, sizes, coefs, _fold(coefs, tops), band, body, y.envelope)


def _tangent_values(y: DiscreteRandomSet, u: np.ndarray, config: ExperimentConfig
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block ``(reps, totals, gaps)``, both ``(R, S)``: the summed support
    values ``counts @ atom_supports`` of the draws in direction ``u``, and
    the distance between the mean of the draw faces and the face of the
    expectation, ``H(sum_j (c_j / n) F_j, sum_j w_j F_j)``, from the normal
    fan of the atom faces in 2-D and along the body path otherwise."""
    atom_supports = np.array([support(body, u) for body in y.bodies])
    atom_faces = [support_face(body, u).face for body in y.bodies]
    ey_face = weighted_sum(atom_faces, y.weights)
    fan = normal_fan(atom_faces) if y.dim == 2 else None
    sizes = config.sample_sizes

    def face_gap(coefs):
        return hausdorff(weighted_sum(atom_faces, coefs), ey_face)

    def body(coefs, rep):
        return [support(weighted_sum(y.bodies, coefs), u), face_gap(coefs)]

    for reps, counts in _count_blocks(y, config):
        coefs = counts / np.array(sizes)[:, None]
        totals = _fold(counts, atom_supports[:, None])[..., 0]
        if fan is None:
            gaps = np.array([[face_gap(c) for c in per_rep] for per_rep in coefs])
        else:
            gaps = fan.hausdorff(coefs, y.weights)
        values = np.stack([totals / np.array(sizes), gaps], axis=-1)
        _reconcile(reps, sizes, coefs, values, np.zeros(counts.shape[:2], dtype=bool), body,
                   y.envelope)
        yield reps, totals, gaps


def _facet_values(y: DiscreteRandomSet, x: np.ndarray, f: np.ndarray,
                  config: ExperimentConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block ``(reps, (R, S, 2) values)``: the distance from ``x`` to each
    checkpoint's mean and whether its nearest point makes an excursion
    (1.0) off the relative interior of the mean's facet in direction
    ``f``, with the rule of :func:`is_facet_at` (``dist <= 1e-12`` is an
    excursion too).

    In 2-D both come from the draw counts: the distance from the normal
    fan, the facet as the segment ``sum_j (c_j / n) [a_j, b_j]`` between
    the atom f-face endpoints.  When ``x`` is beyond the facet's line and
    projects into the facet, its nearest point is that projection, inside
    the facet if it keeps ``FACET_REL_MARGIN * diameter`` from both ends;
    when it projects outside, the nearest point is off the facet.  The
    body path decides the rest: a projection inside from the other side
    of the line (a flat mean has the facet on both sides), margins no
    wider than ``is_facet_at``'s membership tolerance, checkpoints
    within ``GUARD_REL * (1 + envelope)`` of a threshold, those flagged
    by :func:`_tie_band` or :func:`_segment_band`, and every checkpoint
    of other dimensions.
    """
    atom_faces = [support_face(body, f).face for body in y.bodies]
    gaps, spreads = _face_gaps(y.bodies, f, atom_faces)
    fan = normal_fan(y.bodies) if y.dim == 2 else None
    sizes = config.sample_sizes
    guard = GUARD_REL * (1.0 + y.envelope)
    if fan is not None:
        along = np.array([-f[1], f[0]])
        ends = np.array([[face.vertices[np.argmin(face.vertices @ along)],
                          face.vertices[np.argmax(face.vertices @ along)]] for face in atom_faces])

    def body(coefs, rep):
        mean = weighted_sum(y.bodies, coefs)
        dist = point_distance(mean, x)
        outside = dist <= 1e-12 or not is_facet_at(mean, nearest_point(mean, x), f)
        return [dist, float(outside)]

    for reps, counts in _count_blocks(y, config):
        coefs = counts / np.array(sizes)[:, None]
        if fan is None:
            values = np.zeros(counts.shape[:2] + (2,))
            band = np.ones(counts.shape[:2], dtype=bool)
        else:
            dist = fan.point_distance(coefs, x)
            a, b = _fold(coefs, ends[:, 0]), _fold(coefs, ends[:, 1])
            length = np.hypot(*np.moveaxis(b - a, -1, 0))
            offset = ((x - a) * along).sum(axis=-1)      # projection of x along the facet
            height = ((x - a) * f).sum(axis=-1)          # beyond the facet's line when > 0
            inner = np.minimum(offset, length - offset)  # distance to the nearer end
            P = fan.support_points(coefs)   # every vertex of the mean is among them
            diameter = np.zeros(dist.shape)
            for i in range(P.shape[-2]):
                far = np.sqrt(((P - P[..., i, None, :]) ** 2).sum(axis=-1)).max(axis=-1)
                diameter = np.maximum(diameter, far)
            margin = FACET_REL_MARGIN * diameter
            facet = (dist > 1e-12) & (inner > margin)   # height > 0 is settled by the band
            values = np.stack([dist, (~facet).astype(float)], axis=-1)
            band = (_tie_band(counts, coefs, gaps, spreads, y.envelope)
                    | _segment_band(counts, atom_faces, f)
                    | (np.abs(dist - 1e-12) <= guard)
                    | ((inner > margin - guard)
                       & ((height <= guard) | (np.abs(inner - margin) <= guard)))
                    | (margin <= MEMBERSHIP_REL * (1.0 + y.envelope) + guard))
        yield reps, _reconcile(reps, sizes, coefs, values, band, body, y.envelope)


def _facet_flags(y: DiscreteRandomSet, f: np.ndarray,
                 config: ExperimentConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block ``(reps, (R, S) flags)``: 1.0 when the checkpoint's mean has
    a facet (a support face of two or more vertices) in direction ``f``.

    By face commutation it has one exactly when a drawn atom has one.
    Checkpoints flagged by :func:`_tie_band`, or whose facet is shorter
    than ``FACE_EXTENT_REL * (1 + envelope)`` (the hull's vertex merge
    could close it up), take the body path.
    """
    atom_faces = [support_face(body, f).face for body in y.bodies]
    facet_atoms = np.array([face.vertex_count >= 2 for face in atom_faces])
    extents = np.array([face.diameter for face in atom_faces])
    gaps, spreads = _face_gaps(y.bodies, f, atom_faces)
    sizes = config.sample_sizes

    def body(coefs, rep):
        cert = support_face(weighted_sum(y.bodies, coefs), f)
        if rep < ORACLE_REPS:
            check_face_commutation(cert.face, atom_faces, coefs)
        return 1.0 if cert.face.vertex_count >= 2 else 0.0

    for reps, counts in _count_blocks(y, config):
        coefs = counts / np.array(sizes)[:, None]
        flags = _facet_kernel(counts, facet_atoms)
        extent = (coefs * extents).max(axis=-1)
        band = (_tie_band(counts, coefs, gaps, spreads, y.envelope)
                | ((flags > 0.0) & (extent <= FACE_EXTENT_REL * (1.0 + y.envelope))))
        yield reps, _reconcile(reps, sizes, coefs, flags, band, body, y.envelope)


def _facet_kernel(counts: np.ndarray, facet_atoms: np.ndarray) -> np.ndarray:
    return (counts[..., facet_atoms].sum(axis=-1) > 0).astype(float)


# ---------------------------------------------------------------------------
# experiments

def lln_experiment(y: DiscreteRandomSet, config: ExperimentConfig, *,
                   median_max: float = 0.05,
                   slope_range: tuple[float, float] = (-0.65, -0.35)) -> ExperimentReport:
    """Distance of the sample mean to the expectation, with rate check.

    Records H(mean_N, E) per replication and size; verdicts: the median
    at the largest size stays below ``median_max`` and (with at least
    three sizes) the log-log slope of the medians falls in
    ``slope_range``.
    """
    t0 = time.perf_counter()
    records = []
    for reps, dist in _distances(y, config):
        records += _records(reps, config.sample_sizes, dist[..., None])

    groups = _group_by_size(records)
    medians = {n: float(np.median(vals)) for n, vals in groups.items()}
    moments = {"median_by_size": [{"N": n, "median": medians[n]} for n in config.sample_sizes]}
    verdicts = {}
    final_n = config.sample_sizes[-1]
    verdicts["final_median"] = {
        "pass": medians[final_n] <= median_max,
        "observed": medians[final_n],
        "threshold": median_max,
        "N": final_n,
    }
    if len(config.sample_sizes) >= 3 and all(m > 0.0 for m in medians.values()):
        slope, intercept = stats.loglog_slope(list(config.sample_sizes),
                                              [medians[n] for n in config.sample_sizes])
        moments["slope"] = slope
        moments["intercept"] = intercept
        verdicts["slope"] = {
            "pass": slope_range[0] <= slope <= slope_range[1],
            "observed": slope,
            "range": list(slope_range),
        }
    return ExperimentReport(
        experiment="lln",
        config=_config_echo(config, median_max=median_max, slope_range=list(slope_range)),
        records=records,
        moments=moments,
        verdicts=verdicts,
        duration_seconds=time.perf_counter() - t0,
    )


def clt_hausdorff_experiment(y: DiscreteRandomSet, config: ExperimentConfig, *,
                             ks_alpha: float = 0.01) -> ExperimentReport:
    """Scaled distance sqrt(N)*H(mean_N, E), checked for stability across sizes.

    The limiting law has no closed form, so the testable consequence is
    distributional stability: a two-sample KS test between consecutive
    sizes must not reject at level ``ks_alpha``.
    """
    if len(config.sample_sizes) < 2:
        raise ValueError("stability check needs at least two sample sizes")
    t0 = time.perf_counter()
    records = []
    root_n = np.sqrt(config.sample_sizes)
    for reps, dist in _distances(y, config):
        records += _records(reps, config.sample_sizes, (root_n * dist)[..., None])

    groups = _group_by_size(records)
    pairs = []
    for a, b in zip(config.sample_sizes, config.sample_sizes[1:]):
        d, p = stats.ks_two_sample(groups[a], groups[b])
        pairs.append({"sizes": [a, b], "D": d, "p": p})
    moments = {
        "mean_by_size": [{"N": n, "mean": float(groups[n].mean())} for n in config.sample_sizes],
        "ks_pairs": pairs,
    }
    verdicts = {
        "ks_stability": {
            "pass": all(pair["p"] > ks_alpha for pair in pairs),
            "alpha": ks_alpha,
            "pairs": pairs,
        }
    }
    return ExperimentReport(
        experiment="clt-hausdorff",
        config=_config_echo(config, ks_alpha=ks_alpha),
        records=records,
        moments=moments,
        verdicts=verdicts,
        duration_seconds=time.perf_counter() - t0,
    )


def clt_exposed_experiment(y: DiscreteRandomSet, direction, config: ExperimentConfig, *,
                           cov_atol: float = 0.03,
                           ks_alpha: float = 0.01) -> ExperimentReport:
    """Fluctuation of the exposed point of the sample mean around its limit.

    Records sqrt(N) * (exposed point of mean_N - exposed point of E).
    Verdicts (on the largest size): empirical covariance within
    ``cov_atol`` entrywise of the analytic selection covariance, KS
    normality per non-degenerate coordinate, and near-zero empirical
    mean.  Replications whose face is non-singleton at some checkpoint
    are discarded; more than ``DEGENERATE_FACE_LIMIT`` of them fails.
    """
    t0 = time.perf_counter()
    selection = exposed_selection(y, direction)  # raises NotExposed if blocked
    target = selection.mean
    sigma = selection.covariance
    d = y.dim

    records = []
    discarded = 0   # replications with a non-singleton face at some checkpoint
    root_n = np.sqrt(config.sample_sizes)[:, None]
    for reps, points in _exposed_points(y, norm_gradient(direction), config):
        kept = ~np.isnan(points).any(axis=(1, 2))
        discarded += int((~kept).sum())
        records += _records(reps[kept], config.sample_sizes, root_n * (points[kept] - target))
    if discarded > DEGENERATE_FACE_LIMIT * config.replications:
        raise DegenerateFace(
            f"{discarded} of {config.replications} replications had tied faces"
        )

    final_n = config.sample_sizes[-1]
    final = np.array([stat for _, n, stat in records if n == final_n])
    emp_mean, emp_cov = stats.mean_and_covariance(final)
    moments = {
        "final_N": final_n,
        "empirical_mean": emp_mean.tolist(),
        "empirical_covariance": emp_cov.tolist(),
        "analytic_covariance": sigma.tolist(),
    }
    cov_err = float(np.abs(emp_cov - sigma).max())
    verdicts = {
        "covariance": {
            "pass": cov_err <= cov_atol,
            "max_abs_error": cov_err,
            "tolerance": cov_atol,
        }
    }
    mean_bound = 4.0 * float(np.sqrt(np.trace(sigma) / len(final)))
    verdicts["mean_near_zero"] = {
        "pass": float(np.linalg.norm(emp_mean)) <= mean_bound,
        "observed": float(np.linalg.norm(emp_mean)),
        "threshold": mean_bound,
    }
    ks = []
    for axis in range(d):
        sd = float(np.sqrt(sigma[axis, axis]))
        if sd <= 1e-9 * (1.0 + y.envelope):
            continue
        D, p = stats.ks_test_normal(final[:, axis], 0.0, sd)
        ks.append({"axis": axis, "D": D, "p": p})
    moments["ks_by_axis"] = ks
    if ks:
        verdicts["ks_normality"] = {
            "pass": all(entry["p"] > ks_alpha for entry in ks),
            "alpha": ks_alpha,
            "axes": ks,
        }
    return ExperimentReport(
        experiment="clt-exposed",
        config=_config_echo(config, direction=list(np.asarray(direction, dtype=float)),
                            cov_atol=cov_atol, ks_alpha=ks_alpha),
        records=records,
        moments=moments,
        verdicts=verdicts,
        discarded=discarded,
        duration_seconds=time.perf_counter() - t0,
    )


def clt_tangent_experiment(y: DiscreteRandomSet, direction, config: ExperimentConfig, *,
                           variance_rtol: float = 0.10,
                           ks_alpha: float = 0.01) -> ExperimentReport:
    """Fluctuation of the averaged support values in one direction.

    Records (1/sqrt(N)) * sum_i (s_{Y_i}(u) - s_E(u)); the analytic limit
    is N(0, var of the atom supports).  Also tracks the face-level law of
    large numbers: the distance between the mean of the draw faces and
    the face of the expectation, which must shrink toward zero.
    """
    t0 = time.perf_counter()
    u = norm_gradient(direction)
    sigma2 = tangent_variance(y, u)
    s_expected = support(expectation(y), u)
    sizes = np.array(config.sample_sizes)

    records = []
    face_gaps = []
    for reps, totals, gaps in _tangent_values(y, u, config):
        stat = (totals - sizes * s_expected) / np.sqrt(sizes)
        records += _records(reps, config.sample_sizes, stat[..., None])
        face_gaps.append(gaps)
    face_gaps = np.concatenate(face_gaps)

    final_n = config.sample_sizes[-1]
    final = np.array([stat[0] for _, n, stat in records if n == final_n])
    emp_var = float(final.var(ddof=1))
    gap_means = {n: float(np.mean(gaps)) for n, gaps in zip(config.sample_sizes, face_gaps.T)}
    moments = {
        "final_N": final_n,
        "empirical_variance": emp_var,
        "analytic_variance": sigma2,
        "face_gap_by_size": [{"N": n, "mean_gap": gap_means[n]} for n in config.sample_sizes],
    }
    verdicts = {}
    if sigma2 > 0.0:
        verdicts["variance"] = {
            "pass": abs(emp_var - sigma2) <= variance_rtol * sigma2,
            "observed": emp_var,
            "expected": sigma2,
            "rtol": variance_rtol,
        }
        D, p = stats.ks_test_normal(final, 0.0, float(np.sqrt(sigma2)))
        verdicts["ks_normality"] = {"pass": p > ks_alpha, "D": D, "p": p, "alpha": ks_alpha}
    else:
        verdicts["variance"] = {
            "pass": emp_var <= 1e-12,
            "observed": emp_var,
            "expected": 0.0,
        }
    gap_threshold = 4.0 * y.envelope / np.sqrt(final_n)
    verdicts["face_gap"] = {
        "pass": gap_means[final_n] <= gap_threshold,
        "observed": gap_means[final_n],
        "threshold": float(gap_threshold),
    }
    return ExperimentReport(
        experiment="clt-tangent",
        config=_config_echo(config, direction=list(np.asarray(direction, dtype=float)),
                            variance_rtol=variance_rtol, ks_alpha=ks_alpha),
        records=records,
        moments=moments,
        verdicts=verdicts,
        duration_seconds=time.perf_counter() - t0,
    )


def clt_facet_experiment(y: DiscreteRandomSet, point, config: ExperimentConfig, *,
                         variance_rtol: float = 0.10,
                         degenerate_atol: float = 1e-3,
                         ks_alpha: float = 0.01) -> ExperimentReport:
    """Fluctuation of the distance from an outside point to the sample mean.

    Requires: the point outside the expectation, the nearest-point
    selection compatible (mean of per-atom projections equals the
    projection onto the expectation) and the projection contained in a
    facet.  Records sqrt(N) * (d(x, mean_N) - d(x, E)); the analytic
    variance is the selection covariance contracted with the outward
    normal.  Excursions of the nearest point off the facet are counted
    and reported, never corrected.
    """
    t0 = time.perf_counter()
    ey = expectation(y)
    x = np.asarray(point, dtype=float).reshape(-1)
    base_distance = point_distance(ey, x)
    if base_distance <= 1e-9 * (1.0 + y.envelope):
        raise InsideBody("query point lies inside the expectation")
    k = nearest_point(ey, x)
    outward = norm_gradient(k - x)
    facet_functional = -outward
    selection, compatible = nearest_point_selection(y, x)
    if not compatible:
        raise IncompatibleSelection(
            "mean of the per-atom nearest points differs from the nearest point "
            "of the expectation; the facet limit does not apply"
        )
    if not is_facet_at(ey, k, facet_functional):
        raise NoFacet("nearest point of the expectation is not interior to a facet")
    predicted_var = float(outward @ selection.covariance @ outward)

    records = []
    excursions = 0
    root_n = np.sqrt(config.sample_sizes)
    for reps, values in _facet_values(y, x, facet_functional, config):
        records += _records(reps, config.sample_sizes,
                            (root_n * (values[..., 0] - base_distance))[..., None])
        excursions += int(values[..., 1].sum())

    final_n = config.sample_sizes[-1]
    final = np.array([stat[0] for _, n, stat in records if n == final_n])
    emp_var = float(final.var(ddof=1))
    moments = {
        "final_N": final_n,
        "empirical_variance": emp_var,
        "predicted_variance": predicted_var,
        "base_distance": float(base_distance),
        "nearest_point": k.tolist(),
        "excursions": excursions,
    }
    verdicts = {}
    if predicted_var > 1e-12:
        verdicts["variance"] = {
            "pass": abs(emp_var - predicted_var) <= variance_rtol * predicted_var,
            "observed": emp_var,
            "expected": predicted_var,
            "rtol": variance_rtol,
        }
        D, p = stats.ks_test_normal(final, 0.0, float(np.sqrt(predicted_var)))
        verdicts["ks_normality"] = {"pass": p > ks_alpha, "D": D, "p": p, "alpha": ks_alpha}
    else:
        verdicts["variance"] = {
            "pass": emp_var <= degenerate_atol,
            "observed": emp_var,
            "expected": 0.0,
            "tolerance": degenerate_atol,
        }
    return ExperimentReport(
        experiment="clt-facet",
        config=_config_echo(config, point=list(x), variance_rtol=variance_rtol,
                            degenerate_atol=degenerate_atol, ks_alpha=ks_alpha),
        records=records,
        moments=moments,
        verdicts=verdicts,
        duration_seconds=time.perf_counter() - t0,
    )


def facet_frequency_experiment(y: DiscreteRandomSet, direction,
                               config: ExperimentConfig) -> ExperimentReport:
    """How often the sample mean carries a facet in a fixed direction.

    The mean inherits the facet as soon as one drawn atom has it, so the
    frequency at size N must match 1 - (1 - p)^N within a 3-sigma
    binomial band, where p is the facet atoms' total weight.
    """
    t0 = time.perf_counter()
    f = norm_gradient(direction)
    p_facet, _ = facet_inheritance(y, f, 1)

    records = []
    for reps, flags in _facet_flags(y, f, config):
        records += _records(reps, config.sample_sizes, flags[..., None])

    groups = _group_by_size(records)
    per_size = []
    all_in_band = True
    for n in config.sample_sizes:
        expected = 1.0 - (1.0 - p_facet) ** n
        successes = int(groups[n].sum())
        trials = len(groups[n])
        in_band = stats.binomial_band(trials, expected, successes)
        all_in_band &= in_band
        per_size.append({
            "N": n,
            "expected": expected,
            "frequency": successes / trials,
            "in_band": in_band,
        })
    moments = {"p_facet": p_facet, "frequency_by_size": per_size}
    verdicts = {"binomial_band": {"pass": all_in_band, "per_size": per_size}}
    return ExperimentReport(
        experiment="facet-freq",
        config=_config_echo(config, direction=list(np.asarray(direction, dtype=float))),
        records=records,
        moments=moments,
        verdicts=verdicts,
        duration_seconds=time.perf_counter() - t0,
    )
