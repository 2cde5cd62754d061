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
a replication only through its per-atom draw counts.  One function,
``_statistic``, draws the counts of a block of replications at once
(``_count_blocks``, which sizes a block by its kernel values and draws it
in chunks of at most ``DRAW_BUDGET`` draws, thresholding each chunk's
splitmix64 words at the cumulative weights: the draws on atoms ``0 .. j``
are those whose uniform lies below ``cw[j]``, the same counts as a
per-draw inverse CDF, bit for bit) and hands them to the experiment's
count kernel, which maps the block to its statistic with array
operations, at a cost per checkpoint independent of the sample size; it
fills one ``(R, S, k)`` array, the report's records.
The body path (fold the mean body with ``weighted_sum``, then measure
it) stays as the oracle: in 2-D the fold merges edge rings, with qhull
where a merge is not certified.  It shares only the edge-angle helper
with the normal fan, and a misordered merge fails its certificate and
falls back to qhull.  It recomputes replications
``0 .. ORACLE_REPS - 1`` at every size, and it decides the checkpoints a
kernel cannot (clt-facet's near a threshold, and those of kernels that
need the 2-D fan on other dimensions).

Faces follow the face rule: each atom's support face ``F_j`` is decided
once per law, and the face of a mean is ``sum_j (c_j / N) F_j`` by
definition (face commutation), never re-decided per checkpoint.  Every
tolerance is ``geometry.tolerance`` of the law's box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import stats
from .geometry import (
    FACET_REL_MARGIN,
    REL_TOL,
    _fold,
    _in_facet,
    hausdorff,
    is_facet_at,
    nearest_point,
    norm_gradient,
    normal_fan,
    point_distance,
    support,
    support_face,
    tolerance,
    weighted_sum,
)
from .randomsets import (
    DiscreteRandomSet,
    check_face_commutation,
    expectation,
    exposed_selection,
    facet_inheritance,
    nearest_point_selection,
    tangent_variance,
)
from .rng import draw_steps, replication_bases, words

DRAW_BUDGET = 2 ** 15          # `_count_blocks`: kernel values per block, draws per chunk
ORACLE_REPS = 3                # replications recomputed along the body path at every size
GUARD_REL = 1e-8               # half-width of clt-facet's guard band, relative (see `tolerance`)

# Verdict thresholds; every report echoes the ones it uses in its ``config``.
MEDIAN_MAX = 0.05              # lln: largest median distance at the final size
SLOPE_RANGE = (-0.65, -0.35)   # lln: log-log slope of the medians (the rate is N^-1/2)
KS_ALPHA = 0.01                # level of every KS test
COV_ATOL = 0.03                # clt-exposed: largest entrywise covariance error
VARIANCE_RTOL = 0.10           # clt-tangent, clt-facet: largest relative variance error
DEGENERATE_ATOL = 1e-3         # clt-facet: largest variance when the predicted one is 0


class IncompatibleSelection(ValueError):
    """Nearest-point selection mean disagrees with the projected expectation."""


class NoFacet(ValueError):
    """The nearest point of the expectation is not inside a facet."""


class InsideBody(ValueError):
    """The query point lies inside the expectation."""


class OracleMismatch(RuntimeError):
    """A count kernel disagrees with the body path (fold the mean, then measure
    it), or a sample mean's distance breaks the convexity bound."""


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

    ``records`` is an ``(R, S, k)`` float array: entry ``[r, s]`` holds
    the ``k`` statistic components of replication ``r`` at
    ``config["sample_sizes"][s]``; every verdict is recomputable from it.
    """

    experiment: str
    config: dict
    records: np.ndarray
    moments: dict
    verdicts: dict
    duration_seconds: float = 0.0

    def passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts.values())

    def failed_verdicts(self) -> list[str]:
        return [name for name, v in self.verdicts.items() if not v["pass"]]


def _report(kind: str, config: ExperimentConfig, t0: float, records: np.ndarray,
            moments: dict, verdicts: dict, **echo) -> ExperimentReport:
    """The report of a ``kind`` run started at ``t0``; its ``config``
    echoes ``config`` followed by ``echo`` (the vector and thresholds)."""
    return ExperimentReport(
        experiment=kind,
        config={"master_seed": config.master_seed, "sample_sizes": list(config.sample_sizes),
                "replications": config.replications, **echo},
        records=records,
        moments=moments,
        verdicts=verdicts,
        duration_seconds=time.perf_counter() - t0,
    )


def _check_ks_sample(config: ExperimentConfig, ks: bool) -> None:
    """Reject, before any draw, a run whose KS verdict (``ks``) would get
    fewer than ``stats.KS_MIN_OBSERVATIONS`` replications per size."""
    if ks and config.replications < stats.KS_MIN_OBSERVATIONS:
        raise ValueError(f"the KS verdict needs at least {stats.KS_MIN_OBSERVATIONS} "
                         f"replications, got {config.replications}")


def _normal_ks(variance: float, tol: float) -> bool:
    """Whether a normal limit of ``variance`` gets a KS verdict: a variance
    of at most ``tol ** 2`` (``tol`` the law's round-off) is 0."""
    return variance > tol * tol


def _normal_limit(final: np.ndarray, variance: float, tol: float, zero_bound: float,
                  **zero_echo) -> dict:
    """``variance`` and ``ks_normality`` verdicts of the sample ``final``
    against its limit N(0, variance).  A variance that gets no KS verdict
    (:func:`_normal_ks`) is 0: then only ``variance`` is judged,
    the empirical variance must stay within ``zero_bound``, and
    ``zero_echo`` joins the verdict."""
    emp_var = float(final.var(ddof=1))
    if not _normal_ks(variance, tol):
        return {"variance": {"pass": emp_var <= zero_bound, "observed": emp_var,
                             "expected": 0.0, **zero_echo}}
    D, p = stats.ks_test_normal(final, 0.0, float(np.sqrt(variance)))
    return {
        "variance": {"pass": abs(emp_var - variance) <= VARIANCE_RTOL * variance,
                     "observed": emp_var, "expected": variance, "rtol": VARIANCE_RTOL},
        "ks_normality": {"pass": p > KS_ALPHA, "D": D, "p": p, "alpha": KS_ALPHA},
    }


# ---------------------------------------------------------------------------
# draw machinery

def _count_blocks(y: DiscreteRandomSet,
                  config: ExperimentConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per-atom draw counts of blocks of replications, in record order.

    Yields ``(reps, counts)``: the replication indices of a block and an
    ``(len(reps), S, J)`` int array whose entry ``[r, s, j]`` counts the
    draws of atom ``j`` among the first ``sizes[s]`` draws of replication
    ``reps[r]``.  A block is sized by its kernel values: it holds
    ``DRAW_BUDGET // (S * vertices)`` replications (at least one), with
    ``vertices`` the atoms' total vertex count, since the kernels hold
    about one value per atom vertex (at least one per atom and fan cell)
    and size.  Its counts are drawn in chunks of at most ``DRAW_BUDGET``
    draws (``DRAW_BUDGET // N`` replications, at least one, one
    :func:`~setmeans.rng.words` call each), so the word stream stays
    cache-sized and memory stays flat whatever the replication count.  Each
    replication's counts come from its own stream, so records never
    depend on the block or chunk size.

    The counts come straight from the stream's words, with no per-draw
    atom index.  :func:`~setmeans.randomsets.sample_many` maps a uniform
    ``u`` to ``#{k : cw[k] <= u}`` over the cumulative weights ``cw``,
    which are non-decreasing with ``cw[-1] = 1 > u``; so the draws on
    atoms ``0 .. j`` are exactly those with ``u < cw[j]``, and the last
    atom takes the rest.  The uniform of a word ``z`` is ``u = (z >> 11)
    * 2**-53`` and ``cw[j] * 2**53`` is exact, so ``u < cw[j]`` holds
    exactly when the integer ``z >> 11`` lies below ``top[j] =
    ceil(cw[j] * 2**53)``, that is when ``z <= top[j] * 2**11 - 1``.
    ``top`` is capped at ``2**53``, above every ``z >> 11``: then
    ``cw[j] = 1.0`` (or a round-off above it) counts every draw, and its
    last word ``2**64 - 1`` does not overflow.  Thresholding each size
    increment at every ``cw[j]`` and differencing over ``j`` gives the
    counts of ``sample_many`` bit for bit.

    Words and bounds are both ``np.uint64`` (a uint64 that meets an int64
    operand is promoted to float64), so the chunk needs no shift, float
    conversion or scaling.  The words, the finalizer's shift scratch and
    the compare mask live in buffers allocated once per call and
    refilled by every chunk.  Per 2**15-draw chunk (a call of 32
    replications of 1024 draws, warm) on a 2-vCPU Xeon with numpy 2.4,
    this took 0.17, 0.22, 0.34, 1.0 and 3.8 ms at 2, 4, 8, 32 and 128
    atoms, against 0.19, 0.24, 0.32, 0.81 and 2.8 ms for the floats of
    :func:`~setmeans.rng.uniforms` in fresh arrays: numpy compares uint64
    at about twice the cost of float64, so the words lose warm from about
    8 atoms on, but the fresh arrays fault their pages in again on large
    runs (about 2900 faults a 2000-replication call at 2 atoms, against
    none here once a process has run two calls).
    """
    sizes = config.sample_sizes
    atoms = y.atom_count
    tops = np.minimum(np.ceil(y.cumulative_weights[:-1] * 2.0 ** 53), 2.0 ** 53)
    # bounds[j]: the largest word whose uniform is below cw[j]
    bounds = [np.uint64((int(top) << 11) - 1) for top in tops]
    starts = np.array((0,) + sizes[:-1])        # first draw of each size increment
    increments = np.diff((0,) + sizes)          # its draws, all on atoms 0 .. J-1
    vertices = sum(body.vertex_count for body in y.bodies)
    per_block = max(1, DRAW_BUDGET // (len(sizes) * vertices))
    per_chunk = max(1, DRAW_BUDGET // sizes[-1])
    steps = draw_steps(sizes[-1])
    rows = min(per_chunk, per_block, config.replications)
    # one allocation for the words and the shift scratch: separate ones
    # fault their pages in again on every call
    word_buf, shift_buf = np.empty((2, rows, sizes[-1]), dtype=np.uint64)
    hit_buf = np.empty((rows, sizes[-1]), dtype=bool)
    for start in range(0, config.replications, per_block):
        reps = np.arange(start, min(start + per_block, config.replications))
        bases = replication_bases(config.master_seed, reps)
        # below[r, s, j]: draws of size increment s on atoms 0 .. j
        below = np.empty((len(reps), len(sizes), atoms), dtype=np.int64)
        for lo in range(0, len(reps), per_chunk):
            m = min(per_chunk, len(reps) - lo)
            z = words(bases[lo:lo + m], steps, out=word_buf[:m], scratch=shift_buf[:m])
            hit = hit_buf[:m]
            for j, bound in enumerate(bounds):
                np.less_equal(z, bound, out=hit)
                below[lo:lo + m, :, j] = np.add.reduceat(hit, starts, axis=1, dtype=np.int64)
        below[:, :, -1] = increments
        yield reps, np.diff(np.cumsum(below, axis=1), axis=2, prepend=0)


def _statistic(y: DiscreteRandomSet, config: ExperimentConfig, kernel, body,
               oracle_reps: int = ORACLE_REPS) -> np.ndarray:
    """The statistic of every checkpoint, as an ``(R, S, k)`` array whose
    entry ``[r, s]`` belongs to replication ``r`` at ``sizes[s]``.

    ``kernel(counts, coefs)`` maps a block of draw counts and their
    coefficients ``counts / N``, both ``(B, S, J)``, to ``(values,
    band)``: the ``(B, S)`` or ``(B, S, k)`` statistics, and a ``(B, S)``
    mask of the checkpoints it cannot decide (or None).  Those take the
    body path, ``body(coefs[b, s])``.  Every checkpoint of the
    replications below ``oracle_reps`` is recomputed along the body path
    as well, and a difference beyond ``tolerance(REL_TOL, y.box)`` raises
    :class:`OracleMismatch`.
    """
    sizes = config.sample_sizes
    tol = tolerance(REL_TOL, y.box)
    out = None
    for reps, counts in _count_blocks(y, config):
        coefs = counts / np.array(sizes)[:, None]
        values, band = kernel(counts, coefs)
        values = values.reshape(counts.shape[:2] + (-1,))
        if band is None:
            band = np.zeros(counts.shape[:2], dtype=bool)
        # band is (B, S), so the oracle replications are checked at every size
        for r, s in zip(*np.nonzero(band | (reps < oracle_reps)[:, None])):
            slow = body(coefs[r, s])
            if band[r, s]:
                values[r, s] = slow
            elif not np.all(np.abs(values[r, s] - slow) <= tol):
                raise OracleMismatch(f"count kernel gives {values[r, s].tolist()!r} where the body "
                                     f"path gives {np.asarray(slow).tolist()!r} "
                                     f"(replication {reps[r]}, N={sizes[s]})")
        if out is None:
            out = np.empty((config.replications, len(sizes), values.shape[-1]))
        out[reps] = values
    return out


def _distances(y: DiscreteRandomSet, config: ExperimentConfig) -> np.ndarray:
    """``H(mean_N, E)`` of every checkpoint, ``(R, S, 1)``.

    In 2-D the distance comes straight from the draw counts through the
    atoms' normal fan, with replication 0 as the oracle (fold the mean,
    then ``hausdorff``).  Other dimensions take the body path everywhere.  A
    distance beyond the largest atom-to-expectation distance, which
    convexity rules out, raises :class:`OracleMismatch`.
    """
    ey = expectation(y)
    fan = normal_fan(y.bodies) if y.dim == 2 else None
    tol = tolerance(REL_TOL, y.box)

    def body(coefs):
        return hausdorff(weighted_sum(y.bodies, coefs), ey)

    def kernel(counts, coefs):
        if fan is None:
            return np.zeros(counts.shape[:2]), np.ones(counts.shape[:2], dtype=bool)
        return fan.hausdorff(coefs, y.weights), None

    units = np.eye(y.atom_count)
    if fan is None:
        max_atom_dist = max(body(unit) for unit in units)
    else:
        max_atom_dist = float(fan.hausdorff(units, y.weights).max())
    dist = _statistic(y, config, kernel, body, oracle_reps=1)
    if (dist > max_atom_dist + tol).any():
        raise OracleMismatch("sample mean left the hull of the atoms")
    return dist


def _exposed_points(y: DiscreteRandomSet, f: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Exposed point of every checkpoint's mean in direction ``f``, ``(R, S, d)``.

    The atoms' faces must be singletons ``{v_j}``; by the face rule the
    mean's face is then the point ``sum_j (c_j / n) * v_j``, folded as
    ``weighted_sum`` folds, and never tied.
    """
    atom_faces = [support_face(body, f).face for body in y.bodies]
    tops = np.array([face.vertices[0] for face in atom_faces])

    def body(coefs):
        return check_face_commutation(weighted_sum(y.bodies, coefs), atom_faces, coefs, f).vertices[0]

    return _statistic(y, config, lambda counts, coefs: (_fold(coefs, tops), None), body)


def _tangent_values(y: DiscreteRandomSet, u: np.ndarray,
                    config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """``(totals, gaps)``, both ``(R, S)``: the summed support values
    ``counts @ atom_supports`` of the draws in direction ``u``, and the
    distance between the mean of the draw faces and the face of the
    expectation, ``H(sum_j (c_j / n) F_j, sum_j w_j F_j)``, from the normal
    fan of the atom faces in 2-D and along the body path otherwise."""
    atom_supports = np.array([support(body, u) for body in y.bodies])
    atom_faces = [support_face(body, u).face for body in y.bodies]
    ey_face = weighted_sum(atom_faces, y.weights)
    fan = normal_fan(atom_faces) if y.dim == 2 else None
    sizes = np.array(config.sample_sizes)
    totals = []   # per block, in record order: records use the totals, not totals / N

    def face_gap(coefs):
        return hausdorff(weighted_sum(atom_faces, coefs), ey_face)

    def body(coefs):
        return [support(weighted_sum(y.bodies, coefs), u), face_gap(coefs)]

    def kernel(counts, coefs):
        totals.append(_fold(counts, atom_supports[:, None])[..., 0])
        if fan is None:
            gaps = np.array([[face_gap(c) for c in per_rep] for per_rep in coefs])
        else:
            gaps = fan.hausdorff(coefs, y.weights)
        return np.stack([totals[-1] / sizes, gaps], axis=-1), None

    gaps = _statistic(y, config, kernel, body)[..., 1]
    return np.concatenate(totals), gaps


def _facet_values(y: DiscreteRandomSet, x: np.ndarray, f: np.ndarray,
                  config: ExperimentConfig) -> np.ndarray:
    """``(R, S, 2)``: the distance from ``x`` to each checkpoint's mean and
    whether its nearest point makes an excursion (1.0) off the relative
    interior of the mean's facet in direction ``f``, measured inside
    ``f``-perp as :func:`is_facet_at` measures it (a distance within
    ``tol = tolerance(REL_TOL, y.box)`` is an excursion too).

    By the face rule the facet is ``sum_j (c_j / n) F_j``; inside
    ``f``-perp it is the segment between the folded endpoints ``a_j``,
    ``b_j`` of the atom faces.  In 2-D both values come from the draw
    counts: the distance from the normal fan, and when ``x`` is beyond
    the facet's line and projects into the facet, its nearest point is
    that projection, inside the facet if it keeps
    ``FACET_REL_MARGIN * diameter`` from both ends; when it projects
    outside, the nearest point is off the facet.  The body path decides
    the checkpoints within ``tolerance(GUARD_REL, y.box)`` of one of
    these thresholds, and every checkpoint of other dimensions.
    """
    atom_faces = [support_face(body, f).face for body in y.bodies]
    fan = normal_fan(y.bodies) if y.dim == 2 else None
    tol = tolerance(REL_TOL, y.box)
    guard = tolerance(GUARD_REL, y.box)
    if fan is not None:
        along = np.array([-f[1], f[0]])
        ends = np.array([[face.vertices[np.argmin(face.vertices @ along)],
                          face.vertices[np.argmax(face.vertices @ along)]] for face in atom_faces])

    def body(coefs):
        mean = weighted_sum(y.bodies, coefs)
        face = check_face_commutation(mean, atom_faces, coefs, f)
        dist = point_distance(mean, x)
        inside = dist > tol and _in_facet(face, nearest_point(mean, x), f,
                                          FACET_REL_MARGIN * mean.diameter, tol)
        return [dist, float(not inside)]

    def kernel(counts, coefs):
        if fan is None:
            return np.zeros(counts.shape[:2] + (2,)), np.ones(counts.shape[:2], dtype=bool)
        dist = fan.point_distance(coefs, x)
        a, b = np.moveaxis(_fold(coefs, ends), -2, 0)
        length = ((b - a) * along).sum(axis=-1)
        offset = ((x - a) * along).sum(axis=-1)      # projection of x along the facet
        height = ((x - a) * f).sum(axis=-1)          # beyond the facet's line when > 0
        inner = np.minimum(offset, length - offset)  # distance to the nearer end
        P = fan.support_points(coefs)   # every vertex of the mean is among them
        diameter = np.zeros(dist.shape)
        for i in range(P.shape[-2]):
            far = np.sqrt(((P - P[..., i, None, :]) ** 2).sum(axis=-1)).max(axis=-1)
            diameter = np.maximum(diameter, far)
        margin = FACET_REL_MARGIN * diameter
        facet = (dist > tol) & (inner > margin)   # height > 0 is settled by the band
        band = ((np.abs(dist - tol) <= guard)
                | ((inner > margin - guard)
                   & ((height <= guard) | (np.abs(inner - margin) <= guard))))
        return np.stack([dist, (~facet).astype(float)], axis=-1), band

    return _statistic(y, config, kernel, body)


def _facet_flags(y: DiscreteRandomSet, f: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """``(R, S, 1)``: 1.0 when the checkpoint's mean has a facet (a support
    face of two or more vertices) in direction ``f``.

    By the face rule it has one exactly when a drawn atom has one.
    """
    atom_faces = [support_face(body, f).face for body in y.bodies]
    facet_atoms = np.array([face.vertex_count >= 2 for face in atom_faces])

    def body(coefs):
        face = check_face_commutation(weighted_sum(y.bodies, coefs), atom_faces, coefs, f)
        return 1.0 if face.vertex_count >= 2 else 0.0

    return _statistic(y, config, lambda counts, coefs: (_facet_kernel(counts, facet_atoms), None),
                      body)


def _facet_kernel(counts: np.ndarray, facet_atoms: np.ndarray) -> np.ndarray:
    return (counts[..., facet_atoms].sum(axis=-1) > 0).astype(float)


# ---------------------------------------------------------------------------
# experiments

def lln_experiment(y: DiscreteRandomSet, config: ExperimentConfig) -> ExperimentReport:
    """Distance of the sample mean to the expectation, with rate check.

    Records H(mean_N, E) per replication and size; verdicts: the median
    at the largest size stays below ``MEDIAN_MAX`` and (with at least
    three sizes) the log-log slope of the medians falls in
    ``SLOPE_RANGE``.
    """
    t0 = time.perf_counter()
    records = _distances(y, config)
    sizes = config.sample_sizes
    medians = [float(np.median(dist)) for dist in records[..., 0].T]
    moments = {"median_by_size": [{"N": n, "median": m} for n, m in zip(sizes, medians)]}
    verdicts = {}
    verdicts["final_median"] = {
        "pass": medians[-1] <= MEDIAN_MAX,
        "observed": medians[-1],
        "threshold": MEDIAN_MAX,
        "N": sizes[-1],
    }
    if len(sizes) >= 3 and all(m > 0.0 for m in medians):
        slope, intercept = stats.loglog_slope(list(sizes), medians)
        moments["slope"] = slope
        moments["intercept"] = intercept
        verdicts["slope"] = {
            "pass": SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1],
            "observed": slope,
            "range": list(SLOPE_RANGE),
        }
    return _report("lln", config, t0, records, moments, verdicts,
                   median_max=MEDIAN_MAX, slope_range=list(SLOPE_RANGE))


def clt_hausdorff_experiment(y: DiscreteRandomSet, config: ExperimentConfig) -> ExperimentReport:
    """Scaled distance sqrt(N)*H(mean_N, E), checked for stability across sizes.

    The limiting law has no closed form, so the testable consequence is
    distributional stability: a two-sample KS test between consecutive
    sizes must not reject at level ``KS_ALPHA``.  Records within their
    round-off, ``sqrt(N)`` times the law's tolerance, count as ties.
    """
    if len(config.sample_sizes) < 2:
        raise ValueError("stability check needs at least two sample sizes")
    _check_ks_sample(config, True)
    t0 = time.perf_counter()
    sizes = config.sample_sizes
    records = np.sqrt(sizes)[:, None] * _distances(y, config)
    by_size = records[..., 0].T
    ties = np.sqrt(sizes[-1]) * tolerance(REL_TOL, y.box)
    pairs = []
    for s in range(1, len(sizes)):
        d, p = stats.ks_two_sample(by_size[s - 1], by_size[s], ties)
        pairs.append({"sizes": [sizes[s - 1], sizes[s]], "D": d, "p": p})
    moments = {
        "mean_by_size": [{"N": n, "mean": float(x.mean())} for n, x in zip(sizes, by_size)],
        "ks_pairs": pairs,
    }
    verdicts = {
        "ks_stability": {
            "pass": all(pair["p"] > KS_ALPHA for pair in pairs),
            "alpha": KS_ALPHA,
            "pairs": pairs,
        }
    }
    return _report("clt-hausdorff", config, t0, records, moments, verdicts, ks_alpha=KS_ALPHA)


def clt_exposed_experiment(y: DiscreteRandomSet, direction,
                           config: ExperimentConfig) -> ExperimentReport:
    """Fluctuation of the exposed point of the sample mean around its limit.

    Records sqrt(N) * (exposed point of mean_N - exposed point of E).
    Verdicts (on the largest size): empirical covariance within
    ``COV_ATOL`` entrywise of the analytic selection covariance, KS
    normality per non-degenerate coordinate, and near-zero empirical
    mean.  Every atom face is a point, so no mean's face is tied.
    """
    t0 = time.perf_counter()
    selection = exposed_selection(y, direction)  # raises NotExposed if blocked
    target = selection.mean
    sigma = selection.covariance
    ks_axes = [a for a in range(y.dim) if _normal_ks(sigma[a, a], tolerance(REL_TOL, y.box))]
    _check_ks_sample(config, bool(ks_axes))

    points = _exposed_points(y, norm_gradient(direction), config)
    records = np.sqrt(config.sample_sizes)[:, None] * (points - target)

    final_n = config.sample_sizes[-1]
    final = records[:, -1]
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
            "pass": cov_err <= COV_ATOL,
            "max_abs_error": cov_err,
            "tolerance": COV_ATOL,
        }
    }
    mean_bound = 4.0 * float(np.sqrt(np.trace(sigma) / len(final)))
    verdicts["mean_near_zero"] = {
        "pass": float(np.linalg.norm(emp_mean)) <= mean_bound,
        "observed": float(np.linalg.norm(emp_mean)),
        "threshold": mean_bound,
    }
    ks = []
    for axis in ks_axes:
        D, p = stats.ks_test_normal(final[:, axis], 0.0, float(np.sqrt(sigma[axis, axis])))
        ks.append({"axis": axis, "D": D, "p": p})
    moments["ks_by_axis"] = ks
    if ks:
        verdicts["ks_normality"] = {
            "pass": all(entry["p"] > KS_ALPHA for entry in ks),
            "alpha": KS_ALPHA,
            "axes": ks,
        }
    return _report("clt-exposed", config, t0, records, moments, verdicts,
                   direction=list(np.asarray(direction, dtype=float)),
                   cov_atol=COV_ATOL, ks_alpha=KS_ALPHA)


def clt_tangent_experiment(y: DiscreteRandomSet, direction,
                           config: ExperimentConfig) -> ExperimentReport:
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
    tol = tolerance(REL_TOL, y.box)   # a support value's round-off; records are sqrt(N) times it
    _check_ks_sample(config, _normal_ks(sigma2, tol))

    totals, gaps = _tangent_values(y, u, config)
    records = ((totals - sizes * s_expected) / np.sqrt(sizes))[..., None]

    final_n = config.sample_sizes[-1]
    verdicts = _normal_limit(records[:, -1, 0], sigma2, tol, final_n * tol * tol)
    gap_means = [float(np.mean(gap)) for gap in gaps.T]
    moments = {
        "final_N": final_n,
        "empirical_variance": verdicts["variance"]["observed"],
        "analytic_variance": sigma2,
        "face_gap_by_size": [{"N": n, "mean_gap": m}
                             for n, m in zip(config.sample_sizes, gap_means)],
    }
    gap_threshold = 4.0 * y.envelope / np.sqrt(final_n)
    verdicts["face_gap"] = {
        "pass": gap_means[-1] <= gap_threshold,
        "observed": gap_means[-1],
        "threshold": float(gap_threshold),
    }
    return _report("clt-tangent", config, t0, records, moments, verdicts,
                   direction=list(np.asarray(direction, dtype=float)),
                   variance_rtol=VARIANCE_RTOL, ks_alpha=KS_ALPHA)


def clt_facet_experiment(y: DiscreteRandomSet, point, config: ExperimentConfig) -> ExperimentReport:
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
    tol = tolerance(REL_TOL, y.box)
    base_distance = point_distance(ey, x)
    if base_distance <= tol:
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
    _check_ks_sample(config, _normal_ks(predicted_var, tol))

    values = _facet_values(y, x, facet_functional, config)
    records = (np.sqrt(config.sample_sizes) * (values[..., 0] - base_distance))[..., None]

    verdicts = _normal_limit(records[:, -1, 0], predicted_var, tol, DEGENERATE_ATOL,
                             tolerance=DEGENERATE_ATOL)
    moments = {
        "final_N": config.sample_sizes[-1],
        "empirical_variance": verdicts["variance"]["observed"],
        "predicted_variance": predicted_var,
        "base_distance": float(base_distance),
        "nearest_point": k.tolist(),
        "excursions": int(values[..., 1].sum()),
    }
    return _report("clt-facet", config, t0, records, moments, verdicts, point=list(x),
                   variance_rtol=VARIANCE_RTOL, degenerate_atol=DEGENERATE_ATOL,
                   ks_alpha=KS_ALPHA)


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

    records = _facet_flags(y, f, config)
    per_size = []
    all_in_band = True
    for n, flags in zip(config.sample_sizes, records[..., 0].T):
        expected = 1.0 - (1.0 - p_facet) ** n
        successes = int(flags.sum())
        trials = len(flags)
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
    return _report("facet-freq", config, t0, records, moments, verdicts,
                   direction=list(np.asarray(direction, dtype=float)))
