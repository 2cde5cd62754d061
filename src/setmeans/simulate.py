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
a replication only through its per-atom draw counts.  ``_checkpoints``
yields those counts; each experiment maps them to its statistic, at a
cost per checkpoint independent of the sample size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import stats
from .geometry import (
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


class DegenerateFace(RuntimeError):
    """Too many replications produced tied (non-singleton) faces."""


class IncompatibleSelection(ValueError):
    """Nearest-point selection mean disagrees with the projected expectation."""


class NoFacet(ValueError):
    """The nearest point of the expectation is not inside a facet."""


class InsideBody(ValueError):
    """The query point lies inside the expectation."""


class OracleMismatch(RuntimeError):
    """The normal-fan Hausdorff kernel disagrees with the body path."""


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

def _checkpoints(y: DiscreteRandomSet,
                 config: ExperimentConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """Per-atom draw counts ``(rep, n, counts)`` of every checkpoint, in record order."""
    sizes = config.sample_sizes
    for rep in range(config.replications):
        indices = sample_many(y, uniforms(config.master_seed, rep, sizes[-1]))
        for n in sizes:
            yield rep, n, np.bincount(indices[:n], minlength=y.atom_count)


def _distances(y: DiscreteRandomSet,
               config: ExperimentConfig) -> Iterator[tuple[int, int, float]]:
    """``H(mean_N, E)`` of every checkpoint ``(rep, n, distance)``, in record order.

    In 2-D the distance comes straight from the draw counts through the
    atoms' normal fan; replication 0 is recomputed along the body path
    (fold the mean, then Wolfe) at every size as an oracle, and a
    disagreement beyond ``1e-9 * (1 + envelope)`` raises
    :class:`OracleMismatch`.  Other dimensions take the body path.  No
    distance may exceed the largest atom-to-expectation distance.
    """
    ey = expectation(y)
    fan = normal_fan(y.bodies) if y.dim == 2 else None

    def body_distance(coefs):
        return hausdorff(weighted_sum(y.bodies, coefs), ey)

    def distance(coefs):
        return body_distance(coefs) if fan is None else fan.hausdorff(coefs, y.weights)

    tol = 1e-9 * (1.0 + y.envelope)
    max_atom_dist = max(distance(unit) for unit in np.eye(y.atom_count))
    for rep, n, counts in _checkpoints(y, config):
        dist = distance(counts / n)
        if fan is not None and rep == 0:
            slow = body_distance(counts / n)
            if abs(dist - slow) > tol:
                raise OracleMismatch(f"normal-fan distance {dist!r} differs from the "
                                     f"body path's {slow!r} at N={n}")
        if dist > max_atom_dist + 1e-9:
            raise GeometryError("sample mean left the hull of the atoms")
        yield rep, n, dist


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
    records = [(rep, n, (dist,)) for rep, n, dist in _distances(y, config)]

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
    records = [(rep, n, (float(np.sqrt(n) * dist),)) for rep, n, dist in _distances(y, config)]

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
    f = norm_gradient(direction)
    atom_faces = [support_face(body, f).face for body in y.bodies]
    d = y.dim

    records = []
    tied = set()   # replications with a non-singleton face at some checkpoint
    for rep, n, counts in _checkpoints(y, config):
        if rep in tied:
            continue
        cert = support_face(weighted_sum(y.bodies, counts / n), f)
        if cert.face.vertex_count != 1:
            tied.add(rep)
            continue
        if rep < 3:
            check_face_commutation(cert.face, atom_faces, counts / n)
        stat = np.sqrt(n) * (cert.face.vertices[0] - target)
        records.append((rep, n, tuple(float(v) for v in stat)))
    records = [r for r in records if r[0] not in tied]
    discarded = len(tied)
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
    ey = expectation(y)
    s_expected = support(ey, u)
    atom_supports = np.array([support(body, u) for body in y.bodies])
    ey_face = support_face(ey, u).face
    atom_faces = [support_face(body, u).face for body in y.bodies]

    records = []
    face_gaps: dict[int, list[float]] = {n: [] for n in config.sample_sizes}
    for rep, n, counts in _checkpoints(y, config):
        total = float(counts @ atom_supports)
        stat = (total - n * s_expected) / np.sqrt(n)
        records.append((rep, n, (float(stat),)))
        face_gaps[n].append(hausdorff(weighted_sum(atom_faces, counts / n), ey_face))

    final_n = config.sample_sizes[-1]
    final = np.array([stat[0] for _, n, stat in records if n == final_n])
    emp_var = float(final.var(ddof=1))
    gap_means = {n: float(np.mean(gaps)) for n, gaps in face_gaps.items()}
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
    for rep, n, counts in _checkpoints(y, config):
        mean_body = weighted_sum(y.bodies, counts / n)
        dist = point_distance(mean_body, x)
        records.append((rep, n, (float(np.sqrt(n) * (dist - base_distance)),)))
        k_n = nearest_point(mean_body, x)
        if dist <= 1e-12 or not is_facet_at(mean_body, k_n, facet_functional):
            excursions += 1

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
    atom_faces = [support_face(body, f).face for body in y.bodies]

    records = []
    for rep, n, counts in _checkpoints(y, config):
        cert = support_face(weighted_sum(y.bodies, counts / n), f)
        if rep < 3:
            check_face_commutation(cert.face, atom_faces, counts / n)
        records.append((rep, n, (1.0 if cert.face.vertex_count >= 2 else 0.0,)))

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
