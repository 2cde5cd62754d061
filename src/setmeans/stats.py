"""Small statistical toolkit for the experiment verdicts.

Self-contained on purpose: the normal CDF comes from the stdlib error
function and the Kolmogorov-Smirnov p-values from the classical
alternating series, so the verdicts carry no statistics-library
dependency.
"""

from __future__ import annotations

import math

import numpy as np

KS_MIN_OBSERVATIONS = 20   # smallest sample (per sample) the KS tests accept


def mean_and_covariance(values):
    """Sample mean and unbiased covariance of an (n,) or (n, d) sample."""
    X = np.asarray(values, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if n < 2:
        raise ValueError("covariance needs at least two observations")
    if not np.all(np.isfinite(X)):
        raise ValueError("sample contains non-finite entries")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    return mean, cov


def kolmogorov_sf(lam: float) -> float:
    """Kolmogorov limit survival function, series truncated below 1e-10."""
    if lam < 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 1001):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _ks_p_value(d: float, effective_n: float) -> float:
    en = math.sqrt(effective_n)
    return kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


def ks_test_normal(values, mu: float, sigma: float):
    """One-sample two-sided KS statistic and p-value against N(mu, sigma^2)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n < KS_MIN_OBSERVATIONS:
        raise ValueError(f"one-sample KS needs at least {KS_MIN_OBSERVATIONS} observations")
    z = (xs - mu) / (sigma * math.sqrt(2.0))
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in z.tolist()]))
    i = np.arange(n)
    d = float(max((cdf - i / n).max(), ((i + 1) / n - cdf).max()))
    return d, _ks_p_value(d, n)


def _snap_ties(xs: np.ndarray, ys: np.ndarray, tol: float):
    """Map each run of sorted values whose consecutive gaps are at most
    ``tol`` onto its smallest member.

    Lattice-valued statistics computed along different floating-point
    paths land within round-off of each other; without snapping such
    mathematical ties, the two-sample statistic is measured mid-jump and
    inflated.
    """
    pooled = np.sort(np.concatenate([xs, ys]))
    gaps = np.diff(pooled) > tol
    reps = pooled[np.concatenate([[True], gaps])]
    snap = lambda v: reps[np.clip(np.searchsorted(reps, v, side="right") - 1, 0, len(reps) - 1)]
    return snap(xs), snap(ys)


def ks_two_sample(a, b, tie_tol: float = 0.0):
    """Two-sample two-sided KS statistic and asymptotic p-value.

    Values within ``tie_tol`` of each other (the samples' round-off, in
    their units) are ties; by default only equal values are.
    """
    xs = np.sort(np.asarray(a, dtype=float))
    ys = np.sort(np.asarray(b, dtype=float))
    n1, n2 = len(xs), len(ys)
    if min(n1, n2) < KS_MIN_OBSERVATIONS:
        raise ValueError(f"two-sample KS needs at least {KS_MIN_OBSERVATIONS} observations per sample")
    xs, ys = _snap_ties(xs, ys, tie_tol)
    pooled = np.concatenate([xs, ys])
    cdf1 = np.searchsorted(xs, pooled, side="right") / n1
    cdf2 = np.searchsorted(ys, pooled, side="right") / n2
    d = float(np.abs(cdf1 - cdf2).max())
    return d, _ks_p_value(d, n1 * n2 / (n1 + n2))


def loglog_slope(xs, ys):
    """OLS slope and intercept of log(ys) against log(xs)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need equally many xs and ys, at least three points")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log regression needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    lx_mean, ly_mean = lx.mean(), ly.mean()
    slope = float(((lx - lx_mean) * (ly - ly_mean)).sum() / ((lx - lx_mean) ** 2).sum())
    return slope, float(ly_mean - slope * lx_mean)


def binomial_band(n: int, p: float, k: int) -> bool:
    """Whether k successes sit within 3 sigma (plus continuity correction) of n*p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    return abs(k - n * p) <= 3.0 * math.sqrt(n * p * (1.0 - p)) + 0.5
