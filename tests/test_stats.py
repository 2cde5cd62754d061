import math

import numpy as np
import pytest
from scipy.special import ndtri

from oracles import normal_cdf
from setmeans.stats import (
    binomial_band,
    kolmogorov_sf,
    ks_test_normal,
    ks_two_sample,
    loglog_slope,
    mean_and_covariance,
)


# ---------------------------------------------------------------------------
# mean and covariance

def test_two_point_covariance():
    mean, cov = mean_and_covariance([(1.0, 0.0), (0.0, 1.0)])
    assert np.allclose(mean, (0.5, 0.5))
    assert np.allclose(cov, [[0.5, -0.5], [-0.5, 0.5]])


def test_constant_sample_zero_covariance():
    mean, cov = mean_and_covariance([(2.0, 3.0)] * 5)
    assert np.allclose(cov, 0.0)


def test_scalar_sample_unbiased_variance():
    mean, cov = mean_and_covariance([0.0, 0.0, 1.0, 1.0])
    assert mean[0] == pytest.approx(0.5)
    assert cov[0, 0] == pytest.approx(1.0 / 3.0)


def test_covariance_requires_two_observations():
    with pytest.raises(ValueError):
        mean_and_covariance([(1.0, 2.0)])


def test_covariance_symmetric_psd_on_random_samples():
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = rng.normal(size=(rng.integers(2, 40), 3))
        _, cov = mean_and_covariance(X)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


# ---------------------------------------------------------------------------
# normal CDF

def test_normal_cdf_against_scipy():
    from scipy.stats import norm
    for x in np.linspace(-6, 6, 41):
        assert abs(normal_cdf(x) - norm.cdf(x)) <= 1e-7


# ---------------------------------------------------------------------------
# one-sample KS

def test_ks_normal_statistic_equals_the_loop_over_sorted_values():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(20, 300))
        xs = np.round(rng.normal(size=n), int(rng.integers(1, 4)))   # ties too
        mu, sigma = float(rng.normal(0.0, 0.3)), float(rng.uniform(0.5, 2.0))
        d = 0.0
        for i, x in enumerate(sorted(xs.tolist())):
            cdf = normal_cdf(x, mu, sigma)
            d = max(d, cdf - i / n, (i + 1) / n - cdf)
        assert ks_test_normal(xs, mu, sigma)[0] == d


def test_ks_normal_quantile_sample_minimizes_d():
    n = 100
    sample = ndtri((np.arange(n) + 0.5) / n)
    D, p = ks_test_normal(sample, 0.0, 1.0)
    assert D <= 0.005 + 1e-9
    assert p > 0.99


def test_ks_normal_constant_sample():
    D, p = ks_test_normal([0.3] * 50, 0.3, 1.0)
    assert D >= 0.5


def test_ks_normal_affine_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(1.0, 2.0, size=200)
    D0, p0 = ks_test_normal(x, 1.0, 2.0)
    # power-of-two scale: bit-exact z-scores
    D1, p1 = ks_test_normal(2.0 * x, 2.0, 4.0)
    assert D1 == D0 and p1 == p0
    # general affine map: equal within round-off
    a, b = 1.7, -0.3
    D2, p2 = ks_test_normal(a * x + b, a * 1.0 + b, a * 2.0)
    assert D2 == pytest.approx(D0, abs=1e-12)
    assert p2 == pytest.approx(p0, abs=1e-9)


def test_ks_normal_input_validation():
    with pytest.raises(ValueError):
        ks_test_normal([0.0] * 30, 0.0, 0.0)
    with pytest.raises(ValueError):
        ks_test_normal([0.0] * 10, 0.0, 1.0)


def test_ks_normal_quantile_refit_reduces_d():
    rng = np.random.default_rng(5)
    x = np.exp(rng.normal(size=300))  # skewed, badly non-normal
    mu, sigma = x.mean(), x.std(ddof=1)
    D_raw, _ = ks_test_normal(x, mu, sigma)
    n = len(x)
    refit = mu + sigma * ndtri((np.arange(n) + 0.5) / n)
    D_fit, _ = ks_test_normal(refit, mu, sigma)
    assert D_fit < D_raw


# ---------------------------------------------------------------------------
# two-sample KS

def test_ks_two_sample_identical():
    x = np.linspace(0, 1, 40)
    D, p = ks_two_sample(x, x)
    assert D == 0.0
    assert p == 1.0


def test_ks_two_sample_disjoint():
    D, p = ks_two_sample(np.arange(25.0), np.arange(25.0) + 100.0)
    assert D == 1.0
    assert p < 1e-9


def test_ks_two_sample_round_off_ties_are_merged():
    # same lattice reached along different float paths
    k = np.arange(40.0)
    a = k / 20.0
    b = (k / 400.0) * 20.0
    D, p = ks_two_sample(a, b, 1e-12)
    assert D == 0.0 and p == 1.0


def test_ks_two_sample_self_consistency_calibration():
    # independent halves of one normal stream: p > 0.01 in >= 95% of seeds
    hits = 0
    seeds = 40
    for s in range(seeds):
        rng = np.random.default_rng(1000 + s)
        x = rng.normal(size=2000)
        _, p = ks_two_sample(x[:1000], x[1000:])
        hits += p > 0.01
    assert hits >= int(0.95 * seeds)


def test_ks_two_sample_undersized():
    with pytest.raises(ValueError):
        ks_two_sample(np.arange(5.0), np.arange(30.0))


# ---------------------------------------------------------------------------
# p-value behaviour

def test_p_values_within_unit_interval_and_monotone_in_d():
    n = 500
    last_p = 1.1
    for D in np.linspace(0.01, 0.5, 25):
        lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * D
        p = kolmogorov_sf(lam)
        assert 0.0 <= p <= 1.0
        assert p <= last_p + 1e-12
        last_p = p


def test_kolmogorov_sf_limits():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# log-log regression

def test_loglog_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, intercept = loglog_slope(xs, 1.0 / np.sqrt(xs))
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)


def test_loglog_constant():
    slope, _ = loglog_slope([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_loglog_perturbed_power_law_matches_polyfit_oracle():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    factors = np.array([1.05 if i % 2 == 0 else 0.95 for i in range(len(xs))])
    ys = 3.0 * xs ** -0.5 * factors
    slope, intercept = loglog_slope(xs, ys)
    oracle = np.polyfit(np.log(xs), np.log(ys), 1)
    assert slope == pytest.approx(oracle[0], abs=1e-12)
    assert intercept == pytest.approx(oracle[1], abs=1e-12)
    assert -0.55 <= slope <= -0.45


def test_loglog_rejects_nonpositive():
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# binomial band

def test_binomial_band_examples():
    assert binomial_band(10000, 0.875, 8750)
    assert not binomial_band(10000, 0.875, 8000)
    assert binomial_band(100, 0.0, 0)
    assert binomial_band(100, 1.0, 100)


def test_binomial_band_validation():
    with pytest.raises(ValueError):
        binomial_band(10, 1.5, 5)
    with pytest.raises(ValueError):
        binomial_band(10, 0.5, 11)
