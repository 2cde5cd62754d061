"""The judges: each kind's moments and verdicts as a pure function of its
law quantities, config and records (plus its side values).

The synthetic records below are built by hand, with no draw stream: the
normal samples are the quantiles ``Phi^-1((i + 0.5) / m)``, which pass
KS at any level, and two-column samples pair ``(q, q)`` with ``(q, -q)``
so their empirical covariance is diagonal to round-off.
"""

import json
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from setmeans import cli, simulate
from setmeans.cli import load_scene, run_command
from setmeans.geometry import (REL_TOL, hull, nearest_point, norm_gradient, point_distance,
                               tolerance)
from setmeans.randomsets import (
    DiscreteRandomSet,
    exposed_selection,
    expectation,
    facet_inheritance,
    nearest_point_selection,
    tangent_variance,
)
from setmeans.simulate import (
    ExperimentConfig,
    _facet_values,
    _judge_clt_exposed,
    _judge_clt_facet,
    _judge_clt_hausdorff,
    _judge_clt_tangent,
    _judge_facet_frequency,
    _judge_lln,
    _ks_applies,
    _normal_limit,
    _report,
    _tangent_values,
    clt_exposed_experiment,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def quantiles(m):
    """``m`` standard normal quantiles, symmetric about 0."""
    return np.array([NormalDist().inv_cdf((i + 0.5) / m) for i in range(m)])


def uniform_quantiles(m):
    """``m`` quantiles of the uniform law of variance 1, symmetric about 0."""
    return np.sqrt(3.0) * (2.0 * (np.arange(m) + 0.5) / m - 1.0)


def config(*sizes, reps):
    return ExperimentConfig(master_seed=0, sample_sizes=sizes, replications=reps)


def at_last_size(final, sizes):
    """``(R, S, k)`` records whose largest size holds ``final`` (``(R,)`` or
    ``(R, k)``) and whose smaller sizes hold zeros."""
    final = np.asarray(final, dtype=float).reshape(len(final), -1)
    records = np.zeros((final.shape[0], len(sizes), final.shape[1]))
    records[:, -1] = final
    return records


def degenerate_law(p):
    """Two triangles sharing their vertex ``p``, each exposing it in
    direction (-1, -1): the exposed point never moves, so the limit
    covariance is 0 up to round-off."""
    px, py = p
    return DiscreteRandomSet(weights=[0.3, 0.7], bodies=(
        hull([(px, py), (px + 1.0, py), (px, py + 1.0)]),
        hull([(px, py), (px + 1.0, py + 0.5), (px + 0.5, py + 1.0)]),
    ))


# ---------------------------------------------------------------------------
# lln

@pytest.mark.parametrize("median, passes", [(0.01, True), (0.1, False)])
def test_lln_final_median(median, passes):
    cfg = config(100, 400, reps=5)
    moments, verdicts, echo = _judge_lln(cfg, np.full((5, 2, 1), median))
    assert verdicts["final_median"]["pass"] is passes
    assert verdicts["final_median"]["observed"] == median
    assert "slope" not in verdicts    # two sizes get no slope verdict
    assert echo["median_max"] == simulate.MEDIAN_MAX


@pytest.mark.parametrize("rate, passes", [(-0.5, True), (-1.0, False)])
def test_lln_slope(rate, passes):
    sizes = (100, 400, 1600)
    medians = 0.5 * np.array(sizes, dtype=float) ** rate
    records = np.broadcast_to(medians[None, :, None], (7, 3, 1))
    moments, verdicts, _ = _judge_lln(config(*sizes, reps=7), records)
    assert verdicts["slope"]["pass"] is passes
    assert moments["slope"] == pytest.approx(rate)


def test_lln_slope_needs_positive_medians():
    records = np.zeros((5, 3, 1))
    moments, verdicts, _ = _judge_lln(config(1, 2, 3, reps=5), records)
    assert "slope" not in verdicts and "slope" not in moments
    assert verdicts["final_median"]["pass"]


# ---------------------------------------------------------------------------
# clt-hausdorff

@pytest.mark.parametrize("shift, passes", [(0.0, True), (1.0, False)])
def test_clt_hausdorff_ks_stability(shift, passes):
    q = np.abs(quantiles(400))
    records = np.stack([q, q + shift], axis=1)[..., None]
    moments, verdicts, _ = _judge_clt_hausdorff(1e-9, config(100, 400, reps=400), records)
    verdict = verdicts["ks_stability"]
    assert verdict["pass"] is passes
    assert verdict["pairs"] == moments["ks_pairs"]
    assert verdict["pairs"][0]["sizes"] == [100, 400]


def test_clt_hausdorff_counts_records_within_their_round_off_as_ties():
    tol = 1e-6
    # the sizes' records differ by a quarter of their round-off, sqrt(400) * tol
    records = np.stack([np.full(400, 0.7), np.full(400, 0.7 + 5.0 * tol)], axis=1)[..., None]
    _, verdicts, _ = _judge_clt_hausdorff(tol, config(100, 400, reps=400), records)
    assert verdicts["ks_stability"]["pairs"][0]["D"] == 0.0
    assert verdicts["ks_stability"]["pass"]
    _, verdicts, _ = _judge_clt_hausdorff(0.0, config(100, 400, reps=400), records)
    assert verdicts["ks_stability"]["pairs"][0]["D"] == 1.0
    assert not verdicts["ks_stability"]["pass"]


# ---------------------------------------------------------------------------
# clt-exposed

SIGMA = np.diag([1.0, 4.0])


def exposed_final(m=1000, second=None):
    """``(2m, 2)`` records of covariance SIGMA (to the quantiles' round-off)."""
    q = quantiles(m)
    second = q if second is None else second
    return np.stack([np.r_[q, q], 2.0 * np.r_[second, -second]], axis=1)


def judge_exposed(final, sigma=SIGMA, tol=1e-9, N=1000):
    ks = np.diag(sigma) > tol * tol
    return _judge_clt_exposed([1.0, 1.0], sigma, ks, tol, config(N, reps=len(final)),
                              at_last_size(final, (N,)))


def test_clt_exposed_passes_records_that_match_the_limit():
    moments, verdicts, echo = judge_exposed(exposed_final())
    assert all(v["pass"] for v in verdicts.values())
    assert [entry["axis"] for entry in verdicts["ks_normality"]["axes"]] == [0, 1]
    assert echo["direction"] == [1.0, 1.0]


def test_clt_exposed_covariance_fails_on_a_wider_sample():
    moments, verdicts, _ = judge_exposed(1.2 * exposed_final())
    assert not verdicts["covariance"]["pass"]
    assert verdicts["covariance"]["max_abs_error"] == pytest.approx(4.0 * 0.44, rel=0.01)


def test_clt_exposed_mean_near_zero_fails_on_a_shifted_sample():
    _, verdicts, _ = judge_exposed(exposed_final() + [0.3, 0.0])
    assert verdicts["covariance"]["pass"]
    assert not verdicts["mean_near_zero"]["pass"]
    assert verdicts["mean_near_zero"]["threshold"] == 4.0 * np.sqrt(5.0 / 2000)


def test_clt_exposed_ks_normality_fails_on_one_axis():
    final = exposed_final(second=uniform_quantiles(1000))
    moments, verdicts, _ = judge_exposed(final)
    assert verdicts["covariance"]["pass"] and verdicts["mean_near_zero"]["pass"]
    assert not verdicts["ks_normality"]["pass"]
    p0, p1 = (entry["p"] for entry in moments["ks_by_axis"])
    assert p0 > simulate.KS_ALPHA > p1


def test_clt_exposed_degenerate_axes_get_no_ks_verdict():
    final = exposed_final() * [1.0, 0.0]
    moments, verdicts, _ = judge_exposed(final, sigma=np.diag([1.0, 0.0]))
    assert [entry["axis"] for entry in moments["ks_by_axis"]] == [0]
    moments, verdicts, _ = judge_exposed(final * 0.0, sigma=np.zeros((2, 2)))
    assert moments["ks_by_axis"] == [] and "ks_normality" not in verdicts
    assert verdicts["mean_near_zero"]["pass"]


@pytest.mark.parametrize("p, observed", [((0.1, 0.3), 3.3060614687587565e-16),
                                         ((1000.1, 3.7), 2.2181729122684844e-12)])
def test_clt_exposed_mean_near_zero_allows_the_round_off_of_a_zero_covariance_limit(p, observed):
    # the observed means are those of seed 42, R = 2000, N = 1000 on these laws,
    # against 4 sqrt(trace / R) = 1.2e-18 and 1.0e-14
    y = degenerate_law(p)
    sigma = exposed_selection(y, [-1.0, -1.0]).covariance
    tol = tolerance(REL_TOL, y.box)
    final = np.zeros((2000, 2))
    final[:, 0] = observed
    _, verdicts, _ = judge_exposed(final, sigma=sigma, tol=tol)
    assert verdicts["mean_near_zero"]["pass"]
    assert verdicts["mean_near_zero"]["threshold"] == np.sqrt(1000) * tol
    _, verdicts, _ = judge_exposed(final + 1e3 * tol, sigma=sigma, tol=tol)
    assert not verdicts["mean_near_zero"]["pass"]


def test_clt_exposed_passes_on_a_zero_covariance_limit():
    report = clt_exposed_experiment(degenerate_law((0.1, 0.3)), [-1.0, -1.0],
                                    config(1000, reps=2000))
    assert report.passed(), report.verdicts


# ---------------------------------------------------------------------------
# the normal limits of clt-tangent and clt-facet

def test_normal_limit_passes_a_normal_sample():
    verdicts = _normal_limit(0.5 * quantiles(500), 0.25, True, 0.0)
    assert verdicts["variance"]["pass"] and verdicts["ks_normality"]["pass"]
    assert verdicts["variance"]["expected"] == 0.25


def test_normal_limit_variance_fails_on_a_wider_sample():
    verdicts = _normal_limit(0.6 * quantiles(500), 0.25, True, 0.0)
    assert not verdicts["variance"]["pass"]


def test_normal_limit_ks_normality_fails_on_a_uniform_sample_of_the_same_variance():
    verdicts = _normal_limit(0.5 * uniform_quantiles(2000), 0.25, True, 0.0)
    assert verdicts["variance"]["pass"]
    assert not verdicts["ks_normality"]["pass"]


@pytest.mark.parametrize("spread, passes", [(0.0, True), (0.1, False)])
def test_normal_limit_with_zero_variance_judges_the_variance_alone(spread, passes):
    verdicts = _normal_limit(spread * quantiles(50), 0.0, False, 1e-3, tolerance=1e-3)
    assert list(verdicts) == ["variance"]
    assert verdicts["variance"] == {"pass": passes, "observed": verdicts["variance"]["observed"],
                                    "expected": 0.0, "tolerance": 1e-3}


def test_ks_applies_once_per_limit_and_rejects_too_few_replications():
    few = config(10, reps=3)
    assert _ks_applies(few, [0.0, 1e-20], 1e-9).tolist() == [False, False]
    with pytest.raises(ValueError, match="needs at least 20 replications, got 3"):
        _ks_applies(few, [0.0, 1.0], 1e-9)
    with pytest.raises(ValueError, match="needs at least 20 replications, got 3"):
        _ks_applies(few)
    assert _ks_applies(config(10, reps=20)).item()


# ---------------------------------------------------------------------------
# clt-tangent

@pytest.mark.parametrize("gap, passes", [(0.1, True), (0.5, False)])
def test_clt_tangent_face_gap(gap, passes):
    # envelope 1 at N = 100: the threshold is 4 / sqrt(100) = 0.4
    final = 0.5 * quantiles(200)
    gaps = np.full((200, 2), 1.0)
    gaps[:, -1] = gap
    moments, verdicts, _ = _judge_clt_tangent([1.0, 0.0], 0.25, True, 1e-9, 1.0,
                                              config(10, 100, reps=200),
                                              at_last_size(final, (10, 100)), gaps)
    assert verdicts["face_gap"] == {"pass": passes, "observed": gap, "threshold": 0.4}
    assert [entry["mean_gap"] for entry in moments["face_gap_by_size"]] == [1.0, gap]
    assert verdicts["variance"]["pass"] and verdicts["ks_normality"]["pass"]


# ---------------------------------------------------------------------------
# clt-facet

def test_clt_facet_reports_its_side_values_and_judges_the_normal_limit():
    final = 0.5 * quantiles(200)
    moments, verdicts, echo = _judge_clt_facet(np.array([0.5, -1.0]), 0.25, True, 1.5,
                                               np.array([0.5, 0.5]), config(100, reps=200),
                                               at_last_size(final, (100,)), 17)
    assert moments["excursions"] == 17 and moments["nearest_point"] == [0.5, 0.5]
    assert verdicts["variance"]["pass"] and verdicts["ks_normality"]["pass"]
    assert echo["point"] == [0.5, -1.0]
    _, verdicts, _ = _judge_clt_facet(np.array([0.5, -1.0]), 0.0, False, 1.5,
                                      np.array([0.5, 0.5]), config(100, reps=200),
                                      at_last_size(final, (100,)), 0)
    assert not verdicts["variance"]["pass"]
    assert verdicts["variance"]["tolerance"] == simulate.DEGENERATE_ATOL


# ---------------------------------------------------------------------------
# facet-freq

@pytest.mark.parametrize("ones_at_1, passes", [(500, True), (1000, False)])
def test_facet_frequency_binomial_band(ones_at_1, passes):
    # p = 0.5: the expected frequencies at N = 1 and 3 are 0.5 and 0.875
    flags = np.zeros((1000, 2, 1))
    flags[:ones_at_1, 0] = 1.0
    flags[:875, 1] = 1.0
    moments, verdicts, _ = _judge_facet_frequency([0.0, -1.0], 0.5, config(1, 3, reps=1000), flags)
    assert verdicts["binomial_band"]["pass"] is passes
    assert [entry["in_band"] for entry in moments["frequency_by_size"]] == [passes, True]


# ---------------------------------------------------------------------------
# each report is a function of its artifacts

def read_records(path, cfg):
    rows = path.read_text().splitlines()[1:]
    values = [[float(v) for v in row.split(",")[2:]] for row in rows]
    return np.array(values).reshape(cfg.replications, len(cfg.sample_sizes), -1)


def judge_of(kind, y, vec, cfg, records):
    """The judge of ``kind``, as a call with no arguments, on the law
    quantities recomputed from ``y`` and ``vec`` and on ``records``; the
    side values come from the statistic, before the call."""
    tol = tolerance(REL_TOL, y.box)
    if kind == "lln":
        return lambda: _judge_lln(cfg, records)
    if kind == "clt-hausdorff":
        return lambda: _judge_clt_hausdorff(tol, cfg, records)
    if kind == "clt-exposed":
        sigma = exposed_selection(y, vec).covariance
        ks = _ks_applies(cfg, np.diag(sigma), tol)
        return lambda: _judge_clt_exposed(vec, sigma, ks, tol, cfg, records)
    if kind == "clt-tangent":
        u = norm_gradient(vec)
        sigma2 = tangent_variance(y, u)
        ks = bool(_ks_applies(cfg, sigma2, tol))
        _, gaps = _tangent_values(y, u, cfg)
        return lambda: _judge_clt_tangent(vec, sigma2, ks, tol, y.envelope, cfg, records, gaps)
    if kind == "clt-facet":
        ey = expectation(y)
        k = nearest_point(ey, vec)
        outward = norm_gradient(k - vec)
        selection, _ = nearest_point_selection(y, vec)
        variance = float(outward @ selection.covariance @ outward)
        ks = bool(_ks_applies(cfg, variance, tol))
        excursions = int(_facet_values(y, vec, -outward, cfg)[..., 1].sum())
        return lambda: _judge_clt_facet(vec, variance, ks, point_distance(ey, vec), k, cfg,
                                        records, excursions)
    assert kind == "facet-freq"
    p_facet, _ = facet_inheritance(y, norm_gradient(vec), 1)
    return lambda: _judge_facet_frequency(vec, p_facet, cfg, records)


@pytest.mark.parametrize("kind, scene, flag, vec, seed, reps, sizes", [
    ("lln", "two_segments", None, None, 42, 50, (16, 64, 256)),
    ("clt-hausdorff", "two_segments", None, None, 42, 200, (100, 400)),
    ("clt-exposed", "two_segments", "--dir", (1.0, 1.0), 42, 500, (10, 100, 1000)),
    ("clt-tangent", "two_segments", "--dir", (1.0, 0.0), 42, 200, (10, 100)),
    ("clt-facet", "side_by_side_squares", "--point", (1.5, -1.0), 5, 500, (1, 2, 3, 8, 32)),
    ("facet-freq", "two_segments", "--dir", (0.0, -1.0), 42, 2000, (1, 3)),
])
def test_each_report_is_its_judge_applied_to_its_records(
        tmp_path, monkeypatch, kind, scene, flag, vec, seed, reps, sizes):
    scene_path = str(SCENES / f"{scene}.json")
    argv = ["simulate", kind, "--scene", scene_path, "--seed", str(seed), "--reps", str(reps),
            "--sizes", ",".join(map(str, sizes)), "--out", str(tmp_path)]
    if flag is not None:
        argv += [flag, ",".join(map(str, vec))]
    assert run_command(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    cfg = ExperimentConfig(master_seed=seed, sample_sizes=sizes, replications=reps)
    records = read_records(tmp_path / "records.csv", cfg)
    judge = judge_of(kind, load_scene(scene_path), None if vec is None else np.array(vec), cfg,
                     records)

    def no_draws(*args):
        raise AssertionError("a judge drew")

    monkeypatch.setattr(simulate, "_count_blocks", no_draws)
    again = _report(kind, cfg, 0.0, records, judge())
    got = json.loads(json.dumps({"config": again.config, "moments": again.moments,
                                 "verdicts": again.verdicts}, default=cli._json_default))
    assert got == {key: report[key] for key in ("config", "moments", "verdicts")}
    assert report["experiment"] == kind and report["passed"]
