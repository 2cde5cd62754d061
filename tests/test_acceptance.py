"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s`` to
see them live) and enforces its stated tolerance and runtime budget.
All randomness is pinned: numpy generators for the geometry fuzzing,
the counter-based master seed 42 for the simulation experiments.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracles import translate
from setmeans.cli import write_report
from setmeans.geometry import (
    hausdorff,
    hausdorff_via_support,
    hull,
    minkowski_sum,
    scale,
    shapley_folkman_gap,
    support,
    support_face,
)
from setmeans.randomsets import (
    DiscreteRandomSet,
    expectation,
    expectation_face,
)
from setmeans.simulate import (
    ExperimentConfig,
    IncompatibleSelection,
    clt_exposed_experiment,
    clt_facet_experiment,
    clt_hausdorff_experiment,
    clt_tangent_experiment,
    facet_frequency_experiment,
    lln_experiment,
)

MASTER_SEED = 42
SQ2 = np.sqrt(2.0)


def two_segments():
    return DiscreteRandomSet(
        weights=[0.5, 0.5],
        bodies=(hull([(0, 0), (1, 0)]), hull([(0, 0), (0, 1)])),
    )


def stacked_squares():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    return DiscreteRandomSet(weights=[0.5, 0.5], bodies=(sq, translate(sq, (0, 1))))


def side_by_side_squares():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    return DiscreteRandomSet(weights=[0.5, 0.5], bodies=(sq, translate(sq, (2, 0))))


def random_body(rng, max_vertices=10):
    n = rng.integers(3, max_vertices + 1)
    return hull(rng.uniform(-1, 1, size=(n, 2)))


def verdict(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {label} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_support_additivity_and_grid_hausdorff():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_additivity = 0.0
    worst_grid = 0.0
    for _ in range(1000):
        a = random_body(rng)
        b = random_body(rng)
        s = minkowski_sum(a, b)
        dirs = rng.normal(size=(100, 2))
        sa = (dirs @ a.vertices.T).max(axis=1)
        sb = (dirs @ b.vertices.T).max(axis=1)
        ss = (dirs @ s.vertices.T).max(axis=1)
        worst_additivity = max(worst_additivity, float(np.abs(ss - sa - sb).max()))
        exact = hausdorff(a, b)
        grid = hausdorff_via_support(a, b, 3600)
        worst_grid = max(worst_grid, abs(exact - grid))
    elapsed = time.perf_counter() - t0
    ok = worst_additivity <= 1e-9 and worst_grid <= 5e-3 and elapsed < 10.0
    verdict(1, "support additivity and grid Hausdorff",
            ok, f"additivity {worst_additivity:.2e}, grid err {worst_grid:.2e}, {elapsed:.1f}s")


def test_criterion_02_expectation_face_commutation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        atoms = rng.integers(1, 6)
        raw = rng.uniform(0.05, 1.0, size=atoms)
        bodies = tuple(
            hull(rng.uniform(-1, 1, size=(rng.integers(3, 9), 2))) for _ in range(atoms)
        )
        y = DiscreteRandomSet(weights=raw / raw.sum(), bodies=bodies)
        for _ in range(20):
            f = rng.normal(size=2)
            face, atom_faces = expectation_face(y, f)
            mix = None
            for w, af in zip(y.weights, atom_faces):
                piece = scale(af, float(w))
                mix = piece if mix is None else minkowski_sum(mix, piece)
            body_face = support_face(expectation(y), f).face   # decided on E's own vertices
            worst = max(worst, hausdorff(face, mix), hausdorff(body_face, mix))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(2, "face of expectation equals mean of atom faces",
            ok, f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_lln_rate():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(master_seed=MASTER_SEED,
                           sample_sizes=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
                           replications=200)
    report = lln_experiment(two_segments(), cfg)
    elapsed = time.perf_counter() - t0
    median_final = report.verdicts["final_median"]["observed"]
    slope = report.verdicts["slope"]["observed"]
    ok = (median_final <= 0.05 and -0.65 <= slope <= -0.35 and elapsed < 60.0
          and report.passed())
    verdict(3, "set-valued law of large numbers",
            ok, f"median@4096 {median_final:.4f}, slope {slope:.3f}, {elapsed:.1f}s")


def test_criterion_04_exposed_point_clt():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(master_seed=MASTER_SEED, sample_sizes=(1000,), replications=2000)
    report = clt_exposed_experiment(two_segments(), np.array([1.0, 1.0]) / SQ2, cfg)
    elapsed = time.perf_counter() - t0

    analytic = np.array([[0.25, -0.25], [-0.25, 0.25]])
    emp = np.array(report.moments["empirical_covariance"])
    cov_err = float(np.abs(emp - analytic).max())

    # KS normality of the projection onto (1,-1)/sqrt(2); analytic variance 1/2
    from setmeans.stats import ks_test_normal
    w = np.array([1.0, -1.0]) / SQ2
    final = np.array([stat for _, n, stat in report.records if n == 1000])
    proj = final @ w
    sigma = float(np.sqrt(w @ analytic @ w))
    assert sigma == pytest.approx(np.sqrt(0.5))
    _, p = ks_test_normal(proj, 0.0, sigma)

    ok = (cov_err <= 0.03 and p > 0.01 and elapsed < 120.0
          and report.discarded == 0 and report.passed())
    verdict(4, "exposed-point fluctuations",
            ok, f"cov err {cov_err:.4f}, KS p {p:.3f}, {elapsed:.1f}s")


def test_criterion_05_tangent_plane_clt():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(master_seed=MASTER_SEED, sample_sizes=(1000,), replications=2000)
    rep_a = clt_tangent_experiment(two_segments(), (1, 0), cfg)
    rep_b = clt_tangent_experiment(stacked_squares(), (0, 1), cfg)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    details = []
    for name, rep in (("two-segment", rep_a), ("stacked", rep_b)):
        var = rep.moments["empirical_variance"]
        p = rep.verdicts["ks_normality"]["p"]
        ok &= abs(var - 0.25) <= 0.025 and p > 0.01 and rep.passed()
        details.append(f"{name}: var {var:.4f}, p {p:.3f}")
    verdict(5, "tangent-plane fluctuations", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_06_facet_clt():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(master_seed=MASTER_SEED, sample_sizes=(1000,), replications=2000)
    report = clt_facet_experiment(stacked_squares(), (0.5, -1.0), cfg)
    var = report.moments["empirical_variance"]
    p = report.verdicts["ks_normality"]["p"]

    degenerate = clt_facet_experiment(side_by_side_squares(), (1.5, -1.0), cfg)
    degen_var = degenerate.moments["empirical_variance"]

    rejected = False
    try:
        clt_facet_experiment(side_by_side_squares(), (1.2, -1.0), cfg)
    except IncompatibleSelection:
        rejected = True
    elapsed = time.perf_counter() - t0

    ok = (abs(var - 0.25) <= 0.025 and p > 0.01 and degen_var <= 1e-3 and rejected
          and elapsed < 120.0 and report.passed() and degenerate.passed())
    verdict(6, "facet distance fluctuations",
            ok, f"var {var:.4f}, p {p:.3f}, degenerate var {degen_var:.2e}, "
                f"incompatible rejected {rejected}, {elapsed:.1f}s")


def test_criterion_07_facet_inheritance_frequency():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(master_seed=MASTER_SEED, sample_sizes=(3,), replications=10000)
    report = facet_frequency_experiment(two_segments(), (0, -1), cfg)
    elapsed = time.perf_counter() - t0
    row = report.moments["frequency_by_size"][0]
    ok = (row["expected"] == pytest.approx(0.875) and row["in_band"]
          and elapsed < 30.0 and report.passed())
    verdict(7, "facet inheritance frequency",
            ok, f"freq {row['frequency']:.4f} vs 0.875, {elapsed:.1f}s")


def test_criterion_08_shapley_folkman_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    checked = 0
    worst_excess = -np.inf
    for _ in range(100):
        n_sets = int(rng.integers(1, 9))
        sets = [rng.uniform(-1, 1, size=(int(rng.integers(1, 5)), 2)) for _ in range(n_sets)]
        gap, bound = shapley_folkman_gap(sets)
        worst_excess = max(worst_excess, gap - bound)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and worst_excess <= 1e-12 and elapsed < 30.0
    verdict(8, "convexification gap within dimension bound",
            ok, f"instances {checked}, max gap-bound {worst_excess:.2e}, {elapsed:.1f}s")


def test_criterion_09_hausdorff_clt_stability():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(master_seed=MASTER_SEED, sample_sizes=(400, 1600), replications=1000)
    report = clt_hausdorff_experiment(two_segments(), cfg)
    elapsed = time.perf_counter() - t0
    pair = report.moments["ks_pairs"][0]
    ok = pair["p"] > 0.01 and elapsed < 120.0 and report.passed()
    verdict(9, "scaled Hausdorff distance stability",
            ok, f"KS D {pair['D']:.3f}, p {pair['p']:.3f}, {elapsed:.1f}s")


def test_criterion_10_determinism_byte_identical_records(tmp_path):
    # repeats criteria 3-9 at their exact configurations
    def run_all(tag: str) -> dict[str, bytes]:
        out: dict[str, bytes] = {}

        def record(name, report):
            paths = write_report(report, str(tmp_path / tag / name))
            out[name] = Path(paths["records"]).read_bytes()

        record("lln", lln_experiment(two_segments(), ExperimentConfig(
            master_seed=MASTER_SEED,
            sample_sizes=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
            replications=200)))
        big = ExperimentConfig(master_seed=MASTER_SEED, sample_sizes=(1000,), replications=2000)
        record("clt-exposed",
               clt_exposed_experiment(two_segments(), np.array([1.0, 1.0]) / SQ2, big))
        record("clt-tangent-a", clt_tangent_experiment(two_segments(), (1, 0), big))
        record("clt-tangent-b", clt_tangent_experiment(stacked_squares(), (0, 1), big))
        record("clt-facet", clt_facet_experiment(stacked_squares(), (0.5, -1.0), big))
        record("facet-freq", facet_frequency_experiment(two_segments(), (0, -1), ExperimentConfig(
            master_seed=MASTER_SEED, sample_sizes=(3,), replications=10000)))
        record("clt-hausdorff", clt_hausdorff_experiment(two_segments(), ExperimentConfig(
            master_seed=MASTER_SEED, sample_sizes=(400, 1600), replications=1000)))

        # criterion-8 instance stream, reproduced from its own seed
        rng = np.random.default_rng(808)
        rows = []
        for _ in range(100):
            n_sets = int(rng.integers(1, 9))
            sets = [rng.uniform(-1, 1, size=(int(rng.integers(1, 5)), 2))
                    for _ in range(n_sets)]
            gap, bound = shapley_folkman_gap(sets)
            rows.append(f"{gap!r},{bound!r}")
        out["sfs"] = "\n".join(rows).encode()
        return out

    first = run_all("a")
    second = run_all("b")
    ok = first.keys() == second.keys() and all(first[k] == second[k] for k in first)
    verdict(10, "byte-identical records under a fixed master seed",
            ok, f"{len(first)} experiment runs compared")
