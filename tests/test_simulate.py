import numpy as np
import pytest

from oracles import (
    MeanProcessState,
    mean_process_extend,
    mean_process_mean,
    same_body,
    translate,
    uniform,
)
from setmeans.geometry import hausdorff, hull, shapley_folkman_gap, support_face
from setmeans.randomsets import DiscreteRandomSet, NotExposed, expectation, sample_many
from setmeans.rng import uniforms
from setmeans.simulate import (
    ExperimentConfig,
    IncompatibleSelection,
    InsideBody,
    NoFacet,
    clt_exposed_experiment,
    clt_facet_experiment,
    clt_hausdorff_experiment,
    clt_tangent_experiment,
    facet_frequency_experiment,
    lln_experiment,
)

SQ2 = np.sqrt(2.0)


def two_segments():
    return DiscreteRandomSet(
        weights=[0.5, 0.5],
        bodies=(hull([(0, 0), (1, 0)]), hull([(0, 0), (0, 1)])),
    )


def stacked_squares():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    return DiscreteRandomSet(weights=[0.5, 0.5], bodies=(sq, translate(sq, (0, 1))))


def single_atom():
    return DiscreteRandomSet(weights=[1.0], bodies=(hull([(0, 0), (1, 0), (0, 1)]),))


# ---------------------------------------------------------------------------
# rng

def test_uniform_scalar_vector_agree_bitwise():
    for rep in (0, 3, 977):
        vec = uniforms(123456789, rep, 16)
        assert [uniform(123456789, rep, i) for i in range(16)] == vec.tolist()
    # an array of replications is the per-replication streams, stacked
    reps = [0, 1, 977, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]
    for seed in (0, 123456789, 2 ** 64 - 1):
        flat = uniforms(seed, np.array(reps, dtype=np.uint64), 16)
        stacked = np.concatenate([uniforms(seed, rep, 16) for rep in reps])
        assert flat.shape == (16 * len(reps),)
        assert flat.view(np.uint64).tolist() == stacked.view(np.uint64).tolist()
        assert flat[-16:].tolist() == [uniform(seed, 2 ** 64 - 1, i) for i in range(16)]
    assert uniforms(5, np.arange(3), 0).shape == (0,)


def test_uniforms_leave_the_callers_replication_array_unchanged():
    # the finalizer works in place, on arrays uniforms builds itself
    for reps in (np.array([0, 5, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64),
                 np.arange(4, dtype=np.uint64).reshape(2, 2)):
        before = reps.copy()
        flat = uniforms(42, reps, 8)
        assert reps.tolist() == before.tolist()
        assert flat.tolist() == np.concatenate([uniforms(42, rep, 8) for rep in before.ravel()]).tolist()


def test_uniform_range_and_determinism():
    u = uniforms(42, 0, 10000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, uniforms(42, 0, 10000))
    assert not np.array_equal(u, uniforms(43, 0, 10000))
    assert not np.array_equal(u, uniforms(42, 1, 10000))


# ---------------------------------------------------------------------------
# mean process

def test_mean_process_single_draw():
    k = hull([(0, 0), (2, 0), (0, 2)])
    state = mean_process_extend(MeanProcessState(), k)
    assert state.count == 1
    assert same_body(mean_process_mean(state), k, tol=1e-12)


def test_mean_process_constant_draws():
    k = hull([(0, 0), (2, 0), (0, 2)])
    state = MeanProcessState()
    for _ in range(4):
        state = mean_process_extend(state, k)
    assert same_body(mean_process_mean(state), k, tol=1e-12)


def test_mean_process_two_segments():
    state = MeanProcessState()
    state = mean_process_extend(state, hull([(0, 0), (1, 0)]))
    state = mean_process_extend(state, hull([(0, 0), (0, 1)]))
    expected = hull([(0, 0), (0.5, 0), (0, 0.5), (0.5, 0.5)])
    assert same_body(mean_process_mean(state), expected, tol=1e-12)


def test_mean_process_empty_mean_undefined():
    with pytest.raises(ValueError):
        mean_process_mean(MeanProcessState())


def test_face_of_mean_identity_along_the_process():
    rng = np.random.default_rng(97)
    y = two_segments()
    f = np.array([0.0, -1.0])
    state = MeanProcessState()
    faces = []
    for i in range(12):
        j = int(rng.integers(0, 2))
        body = y.bodies[j]
        state = mean_process_extend(state, body)
        faces.append(support_face(body, f).face)
        mean_face = support_face(mean_process_mean(state), f).face
        mix = None
        n = len(faces)
        from setmeans.geometry import minkowski_sum, scale
        for af in faces:
            piece = scale(af, 1.0 / n)
            mix = piece if mix is None else minkowski_sum(mix, piece)
        assert hausdorff(mean_face, mix) <= 1e-9


# ---------------------------------------------------------------------------
# config and report plumbing

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=1, sample_sizes=(10, 10), replications=5)
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=1, sample_sizes=(), replications=5)
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=1, sample_sizes=(4,), replications=0)


def test_record_counts_per_size_group():
    cfg = ExperimentConfig(master_seed=5, sample_sizes=(8, 16, 32), replications=20)
    report = lln_experiment(two_segments(), cfg)
    assert report.records.shape == (20, 3, 1)


def test_reports_are_deterministic_given_seed():
    cfg = ExperimentConfig(master_seed=9, sample_sizes=(16, 64), replications=25)
    a = lln_experiment(two_segments(), cfg)
    b = lln_experiment(two_segments(), cfg)
    assert np.array_equal(a.records, b.records)
    c = lln_experiment(two_segments(),
                       ExperimentConfig(master_seed=10, sample_sizes=(16, 64), replications=25))
    assert not np.array_equal(a.records, c.records)


# ---------------------------------------------------------------------------
# LLN

def test_lln_single_atom_zero_distance():
    cfg = ExperimentConfig(master_seed=3, sample_sizes=(1, 4, 16), replications=10)
    report = lln_experiment(single_atom(), cfg)
    assert (report.records <= 1e-12).all()


def test_lln_two_segments_single_draw_distance():
    # at N=1 the mean is one atom; both atoms sit at distance 1/2 from the limit
    y = two_segments()
    ey = expectation(y)
    assert hausdorff(y.bodies[0], ey) == pytest.approx(0.5)
    assert hausdorff(y.bodies[1], ey) == pytest.approx(0.5)
    cfg = ExperimentConfig(master_seed=3, sample_sizes=(1,), replications=40)
    report = lln_experiment(y, cfg)
    assert report.records == pytest.approx(0.5, abs=1e-12)


def test_lln_medians_decrease_and_records_bounded():
    y = two_segments()
    ey = expectation(y)
    worst = max(hausdorff(b, ey) for b in y.bodies)
    cfg = ExperimentConfig(master_seed=21, sample_sizes=(4, 16, 64, 256), replications=60)
    report = lln_experiment(y, cfg)
    medians = [row["median"] for row in report.moments["median_by_size"]]
    assert medians[-1] < medians[0]
    assert (report.records <= worst + 1e-9).all()


# ---------------------------------------------------------------------------
# Hausdorff CLT stability

def test_clt_hausdorff_single_atom_all_zero():
    cfg = ExperimentConfig(master_seed=13, sample_sizes=(25, 100), replications=30)
    report = clt_hausdorff_experiment(single_atom(), cfg)
    assert (report.records == 0.0).all()
    assert report.passed()


def test_clt_hausdorff_records_nonnegative():
    cfg = ExperimentConfig(master_seed=13, sample_sizes=(25, 100), replications=50)
    report = clt_hausdorff_experiment(two_segments(), cfg)
    assert (report.records >= 0.0).all()


def test_clt_hausdorff_needs_two_sizes():
    with pytest.raises(ValueError):
        clt_hausdorff_experiment(two_segments(),
                                 ExperimentConfig(master_seed=1, sample_sizes=(50,), replications=30))


def test_clt_hausdorff_ties_do_not_depend_on_the_scale_or_place_of_the_law():
    # the records sit on a lattice, reached along different float paths;
    # ties are snapped at the law's own round-off, so shrinking the law or
    # moving it far from the origin leaves the KS statistic as it is
    y = two_segments()
    cfg = ExperimentConfig(master_seed=42, sample_sizes=(400, 1600), replications=1000)
    pairs = []
    for factor, shift in ((1.0, 0.0), (1e-11, 0.0), (1.0, 1e6)):
        law = DiscreteRandomSet(weights=y.weights,
                                bodies=tuple(hull(factor * b.vertices + shift) for b in y.bodies))
        pairs.append([(p["D"], p["p"]) for p in clt_hausdorff_experiment(law, cfg).moments["ks_pairs"]])
    assert pairs[0][0][0] > 0.0
    assert pairs[1] == pairs[0]
    assert pairs[2] == pairs[0]


# ---------------------------------------------------------------------------
# exposed-point CLT

def test_clt_exposed_single_atom_records_zero():
    cfg = ExperimentConfig(master_seed=17, sample_sizes=(64,), replications=30)
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    law = DiscreteRandomSet(weights=[1.0], bodies=(sq,))
    report = clt_exposed_experiment(law, (1, 1), cfg)
    assert report.records.shape == (30, 1, 2)   # every replication is recorded
    assert np.allclose(report.records, 0.0)


def test_clt_exposed_not_exposed_direction():
    cfg = ExperimentConfig(master_seed=17, sample_sizes=(64,), replications=30)
    with pytest.raises(NotExposed):
        clt_exposed_experiment(two_segments(), (1, 0), cfg)


def test_clt_exposed_null_projection_is_degenerate():
    cfg = ExperimentConfig(master_seed=19, sample_sizes=(256,), replications=200)
    report = clt_exposed_experiment(two_segments(), np.array([1, 1]) / SQ2, cfg)
    records = report.records[:, 0]
    proj = records @ (np.array([1.0, 1.0]) / SQ2)
    assert np.abs(proj).max() <= 1e-9
    # empirical mean near zero at moderate scale
    sigma = np.array([[0.25, -0.25], [-0.25, 0.25]])
    bound = 4.0 * np.sqrt(np.trace(sigma) / len(records))
    assert np.linalg.norm(records.mean(axis=0)) <= bound


# ---------------------------------------------------------------------------
# tangent CLT

def test_clt_tangent_equal_supports_all_zero():
    cfg = ExperimentConfig(master_seed=23, sample_sizes=(128,), replications=40)
    report = clt_tangent_experiment(two_segments(), np.array([1, 1]) / SQ2, cfg)
    assert (np.abs(report.records) <= 1e-9).all()
    assert report.verdicts["variance"]["pass"]


def test_clt_tangent_face_gap_shrinks():
    cfg = ExperimentConfig(master_seed=29, sample_sizes=(16, 256), replications=50)
    report = clt_tangent_experiment(two_segments(), (1, 0), cfg)
    gaps = {row["N"]: row["mean_gap"] for row in report.moments["face_gap_by_size"]}
    assert gaps[256] < gaps[16]


# ---------------------------------------------------------------------------
# facet CLT

def test_clt_facet_single_atom_records_zero():
    cfg = ExperimentConfig(master_seed=31, sample_sizes=(64,), replications=30)
    report = clt_facet_experiment(single_atom(), (0.25, -1.0), cfg)
    assert (np.abs(report.records) <= 1e-9).all()


def test_clt_facet_rejects_point_inside():
    cfg = ExperimentConfig(master_seed=31, sample_sizes=(64,), replications=30)
    with pytest.raises(InsideBody):
        clt_facet_experiment(stacked_squares(), (0.5, 1.0), cfg)


def test_clt_facet_rejects_incompatible_selection():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    law = DiscreteRandomSet(weights=[0.5, 0.5], bodies=(sq, translate(sq, (2, 0))))
    cfg = ExperimentConfig(master_seed=31, sample_sizes=(64,), replications=30)
    with pytest.raises(IncompatibleSelection):
        clt_facet_experiment(law, (1.2, -1.0), cfg)


def test_clt_facet_rejects_exposed_corner():
    cfg = ExperimentConfig(master_seed=31, sample_sizes=(64,), replications=30)
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    law = DiscreteRandomSet(weights=[1.0], bodies=(sq,))
    with pytest.raises(NoFacet):
        clt_facet_experiment(law, (2.0, 2.0), cfg)


# ---------------------------------------------------------------------------
# facet frequency

def test_facet_frequency_extremes():
    cfg = ExperimentConfig(master_seed=37, sample_sizes=(2, 5), replications=60)
    # p_facet = 1: every atom is a segment with the queried facet direction
    y_all = DiscreteRandomSet(weights=[1.0], bodies=(hull([(0, 0), (1, 0)]),))
    report = facet_frequency_experiment(y_all, (0, -1), cfg)
    assert (report.records == 1.0).all()
    # p_facet = 0: singleton atoms never carry a facet
    y_none = DiscreteRandomSet(weights=[1.0], bodies=(hull([(0.5, 0.5)]),))
    report = facet_frequency_experiment(y_none, (0, -1), cfg)
    assert (report.records == 0.0).all()


def test_facet_frequency_matches_formula_at_moderate_scale():
    cfg = ExperimentConfig(master_seed=41, sample_sizes=(3,), replications=800)
    report = facet_frequency_experiment(two_segments(), (0, -1), cfg)
    row = report.moments["frequency_by_size"][0]
    assert row["expected"] == pytest.approx(0.875)
    assert abs(row["frequency"] - 0.875) <= 0.05
    assert report.passed()


# ---------------------------------------------------------------------------
# convexification

def test_convexification_singletons():
    sets = [np.array([[float(i), 0.0]]) for i in range(6)]
    for n in (1, 2, 4, 6):
        gap, bound = shapley_folkman_gap(sets[:n])
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert gap <= bound + 1e-12


def test_convexification_doubling_gaps():
    sets = [np.array([[0.0, 0.0], [1.0, 0.0]])] * 8
    gaps = []
    for n in (1, 2, 4, 8):
        gap, bound = shapley_folkman_gap(sets[:n])
        assert gap <= bound + 1e-12
        gaps.append(gap)
    assert gaps == pytest.approx([0.5, 0.25, 0.125, 0.0625])
