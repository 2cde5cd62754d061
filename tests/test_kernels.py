"""The blocked count kernels of ``setmeans.simulate`` against the body path.

Every boundary statistic is computed from a block of draw counts; the
reference folds each checkpoint's mean body and measures it
(``oracles.body_values``).  Pinned laws with near ties check the face
rule against faces decided in exact arithmetic, and drive clt-facet
checkpoints into its guard band, where only the body path decides.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import LAW_3D, body_values, checkpoints, exact_support_face
from setmeans import simulate
from setmeans.cli import parse_scene, run_command
from setmeans.geometry import (
    FACET_REL_MARGIN,
    REL_TOL,
    hull,
    nearest_point,
    norm_gradient,
    point_distance,
    support_face,
    tolerance,
    weighted_sum,
)
from setmeans.randomsets import DiscreteRandomSet, expectation, sample_many
from setmeans.rng import replication_bases, words
from setmeans.simulate import (
    ExperimentConfig,
    _exposed_points,
    _facet_flags,
    _facet_values,
    _tangent_values,
    clt_exposed_experiment,
    clt_facet_experiment,
    clt_tangent_experiment,
    facet_frequency_experiment,
)

# derandomized, so a tier-1 run is reproducible; no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
CONFIG = ExperimentConfig(master_seed=11, sample_sizes=(1, 3, 10), replications=8)

COORD = st.integers(-8, 8).map(lambda k: k / 4.0)
POINT = st.tuples(COORD, COORD)
# directions along which quarter-grid polygons often have edges (facets, exact ties)
GRID_DIRECTIONS = st.sampled_from([(0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (1, -1),
                                   (-1, -1), (1, 2), (2, -1)])


@st.composite
def laws(draw):
    """A 2-D law of 1..4 atoms: points, segments and polygons on a quarter grid."""
    bodies = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.sampled_from([1, 2, 3, 4, 6]))
        bodies.append(hull(np.array(draw(st.lists(POINT, min_size=count, max_size=count)))))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=len(bodies),
                                     max_size=len(bodies))), dtype=float)
    return DiscreteRandomSet(weights=weights / weights.sum(), bodies=tuple(bodies))


def at(kernel: np.ndarray, key, config=CONFIG) -> np.ndarray:
    """Entry ``key = (rep, n)`` of an ``(R, S, k)`` kernel output."""
    return kernel[key[0], config.sample_sizes.index(key[1])]


def assert_same(kernel: np.ndarray, body: dict, y, config=CONFIG, rtol=1e-12):
    assert kernel.shape[:2] == (config.replications, len(config.sample_sizes))
    assert len(body) == kernel.shape[0] * kernel.shape[1]
    tol = rtol * (1.0 + y.envelope)
    for key, want in body.items():
        got, want = at(kernel, key, config), np.atleast_1d(want)
        assert np.array_equal(np.isnan(got), np.isnan(want)), key
        keep = ~np.isnan(want)
        assert np.all(np.abs(got[keep] - want[keep]) <= tol), (key, got, want)


def tangent_body(y, u, config=CONFIG) -> dict:
    """Body-path values in the layout of ``_tangent_values``: (total, gap)."""
    return {(rep, n): np.array([n * v[0], v[1]])
            for (rep, n), v in body_values("tangent", y, u, config).items()}


# ---------------------------------------------------------------------------
# random 2-D laws

@PROPERTY
@given(laws(), st.floats(0.0, 2.0 * np.pi))
def test_exposed_kernel_matches_the_body_path(y, angle):
    f = np.array([np.cos(angle), np.sin(angle)])
    assume(all(support_face(body, f).face.vertex_count == 1 for body in y.bodies))
    # the fold rounds as weighted_sum does: the points are equal, not just close
    assert_same(_exposed_points(y, f, CONFIG), body_values("exposed", y, f, CONFIG), y, rtol=0.0)


@PROPERTY
@given(laws(), GRID_DIRECTIONS)
def test_tangent_kernel_matches_the_body_path(y, direction):
    u = norm_gradient(direction)
    totals, gaps = _tangent_values(y, u, CONFIG)
    # totals are compared per draw, like every other unscaled statistic
    kernel = np.stack([totals / np.array(CONFIG.sample_sizes), gaps], axis=-1)
    body = {(rep, n): want / [n, 1.0] for (rep, n), want in tangent_body(y, u).items()}
    assert_same(kernel, body, y)


@PROPERTY
@given(laws(), GRID_DIRECTIONS)
def test_facet_flag_kernel_matches_the_body_path(y, direction):
    f = norm_gradient(direction)
    assert_same(_facet_flags(y, f, CONFIG), body_values("flags", y, f, CONFIG), y, rtol=0.0)


@PROPERTY
@given(laws(), GRID_DIRECTIONS, POINT)
def test_facet_distance_kernel_matches_the_body_path(y, direction, point):
    f = norm_gradient(direction)
    x = np.array(point) + 3.0 * f   # often beyond a facet in direction f
    kernel = _facet_values(y, x, f, CONFIG)
    body = body_values("facet", y, (x, f), CONFIG)
    assert_same(kernel, body, y)
    # the excursion count of the experiment is the sum of these flags
    assert kernel[..., 1].sum() == sum(v[1] for v in body.values())


# ---------------------------------------------------------------------------
# experiments on the shipped scenes, record for record

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def scene(name):
    return parse_scene((SCENES / f"{name}.json").read_text())


EXPERIMENT_CONFIG = ExperimentConfig(master_seed=5, sample_sizes=(4, 16, 64), replications=60)
# off 2-D: clt-facet has no kernel there, the other kinds keep theirs
CONFIG_3D = ExperimentConfig(master_seed=5, sample_sizes=(4, 16), replications=20)


def test_exposed_and_tangent_records_equal_the_body_path():
    for y, config, exposed, tangent in [
            (scene("two_segments"), EXPERIMENT_CONFIG, [1.0, 1.0], [1.0, 0.0]),
            (parse_scene(LAW_3D), CONFIG_3D, [1.0, 2.0, 3.0], [0.0, 0.0, 1.0])]:
        shape = (config.replications, len(config.sample_sizes))
        u = norm_gradient(exposed)
        report = clt_exposed_experiment(y, u, config)
        body = body_values("exposed", y, u, config)
        target = support_face(expectation(y), u).face.vertices[0]
        # no face is tied, and every replication is recorded
        assert not any(np.isnan(v).any() for v in body.values())
        assert report.records.shape == shape + (y.dim,)
        for (rep, n), want in body.items():
            stat = at(report.records, (rep, n), config)
            assert np.all(np.abs(stat / np.sqrt(n) - (want - target)) <= 1e-12 * (1.0 + y.envelope))

        u = norm_gradient(tangent)
        report = clt_tangent_experiment(y, u, config)
        body = tangent_body(y, u, config)
        s_expected = support_face(expectation(y), u).support_value
        assert report.records.shape == shape + (1,)
        for (rep, n), want in body.items():
            (stat,) = at(report.records, (rep, n), config)
            assert abs(stat / np.sqrt(n) - (want[0] / n - s_expected)) <= 1e-12 * (1.0 + y.envelope)


def test_facet_records_and_excursions_equal_the_body_path():
    for y, config, x, f in [
            (scene("stacked_squares"), EXPERIMENT_CONFIG, [0.5, -1.0], [0.0, -1.0]),
            (parse_scene(LAW_3D), CONFIG_3D, [0.3, 0.3, -1.0], [0.0, 0.0, -1.0])]:
        x, f = np.array(x), np.array(f)
        report = clt_facet_experiment(y, x, config)
        body = body_values("facet", y, (x, f), config)
        base = report.moments["base_distance"]
        assert report.moments["excursions"] == sum(int(v[1]) for v in body.values())
        assert report.records.shape == (config.replications, len(config.sample_sizes), 1)
        for (rep, n), want in body.items():
            (stat,) = at(report.records, (rep, n), config)
            assert abs(stat / np.sqrt(n) - (want[0] - base)) <= 1e-12 * (1.0 + y.envelope)

    for y, config, f in [(scene("two_segments"), EXPERIMENT_CONFIG, [0.0, -1.0]),
                         (parse_scene(LAW_3D), CONFIG_3D, [0.0, 0.0, -1.0])]:
        f = norm_gradient(f)
        report = facet_frequency_experiment(y, f, config)
        body = body_values("flags", y, f, config)
        sizes = config.sample_sizes
        assert report.records[..., 0].tolist() == [[body[rep, n] for n in sizes]
                                                   for rep in range(config.replications)]


# ---------------------------------------------------------------------------
# the face rule: a mean's face is sum_j (c_j / n) F_j, with F_j decided once

def near_tie_law():
    """Atom 2's runner-up vertex lies 2e-8 below its exposed vertex in
    direction (0, -1): a gap above the atom's face tolerance that a mean
    drawing it rarely shrinks below the mean's own face tolerance."""
    return DiscreteRandomSet(
        weights=[0.9, 0.1],
        bodies=(hull([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]]), hull([[0.0, 0.0], [10.0, 2e-8]])),
    )


def uneven_facet_law():
    """Atom 1's bottom edge rises by 5e-7 over a length of 1, far from the
    origin: a vertex, not a facet, at any translation."""
    return DiscreteRandomSet(
        weights=[0.5, 0.5],
        bodies=(hull([[1000.0, 0.0], [1001.0, 5e-7]]), hull([[-1000.0, 0.0]])),
    )


DOWN = np.array([0.0, -1.0])
X_BELOW = np.array([0.3, -1.0])
NEAR_TIE_CASES = {   # kind -> (law, kernel, body_values vector)
    "exposed": (near_tie_law, lambda y, c: _exposed_points(y, DOWN, c), DOWN),
    "facet": (near_tie_law, lambda y, c: _facet_values(y, X_BELOW, DOWN, c), (X_BELOW, DOWN)),
    "flags": (near_tie_law, lambda y, c: _facet_flags(y, DOWN, c), DOWN),
    "flags-uneven": (uneven_facet_law, lambda y, c: _facet_flags(y, DOWN, c), DOWN),
}


def exact_values(kind, y, vector, config) -> dict:
    """Per checkpoint, the statistic of a kernel with the mean's face in
    direction (0, -1) decided in exact arithmetic (``exact_support_face``);
    clt-facet's distance and nearest point come from the folded body."""
    out = {}
    for rep, n, counts in checkpoints(y, config):
        face = exact_support_face(y.bodies, [Fraction(int(c), n) for c in counts], (0, -1))
        if kind == "exposed":
            value = face[0] if len(face) == 1 else np.full(y.dim, np.nan)
        elif kind == "flags":
            value = float(len(face) >= 2)
        else:
            x, _ = vector
            mean = weighted_sum(y.bodies, counts / n)
            dist = point_distance(mean, x)
            k = nearest_point(mean, x)
            margin = tolerance(FACET_REL_MARGIN, mean.box)
            inside = (len(face) == 2 and dist > tolerance(REL_TOL, y.box)
                      and abs(k[1] - face[0, 1]) <= tolerance(REL_TOL, y.box)
                      and face[0, 0] + margin < k[0] < face[1, 0] - margin)
            value = [dist, float(not inside)]
        out[rep, n] = np.asarray(value, dtype=float)
    return out


@pytest.mark.parametrize("kind", sorted(NEAR_TIE_CASES))
def test_near_ties_follow_the_atom_faces(kind):
    law, kernel, vector = NEAR_TIE_CASES[kind]
    kind, y = kind.split("-")[0], law()
    config = ExperimentConfig(master_seed=2, sample_sizes=(4, 16), replications=40)
    # the oracle replications run and agree: the face rule holds on the body
    got = kernel(y, config)
    assert_same(got, exact_values(kind, y, vector, config), y, config)
    # re-deciding each mean's face from its own vertices ties some faces of
    # the near-tie law; the uneven facet is a vertex at every translation
    body = body_values(kind, y, vector, config)
    differs = any(not np.array_equal(at(got, key, config), np.atleast_1d(want), equal_nan=True)
                  for key, want in body.items())
    assert differs == (law is near_tie_law)


def test_short_facets_are_kept_at_every_scale():
    # atom 2 is a facet 5e-9 long; scaled by c / N it stays a facet of the
    # mean, although the mean's hull merges its ends
    config = ExperimentConfig(master_seed=2, sample_sizes=(4, 16), replications=30)
    for s in (1e-10, 1.0, 1e10):
        y = DiscreteRandomSet(weights=[0.7, 0.3],
                              bodies=(hull(s * np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])),
                                      hull(s * np.array([[0.0, 0.0], [5e-9, 0.0]]))))
        flags = _facet_flags(y, DOWN, config)
        assert_same(flags, exact_values("flags", y, DOWN, config), y, config, rtol=0.0)
        assert 0.0 < flags.mean() < 1.0


def test_non_parallel_facets_are_segments_inside_the_hyperplane():
    # both bottom edges are facets in direction (0, -1), 1e-12 apart in
    # slope: their sum has three vertices, but inside the line y = 0 it is
    # a segment, and x projects well inside it
    y = DiscreteRandomSet(weights=[0.5, 0.5],
                          bodies=(hull([[0, 0], [1, 0], [1, 1], [0, 1]]),
                                  hull([[0, 0], [1, 1e-12], [1, 1], [0, 1]])))
    x = np.array([0.5, -1.0])
    config = ExperimentConfig(master_seed=3, sample_sizes=(4, 16), replications=20)
    kernel = _facet_values(y, x, DOWN, config)
    assert_same(kernel, body_values("facet", y, (x, DOWN), config), y, config)
    assert kernel[..., 1].sum() == 0


def count_body_paths(monkeypatch):
    calls = []
    fold = simulate.weighted_sum
    monkeypatch.setattr(simulate, "weighted_sum",
                        lambda bodies, coefs: calls.append(1) or fold(bodies, coefs))
    return calls


def lower_segments():
    """Two horizontal segments; a mean of draws of the lower one passes
    through (0.5, -1), so clt-facet's band holds checkpoints there."""
    return DiscreteRandomSet(weights=[0.5, 0.5],
                             bodies=(hull([[0.0, 0.0], [1.0, 0.0]]),
                                     hull([[0.0, -1.0], [1.0, -1.0]])))


def test_excursion_band_sends_boundary_points_to_the_body_path(monkeypatch):
    y = lower_segments()
    x = np.array([0.5, -1.0])
    config = ExperimentConfig(master_seed=1, sample_sizes=(1, 2, 4), replications=30)
    body = body_values("facet", y, (x, DOWN), config)
    on_boundary = sum(v[0] <= tolerance(REL_TOL, y.box) for v in body.values())
    calls = count_body_paths(monkeypatch)
    kernel = _facet_values(y, x, DOWN, config)
    assert_same(kernel, body, y, config)
    assert on_boundary > 0
    assert len(calls) >= on_boundary   # every zero-distance checkpoint took the body path


FOLD_CASES = {   # id -> (experiment, law, vector)
    "lln": (simulate.lln_experiment, lambda: scene("two_segments"), None),
    "clt-hausdorff": (simulate.clt_hausdorff_experiment, lambda: scene("two_segments"), None),
    "clt-exposed": (clt_exposed_experiment, lambda: scene("two_segments"), [1.0, 1.0]),
    "clt-tangent": (clt_tangent_experiment, lambda: scene("two_segments"), [1.0, 0.0]),
    "clt-facet": (clt_facet_experiment, lambda: scene("stacked_squares"), [0.5, -1.0]),
    "clt-facet-band": (clt_facet_experiment, lower_segments, [0.5, -1.0]),
    "facet-freq": (facet_frequency_experiment, lambda: scene("two_segments"), [0.0, -1.0]),
    "lln-3d": (simulate.lln_experiment, lambda: parse_scene(LAW_3D), None),
    "clt-hausdorff-3d": (simulate.clt_hausdorff_experiment, lambda: parse_scene(LAW_3D), None),
    "clt-exposed-3d": (clt_exposed_experiment, lambda: parse_scene(LAW_3D), [1.0, 2.0, 3.0]),
    "clt-tangent-3d": (clt_tangent_experiment, lambda: parse_scene(LAW_3D), [0.0, 0.0, 1.0]),
    "clt-facet-3d": (clt_facet_experiment, lambda: parse_scene(LAW_3D), [0.3, 0.3, -1.0]),
    "facet-freq-3d": (facet_frequency_experiment, lambda: parse_scene(LAW_3D), [0.0, 0.0, -1.0]),
}


@pytest.mark.parametrize("case", FOLD_CASES)
def test_each_checked_checkpoint_folds_its_mean_once(monkeypatch, case):
    experiment, law, vector = FOLD_CASES[case]
    y = law()
    config = ExperimentConfig(master_seed=1, sample_sizes=(1, 2, 4), replications=30)
    folds, checked, oracle = [], [], []
    fold, statistic = simulate.weighted_sum, simulate._statistic
    monkeypatch.setattr(simulate, "weighted_sum",
                        lambda bodies, coefs: folds.append(bodies is y.bodies) or fold(bodies, coefs))

    def counted(law_y, config, kernel, measure, oracle_reps=simulate.ORACLE_REPS):
        """``_statistic``, counting the band and oracle checkpoints of each block."""
        rows = np.arange(config.replications) < oracle_reps
        oracle.append(int(rows.sum()) * len(config.sample_sizes))
        if kernel is None:   # no kernel: every checkpoint is in the band
            checked.append(config.replications * len(config.sample_sizes))
            return statistic(law_y, config, kernel, measure, oracle_reps)
        done = 0

        def banded(counts, coefs):
            nonlocal done
            values, band = kernel(counts, coefs)
            mask = rows[done:done + len(counts), None] | (False if band is None else band)
            checked.append(int(np.broadcast_to(mask, counts.shape[:2]).sum()))
            done += len(counts)
            return values, band

        return statistic(law_y, config, banded, measure, oracle_reps)

    monkeypatch.setattr(simulate, "_statistic", counted)
    if vector is None:
        experiment(y, config)
    else:
        experiment(y, np.array(vector), config)
    assert sum(folds) == sum(checked) > 0
    if case.endswith(("band", "lln-3d", "hausdorff-3d", "facet-3d")):
        assert sum(checked) > sum(oracle)   # the band holds checkpoints beyond the oracle's


@pytest.mark.parametrize("x, shift", [
    ((0.5, -1.0), 0.0),          # below the bottom facet: in its relative interior
    ((1e-7, -1.0), 0.0),         # projects inside the facet, but within its margin
    ((1.0 - 1e-7, -1.0), 0.0),
    ((0.5, 3.0), 0.0),           # projects inside the bottom facet from the wrong side
    ((-1.0, -1.0), 0.0),         # nearest point is a vertex
    # a nearest point 5e-6 up the left edge is off the bottom facet, far
    # from the origin as well as at it
    ((999.0, 1000.0 + 5e-6), 1000.0),
])
def test_facet_kernel_decides_excursions_like_is_facet_at(x, shift):
    squares = scene("stacked_squares")
    config = ExperimentConfig(master_seed=4, sample_sizes=(1, 4, 16), replications=20)
    x = np.array(x)
    values = []
    for t in (shift, 0.0):
        y = DiscreteRandomSet(weights=squares.weights,
                              bodies=tuple(hull(body.vertices + t) for body in squares.bodies))
        kernel = _facet_values(y, x - shift + t, DOWN, config)
        assert_same(kernel, body_values("facet", y, (x - shift + t, DOWN), config), y, config)
        values.append(kernel)
    # the decisions do not depend on where the law sits
    assert np.array_equal(values[0][..., 1], values[1][..., 1])
    assert np.abs(values[0][..., 0] - values[1][..., 0]).max() <= 1e-9


def test_facet_experiment_counts_the_excursions_of_the_body_path():
    y = DiscreteRandomSet(weights=[0.5, 0.5],
                          bodies=(hull([[0.0, 0.0], [1.0, 0.0]]), hull([[0.0, -1.0], [1.0, -1.0]])))
    config = ExperimentConfig(master_seed=1, sample_sizes=(1, 2, 4), replications=30)
    report = clt_facet_experiment(y, [0.5, -1.0], config)
    body = body_values("facet", y, (np.array([0.5, -1.0]), DOWN), config)
    assert report.moments["excursions"] == sum(int(v[1]) for v in body.values()) > 0


# ---------------------------------------------------------------------------
# blocking never shows in the records

SIX_KINDS = [
    ("lln", "two_segments", []),
    ("clt-hausdorff", "two_segments", []),
    ("clt-exposed", "two_segments", ["--dir", "1,1"]),
    ("clt-tangent", "two_segments", ["--dir", "1,0"]),
    ("clt-facet", "stacked_squares", ["--point", "0.5,-1"]),
    ("facet-freq", "two_segments", ["--dir", "0,-1"]),
]


@pytest.mark.parametrize("kind, name, extra", SIX_KINDS)
def test_records_do_not_depend_on_the_block_size(kind, name, extra, tmp_path, monkeypatch, capsys):
    written = []
    # one replication a block; several blocks of several chunks; one block, one chunk
    for budget in (1, 200, 2 ** 22):
        monkeypatch.setattr(simulate, "DRAW_BUDGET", budget)
        out = tmp_path / str(budget)
        code = run_command(["simulate", kind, "--scene", str(SCENES / f"{name}.json"),
                            "--seed", "9", "--reps", "40", "--sizes", "4,16,64",
                            "--out", str(out), *extra])
        assert code in (0, 2)
        written.append((out / "records.csv").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1] == written[2]
    assert len(written[0].splitlines()) > 1


def test_block_budget_bounds_the_replications_per_block(monkeypatch):
    y = scene("two_segments")   # 4 atom vertices
    config = ExperimentConfig(master_seed=3, sample_sizes=(10, 100), replications=7)
    budget = 250
    monkeypatch.setattr(simulate, "DRAW_BUDGET", budget)
    drawn = []
    bases = replication_bases(config.master_seed, np.arange(config.replications))
    rep_of = {int(base): rep for rep, base in enumerate(bases.ravel())}

    def recorded_words(bases, steps, out=None, scratch=None):
        drawn.append([rep_of[int(base)] for base in bases.ravel()])
        return words(bases, steps, out=out, scratch=scratch)

    monkeypatch.setattr(simulate, "words", recorded_words)
    blocks = list(simulate._count_blocks(y, config))
    # 250 // (2 sizes * 4 vertices) = 31 replications a block: one block of 7
    assert [b[0].tolist() for b in blocks] == [list(range(7))]
    # 250 // 100 draws = 2 replications a words call, in order
    assert all(len(chunk) <= max(1, budget // 100) for chunk in drawn)
    assert [rep for chunk in drawn for rep in chunk] == list(range(7))
    for reps, counts in blocks:
        assert counts.shape == (len(reps), 2, 2)
        assert (counts.sum(axis=-1) == [10, 100]).all()


# ---------------------------------------------------------------------------
# counts by thresholds against the per-draw path (``sample_many`` + ``bincount``)

def point_law(raw) -> DiscreteRandomSet:
    """A law of ``len(raw)`` point atoms with weights ``raw`` normalised."""
    raw = np.array(raw, dtype=float)
    return DiscreteRandomSet(weights=raw / raw.sum(),
                             bodies=tuple(hull([(float(j), 0.0)]) for j in range(len(raw))))


def assert_blocks_match_checkpoints(y, config):
    blocks = list(simulate._count_blocks(y, config))
    assert np.concatenate([reps for reps, _ in blocks]).tolist() == list(range(config.replications))
    got = ((rep, n, counts[r, s]) for reps, counts in blocks for r, rep in enumerate(reps)
           for s, n in enumerate(config.sample_sizes))
    for (rep, n, have), (want_rep, want_n, want) in zip(got, checkpoints(y, config), strict=True):
        assert (rep, n) == (want_rep, want_n)
        assert have.dtype == np.int64 and have.tolist() == want.tolist(), (rep, n)


@PROPERTY
@given(st.lists(st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e), min_size=1, max_size=40),
       st.lists(st.integers(1, 60), max_size=3), st.integers(1, 30),
       st.integers(0, 2 ** 64 - 1), st.sampled_from([1, 250, simulate.DRAW_BUDGET]))
@example([1.0, 1e-9], [99], 7, 42, 250)   # one block of 7, drawn in chunks of 2, 2, 2, 1
def test_count_blocks_match_the_per_draw_checkpoints(raw, steps, reps, seed, budget):
    sizes = tuple(np.cumsum([1, *steps]).tolist())
    config = ExperimentConfig(master_seed=seed, sample_sizes=sizes, replications=reps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "DRAW_BUDGET", budget)
        assert_blocks_match_checkpoints(point_law(raw), config)


@pytest.mark.parametrize("raw", [[1.0], [0.25, 0.25, 0.5], [0.5, 1e-17, 0.5],
                                 [3e-9, 0.3, 1e-9, 0.7, 0.2], list(range(1, 12)), [1.0, 1e-17],
                                 [0.13, 0.98, 0.59, 0.06, 1e-17]])
def test_count_blocks_split_exact_ties_as_sample_many_does(raw, monkeypatch):
    """Words whose uniform ``(z >> 11) * 2**-53`` equals a cumulative weight,
    lies one word below it or is the last one below ``nextafter(cw, 0)``
    (with the 11 low bits clear or set), and the words 0 and 2**64 - 1,
    fall on the side ``searchsorted(side="right")`` puts their uniforms.
    A sub-ulp weight gives two equal cumulative weights and draws nothing;
    with ``[1.0, 1e-17]`` the first cumulative weight is 1.0 itself, whose
    word bound ``2**53 * 2**11`` does not fit in 64 bits, and with
    ``[0.13, 0.98, 0.59, 0.06, 1e-17]`` the fourth is a round-off above 1."""
    y = point_law(raw)
    cw = y.cumulative_weights
    ties = [0, 2 ** 64 - 1]
    for c in cw:
        at = int(np.ceil(c * 2.0 ** 53)) << 11         # the first word whose uniform is >= c
        below = int(np.nextafter(c, 0.0) * 2.0 ** 53) << 11
        ties += [at, at - 1, below, below | 0x7FF]
    ties = np.array([t for t in ties if t < 2 ** 64], dtype=np.uint64)
    config = ExperimentConfig(master_seed=0, sample_sizes=(1, len(ties), 3 * len(ties) + 1),
                              replications=5)
    bases = replication_bases(config.master_seed, np.arange(config.replications))
    rep_of = {int(base): rep for rep, base in enumerate(bases.ravel())}

    def tied_stream(rep, n):
        return np.roll(np.resize(ties, n), rep)

    def tied_words(bases, steps, out=None, scratch=None):
        out[...] = [tied_stream(rep_of[int(base)], len(steps)) for base in bases.ravel()]
        return out

    monkeypatch.setattr(simulate, "words", tied_words)
    monkeypatch.setattr(simulate, "DRAW_BUDGET", 2 * config.sample_sizes[-1])
    counted = 0
    for reps, counts in simulate._count_blocks(y, config):
        for r, rep in enumerate(reps):
            u = (tied_stream(rep, config.sample_sizes[-1]) >> np.uint64(11)) * 2.0 ** -53
            draws = sample_many(y, u)
            for s, n in enumerate(config.sample_sizes):
                want = np.bincount(draws[:n], minlength=y.atom_count)
                assert counts[r, s].tolist() == want.tolist(), (rep, n)
                counted += 1
    assert counted == config.replications * len(config.sample_sizes)
