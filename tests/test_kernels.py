"""The blocked count kernels of ``setmeans.simulate`` against the body path.

Every boundary statistic is computed from a block of draw counts; the
reference folds each checkpoint's mean body and measures it
(``oracles.body_values``).  Pinned laws drive checkpoints into the
kernels' guard bands, where only the body path can decide.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import body_values
from setmeans import simulate
from setmeans.cli import parse_scene, run_command
from setmeans.geometry import hull, norm_gradient, support_face
from setmeans.randomsets import DiscreteRandomSet, expectation
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


def kernel_values(blocks, config=CONFIG) -> dict:
    """``(rep, n) -> value`` from a generator of ``(reps, values, ...)`` blocks."""
    out = {}
    for reps, *values in blocks:
        values = np.stack(values, axis=-1) if len(values) > 1 else values[0]
        for r, rep in enumerate(reps.tolist()):
            for s, n in enumerate(config.sample_sizes):
                out[rep, n] = np.asarray(values[r, s], dtype=float)
    return out


def assert_same(kernel: dict, body: dict, y, rtol=1e-12):
    assert kernel.keys() == body.keys()
    tol = rtol * (1.0 + y.envelope)
    for key, want in body.items():
        got = kernel[key]
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
    assert_same(kernel_values(_exposed_points(y, f, CONFIG)),
                body_values("exposed", y, f, CONFIG), y, rtol=0.0)


@PROPERTY
@given(laws(), GRID_DIRECTIONS)
def test_tangent_kernel_matches_the_body_path(y, direction):
    u = norm_gradient(direction)
    kernel = kernel_values(_tangent_values(y, u, CONFIG))
    body = tangent_body(y, u)
    for (rep, n), want in body.items():
        # totals are compared per draw, like every other unscaled statistic
        kernel[rep, n] = kernel[rep, n] / [n, 1.0]
        body[rep, n] = want / [n, 1.0]
    assert_same(kernel, body, y)


@PROPERTY
@given(laws(), GRID_DIRECTIONS)
def test_facet_flag_kernel_matches_the_body_path(y, direction):
    f = norm_gradient(direction)
    assert_same(kernel_values(_facet_flags(y, f, CONFIG)),
                body_values("flags", y, f, CONFIG), y, rtol=0.0)


@PROPERTY
@given(laws(), GRID_DIRECTIONS, POINT)
def test_facet_distance_kernel_matches_the_body_path(y, direction, point):
    f = norm_gradient(direction)
    x = np.array(point) + 3.0 * f   # often beyond a facet in direction f
    kernel = kernel_values(_facet_values(y, x, f, CONFIG))
    body = body_values("facet", y, (x, f), CONFIG)
    assert_same(kernel, body, y)
    # the excursion count of the experiment is the sum of these flags
    assert sum(v[1] for v in kernel.values()) == sum(v[1] for v in body.values())


# ---------------------------------------------------------------------------
# experiments on the shipped scenes, record for record

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def scene(name):
    return parse_scene((SCENES / f"{name}.json").read_text())


EXPERIMENT_CONFIG = ExperimentConfig(master_seed=5, sample_sizes=(4, 16, 64), replications=60)


def test_exposed_and_tangent_records_equal_the_body_path():
    y = scene("two_segments")
    u = norm_gradient([1.0, 1.0])
    report = clt_exposed_experiment(y, u, EXPERIMENT_CONFIG)
    body = body_values("exposed", y, u, EXPERIMENT_CONFIG)
    target = support_face(expectation(y), u).face.vertices[0]
    assert report.discarded == len({rep for (rep, _), v in body.items() if np.isnan(v).any()})
    for rep, n, stat in report.records:
        assert np.all(np.abs(np.array(stat) / np.sqrt(n) - (body[rep, n] - target))
                      <= 1e-12 * (1.0 + y.envelope))

    u = norm_gradient([1.0, 0.0])
    report = clt_tangent_experiment(y, u, EXPERIMENT_CONFIG)
    body = tangent_body(y, u, EXPERIMENT_CONFIG)
    s_expected = support_face(expectation(y), u).support_value
    for rep, n, (stat,) in report.records:
        assert abs(stat / np.sqrt(n) - (body[rep, n][0] / n - s_expected)) \
            <= 1e-12 * (1.0 + y.envelope)


def test_facet_records_and_excursions_equal_the_body_path():
    y = scene("stacked_squares")
    x = np.array([0.5, -1.0])
    report = clt_facet_experiment(y, x, EXPERIMENT_CONFIG)
    body = body_values("facet", y, (x, np.array([0.0, -1.0])), EXPERIMENT_CONFIG)
    base = report.moments["base_distance"]
    assert report.moments["excursions"] == sum(int(v[1]) for v in body.values())
    for rep, n, (stat,) in report.records:
        assert abs(stat / np.sqrt(n) - (body[rep, n][0] - base)) <= 1e-12 * (1.0 + y.envelope)

    y = scene("two_segments")
    f = norm_gradient([0.0, -1.0])
    report = facet_frequency_experiment(y, f, EXPERIMENT_CONFIG)
    body = body_values("flags", y, f, EXPERIMENT_CONFIG)
    assert [stat[0] for _, _, stat in report.records] == \
        [body[rep, n] for rep, n, _ in report.records]


# ---------------------------------------------------------------------------
# guard bands: pinned laws whose checkpoints only the body path decides

def near_tie_law():
    """Atom 2's runner-up vertex lies 2e-8 below its exposed vertex in
    direction (0, -1), above the atom's face tolerance, but a mean that
    draws it rarely puts that gap inside the mean's face tolerance."""
    return DiscreteRandomSet(
        weights=[0.9, 0.1],
        bodies=(hull([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]]), hull([[0.0, 0.0], [10.0, 2e-8]])),
    )


def uneven_facet_law():
    """Atom 1's facet in direction (0, -1) rises by 5e-7, inside its own face
    tolerance far from the origin, but not inside that of a mean near it."""
    return DiscreteRandomSet(
        weights=[0.5, 0.5],
        bodies=(hull([[1000.0, 0.0], [1001.0, 5e-7]]), hull([[-1000.0, 0.0]])),
    )


DOWN = np.array([0.0, -1.0])
TIE_CASES = {   # kind -> (law, kernel, body_values vector)
    "exposed": (near_tie_law, lambda y, c: _exposed_points(y, DOWN, c), DOWN),
    "facet": (near_tie_law, lambda y, c: _facet_values(y, np.array([0.3, -1.0]), DOWN, c),
              (np.array([0.3, -1.0]), DOWN)),
    "flags": (near_tie_law, lambda y, c: _facet_flags(y, DOWN, c), DOWN),
    "flags-uneven": (uneven_facet_law, lambda y, c: _facet_flags(y, DOWN, c), DOWN),
}


def count_body_paths(monkeypatch):
    calls = []
    fold = simulate.weighted_sum
    monkeypatch.setattr(simulate, "weighted_sum",
                        lambda bodies, coefs: calls.append(1) or fold(bodies, coefs))
    return calls


@pytest.mark.parametrize("kind", sorted(TIE_CASES))
def test_tie_band_sends_near_ties_to_the_body_path(kind, monkeypatch):
    law, kernel, vector = TIE_CASES[kind]
    y = law()
    config = ExperimentConfig(master_seed=2, sample_sizes=(4, 16), replications=40)
    body = body_values(kind.split("-")[0], y, vector, config)
    # a near-tied face fails the commutation check of the oracle replications
    # (facet-freq), so only the band sends checkpoints to the body path here
    monkeypatch.setattr(simulate, "ORACLE_REPS", 0)
    calls = count_body_paths(monkeypatch)
    assert_same(kernel_values(kernel(y, config), config), body, y)
    assert len(calls) > 0   # the band was taken

    # without the guard band the kernel alone disagrees
    monkeypatch.setattr(simulate, "_tie_band",
                        lambda counts, *args: np.zeros(counts.shape[:2], dtype=bool))
    with pytest.raises(AssertionError):
        assert_same(kernel_values(kernel(y, config), config), body, y)


def test_extent_band_sends_short_facets_to_the_body_path(monkeypatch):
    # atom 2 is a facet 5e-9 long; scaled by c / N its ends merge in the hull
    y = DiscreteRandomSet(weights=[0.7, 0.3],
                          bodies=(hull([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]]),
                                  hull([[0.0, 0.0], [5e-9, 0.0]])))
    config = ExperimentConfig(master_seed=2, sample_sizes=(4, 16), replications=30)
    body = body_values("flags", y, DOWN, config)
    assert 0.0 < np.mean(list(body.values())) < 1.0
    monkeypatch.setattr(simulate, "ORACLE_REPS", 0)   # the merged face fails commutation
    calls = count_body_paths(monkeypatch)
    assert_same(kernel_values(_facet_flags(y, DOWN, config), config), body, y, rtol=0.0)
    assert len(calls) > 0

    monkeypatch.setattr(simulate, "FACE_EXTENT_REL", 0.0)
    with pytest.raises(AssertionError):
        assert_same(kernel_values(_facet_flags(y, DOWN, config), config), body, y, rtol=0.0)


def test_segment_band_sends_non_parallel_facets_to_the_body_path(monkeypatch):
    # both bottom edges are facets in direction (0, -1), 1e-12 apart in
    # slope: their sum is a sliver, which is_facet_at measures as a polygon
    y = DiscreteRandomSet(weights=[0.5, 0.5],
                          bodies=(hull([[0, 0], [1, 0], [1, 1], [0, 1]]),
                                  hull([[0, 0], [1, 1e-12], [1, 1], [0, 1]])))
    x = np.array([0.5, -1.0])
    config = ExperimentConfig(master_seed=3, sample_sizes=(4, 16), replications=20)
    body = body_values("facet", y, (x, DOWN), config)
    assert_same(kernel_values(_facet_values(y, x, DOWN, config), config), body, y)

    monkeypatch.setattr(simulate, "_segment_band",
                        lambda counts, *args: np.zeros(counts.shape[:2], dtype=bool))
    monkeypatch.setattr(simulate, "ORACLE_REPS", 0)
    with pytest.raises(AssertionError):
        assert_same(kernel_values(_facet_values(y, x, DOWN, config), config), body, y)


def test_excursion_band_sends_boundary_points_to_the_body_path(monkeypatch):
    # the mean of N draws of the lower segment passes through x: distance 0
    y = DiscreteRandomSet(weights=[0.5, 0.5],
                          bodies=(hull([[0.0, 0.0], [1.0, 0.0]]), hull([[0.0, -1.0], [1.0, -1.0]])))
    x = np.array([0.5, -1.0])
    config = ExperimentConfig(master_seed=1, sample_sizes=(1, 2, 4), replications=30)
    body = body_values("facet", y, (x, DOWN), config)
    on_boundary = sum(v[0] <= 1e-12 for v in body.values())
    calls = count_body_paths(monkeypatch)
    kernel = kernel_values(_facet_values(y, x, DOWN, config), config)
    assert_same(kernel, body, y)
    assert on_boundary > 0
    assert len(calls) >= on_boundary   # every zero-distance checkpoint took the body path


@pytest.mark.parametrize("x, shift", [
    ((0.5, -1.0), 0.0),          # below the bottom facet: in its relative interior
    ((1e-7, -1.0), 0.0),         # projects inside the facet, but within its margin
    ((1.0 - 1e-7, -1.0), 0.0),
    ((0.5, 3.0), 0.0),           # projects inside the bottom facet from the wrong side
    ((-1.0, -1.0), 0.0),         # nearest point is a vertex
    # far from the origin the membership tolerance (1.4e-5) exceeds the
    # margin (1.4e-6): a nearest point 5e-6 up the left edge counts as inside
    ((999.0, 1000.0 + 5e-6), 1000.0),
])
def test_facet_kernel_decides_excursions_like_is_facet_at(x, shift):
    squares = scene("stacked_squares")
    y = DiscreteRandomSet(weights=squares.weights,
                          bodies=tuple(hull(body.vertices + shift) for body in squares.bodies))
    config = ExperimentConfig(master_seed=4, sample_sizes=(1, 4, 16), replications=20)
    x = np.array(x)
    assert_same(kernel_values(_facet_values(y, x, DOWN, config), config),
                body_values("facet", y, (x, DOWN), config), y)


def test_facet_experiment_counts_the_excursions_of_the_body_path():
    y = DiscreteRandomSet(weights=[0.5, 0.5],
                          bodies=(hull([[0.0, 0.0], [1.0, 0.0]]), hull([[0.0, -1.0], [1.0, -1.0]])))
    config = ExperimentConfig(master_seed=1, sample_sizes=(1, 2, 4), replications=30)
    report = clt_facet_experiment(y, [0.5, -1.0], config, variance_rtol=10.0)
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
    for budget in (1, 2 ** 22):
        monkeypatch.setattr(simulate, "DRAW_BUDGET", budget)
        out = tmp_path / str(budget)
        code = run_command(["simulate", kind, "--scene", str(SCENES / f"{name}.json"),
                            "--seed", "9", "--reps", "40", "--sizes", "4,16,64",
                            "--out", str(out), *extra])
        assert code in (0, 2)
        written.append((out / "records.csv").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]
    assert len(written[0].splitlines()) > 1


def test_block_budget_bounds_the_replications_per_block(monkeypatch):
    y = scene("two_segments")
    config = ExperimentConfig(master_seed=3, sample_sizes=(10, 100), replications=7)
    monkeypatch.setattr(simulate, "DRAW_BUDGET", 250)   # 100 draws a replication
    blocks = list(simulate._count_blocks(y, config))
    assert [b[0].tolist() for b in blocks] == [[0, 1], [2, 3], [4, 5], [6]]
    for reps, counts in blocks:
        assert counts.shape == (len(reps), 2, 2)
        assert (counts.sum(axis=-1) == [10, 100]).all()
