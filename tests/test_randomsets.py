import numpy as np
import pytest

from oracles import sample, translate
from setmeans.geometry import hausdorff, hull, minkowski_sum, scale, support, support_face
from setmeans.randomsets import (
    DiscreteRandomSet,
    NotExposed,
    Selection,
    expectation,
    expectation_face,
    exposed_selection,
    facet_inheritance,
    nearest_point_selection,
    sample_many,
    tangent_variance,
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


def side_by_side_squares():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    return DiscreteRandomSet(weights=[0.5, 0.5], bodies=(sq, translate(sq, (2, 0))))


def random_law(rng, max_atoms=5, max_vertices=8):
    atoms = rng.integers(1, max_atoms + 1)
    raw = rng.uniform(0.05, 1.0, size=atoms)
    weights = raw / raw.sum()
    bodies = tuple(
        hull(rng.uniform(-1, 1, size=(rng.integers(3, max_vertices + 1), 2)))
        for _ in range(atoms)
    )
    return DiscreteRandomSet(weights=weights, bodies=bodies)


def vset(body, tol=1e-9):
    return {tuple(np.round(v / tol) * tol) for v in body.vertices}


# ---------------------------------------------------------------------------
# construction

def test_weights_renormalized_within_tolerance():
    y = DiscreteRandomSet(weights=[0.5000003, 0.5], bodies=(hull([(0, 0)]), hull([(1, 1)])))
    assert y.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_rejected_outside_tolerance():
    with pytest.raises(ValueError):
        DiscreteRandomSet(weights=[0.5, 0.4], bodies=(hull([(0, 0)]), hull([(1, 1)])))
    with pytest.raises(ValueError):
        DiscreteRandomSet(weights=[1.0, -0.0001], bodies=(hull([(0, 0)]), hull([(1, 1)])))


def test_envelope_is_max_vertex_norm():
    y = stacked_squares()
    assert y.envelope == pytest.approx(np.sqrt(5.0))  # vertex (1, 2)


# ---------------------------------------------------------------------------
# expectation

def test_expectation_single_atom():
    body = hull([(0, 0), (2, 0), (0, 2)])
    y = DiscreteRandomSet(weights=[1.0], bodies=(body,))
    assert hausdorff(expectation(y), body) <= 1e-12


def test_expectation_two_segments_is_half_square():
    # oracle: pairwise sums of the scaled segments
    s1 = scale(hull([(0, 0), (1, 0)]), 0.5)
    s2 = scale(hull([(0, 0), (0, 1)]), 0.5)
    expected = minkowski_sum(s1, s2)
    ey = expectation(two_segments())
    assert vset(ey) == vset(expected) == {(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)}


def test_expectation_stacked_squares():
    ey = expectation(stacked_squares())
    assert vset(ey) == {(0.0, 0.5), (1.0, 0.5), (0.0, 1.5), (1.0, 1.5)}


# ---------------------------------------------------------------------------
# faces of the expectation

def test_expectation_face_corner():
    f = np.array([1.0, 1.0]) / SQ2
    face, atom_faces = expectation_face(two_segments(), f)
    assert vset(face) == {(0.5, 0.5)}
    assert vset(atom_faces[0]) == {(1.0, 0.0)}
    assert vset(atom_faces[1]) == {(0.0, 1.0)}


def test_expectation_face_bottom_edge():
    face, atom_faces = expectation_face(stacked_squares(), (0, -1))
    assert vset(face) == {(0.0, 0.5), (1.0, 0.5)}
    assert vset(atom_faces[0]) == {(0.0, 0.0), (1.0, 0.0)}
    assert vset(atom_faces[1]) == {(0.0, 1.0), (1.0, 1.0)}


def test_expectation_face_single_atom():
    body = hull([(0, 0), (1, 0), (0, 1)])
    y = DiscreteRandomSet(weights=[1.0], bodies=(body,))
    face, _ = expectation_face(y, (1, 0))
    assert vset(face) == {(1.0, 0.0)}


def test_expectation_face_of_a_rare_near_tie_follows_the_atom_faces():
    # atom 2's runner-up vertex lies 2e-8 below its top in direction (0, -1);
    # weighted by 0.01 the gap falls below E's own face tolerance
    y = DiscreteRandomSet(weights=[0.99, 0.01],
                          bodies=(hull([(0, 0), (1, 0), (0, 1), (1, 1)]),
                                  hull([(0, 0), (1, -2e-8)])))
    face, atom_faces = expectation_face(y, (0, -1))
    assert [af.vertex_count for af in atom_faces] == [2, 1]
    assert np.allclose(face.vertices, [[0.01, -2e-10], [1.0, -2e-10]], rtol=0, atol=1e-15)
    with pytest.raises(NotExposed):
        exposed_selection(y, (0, -1))


def test_commutation_property_random_laws():
    rng = np.random.default_rng(73)
    for _ in range(30):
        y = random_law(rng)
        ey = expectation(y)
        for _ in range(5):
            f = rng.normal(size=2)
            face, atom_faces = expectation_face(y, f)
            mix = None
            for w, af in zip(y.weights, atom_faces):
                piece = scale(af, float(w))
                mix = piece if mix is None else minkowski_sum(mix, piece)
            assert hausdorff(face, mix) <= 1e-9
            assert hausdorff(support_face(ey, f).face, mix) <= 1e-9   # E's own face agrees
            # exposure uniqueness: singleton expectation face => all atom faces singleton
            if face.vertex_count == 1:
                assert all(af.vertex_count == 1 for af in atom_faces)


# ---------------------------------------------------------------------------
# exposed selection

def test_exposed_selection_two_segments():
    sel = exposed_selection(two_segments(), np.array([1.0, 1.0]) / SQ2)
    assert np.allclose(sel.points, [(1, 0), (0, 1)])
    assert np.allclose(sel.mean, (0.5, 0.5))
    assert np.allclose(sel.covariance, [[0.25, -0.25], [-0.25, 0.25]])


def test_exposed_selection_single_atom_square():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    y = DiscreteRandomSet(weights=[1.0], bodies=(sq,))
    sel = exposed_selection(y, np.array([1.0, 1.0]) / SQ2)
    assert np.allclose(sel.points, [(1, 1)])
    assert np.allclose(sel.covariance, 0.0)


def test_exposed_selection_not_exposed_names_atom():
    with pytest.raises(NotExposed) as err:
        exposed_selection(two_segments(), (1, 0))
    assert err.value.atoms == (2,)
    assert "atom(s) 2" in str(err.value)


def test_exposed_selection_mean_matches_exposed_point():
    rng = np.random.default_rng(79)
    checked = 0
    while checked < 15:
        y = random_law(rng)
        f = rng.normal(size=2)
        face, _ = expectation_face(y, f)
        if face.vertex_count != 1:
            continue
        sel = exposed_selection(y, f)
        assert np.linalg.norm(sel.mean - face.vertices[0]) <= 1e-9
        eigvals = np.linalg.eigvalsh(sel.covariance)
        assert eigvals.min() >= -1e-10
        checked += 1


# ---------------------------------------------------------------------------
# nearest-point selection

def test_nearest_selection_stacked_squares_compatible():
    sel, compatible = nearest_point_selection(stacked_squares(), (0.5, -1))
    assert np.allclose(sel.points, [(0.5, 0), (0.5, 1)])
    assert np.allclose(sel.mean, (0.5, 0.5))
    assert compatible
    assert np.allclose(sel.covariance, [[0, 0], [0, 0.25]])


def test_nearest_selection_single_atom_zero_covariance():
    y = DiscreteRandomSet(weights=[1.0], bodies=(hull([(0, 0), (1, 0), (0, 1)]),))
    sel, compatible = nearest_point_selection(y, (5.0, 5.0))
    assert np.allclose(sel.covariance, 0.0)
    assert compatible


def test_nearest_selection_incompatible_configuration():
    sel, compatible = nearest_point_selection(side_by_side_squares(), (1.2, -1))
    assert np.allclose(sel.mean, (1.5, 0.0))
    assert not compatible


def test_nearest_selection_compatible_at_midpoint():
    sel, compatible = nearest_point_selection(side_by_side_squares(), (1.5, -1))
    assert compatible
    assert np.allclose(sel.covariance, [[0.25, 0], [0, 0]])


# ---------------------------------------------------------------------------
# tangent variance

def brute_support_variance(y, u):
    values = [support(body, u) for body in y.bodies]
    mean = sum(w * s for w, s in zip(y.weights, values))
    return sum(w * (s - mean) ** 2 for w, s in zip(y.weights, values))


def test_tangent_variance_does_not_depend_on_where_the_law_sits():
    segments = (hull([(0, 0), (1, 0)]), hull([(0, 0), (0, 1)]))
    for t in (0.0, 1e6):
        y = DiscreteRandomSet(weights=[0.3, 0.7], bodies=tuple(translate(b, (t, t)) for b in segments))
        assert tangent_variance(y, (1, 0.3)) == pytest.approx(0.1029, rel=1e-9)


def test_tangent_variance_examples():
    assert tangent_variance(two_segments(), (1, 0)) == pytest.approx(0.25)
    assert tangent_variance(stacked_squares(), (0, 1)) == pytest.approx(0.25)
    # equal supports in the diagonal direction: zero variance
    assert tangent_variance(two_segments(), np.array([1, 1]) / SQ2) == pytest.approx(0.0, abs=1e-15)


def test_tangent_variance_matches_enumeration():
    rng = np.random.default_rng(83)
    for _ in range(20):
        y = random_law(rng)
        u = rng.normal(size=2)
        assert tangent_variance(y, u) == pytest.approx(brute_support_variance(y, u), abs=1e-12)
        assert tangent_variance(y, u) >= 0.0


# ---------------------------------------------------------------------------
# facet inheritance

def test_facet_inheritance_two_segments():
    p, prob = facet_inheritance(two_segments(), (0, -1), 3)
    assert p == pytest.approx(0.5)
    assert prob == pytest.approx(0.875)


def test_facet_inheritance_degenerate_cases():
    y = DiscreteRandomSet(weights=[1.0], bodies=(hull([(0, 0), (1, 1)]),))
    p, prob = facet_inheritance(y, (1, 1), 5)  # diagonal direction exposes a point
    assert (p, prob) == (0.0, 0.0)
    p, prob = facet_inheritance(y, (1, -1), 5)  # normal to the segment: full facet
    assert (p, prob) == (1.0, 1.0)


def test_facet_inheritance_monotone_in_n():
    y = two_segments()
    probs = [facet_inheritance(y, (0, -1), n)[1] for n in range(1, 12)]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.99


# ---------------------------------------------------------------------------
# sampling

def test_sample_inverse_cdf():
    y = two_segments()
    assert sample(y, 0.2) == 0
    assert sample(y, 0.7) == 1
    skew = DiscreteRandomSet(weights=[0.1, 0.9], bodies=y.bodies)
    assert sample(skew, 0.05) == 0


def test_sample_many_matches_scalar():
    y = DiscreteRandomSet(weights=[0.3, 0.2, 0.5],
                          bodies=(hull([(0, 0)]), hull([(1, 0)]), hull([(2, 0)])))
    us = np.linspace(0.0, 0.999, 57)
    vec = sample_many(y, us)
    assert [sample(y, float(u)) for u in us] == vec.tolist()


def test_selection_invariants():
    rng = np.random.default_rng(89)
    y = random_law(rng, max_atoms=4)
    pts = np.vstack([b.vertices[0] for b in y.bodies])
    sel = Selection.from_points(pts, y.weights)
    assert np.allclose(sel.mean, y.weights @ pts)
    assert np.allclose(sel.covariance, sel.covariance.T)
    assert np.linalg.eigvalsh(sel.covariance).min() >= -1e-10
