import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilwalk import groups
from nilwalk.algebra import lower_central_filtration
from nilwalk.errors import NumericalValidationError
from nilwalk.presets import abelian_algebra, heisenberg_algebra
from nilwalk.semidirect import (StepDistribution, conjugate_distribution,
                                distribution_from_json, finite_group, invariant_split,
                                q_validate)


def c4_group():
    return finite_group(groups.cyclic_rotations(4))


def flip_group():
    return finite_group(groups.sign_flip_line())


def test_cyclic_rotation_cayley():
    q = c4_group()
    assert q.order == 4
    assert q.identity == 0
    # the table is addition mod 4 in some labeling; fourth power is identity
    g = 1
    acc = q.identity
    for _ in range(4):
        acc = int(q.table[acc, g])
    assert acc == q.identity
    assert int(q.inverse[1]) != 1


def test_q_validate_accepts_rotations_on_abelian_plane():
    q_validate(abelian_algebra(2), c4_group())


def test_q_validate_rejects_non_automorphism():
    # a 90-degree rotation in the (e1, e3) plane does not respect the
    # heisenberg bracket
    m = np.eye(3)
    m[[0, 2], [0, 2]] = 0.0
    m[0, 2], m[2, 0] = -1.0, 1.0
    q = finite_group(np.stack([np.eye(3), m, -np.eye(3) + 2 * np.diag([0, 1.0, 0]), m.T]))
    with pytest.raises(NumericalValidationError,
                       match=r"^twist group fails validation: automorphism residual 1\.000e\+00$"):
        q_validate(heisenberg_algebra(), q)


def test_heisenberg_flip_is_automorphism():
    """diag(-1, -1, 1) negates both generators and preserves [e1, e2] = e3."""
    q = finite_group(np.stack([np.eye(3), np.diag([-1.0, -1.0, 1.0])]))
    q_validate(heisenberg_algebra(), q)


def test_invariant_split_c4_plane():
    """No vector of the (e1, e2) plane survives a quarter turn; on R^3, e3 does."""
    for dim in (2, 3):
        mats = np.tile(np.eye(dim), (4, 1, 1))
        mats[:, :2, :2] = groups.cyclic_rotations(4)
        m1 = lower_central_filtration(abelian_algebra(dim)).layers[0]
        v_b, w_b = invariant_split(m1, finite_group(mats), support=[1])
        assert v_b.shape[0] == dim - 2
        assert w_b.shape[0] == 2
        assert np.allclose(np.abs(v_b), np.eye(dim)[2:])


def test_invariant_split_trivial_support():
    alg = abelian_algebra(2)
    q = c4_group()
    v_b, w_b = invariant_split(lower_central_filtration(alg).layers[0], q, support=[q.identity])
    assert v_b.shape[0] == 2
    assert w_b.shape[0] == 0


def r2_c4_dist():
    alg = abelian_algebra(2)
    q = c4_group()
    return StepDistribution(alg=alg, q=q, probs=np.array([1.0]),
                            xis=np.array([[1.0, 0.0]]), kappas=np.array([1]))


def test_r2_c4_centering_is_half_half():
    dist = r2_c4_dist()
    v_mu, y = dist.v_mu, dist.centering
    assert np.max(np.abs(v_mu)) <= 1e-15
    assert np.allclose(y, [0.5, 0.5], atol=1e-12)
    assert dist.kappa_mu == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_r2_c4_conjugated_mean_vanishes():
    dist = r2_c4_dist()
    conj = conjugate_distribution(dist)
    assert np.max(np.abs(conj.abelianized_mean)) <= 1e-10
    # lemma-style containment: |y| <= R_mu / kappa_mu
    assert np.linalg.norm(dist.centering) <= dist.radius / dist.kappa_mu + 1e-12


def flip_eps_dist(eps):
    alg = abelian_algebra(1)
    q = flip_group()
    return StepDistribution(alg=alg, q=q,
                            probs=np.array([1.0 - eps, eps]),
                            xis=np.array([[1.0], [0.0]]),
                            kappas=np.array([0, 1]))


def test_flip_eps_spectral_constant_exact():
    dist = flip_eps_dist(0.01)
    # sum mu(k)(I - Ad(k)) = eps * 2 on the line, computed without
    # catastrophic cancellation
    assert dist.kappa_mu == 0.02
    v_mu, y = dist.v_mu, dist.centering
    assert v_mu.shape == (1,)
    assert np.max(np.abs(v_mu)) <= 1e-15
    assert y[0] == pytest.approx(49.5, abs=1e-12)


def test_flip_eps_conjugated_atoms():
    dist = flip_eps_dist(0.01)
    conj = conjugate_distribution(dist)
    # (-y) + 1 + y = 1 and (-y) + 0 - y = -99
    assert np.allclose(sorted(conj.xis.ravel()), [-99.0, 1.0], atol=1e-10)
    assert np.max(np.abs(conj.abelianized_mean)) <= 1e-10


def test_kappa_mu_none_when_nothing_moves():
    alg = abelian_algebra(2)
    q = finite_group(groups.trivial(2))
    dist = StepDistribution(alg=alg, q=q, probs=np.array([0.5, 0.5]),
                            xis=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            kappas=np.array([0, 0]))
    assert dist.kappa_mu is None
    assert np.allclose(dist.centering, 0.0)


def test_heisenberg_srw_derived_fields():
    alg = heisenberg_algebra()
    q = finite_group(groups.trivial(3))
    xis = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    dist = StepDistribution(alg=alg, q=q, probs=np.full(4, 0.25),
                            xis=xis, kappas=np.zeros(4, dtype=int))
    assert dist.radius == 1.0
    assert np.max(np.abs(dist.v_mu)) <= 1e-15


def test_probability_validation():
    alg = abelian_algebra(1)
    q = flip_group()
    with pytest.raises(ValueError):
        StepDistribution(alg=alg, q=q, probs=np.array([0.6, 0.6]),
                         xis=np.array([[1.0], [0.0]]), kappas=np.array([0, 1]))
    with pytest.raises(ValueError):
        StepDistribution(alg=alg, q=q, probs=np.array([1.5, -0.5]),
                         xis=np.array([[1.0], [0.0]]), kappas=np.array([0, 1]))


def test_kappa_index_range_checked():
    alg = abelian_algebra(1)
    q = flip_group()
    with pytest.raises(ValueError):
        StepDistribution(alg=alg, q=q, probs=np.array([1.0]),
                         xis=np.array([[1.0]]), kappas=np.array([5]))


def test_distribution_json_round_trip():
    """The quarter-turn law written as JSON reads back as r2_c4_dist."""
    dist = r2_c4_dist()
    clone = distribution_from_json(dist.alg, {
        "atoms": [{"p": 1.0, "xi": [1.0, 0.0], "kappa": 1}],
        "Q": {"matrices": groups.cyclic_rotations(4).tolist()}})
    assert np.array_equal(clone.probs, dist.probs)
    assert np.array_equal(clone.xis, dist.xis)
    assert np.array_equal(clone.kappas, dist.kappas)
    assert clone.kappa_mu == dist.kappa_mu


@given(st.floats(0.001, 0.5))
@settings(max_examples=30, deadline=None)
def test_flip_centering_formula(eps):
    """(I - Ad(mu_q)) y = w_mu gives y = (1 - eps) / (2 eps) on the line."""
    dist = flip_eps_dist(eps)
    assert dist.kappa_mu == pytest.approx(2.0 * eps, rel=1e-12)
    assert dist.centering[0] == pytest.approx((1.0 - eps) / (2.0 * eps),
                                              rel=1e-10)


def test_conjugation_by_explicit_y_matches_group_algebra():
    """c_y atoms, y the law's centering, computed two ways: library BCH
    route vs affine oracle."""
    q = c4_group()
    dist = r2_c4_dist()
    y = dist.centering
    conj = conjugate_distribution(dist)
    for xi, k, new in zip(dist.xis, dist.kappas, conj.xis):
        oracle = -y + xi + q.matrices[k] @ y
        assert np.allclose(new, oracle, atol=1e-12)
