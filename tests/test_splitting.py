import json

import numpy as np
import pytest

from nilwalk import groups
from nilwalk.presets import SPLIT_PRESETS
from nilwalk.rng import STREAM_SCAN, substream
from nilwalk.semidirect import FiniteActionGroup, finite_group
from nilwalk.splitting import (SCAN_CHUNK, SECTION_DELTA_TOL, Lift, big_delta,
                               delta, delta_ratio_scan)
from oracles import dispersion_oracle, fix_set, relator_defect_oracle


def rot90():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def c4_lift(u1=(1.0, 0.0), u2=(0.0, 0.0), u3=(0.0, 0.0)):
    group = finite_group(groups.cyclic_rotations(4))
    trans = np.zeros((4, 2))
    trans[1], trans[2], trans[3] = u1, u2, u3
    return Lift(group, trans)


def in_sigma(lift):
    """Every element of the lift fixes a point."""
    return all(fix_set(a, u).point is not None
               for a, u in zip(lift.group.matrices, lift.translations))


def test_quarter_turn_fixed_point():
    fx = fix_set(rot90(), np.array([1.0, 0.0]))
    assert np.allclose(fx.point, [0.5, 0.5], atol=1e-12)
    assert fx.directions.shape == (0, 2)


def test_pure_translation_has_no_fixed_point():
    fx = fix_set(np.eye(2), np.array([1.0, 0.0]))
    assert fx.point is None
    assert fx.directions.shape == (0, 2)


def test_dispersion_of_concentrated_lift():
    """One quarter-turn moved to (1,0): distances solve to 1/3 exactly."""
    lift = c4_lift()
    assert in_sigma(lift)
    val, x = delta(lift)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert np.allclose(x, [1.0 / 6.0, 1.0 / 6.0], atol=1e-12)


def test_relator_defect_of_concentrated_lift():
    lift = c4_lift()
    assert big_delta(lift) == pytest.approx(2.0, abs=1e-12)


def test_relator_defect_matches_composition_oracle():
    rng = np.random.default_rng(0)
    group = finite_group(groups.dihedral(4))
    trans = rng.normal(size=(group.order, 2))
    trans[group.identity] = 0.0
    want = relator_defect_oracle(group.matrices, trans)
    assert big_delta(Lift(group, trans)) == pytest.approx(want, rel=1e-12)


def test_section_has_zero_dispersion_and_defect():
    """Conjugating the zero lift by a translation gives an exact section."""
    group = finite_group(groups.dihedral(4))
    zero = Lift(group, np.zeros((group.order, 2)))
    section = zero.conjugate_by_translation(np.array([0.7, -0.2]))
    val, x = delta(section)
    assert val <= 1e-10
    assert np.allclose(x, [0.7, -0.2], atol=1e-8)
    assert big_delta(section) <= 1e-10


def test_ratio_invariant_under_conjugation_and_scaling():
    lift = c4_lift(u1=(0.4, -1.1), u2=(0.2, 0.0), u3=(-0.3, 0.9))
    d0, _ = delta(lift)
    b0 = big_delta(lift)
    moved = lift.conjugate_by_translation(np.array([2.5, -4.0]))
    d1, _ = delta(moved)
    assert d1 == pytest.approx(d0, rel=1e-9)
    assert big_delta(moved) == pytest.approx(b0, rel=1e-9)
    scaled = lift.scale(3.7)
    d2, _ = delta(scaled)
    assert d2 == pytest.approx(d0 * 3.7 ** 2, rel=1e-9)
    assert big_delta(scaled) == pytest.approx(b0 * 3.7 ** 2, rel=1e-9)


def test_delta_rejects_lift_outside_sigma():
    group = finite_group(groups.cyclic_rotations(4))
    trans = np.zeros((4, 2))
    trans[0] = [1.0, 0.0]        # the identity rotation must not translate
    lift = Lift(group, trans)
    assert not in_sigma(lift)
    with pytest.raises(ValueError):
        delta(lift)


def test_big_delta_rejects_corrupt_table():
    mats = groups.cyclic_rotations(4)
    good = finite_group(mats)
    bad_table = good.table.copy()
    bad_table[1, 1] = good.identity     # r * r is not the identity
    bad = FiniteActionGroup(matrices=good.matrices, table=bad_table,
                            identity=good.identity, inverse=good.inverse)
    with pytest.raises(ValueError):
        big_delta(Lift(bad, np.zeros((4, 2))))
    with pytest.raises(ValueError):
        delta_ratio_scan(bad, 16, seed=0)


def split_group(name):
    return finite_group(groups.cyclic_rotations(4)) if name == "c4" \
        else SPLIT_PRESETS[name][0]()


def oracle_functionals(group, trans):
    """(delta, minimizer, Delta) of a Sigma lift through tests/oracles.py."""
    sets = [fix_set(a, u) for u, a in zip(trans, group.matrices)]
    val, x = dispersion_oracle(sets)
    return val, x, relator_defect_oracle(group.matrices, trans)


@pytest.mark.parametrize("name", ["c4", "d4-r2", "s3-r2"])
def test_functionals_match_oracles_on_random_sigma_lifts(name):
    """u_f = (I - A_f) z_f fixes z_f, so every such lift lies in Sigma."""
    group = split_group(name)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.normal(size=(group.order, 2)) * 3.0
        lift = Lift(group, z - np.einsum("fij,fj->fi", group.matrices, z))
        want_d, want_x, want_big = oracle_functionals(group, lift.translations)
        val, x = delta(lift)
        assert val == pytest.approx(want_d, rel=1e-9)
        assert np.allclose(x, want_x, rtol=0, atol=1e-9 * max(1.0, np.abs(want_x).max()))
        assert big_delta(lift) == pytest.approx(want_big, rel=1e-9)


@pytest.mark.parametrize("name", ["d4-r2", "s3-r2"])
def test_scan_first_chunk_matches_oracles(name):
    """Redraw the first chunk and score its kept draws through the oracles.

    Each u_f is projected onto range(A_f - I) by least squares; the ratio
    is Delta / delta, since Delta ignores conjugation by translations.
    """
    group = split_group(name)
    res = delta_ratio_scan(group, SCAN_CHUNK + 40, seed=4)
    draws = substream(4, STREAM_SCAN, 0).normal(size=(SCAN_CHUNK, group.order, 2))
    m = group.matrices - np.eye(2)
    kept = 0
    for raw in draws:
        trans = np.array([mf @ np.linalg.lstsq(mf, u, rcond=None)[0]
                          for mf, u in zip(m, raw)])
        val, _, big = oracle_functionals(group, trans)
        if val <= SECTION_DELTA_TOL:
            continue
        assert res.deltas_raw[kept] == pytest.approx(val, rel=1e-12)
        assert res.ratios[kept] == pytest.approx(big / val, rel=1e-12)
        kept += 1
    assert kept > 0


def test_scan_normalizes_and_reports():
    group = finite_group(groups.cyclic_rotations(4))
    res = delta_ratio_scan(group, 600, seed=0)
    assert res.kept + res.skipped == 600
    assert res.c_hat == pytest.approx(float(res.ratios.min()))
    assert res.c_hat > 0
    assert res.rows.shape == (res.kept, 4)
    assert int(res.histogram[0].sum()) == res.kept
    d, x = delta(res.argmin_lift)
    assert d == pytest.approx(1.0, rel=1e-9)
    assert np.linalg.norm(x) <= 1e-6
    assert big_delta(res.argmin_lift) == pytest.approx(res.c_hat, rel=1e-9)


def test_scan_reproducible_and_seed_stable():
    group = finite_group(groups.cyclic_rotations(4))
    a = delta_ratio_scan(group, 400, seed=1)
    b = delta_ratio_scan(group, 400, seed=1)
    assert np.array_equal(a.ratios, b.ratios)
    c = delta_ratio_scan(group, 400, seed=2)
    assert abs(a.c_hat - c.c_hat) <= 0.2 * max(a.c_hat, c.c_hat)


def test_lift_json_round_trip():
    lift = c4_lift(u1=(0.25, -0.5))
    doc = json.loads(json.dumps(lift.to_json()))
    clone = Lift(finite_group(doc["representation"]), doc["translations"])
    assert np.array_equal(clone.translations, lift.translations)
    assert np.array_equal(clone.group.table, lift.group.table)
    d0, _ = delta(lift)
    d1, _ = delta(clone)
    assert d0 == d1


def test_lift_shape_validation():
    group = finite_group(groups.cyclic_rotations(4))
    with pytest.raises(ValueError):
        Lift(group, np.zeros((3, 2)))
