import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilwalk.algebra import NilpotentAlgebra
from nilwalk.bch import TABLE_CAP, bch, dynkin_table
from nilwalk.presets import (abelian_algebra, filiform_algebra,
                             free_step3_algebra, heisenberg_algebra)

from oracles import filiform_rep, heisenberg_rep, rep_bch


def test_table_masses_are_the_known_ones():
    table = dynkin_table(6)
    masses = list(zip(table.abs_mass, table.word_count))
    assert masses[0] == (2.0, 2)        # x and y
    assert masses[1] == (0.5, 1)        # [x,y]/2
    assert masses[2] == (pytest.approx(1 / 6), 2)
    assert masses[4] == (pytest.approx(0.025), 6)
    assert masses[5] == (pytest.approx(0.0125), 14)


def test_table_cap_enforced():
    with pytest.raises(ValueError):
        dynkin_table(TABLE_CAP + 1)
    with pytest.raises(ValueError):
        dynkin_table(0)


@pytest.mark.parametrize("step, distinct_suffixes",
                         [(1, 0), (2, 1), (3, 3), (4, 5), (5, 13), (6, 29)])
def test_bch_brackets_each_suffix_once(monkeypatch, step, distinct_suffixes):
    """One bch call costs one bracket per distinct right-nested suffix, not per word."""
    calls = []
    bracket = NilpotentAlgebra.bracket

    def counted(self, x, y):
        calls.append(1)
        return bracket(self, x, y)

    monkeypatch.setattr(NilpotentAlgebra, "bracket", counted)
    alg = abelian_algebra(2) if step == 1 else filiform_algebra(step + 1)
    bch(alg, np.ones(alg.dim), np.ones(alg.dim))
    assert len(calls) == distinct_suffixes


def test_heisenberg_hand_value():
    alg = heisenberg_algebra()
    z = bch(alg, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(z, [1.0, 1.0, 0.5], atol=1e-15)


def test_engel_hand_value():
    # x + y + [x,y]/2 + [x,[x,y]]/12 - [y,[x,y]]/12
    alg = free_step3_algebra()
    z = bch(alg, np.eye(5)[0], np.eye(5)[1])
    assert np.allclose(z, [1.0, 1.0, 0.5, 1 / 12, -1 / 12], atol=1e-15)


def test_abelian_bch_is_addition():
    alg = abelian_algebra(3)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(bch(alg, x, y), x + y, atol=1e-15)


@pytest.mark.parametrize("alg,rep", [
    (heisenberg_algebra(), heisenberg_rep()),
    (filiform_algebra(4), filiform_rep(4)),
], ids=["heisenberg", "filiform4"])
def test_matches_matrix_log_oracle(alg, rep):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, size=alg.dim)
        y = rng.uniform(-2.0, 2.0, size=alg.dim)
        worst = max(worst, float(np.max(np.abs(bch(alg, x, y)
                                               - rep_bch(rep, x, y)))))
    assert worst <= 1e-9, worst


def test_degree_six_against_filiform7_oracle():
    """Step-6 chain algebra exercises every table degree at once."""
    alg = filiform_algebra(7)
    rep = filiform_rep(7)
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, size=7)
        y = rng.uniform(-1.5, 1.5, size=7)
        assert np.max(np.abs(bch(alg, x, y) - rep_bch(rep, x, y))) <= 1e-9


def test_batched_matches_loop():
    alg = heisenberg_algebra()
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(32, 3))
    ys = rng.normal(size=(32, 3))
    batched = bch(alg, xs, ys)
    for i in range(32):
        assert np.allclose(batched[i], bch(alg, xs[i], ys[i]), atol=1e-14)


@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                          st.floats(-2, 2), st.floats(-2, 2),
                          st.floats(-2, 2)),
                min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_associativity(vs):
    alg = free_step3_algebra()
    x, y, z = (np.array(v) for v in vs)
    left = bch(alg, bch(alg, x, y), z)
    right = bch(alg, x, bch(alg, y, z))
    assert np.max(np.abs(left - right)) <= 1e-9


@given(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
                 st.floats(-3, 3)))
@settings(max_examples=40, deadline=None)
def test_inverse_is_negation(v):
    alg = filiform_algebra(4)
    x = np.array(v)
    assert np.max(np.abs(bch(alg, x, -x))) <= 1e-12
    assert np.max(np.abs(bch(alg, -x, x))) <= 1e-12


def test_identity_element():
    alg = free_step3_algebra()
    x = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
    zero = np.zeros(5)
    assert np.allclose(bch(alg, x, zero), x, atol=1e-15)
    assert np.allclose(bch(alg, zero, x), x, atol=1e-15)

