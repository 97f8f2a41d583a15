import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilwalk import algebra
from nilwalk.algebra import (MAX_DIM, NilpotentAlgebra, algebra_from_json,
                             layer_components, lower_central_filtration,
                             algebra_residuals, lower_central_series,
                             orthonormal_basis, validate_algebra, weighted_filtration)
from nilwalk.errors import NumericalValidationError, ResourceCeilingError
from nilwalk.presets import (abelian_algebra, filiform_algebra,
                             free_step3_algebra, heisenberg_algebra)

from oracles import (closure_weighted_ideals, containment_residual,
                     jacobi_residual_dense, rotate_basis, subspace_contained,
                     three_operand_bracket)

PRESET_ALGEBRAS = [heisenberg_algebra(), filiform_algebra(4),
                   free_step3_algebra(), abelian_algebra(2)]


def test_validate_accepts_presets():
    for alg in PRESET_ALGEBRAS:
        anti, jacobi = validate_algebra(alg)
        assert anti <= 1e-12
        assert jacobi <= 1e-12


def test_validate_rejects_broken_antisymmetry():
    t = np.zeros((2, 2, 2))
    t[0, 1, 1] = 1.0  # missing the mirrored entry
    with pytest.raises(NumericalValidationError, match="antisymmetry"):
        validate_algebra(NilpotentAlgebra(dim=2, step=1, tensor=t))


def test_validate_rejects_wrong_step():
    alg = heisenberg_algebra()
    with pytest.raises(NumericalValidationError, match="structure tensor rejected"):
        validate_algebra(NilpotentAlgebra(dim=3, step=3, tensor=alg.tensor))


def test_jacobi_violation_detected():
    # [e1,e2]=e3, [e1,e3]=e1 is not a Lie algebra (and not nilpotent)
    t = np.zeros((3, 3, 3))
    t[0, 1, 2], t[1, 0, 2] = 1.0, -1.0
    t[0, 2, 0], t[2, 0, 0] = 1.0, -1.0
    with pytest.raises(NumericalValidationError, match="structure tensor rejected"):
        validate_algebra(NilpotentAlgebra(dim=3, step=2, tensor=t))


def test_jacobi_residual_matches_dense_oracle():
    """The one-index-at-a-time Jacobi check equals the dense dim^4 one bit for bit."""
    tensors = [alg.tensor for alg in PRESET_ALGEBRAS] + [filiform_algebra(7).tensor]
    rng = np.random.default_rng(5)
    for dim in (3, 5, 8):
        for _ in range(4):
            t = rng.standard_normal((dim, dim, dim))
            tensors.append(t - t.transpose(1, 0, 2))
    for t in tensors:
        alg = NilpotentAlgebra(dim=t.shape[0], step=1, tensor=t)
        assert algebra_residuals(alg)[1] == jacobi_residual_dense(t)


def test_span_does_not_depend_on_scale():
    """Rows (and floor) times 2**k span with the same basis, bit for bit, on
    both sides of the range where squares stay normal; a random rank below
    the row count gives spans with dependent rows.  Rows far below the
    floor span nothing."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        rows, d = rng.integers(1, 7, size=2)
        rank = rng.integers(1, min(rows, d) + 1)
        v = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, d))
        for k in (-1000, -300, 300, 1000):
            assert np.array_equal(orthonormal_basis(np.ldexp(v, k)), orthonormal_basis(v))
            assert np.array_equal(orthonormal_basis(np.ldexp(v, k), floor=np.ldexp(1.0, k)),
                                  orthonormal_basis(v, floor=1.0))
        assert orthonormal_basis(np.ldexp(v, -1060), floor=1.0).shape == (0, d)


def test_lower_central_series_heisenberg():
    dims = [b.shape[0] for b in lower_central_series(heisenberg_algebra())]
    assert dims == [3, 1, 0]


def test_lower_central_series_filiform7():
    dims = [b.shape[0] for b in lower_central_series(filiform_algebra(7))]
    assert dims == [7, 5, 4, 3, 2, 1, 0]


def test_standard_filtration_layers():
    filt = lower_central_filtration(filiform_algebra(4))
    assert filt.kind == "lower_central"
    assert filt.depth == 3
    assert filt.layer_dims() == (2, 1, 1)
    assert filt.weights == (1, 2, 3)


def test_heisenberg_weighted_depth_three():
    """Drift along e1 pushes the bracket direction out to weight 3."""
    alg = heisenberg_algebra()
    filt = weighted_filtration(alg, np.array([1.0, 0.0, 0.0]))
    assert filt.depth == 3
    assert filt.layer_dims() == (2, 0, 1)
    # e3 sits exactly in the weight-3 layer
    comps = layer_components(filt, np.array([0.0, 0.0, 1.0]))
    norms = [np.linalg.norm(c) for c in comps]
    assert norms[2] == pytest.approx(1.0, abs=1e-12)
    assert norms[0] <= 1e-12 and norms[1] <= 1e-12


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("v", [(1.0, 0.0), (0.6, 0.8)], ids=["e1", "off-axis"])
def test_weighted_layers_split_the_space_in_any_basis(seed, v):
    """Drifted engel5: F^(2) = F^(3), computed from different spans, leaves
    an empty weight-2 layer rather than a basis of their rounding difference.
    seed None is the axis basis, others a random orthonormal one."""
    base = free_step3_algebra()
    v = np.array([*v, 0.0, 0.0, 0.0])
    if seed is not None:
        q, tensor = rotate_basis(base.tensor, seed)
        base, v = NilpotentAlgebra(dim=5, step=3, tensor=tensor), q @ v
    filt = weighted_filtration(base, v)
    assert filt.layer_dims() == (2, 0, 1, 1, 1)
    layers = np.vstack(filt.layers)
    assert np.allclose(layers @ layers.T, np.eye(5), atol=1e-10)


def test_weighted_depends_on_v_mod_derived():
    alg = heisenberg_algebra()
    a = weighted_filtration(alg, np.array([1.0, 0.0, 0.0]))
    b = weighted_filtration(alg, np.array([1.0, 0.0, 7.0]))  # shifted by [n,n]
    assert a.depth == b.depth
    for la, lb in zip(a.ideals, b.ideals):
        assert containment_residual(la, lb) <= 1e-10
        assert containment_residual(lb, la) <= 1e-10


def test_degenerate_v_falls_back_to_gamma():
    alg = heisenberg_algebra()
    filt = weighted_filtration(alg, np.array([0.0, 0.0, 1.0]))  # v in [n,n]
    gamma = lower_central_filtration(alg)
    assert filt.depth == gamma.depth
    assert filt.layer_dims() == gamma.layer_dims()


@pytest.mark.parametrize("alg", PRESET_ALGEBRAS,
                         ids=["heisenberg", "filiform4", "engel5", "abelian2"])
def test_weighted_matches_closure_oracle(alg):
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=alg.dim)
        filt = weighted_filtration(alg, v)
        chain = closure_weighted_ideals(alg.tensor, v)
        assert len(filt.ideals) <= len(chain)
        for ours, theirs in zip(filt.ideals, chain):
            assert subspace_contained(ours, theirs)
            assert subspace_contained(theirs, ours)


@pytest.mark.parametrize("alg", PRESET_ALGEBRAS,
                         ids=["heisenberg", "filiform4", "engel5", "abelian2"])
def test_filtration_invariants_random_v(alg):
    """Nestedness, bracket grading, gamma sandwich, termination window."""
    rng = np.random.default_rng(11)
    gamma = lower_central_series(alg)
    for _ in range(20):
        v = rng.normal(size=alg.dim) * rng.choice([0.1, 1.0, 10.0])
        filt = weighted_filtration(alg, v)
        ideals = filt.ideals
        assert alg.step <= filt.depth <= 2 * alg.step
        for i in range(len(ideals) - 1):
            assert containment_residual(ideals[i + 1], ideals[i]) <= 1e-10
        for i in range(1, len(ideals) + 1):
            for j in range(1, len(ideals) + 1):
                bi = ideals[min(i, len(ideals)) - 1]
                bj = ideals[min(j, len(ideals)) - 1]
                gens = [alg.bracket(a, b) for a in bi for b in bj]
                if not gens:
                    continue
                target = ideals[min(i + j, len(ideals)) - 1]
                for g in gens:
                    if np.linalg.norm(g) > 1e-12:
                        assert containment_residual(
                            g[None, :] / np.linalg.norm(g), target) <= 1e-10
        for i, gam in enumerate(gamma, start=1):
            if i <= len(ideals) and gam.shape[0]:
                assert containment_residual(gam, ideals[i - 1]) <= 1e-10
            k = min(2 * i, len(ideals))
            if i + 1 <= len(gamma):
                assert containment_residual(ideals[k - 1], gamma[i]) <= 1e-10 \
                    or ideals[k - 1].shape[0] == 0


def test_iterated_bracket_weight_bound():
    """Products with k drift factors and one n^(i) factor land in n^(2k+i)."""
    alg = filiform_algebra(4)
    rng = np.random.default_rng(3)
    v = rng.normal(size=4)
    filt = weighted_filtration(alg, v)
    ideals = filt.ideals
    for _ in range(25):
        i = rng.integers(1, len(ideals))
        basis = ideals[i - 1]
        if basis.shape[0] == 0:
            continue
        u = basis.T @ rng.normal(size=basis.shape[0])
        w = alg.bracket(v, alg.bracket(v, u))  # k = 2, m >= 2 factors
        p = min(2 * 2 + i, len(ideals))
        nw = np.linalg.norm(w)
        if nw > 1e-12:
            assert containment_residual(w[None, :] / nw, ideals[p - 1]) <= 1e-10


def test_layer_components_recombine():
    alg = free_step3_algebra()
    filt = lower_central_filtration(alg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=alg.dim)
    coords = layer_components(filt, x)
    parts = [c @ b for c, b in zip(coords, filt.layers)]
    assert np.allclose(np.sum(parts, axis=0), x, atol=1e-12)
    # coordinate norms agree with the ambient projections
    for part, coord in zip(parts, coords):
        assert np.linalg.norm(part) == pytest.approx(np.linalg.norm(coord),
                                                     abs=1e-12)


def test_layer_components_trivial_split():
    filt = lower_central_filtration(heisenberg_algebra())
    x = np.array([1.0, 0.0, 5.0])
    parts = [c @ b for c, b in zip(layer_components(filt, x), filt.layers)]
    assert np.allclose(parts[0], [1.0, 0.0, 0.0])
    assert np.allclose(parts[1], [0.0, 0.0, 5.0])


ENGEL5_JSON = {"dim": 5, "step": 3, "labels": ["x", "y", "xy", "xxy", "yxy"],
               "brackets": [[1, 2, [[3, 1.0]]], [1, 3, [[4, 1.0]]],
                            [3, 2, [[5, -1.0]]]]}


def free_step2_json(gens):
    """Free 2-step algebra on gens generators: [e_i, e_j] = e_k, one new
    weight-2 basis vector k per pair i < j, so weight 2 has dimension
    gens (gens - 1) / 2."""
    pairs = [(i, j) for i in range(1, gens + 1) for j in range(i + 1, gens + 1)]
    return {"dim": gens + len(pairs), "step": 2,
            "brackets": [[i, j, [[gens + k, 1.0]]] for k, (i, j) in enumerate(pairs, 1)]}


def test_json_round_trip():
    """The sparse bracket table, one pair given as (j, i), reads back as the preset."""
    clone = algebra_from_json(ENGEL5_JSON)
    alg = free_step3_algebra()
    assert clone.dim == alg.dim and clone.step == alg.step
    assert np.array_equal(clone.tensor, alg.tensor)


def test_json_dim_ceiling():
    assert algebra_from_json({"dim": MAX_DIM, "step": 1}).dim == MAX_DIM
    with pytest.raises(ResourceCeilingError):
        algebra_from_json({"dim": MAX_DIM + 1, "step": 1})


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_abelian_any_dim(dim):
    alg = abelian_algebra(dim)
    validate_algebra(alg)
    filt = lower_central_filtration(alg)
    assert filt.depth == 1
    assert filt.layer_dims() == (dim,)


@given(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
       st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)))
@settings(max_examples=50, deadline=None)
def test_bracket_bilinear_antisymmetric(xs, ys):
    alg = heisenberg_algebra()
    x, y = np.array(xs), np.array(ys)
    assert np.allclose(alg.bracket(x, y), -alg.bracket(y, x), atol=1e-9)
    assert np.allclose(alg.bracket(2.0 * x, y), 2.0 * alg.bracket(x, y),
                       atol=1e-9)


def test_ad_matrix_matches_bracket():
    alg = free_step3_algebra()
    rng = np.random.default_rng(2)
    x, w = rng.normal(size=5), rng.normal(size=5)
    assert np.allclose(alg.ad(x) @ w, alg.bracket(x, w), atol=1e-12)


def _dense_antisymmetric(dim, seed):
    t = np.random.default_rng(seed).normal(size=(dim, dim, dim))
    return NilpotentAlgebra(dim=dim, step=dim - 1, tensor=t - np.transpose(t, (1, 0, 2)))


@pytest.mark.parametrize("alg", PRESET_ALGEBRAS + [_dense_antisymmetric(7, 3)],
                         ids=["heisenberg", "filiform4", "engel5", "abelian2", "dense7"])
def test_bracket_rows_round_alone(alg):
    """A row's bracket is the same bits in a batch of 300 as on its own."""
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(2, 300, alg.dim))
    batch = alg.bracket(x, y)
    for i in range(len(x)):
        assert np.array_equal(alg.bracket(x[i], y[i]), batch[i])
        assert np.array_equal(alg.bracket(x[i:i + 1], y[i:i + 1]), batch[i:i + 1])


@pytest.mark.parametrize("alg", PRESET_ALGEBRAS + [filiform_algebra(7)],
                         ids=["heisenberg", "filiform4", "engel5", "abelian2", "filiform7"])
def test_bracket_bit_equal_to_three_operand_contraction(alg):
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(2, 512, alg.dim))
    got, want = alg.bracket(x, y), three_operand_bracket(alg.tensor, x, y)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("alg", PRESET_ALGEBRAS + [_dense_antisymmetric(7, 3)],
                         ids=["heisenberg", "filiform4", "engel5", "abelian2", "dense7"])
def test_bracket_blocks_round_as_one_batch(monkeypatch, alg):
    """Cutting a batch into 7-row blocks changes no bit, broadcast operands included."""
    rng = np.random.default_rng(11)
    d = alg.dim
    pairs = [rng.normal(size=(2, 300, d)), (rng.normal(size=(300, d)), rng.normal(size=d)),
             (rng.normal(size=(3, 50, d)), rng.normal(size=(50, d)))]
    whole = [alg.bracket(x, y) for x, y in pairs]
    monkeypatch.setattr(algebra, "BRACKET_MIDDLE", 7 * d * d)
    for (x, y), want in zip(pairs, whole):
        got = alg.bracket(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_bracket_memory_does_not_grow_with_rows():
    """At MAX_DIM the (rows, d, d) middle array stays near MAX_DIM^3 doubles."""
    alg = _dense_antisymmetric(MAX_DIM, 4)
    x, y = np.random.default_rng(12).normal(size=(2, 1000, MAX_DIM))
    tracemalloc.start()
    try:
        alg.bracket(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked middle array would be 1000 * 64^2 doubles, 31 MiB
    assert peak < 2 * 8 * MAX_DIM ** 3  # twice the 2 MiB budget
