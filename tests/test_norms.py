import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilwalk.algebra import (NilpotentAlgebra, algebra_from_json, layer_components,
                             lower_central_filtration, weighted_filtration)
from nilwalk.errors import NumericalValidationError
from nilwalk.manifest import gauge_hash
from nilwalk import norms
from nilwalk.norms import (DEFAULT_HULL_SAMPLES, HomogeneousNorm, _build_hull_layer, _hull_layer,
                           _layer_gauge, _pair_sups, _polygon_gauge, build_gauge,
                           coefficient_mass_bound, default_kappas, dilate,
                           euclidean_bilinearity_bound, gauge_descriptor, hom_norm, running_norm)
from nilwalk.presets import (WALK_PRESETS, abelian_algebra, build_walk_setup, filiform_algebra,
                             free_step3_algebra, heisenberg_algebra)

from oracles import (bilinearity_constant, polygon_gauge_oracle, qhull_polytope, rotate_basis,
                     subadditivity_defect)
from schema_defaults import with_defaults
from test_algebra import free_step2_json

# Free 4-step algebra on e1, e2, in the Hall basis: layer dims 2, 1, 2, 3.
# [e2, e3] = -e5 and [e1, e5] = e7 meet in e7, as the Jacobi identity asks.
FREE_STEP4_JSON = {"dim": 8, "step": 4, "brackets": [
    [1, 2, [[3, 1.0]]], [3, 1, [[4, 1.0]]], [3, 2, [[5, 1.0]]], [4, 1, [[6, 1.0]]],
    [4, 2, [[7, 1.0]]], [5, 1, [[7, 1.0]]], [5, 2, [[8, 1.0]]]]}


def _gauges(alg, seed=0):
    filt = lower_central_filtration(alg)
    return [build_gauge(alg, filt, mode, seed=seed, hull_samples=512)
            for mode in ("scaled_euclidean", "bracket_hull")]


def test_default_kappas_start_at_eight():
    ks = default_kappas(3)
    assert ks[0] == 1.0
    assert ks[1] == 2 * 4 * coefficient_mass_bound(2)
    assert ks[1] == 8.0  # degree-2 mass 1/2, one word -> A_2 = 1
    assert ks[2] == 2 * 9 * coefficient_mass_bound(3)


def test_euclidean_bilinearity_bound_heisenberg():
    # true sup over unit vectors is 1; the spectral bound gives sqrt(2)
    b = euclidean_bilinearity_bound(heisenberg_algebra())
    assert 1.0 <= b <= np.sqrt(2.0) + 1e-12


@pytest.mark.parametrize("alg", [heisenberg_algebra(), filiform_algebra(4),
                                 free_step3_algebra()],
                         ids=["heisenberg", "filiform4", "engel5"])
def test_homogeneity_exact(alg):
    filt = lower_central_filtration(alg)
    for norm in _gauges(alg):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=alg.dim) * rng.choice([0.01, 1.0, 100.0])
            r = float(rng.uniform(0.1, 10.0))
            lhs = hom_norm(norm, dilate(filt, r, x))
            rhs = r * hom_norm(norm, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_norm_symmetric_and_definite():
    alg = heisenberg_algebra()
    for norm in _gauges(alg):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(100, 3))
        n_plus = np.array([hom_norm(norm, x) for x in xs])
        n_minus = np.array([hom_norm(norm, -x) for x in xs])
        assert np.allclose(n_plus, n_minus, atol=1e-12)
        assert np.all(n_plus > 0)
        assert hom_norm(norm, np.zeros(3)) == 0.0


def test_batched_norm_matches_scalar():
    alg = free_step3_algebra()
    norm = _gauges(alg)[1]
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(40, 5))
    batch = hom_norm(norm, xs)
    single = np.array([hom_norm(norm, x) for x in xs])
    assert np.allclose(batch, single, atol=1e-13)


@pytest.mark.parametrize("alg", [heisenberg_algebra(), filiform_algebra(4)],
                         ids=["heisenberg", "filiform4"])
def test_bilinearity_at_most_one(alg):
    filt = lower_central_filtration(alg)
    norm = build_gauge(alg, filt, "bracket_hull", seed=5, hull_samples=512)
    c = bilinearity_constant(norm, alg, n_pairs=20_000, seed=7)
    assert c <= 1.0 + 1e-9
    assert norm.bilinearity_bound <= 1.0 + 1e-9


def test_scaled_gauge_bilinearity_calibrated():
    alg = free_step3_algebra()
    filt = lower_central_filtration(alg)
    norm = build_gauge(alg, filt, "scaled_euclidean", seed=5, hull_samples=512)
    assert bilinearity_constant(norm, alg, n_pairs=20_000, seed=11) <= 1.0 + 1e-9
    assert norm.bilinearity_bound <= 1.0


def test_subadditivity_defect_small():
    alg = heisenberg_algebra()
    filt = lower_central_filtration(alg)
    norm = build_gauge(alg, filt, "bracket_hull", seed=5, hull_samples=512)
    defect, pair = subadditivity_defect(norm, alg, n_pairs=20_000, seed=13)
    assert defect <= 1e-9, pair


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 16])
def test_facetless_layer_gauge_bit_equal_to_linalg_norm(dim):
    """The column-by-column sum below 8 columns rounds as np.linalg.norm's does."""
    filt = lower_central_filtration(abelian_algebra(dim))
    norm = HomogeneousNorm(filtration=filt, mode="scaled_euclidean", layer_scales=[3.0],
                           kappa=(1.0,), hull_vertices=[None], hull_facets=[None],
                           hull_angles=[None], fallback_weights=(), bilinearity_bound=0.0)
    rng = np.random.default_rng(dim)
    coords = rng.normal(size=(500, dim)) * rng.lognormal(0.0, 3.0, size=(500, dim))
    for c in (coords, coords[0], coords.reshape(50, 10, dim)):
        got = _layer_gauge(norm, 1, c)
        assert np.array_equal(got, np.linalg.norm(c, axis=-1) / 3.0)


def _rotated_engel5_gauge(mode):
    """Dense filtration bases: layer components go through the einsum."""
    alg = NilpotentAlgebra(dim=5, step=3, tensor=rotate_basis(free_step3_algebra().tensor, 0)[1])
    return build_gauge(alg, lower_central_filtration(alg), mode, seed=0, hull_samples=512)


def _abelian9_gauge(mode):
    """One facet-less 9-dimensional layer: np.linalg.norm's pairwise sum."""
    alg = abelian_algebra(9)
    return build_gauge(alg, lower_central_filtration(alg), mode, seed=0, hull_samples=512)


ROW_GAUGES = [
    pytest.param(lambda p=preset, m=mode, c=choice: with_defaults(
        build_walk_setup, p, gauge_mode=m, filtration_choice=c).norm,
        id=f"{preset}-{mode}-{choice}")
    for preset in WALK_PRESETS for mode in ("scaled_euclidean", "bracket_hull")
    for choice in ("auto", "standard")
] + [pytest.param(lambda m=mode: make(m), id=f"{name}-{mode}")
     for name, make in (("rotated-engel5", _rotated_engel5_gauge), ("abelian9", _abelian9_gauge))
     for mode in ("scaled_euclidean", "bracket_hull")]


@pytest.mark.parametrize("make", ROW_GAUGES)
def test_hom_norm_rows_round_alone_across_leading_axes(make):
    """The walk gauges a block of steps in one call: each row must round as
    it does in a call of its own step's rows, sign of zero included.  13 rows
    a step, so SIMD loops meet remainders at different rows in the two calls."""
    norm = make()
    d = norm.filtration.layers[0].shape[1]
    rng = np.random.default_rng(d)
    x = rng.normal(size=(5, 13, d)) * rng.lognormal(0.0, 3.0, size=(5, 13, d))
    x[0, :3] = 0.0
    x[1, :3] = -0.0
    x[2, ::2, ::2] = -0.0
    whole = hom_norm(norm, x)
    alone = np.stack([hom_norm(norm, step) for step in x])
    assert np.array_equal(whole, alone)
    assert np.array_equal(np.signbit(whole), np.signbit(alone))
    assert np.array_equal(hom_norm(norm, x.reshape(-1, d)), alone.ravel())


def test_abelian_single_layer_is_euclidean_scale():
    alg = abelian_algebra(2)
    filt = lower_central_filtration(alg)
    norm = build_gauge(alg, filt, "scaled_euclidean", seed=0, hull_samples=64)
    x = np.array([3.0, 4.0])
    assert hom_norm(norm, x) == pytest.approx(5.0 / norm.layer_scales[0])


FALLBACK_CASES = [
    (heisenberg_algebra(), lambda alg: weighted_filtration(alg, np.array([1.0, 0.0, 0.0])),
     (3,)),
    (algebra_from_json(free_step2_json(3)), lower_central_filtration, (2,)),
    (algebra_from_json(free_step2_json(4)), lower_central_filtration, (2,)),
    (algebra_from_json(FREE_STEP4_JSON), lower_central_filtration, (4,)),
]


@pytest.mark.parametrize("alg, filtration, fallback", FALLBACK_CASES,
                         ids=["heisenberg-e1", "free2-3gen", "free2-4gen", "free4-2gen"])
def test_hull_fallback_flagged_on_empty_middle_layer(alg, filtration, fallback):
    """Adapted Heisenberg filtration has an empty weight-2 layer, so weight 3
    has no hull; the free 2-step algebras' weight-2 layers have dimension 3
    and 6, beyond the segments and polygons the hull builds.  The free 4-step
    algebra's 3-D weight-4 layer falls back on top of hull layers, so its
    closed-form constant starts above 1 and the scale takes a power of two."""
    filt = filtration(alg)
    norm = build_gauge(alg, filt, "bracket_hull", seed=0, hull_samples=256)
    assert norm.fallback_weights == fallback
    assert norm.hull_facets[fallback[0] - 1] is None
    # still a usable homogeneous gauge
    x = np.resize([0.2, -1.0, 3.0], alg.dim)
    r = 2.0
    assert hom_norm(norm, dilate(filt, r, x)) == pytest.approx(
        r * hom_norm(norm, x), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coefficient", [1e300, 1e308])
def test_calibration_refuses_a_constant_or_scale_that_is_not_finite(coefficient):
    """[e1, e2] = c e3.  At 1e300 the sampled constant overflows to inf; at
    1e308 the scale is inf too, and the constant inf / inf is NaN."""
    alg = algebra_from_json({"dim": 3, "step": 2, "brackets": [[1, 2, [[3, coefficient]]]]})
    with pytest.raises(NumericalValidationError, match="not finite at weight 2: constant"):
        build_gauge(alg, lower_central_filtration(alg), "scaled_euclidean", seed=0,
                    hull_samples=64)


def test_calibration_refuses_a_nan_constant_with_a_finite_scale(monkeypatch):
    """A NaN constant is refused, not read as "no rescale": the test is on
    the constant itself, since max(0.0, nan) is 0.0."""
    monkeypatch.setattr(norms, "_pair_sups", lambda m, ball_j, ball_k: np.full(len(m), np.nan))
    alg = heisenberg_algebra()
    with pytest.raises(NumericalValidationError,
                       match="weight 2: constant nan, scale 1.131e\\+01"):
        build_gauge(alg, lower_central_filtration(alg), "scaled_euclidean", seed=0,
                    hull_samples=64)


def _preset_gauges(mode, seed=0):
    """(algebra, gauge) of every walk preset in both filtrations."""
    for preset in WALK_PRESETS:
        for choice in ("auto", "standard"):
            setup = with_defaults(build_walk_setup, preset, gauge_mode=mode,
                                  filtration_choice=choice, seed=seed)
            yield setup.dist.alg, setup.norm


def test_scaled_gauge_calibration_draws_nothing(monkeypatch):
    """The calibration is in closed form: a scaled gauge opens no random
    stream, and its bytes do not depend on the seed."""
    calls = []
    real = norms.substream
    monkeypatch.setattr(norms, "substream", lambda *key: calls.append(key) or real(*key))
    hashes = [[gauge_hash(norm) for _, norm in _preset_gauges("scaled_euclidean", seed)]
              for seed in (0, 1, 2)]
    assert calls == []
    assert hashes[0] == hashes[1] == hashes[2]


def test_calibrated_layers_have_a_closed_form_constant_at_most_one():
    """Every scaled layer's closed-form constant is <= 1, and above 1/2 where
    the calibration rescaled it: the power of two is the smallest that works."""
    gauges = [*_preset_gauges("scaled_euclidean"), *_preset_gauges("bracket_hull")]
    gauges += [(alg, build_gauge(alg, filtration(alg), mode, seed=0, hull_samples=256))
               for alg, filtration, _ in FALLBACK_CASES
               for mode in ("scaled_euclidean", "bracket_hull")]
    rescaled = 0
    for alg, norm in gauges:
        t, ends = norms._layer_tensor(alg, norm.filtration)
        ce = max(1.0, euclidean_bilinearity_bound(alg))
        for i in range(1, norm.filtration.depth):
            if norm.hull_facets[i] is not None or ends[i] == ends[i + 1]:
                continue
            sup = norms._layer_sup(norm, t, ends, i)
            assert sup <= 1.0
            if norm.layer_scales[i] != norm.kappa[i] * ce * norm.layer_scales[i - 1]:
                rescaled += 1
                assert 0.5 < sup
    assert rescaled > 0


@pytest.mark.parametrize("v", [(1.0, 0.0), (0.6, 0.8)], ids=["e1", "off-axis"])
def test_hull_falls_back_where_brackets_are_rounding_residue(v):
    """Drifted engel5 in a random orthonormal basis.  [m_1, m_4] = 0, so the
    weight-5 products are rounding residue of dense structure constants: the
    layer falls back as it does in the axis basis, and a 1e-13 change in the
    bracket's rounding leaves the gauge where it was."""
    base = free_step3_algebra()
    v = np.array([*v, 0.0, 0.0, 0.0])
    axis = build_gauge(base, weighted_filtration(base, v), "bracket_hull", seed=0,
                       hull_samples=512)
    q, tensor = rotate_basis(base.tensor, 0)
    filt = weighted_filtration(NilpotentAlgebra(dim=5, step=3, tensor=tensor), q @ v)
    norms = [build_gauge(NilpotentAlgebra(dim=5, step=3, tensor=tensor * scale), filt,
                         "bracket_hull", seed=0, hull_samples=512)
             for scale in (1.0, 1.0 + 1e-13)]
    assert axis.fallback_weights == (3, 5)  # weight 2 is empty, weight 5 unreachable
    for norm in norms:
        assert norm.fallback_weights == (3, 5)
        assert norm.bilinearity_bound <= 1.0
    assert norms[1].bilinearity_bound == pytest.approx(norms[0].bilinearity_bound, rel=1e-9)


def test_gauge_descriptor_is_stable_and_complete():
    alg = heisenberg_algebra()
    filt = lower_central_filtration(alg)
    a = build_gauge(alg, filt, "bracket_hull", seed=9, hull_samples=256)
    b = build_gauge(alg, filt, "bracket_hull", seed=9, hull_samples=256)
    da, db = gauge_descriptor(a), gauge_descriptor(b)
    assert da == db
    assert da["mode"] == "bracket_hull"
    c = build_gauge(alg, filt, "bracket_hull", seed=10, hull_samples=256)
    # a different seed may move sampled hull vertices; the descriptor
    # must reflect whatever the gauge actually evaluates with
    if gauge_descriptor(c) != da:
        assert any(hom_norm(a, x) != hom_norm(c, x)
                   for x in np.random.default_rng(1).normal(size=(20, 3)))


@given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
@settings(max_examples=30, deadline=None)
def test_dilation_is_a_group_action(r1, r2):
    alg = filiform_algebra(4)
    filt = lower_central_filtration(alg)
    x = np.array([0.7, -0.3, 1.1, 2.0])
    a = dilate(filt, r1, dilate(filt, r2, x))
    b = dilate(filt, r1 * r2, x)
    assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def test_unknown_mode_rejected():
    alg = heisenberg_algebra()
    filt = lower_central_filtration(alg)
    with pytest.raises(ValueError):
        with_defaults(build_gauge, alg, filt, "taxicab")


def _within_ulps(got, want, ulps=4):
    """got equals want to ulps * eps relative; NaN exactly where want is NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    err = np.abs(got[~nan] - want[~nan])
    bad = err > ulps * np.finfo(float).eps * np.abs(want[~nan])
    assert not bad.any(), (got[~nan][bad], want[~nan][bad])


def test_polygon_gauge_matches_oracle_on_engel5():
    """The weight-3 layer of engel5's bracket-hull gauge is a polygon evaluated
    by angular lookup; it must agree with a max over every facet."""
    alg = free_step3_algebra()
    filt = lower_central_filtration(alg)
    norm = build_gauge(alg, filt, "bracket_hull", seed=0, hull_samples=512)
    basis, facets, verts = filt.layers[2], norm.hull_facets[2], norm.hull_vertices[2]
    assert basis.shape[0] == 2 and facets.shape[0] > 100
    rng = np.random.default_rng(21)
    coords = np.vstack([rng.normal(size=(20, 2)) * s for s in (1e-3, 1.0, 1e3)]
                       + [np.zeros((2, 2)), verts, 1e-3 * verts, 1e3 * verts,
                          [[-1.0, 0.0], [-1.0, -0.0], [-1e3, 0.0], [-1e-3, -0.0]],
                          [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]]])
    assert np.arctan2(-0.0, -1.0) == -np.pi and np.arctan2(0.0, -1.0) == np.pi

    # the layer gauge on exact layer coordinates (keeps the signed zeros)
    _within_ulps(_layer_gauge(norm, 3, coords), polygon_gauge_oracle(facets, coords))

    # hom_norm of points in the weight-3 layer, batched and one at a time
    x = coords @ basis
    comps = layer_components(filt, x)
    finite = ~np.isnan(coords).any(axis=1)
    assert not comps[0][finite].any() and not comps[1][finite].any()
    want = np.maximum(polygon_gauge_oracle(facets, comps[2]), 0.0) ** (1.0 / 3.0)
    _within_ulps(hom_norm(norm, x), want)
    pick = np.arange(0, 60, 3)      # random rows at all three scales
    _within_ulps(hom_norm(norm, x[pick].reshape(4, 5, -1)), want[pick].reshape(4, 5))
    # one row of each kind: random at three scales, zero, vertex, angle pi, NaN
    for row in (0, 25, 45, 60, 62, -7, -6, -1):
        got = hom_norm(norm, x[row])
        assert isinstance(got, float)
        _within_ulps(got, want[row])


def test_polygon_lookup_covers_a_sharp_vertex_at_pi():
    """A thin rhombus with a sharp vertex at angle pi.  Points within an ulp of
    that angle round onto the vertex, where the two facets' values split by
    far more than an ulp, so the lookup needs the neighbours of the facet the
    rounded angle picks."""
    verts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1e-3], [0.0, -1e-3]])
    _, facets, angles = _hull_layer(verts)
    coords = np.array([[sx, t] for sx in (-1.0, -1e3, 1.0)
                       for t in (0.0, -0.0, 1e-17, -1e-17, 1e-16, -1e-16)])
    _within_ulps(_polygon_gauge(angles, facets, coords), polygon_gauge_oracle(facets, coords))


def _assert_polygon_matches_qhull(points, same_listing=True):
    """The monotone-chain polygon against Qhull's hull of the same points:
    the same vertices, bit-equal facet normals and offsets within one ulp
    (Qhull takes each offset from either end of its edge)."""
    verts, facets, angles = _hull_layer(points)
    q_verts, q_normals, q_offsets = qhull_polytope(points)
    if same_listing:
        assert np.array_equal(verts, q_verts)
    else:
        assert np.array_equal(np.unique(verts, axis=0), np.unique(q_verts, axis=0))
    assert facets.shape == (len(q_offsets), 3) and np.all(np.diff(angles) > 0)
    mine = np.lexsort((facets[:, 1], facets[:, 0]))
    theirs = np.lexsort((q_normals[:, 1], q_normals[:, 0]))
    assert np.array_equal(facets[mine, :2], q_normals[theirs])
    offsets, q_offsets = facets[mine, 2], q_offsets[theirs]
    assert np.all(np.abs(offsets - q_offsets) <= np.spacing(q_offsets))
    _within_ulps(_polygon_gauge(angles, facets, points),
                 polygon_gauge_oracle(facets, points))


def _weight3_hull_input(alg, seed):
    """The points whose hull is the weight-3 polygon of alg's preset gauge."""
    norm = build_gauge(alg, lower_central_filtration(alg), "bracket_hull", seed=seed)
    return _build_hull_layer(alg, norm, 3, norm.kappa[2], DEFAULT_HULL_SAMPLES, seed)


@pytest.mark.parametrize("seed", range(5))
def test_polygon_hull_matches_qhull_on_engel5(seed):
    _assert_polygon_matches_qhull(_weight3_hull_input(free_step3_algebra(), seed))


@pytest.mark.parametrize("seed", range(5))
def test_polygon_hull_matches_qhull_on_rotated_engel5(seed):
    """In a dense basis the input repeats some points exactly, and Qhull may
    list a later copy: the vertex sets agree, the listings need not."""
    _, tensor = rotate_basis(free_step3_algebra().tensor, seed)
    alg = NilpotentAlgebra(dim=5, step=3, tensor=tensor)
    _assert_polygon_matches_qhull(_weight3_hull_input(alg, seed), same_listing=False)


def test_polygon_hull_keeps_the_first_copy_of_a_duplicate():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0],
                    [0.0, 1.0], [0.2, 0.1], [0.5, 0.5]])
    verts, facets, angles = _hull_layer(pts)
    assert np.array_equal(verts, pts[[0, 1, 3, 4]])
    assert np.array_equal(angles, np.arctan2(verts[[3, 0, 1, 2], 1], verts[[3, 0, 1, 2], 0]))
    r = 0.5 ** 0.5
    assert np.allclose(facets, [[r, -r, r], [r, r, r], [-r, r, r], [-r, -r, r]])
    _assert_polygon_matches_qhull(pts)


@pytest.mark.parametrize("pts", [
    [[1.0, 2.0], [-0.5, -1.0], [2.0, 4.0], [-1.0, -2.0], [1.0, 2.0]],   # collinear
    [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0], [1.5, 1.5]],       # misses the origin
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]],                   # origin on an edge
], ids=["collinear", "origin-outside", "origin-on-boundary"])
def test_degenerate_polygon_hull_is_none(pts):
    assert _hull_layer(np.array(pts)) is None


# ---------------------------------------------------------------------------
# the closed-form bilinearity bound

def _sampled_constant(norm, alg, chunks=4):
    """The sampled constant over 4 x 100 000 pairs, 100 000 at a time."""
    return max(bilinearity_constant(norm, alg, n_pairs=100_000, seed=seed)
               for seed in range(chunks))


@pytest.mark.parametrize("preset", list(WALK_PRESETS))
def test_bilinearity_bound_covers_a_large_sample(preset):
    """The bound is an upper bound: no sampled pair of unit-ball points
    brackets past it, on any preset gauge in either filtration."""
    for mode in ("scaled_euclidean", "bracket_hull"):
        for choice in ("auto", "standard"):
            setup = with_defaults(build_walk_setup, preset, gauge_mode=mode,
                                  filtration_choice=choice)
            assert setup.norm.bilinearity_bound >= _sampled_constant(setup.norm, setup.dist.alg)


@pytest.mark.parametrize("v", [(1.0, 0.0), (0.6, 0.8)], ids=["e1", "off-axis"])
def test_bilinearity_bound_covers_a_large_sample_in_a_dense_basis(v):
    """Drifted engel5 in a random orthonormal basis: every bracket constant
    is dense, and the weight-5 products are rounding residue."""
    q, tensor = rotate_basis(free_step3_algebra().tensor, 0)
    alg = NilpotentAlgebra(dim=5, step=3, tensor=tensor)
    filt = weighted_filtration(alg, q @ np.array([*v, 0.0, 0.0, 0.0]))
    norm = build_gauge(alg, filt, "bracket_hull", seed=0, hull_samples=512)
    assert _sampled_constant(norm, alg) <= norm.bilinearity_bound <= 1.0


def test_bilinearity_bound_of_the_heisenberg_hull_gauge_by_hand():
    """The weight-2 layer is the segment [-8, 8] (kappa_2 = 8 times the unit
    bracket of unit vectors), so the bound is (1/8)^(1/2), up to its margin."""
    alg = heisenberg_algebra()
    norm = build_gauge(alg, lower_central_filtration(alg), "bracket_hull", seed=0,
                       hull_samples=512)
    assert np.array_equal(norm.hull_facets[1], [[1.0, 8.0], [-1.0, 8.0]])
    assert (1 / 8) ** 0.5 <= norm.bilinearity_bound == pytest.approx((1 / 8) ** 0.5, rel=1e-14)


def test_pair_sups_against_vertex_pairs():
    """Each sup of a bilinear form over two balls: exact on a segment or
    polygon against a segment or a disc, and an upper bound between two
    polygons; discs are sampled on their boundary."""
    rng = np.random.default_rng(3)
    poly, other = (_hull_layer(rng.normal(size=(n, 2)))[0] for n in (40, 30))
    seg = _hull_layer(rng.normal(size=(5, 1)))[0]

    def circle(n):
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.stack([np.cos(t), np.sin(t)], axis=1)

    def brute(ps, m, qs):
        return np.einsum("pa,fab,qb->fpq", ps, m, qs).max(axis=(1, 2))

    m = rng.normal(size=(6, 2, 2))
    assert np.allclose(_pair_sups(m[:, :1], (seg, 1.0), (poly, 1.0)),
                       brute(seg, m[:, :1], poly), rtol=1e-14)
    assert np.allclose(_pair_sups(m[:, :, :1], (poly, 1.0), (seg, 1.0)),
                       brute(poly, m[:, :, :1], seg), rtol=1e-14)
    disc = 3.0 * circle(20_000)
    for got, want, rtol in [
            (_pair_sups(m, (poly, 1.0), (None, 3.0)), brute(poly, m, disc), 1e-7),
            (_pair_sups(m, (None, 3.0), (poly, 1.0)), brute(disc, m, poly), 1e-7),
            (_pair_sups(m, (None, 3.0), (None, 1.0)), brute(3.0 * circle(600), m, circle(600)),
             1e-4)]:
        assert np.all(want <= got) and np.all(got <= want * (1 + rtol))
    assert np.all(brute(poly, m, other) <= _pair_sups(m, (poly, 1.0), (other, 1.0)))


# ---------------------------------------------------------------------------
# the walk's polygon skip

def _engel5_polygon_points():
    """engel5's hull gauge and points of its weight-3 polygon layer alone:
    random at three scales, on rays within 1e-12 rad of each vertex, and
    along each facet normal, where the bound ||x|| / min_f b_f is tight for
    the facet nearest the origin."""
    norm = with_defaults(build_walk_setup, "engel5-srw").norm
    verts, facets = norm.hull_vertices[2], norm.hull_facets[2]
    rng = np.random.default_rng(11)
    angles = np.arctan2(verts[:, 1], verts[:, 0])[:, None] + [-1e-12, 0.0, 1e-12]
    radii = np.linalg.norm(verts, axis=1)[:, None] * rng.lognormal(0.0, 2.0, size=angles.shape)
    rays = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1).reshape(-1, 2)
    normals = facets[:, :2] * facets[:, 2:] * rng.lognormal(0.0, 2.0, size=(len(facets), 1))
    coords = np.vstack([rng.normal(size=(200, 2)) * s for s in (1e-3, 1.0, 1e3)]
                       + [rays, normals])
    return norm, coords @ norm.filtration.layers[2]


def _counting_polygon_gauge(monkeypatch):
    rows = []
    real = norms._polygon_gauge
    monkeypatch.setattr(norms, "_polygon_gauge",
                        lambda angles, facets, coords: rows.append(len(coords))
                        or real(angles, facets, coords))
    return rows


def test_polygon_bound_is_at_least_the_polygon_gauge(monkeypatch):
    """With the floor at each row's own gauge, a bound below the gauge would
    skip its row: every row is gauged, to hom_norm's bytes.  A floor 1% above
    skips every row, which then keeps the floor as the running max."""
    norm, x = _engel5_polygon_points()
    want = hom_norm(norm, x)
    rows = _counting_polygon_gauge(monkeypatch)
    got = running_norm(norm, x[None], want, np.array([False]))[0]
    assert rows == [len(x)] and got.tobytes() == want.tobytes()
    rows.clear()
    floor = want * 1.01
    got = running_norm(norm, x[None], floor, np.array([False]))[0]
    assert sum(rows) == 0 and np.array_equal(np.maximum(floor, got), floor)
    # a checkpoint step is gauged whatever the floor
    got = running_norm(norm, x[None], floor, np.array([True]))[0]
    assert rows == [0, len(x)] and got.tobytes() == want.tobytes()


def test_polygon_skip_gauges_rows_that_are_not_finite(monkeypatch):
    """A NaN or inf in the polygon layer, or a length past the double range,
    makes the bound NaN or inf, which is never below the floor: the row gets
    hom_norm's value."""
    norm, _ = _engel5_polygon_points()
    cols, signs = norm.filtration.gathers[2]  # the layer's unit basis vectors
    x = np.zeros((4, 5))
    x[:, 0] = 1.0
    x[:, cols] = signs * np.array([[np.nan, 1.0], [np.inf, 0.0], [np.inf, np.inf],
                                   [1e300, -1e300]])
    with np.errstate(invalid="ignore"):
        want = hom_norm(norm, x)
        rows = _counting_polygon_gauge(monkeypatch)
        got = running_norm(norm, x[None], np.full(len(x), 1e308), np.array([False]))[0]
    assert rows == [len(x)] and np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[0]) and 1e297 < got[3] ** 3 < 1e299
