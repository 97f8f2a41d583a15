import numpy as np
import pytest
from scipy import stats as sps

from nilwalk.algebra import layer_components, lower_central_filtration
from nilwalk.bch import bch
from nilwalk.errors import ResourceCeilingError
from nilwalk.norms import build_gauge, hom_norm
from nilwalk.presets import abelian_algebra, build_walk_setup, free_step3_algebra
from nilwalk.rng import STREAM_SCAN, STREAM_WALK, AliasSampler, substream, substream_blocks
from nilwalk.semidirect import StepDistribution, finite_group
from nilwalk import groups, norms, rng, walker
from nilwalk.walker import WalkConfig, monte_carlo, recentre

from oracles import heisenberg_rep, nilpotent_expm, nilpotent_logm, philox_key, rep_matrix
from schema_defaults import with_defaults


def atom_indices(dist, seed, replicate, n_steps):
    """The atom choices a replicate makes; mirrors the engine's draws."""
    u = substream(seed, STREAM_WALK, replicate).random((n_steps, 2))
    return AliasSampler(dist.probs).sample(u)


def doubling_compose(dist, y1, q1, y2, q2, n):
    """Combine two independent n-step runs into a 2n-step state.

    (y_{2n}, q_{2n}) = (y_n * n v * Ad(q_n) y'_n * (-n v), q_n q'_n); the
    distributional identity behind time-doubling arguments.
    """
    nv = float(n) * dist.v_mu
    q1, q2 = np.atleast_1d(q1), np.atleast_1d(q2)
    rot = np.einsum("rij,rj->ri", dist.q.matrices[q1], np.atleast_2d(y2))
    inner = bch(dist.alg, bch(dist.alg, nv, rot), -nv)
    return bch(dist.alg, np.atleast_2d(y1), inner), dist.q.table[q1, q2]


def mirror_fold(dist, idx):
    """Plain group product over the listed atoms, no recursion tricks."""
    z = np.zeros(dist.alg.dim)
    q = int(dist.q.identity)
    for a in idx:
        z = bch(dist.alg, z, dist.q.matrices[q] @ dist.xis[a])
        q = int(dist.q.table[q, dist.kappas[a]])
    return z, q


def small_cfg(setup, n, reps, seed=0, **kw):
    return with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=n,
                         checkpoints=(n,), replications=reps, seed=seed, **kw)


def test_srw_final_state_matches_plain_product():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    cfg = small_cfg(setup, 48, 3, seed=11)
    res = monte_carlo(cfg)
    for r in range(3):
        idx = atom_indices(setup.dist, 11, r, 48)
        z, _ = mirror_fold(setup.dist, idx)
        assert np.allclose(res.final_y[r], z, atol=1e-10)


def test_srw_final_state_matches_matrix_logarithm():
    """Second, fully independent route: unipotent matrix products."""
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    cfg = small_cfg(setup, 32, 2, seed=5)
    res = monte_carlo(cfg)
    rep = heisenberg_rep()
    for r in range(2):
        idx = atom_indices(setup.dist, 5, r, 32)
        mat = np.eye(3)
        for a in idx:
            mat = mat @ nilpotent_expm(rep_matrix(rep, setup.dist.xis[a]))
        log = nilpotent_logm(mat)
        coords = np.array([log[0, 1], log[1, 2], log[0, 2]])
        assert np.allclose(res.final_y[r], coords, atol=1e-9)


def test_drifted_engine_matches_direct_recentring():
    """The per-step conjugation recursion against z_n * (-n v)."""
    setup = with_defaults(build_walk_setup, "heisenberg-drift")
    assert np.linalg.norm(setup.dist.v_mu) > 0.1
    cfg = small_cfg(setup, 40, 4, seed=2, cross_check=True)
    res = monte_carlo(cfg)
    assert res.cross_residual <= 1e-9
    for r in range(4):
        idx = atom_indices(setup.dist, 2, r, 40)
        z, _ = mirror_fold(setup.dist, idx)
        y = recentre(setup.dist, z, 40)
        assert np.allclose(res.final_y[r], y, atol=1e-9)


def test_cross_residual_exactly_zero_for_centred_law():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    cfg = small_cfg(setup, 16, 2, cross_check=True)
    res = monte_carlo(cfg)
    assert res.cross_residual == 0.0


def test_twisted_walk_matches_fold_with_rotation():
    setup = with_defaults(build_walk_setup, "r2-c4")
    assert setup.conjugated
    cfg = small_cfg(setup, 33, 4, seed=9)
    res = monte_carlo(cfg)
    for r in range(4):
        idx = atom_indices(setup.dist, 9, r, 33)
        z, q = mirror_fold(setup.dist, idx)
        assert np.allclose(res.final_y[r], z, atol=1e-10)
        assert res.q_index[r, -1] == q


def test_layer_columns_are_euclidean_layer_norms():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    cfg = small_cfg(setup, 24, 6, seed=4)
    res = monte_carlo(cfg)
    comps = layer_components(setup.norm.filtration, res.final_y)
    for li, c in enumerate(comps):
        assert np.allclose(res.layer_euclid[:, -1, li],
                           np.linalg.norm(c, axis=-1), atol=1e-12)
    assert np.allclose(res.y_norm[:, -1], hom_norm(setup.norm, res.final_y),
                       atol=1e-12)


def test_pure_drift_recentres_to_exact_zero():
    alg = abelian_algebra(1)
    q = finite_group(groups.trivial(1))
    dist = StepDistribution(alg=alg, q=q, probs=np.array([1.0]),
                            xis=np.array([[1.0]]), kappas=np.array([0]))
    norm = with_defaults(build_gauge, alg, lower_central_filtration(alg),
                         mode="scaled_euclidean")
    cfg = with_defaults(WalkConfig, dist=dist, norm=norm, n_steps=32, checkpoints=(8, 32),
                        replications=3, seed=0)
    res = monte_carlo(cfg)
    assert np.all(res.final_y == 0.0)
    assert np.all(res.running_max == 0.0)
    assert np.all(res.y_norm == 0.0)


def test_doubling_composition_equals_long_run():
    """Composing two n-step states reproduces the 2n-step product exactly."""
    for preset in ("heisenberg-drift", "r2-c4"):
        setup = with_defaults(build_walk_setup, preset)
        dist = setup.dist
        n = 24
        cfg = small_cfg(setup, n, 2, seed=7)
        res = monte_carlo(cfg)
        y2, q2 = doubling_compose(dist, res.final_y[0], res.q_index[0, -1],
                                  res.final_y[1], res.q_index[1, -1], n)
        idx = np.concatenate([atom_indices(dist, 7, 0, n),
                              atom_indices(dist, 7, 1, n)])
        z, qz = mirror_fold(dist, idx)
        direct = recentre(dist, z, 2 * n)
        assert np.allclose(y2[0], direct, atol=1e-9)
        assert int(q2[0]) == qz


def test_doubling_distribution_ks():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    dist = setup.dist
    reps = 800
    long_cfg = small_cfg(setup, 128, reps, seed=0)
    direct = monte_carlo(long_cfg).final_y[:, 2]
    half_a = monte_carlo(small_cfg(setup, 64, reps, seed=101))
    half_b = monte_carlo(small_cfg(setup, 64, reps, seed=202))
    y, _ = doubling_compose(dist, half_a.final_y, half_a.q_index[:, -1],
                            half_b.final_y, half_b.q_index[:, -1], 64)
    stat = sps.ks_2samp(direct, y[:, 2])
    assert stat.pvalue > 1e-3


def test_checkpoints_must_cover_the_run():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    with pytest.raises(ValueError):
        with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=64,
                      checkpoints=(16, 32), replications=2, seed=0)
    with pytest.raises(ValueError):
        with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=64,
                      checkpoints=(), replications=2, seed=0)
    with pytest.raises(ValueError):
        with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=64,
                      checkpoints=(0, 64), replications=2, seed=0)


def test_work_ceiling_enforced():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    with pytest.raises(ResourceCeilingError):
        with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=1024,
                      checkpoints=(1024,), replications=2048, seed=0,
                      max_work=2 ** 20)


def test_seed_reproducibility():
    setup = with_defaults(build_walk_setup, "filiform4-srw")
    cfg = small_cfg(setup, 32, 8, seed=3)
    a = monte_carlo(cfg)
    b = monte_carlo(cfg)
    assert np.array_equal(a.final_y, b.final_y)
    assert np.array_equal(a.running_max, b.running_max)
    other = monte_carlo(small_cfg(setup, 32, 8, seed=4))
    assert not np.array_equal(a.final_y, other.final_y)


def drifted_random_engel5():
    """Seeded random atoms with drift on the free step-3 algebra: inexact arithmetic."""
    rng = np.random.default_rng(8)
    xis = rng.normal(size=(4, 5))
    xis[:, 0] += 0.7
    dist = StepDistribution(alg=free_step3_algebra(), q=finite_group(groups.trivial(5)),
                            probs=np.full(4, 0.25), xis=xis, kappas=np.zeros(4, dtype=np.int64))
    return with_defaults(build_walk_setup, "custom", dist)


BATCHING = [
    pytest.param(lambda: with_defaults(build_walk_setup, "heisenberg-srw"), {},
                 id="heisenberg-srw"),
    pytest.param(drifted_random_engel5, {"cross_check": True}, id="drifted-random-engel5"),
]
BATCHING_CASES = pytest.mark.parametrize("make, kw", BATCHING)


def sampling_blocks(n_steps, rng_block):
    """Step blocks in one chunk, ceil(steps / STEP_BLOCK) per RNG block: the
    calls the chunk makes to the atom sampler, and to the gauge."""
    return sum(-(-min(rng_block, n_steps - s) // walker.STEP_BLOCK)
               for s in range(0, n_steps, rng_block))


@BATCHING_CASES
def test_replicate_chunk_size_does_not_change_results(monkeypatch, make, kw):
    cfg = small_cfg(make(), 16, 1100, seed=1, **kw)
    runs = []
    for chunk in (walker.REPLICATE_CHUNK, 64, 7, 1):
        monkeypatch.setattr(walker, "REPLICATE_CHUNK", chunk)
        runs.append(monte_carlo(cfg))
    assert_same_samples(runs)


@BATCHING_CASES
def test_rng_block_size_does_not_change_results(monkeypatch, make, kw):
    """Substreams draw in order, so the block a step's draws come in does not matter."""
    cfg = small_cfg(make(), 300, 24, seed=1, **kw)  # 300 steps: 256 and 128 split differently
    runs = []
    for block in (256, 128, 7, 1):
        monkeypatch.setattr(walker, "RNG_BLOCK_STEPS", block)
        runs.append(monte_carlo(cfg))
    assert_same_samples(runs)


@pytest.mark.parametrize("cross_check", [False, True], ids=["plain", "cross-check"])
@pytest.mark.parametrize("make, kw", BATCHING + [
    pytest.param(lambda: with_defaults(build_walk_setup, "r2-c4"), {}, id="r2-c4"),
])
def test_step_block_size_does_not_change_results(monkeypatch, make, kw, cross_check):
    """Gauge rows round alone, so gauging a block of steps at once, not one
    step at a time, keeps every byte; checkpoints fall at the first step,
    inside a block, on block edges (8, 128, 136) and at n."""
    setup = make()
    cfg = with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=300,
                        checkpoints=(1, 5, 8, 131, 136, 300), replications=24, seed=2,
                        **dict(kw, cross_check=cross_check))
    calls = []
    real = walker.hom_norm
    monkeypatch.setattr(walker, "hom_norm", lambda norm, x: calls.append(x.shape)
                        or real(norm, x))
    runs = []
    for block in (8, 3, 1):
        monkeypatch.setattr(walker, "STEP_BLOCK", block)
        calls.clear()
        runs.append(monte_carlo(cfg))
        # one gauge call per step block, not per step
        assert len(calls) == sampling_blocks(300, walker.RNG_BLOCK_STEPS)
    assert_same_samples(runs)


def weight3_heavy_engel5():
    """A centred law on engel5 whose atoms reach far into the weight-3 layer,
    so the polygon's term often sets |y|; same hull gauge as engel5-srw."""
    xis = np.random.default_rng(3).normal(size=(2, 5)) * [1.0, 1.0, 1.0, 300.0, 300.0]
    dist = StepDistribution(alg=free_step3_algebra(), q=finite_group(groups.trivial(5)),
                            probs=np.full(4, 0.25), xis=np.vstack([xis, -xis]),
                            kappas=np.zeros(4, dtype=np.int64))
    return with_defaults(build_walk_setup, "custom", dist)


@pytest.mark.parametrize("make", [
    pytest.param(lambda c=choice: with_defaults(build_walk_setup, "engel5-srw",
                                                filtration_choice=c), id=f"engel5-srw-{choice}")
    for choice in ("auto", "standard")] + [
    pytest.param(weight3_heavy_engel5, id="weight3-heavy-engel5")])
def test_polygon_skip_keeps_every_byte(monkeypatch, make):
    """A hull gauge gauges its weight-3 polygon only where a row could raise
    the running max or sits at a checkpoint: at two chunk sizes the samples
    hold the bytes of hom_norm on every row of every block."""
    setup = make()
    assert any(angles is not None for angles in setup.norm.hull_angles)
    cfg = with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=100,
                        checkpoints=(1, 5, 8, 37, 100), replications=300, seed=4)
    runs = []
    for chunk in (walker.REPLICATE_CHUNK, 7):
        monkeypatch.setattr(walker, "REPLICATE_CHUNK", chunk)
        runs.append(monte_carlo(cfg))
    monkeypatch.setattr(walker, "running_norm", lambda norm, x, floor, exact: hom_norm(norm, x))
    want = monte_carlo(cfg)
    for run in runs:
        for name in ("running_max", "y_norm", "layer_euclid", "q_index", "final_y"):
            assert getattr(run, name).tobytes() == getattr(want, name).tobytes(), name


def test_polygon_layer_is_skipped_on_most_rows(monkeypatch):
    """Checkpoint rows are always gauged; between them the bound clears most
    rows of engel5's walk without the 4 100-facet polygon."""
    rows = []
    real = norms._polygon_gauge
    monkeypatch.setattr(norms, "_polygon_gauge", lambda angles, facets, coords:
                        rows.append(len(coords)) or real(angles, facets, coords))
    setup = with_defaults(build_walk_setup, "engel5-srw")
    reps, n = 256, 64
    monte_carlo(with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=n,
                              checkpoints=(32, n), replications=reps, seed=2))
    assert 2 * reps <= sum(rows) < n * reps // 4


@pytest.mark.parametrize("block", [128, 7, 1])
def test_walker_draws_each_replicates_own_substream(monkeypatch, block):
    """Two chunks, 300 steps: every step's uniforms are the replicate's substream."""
    drawn = []
    real = AliasSampler.sample
    monkeypatch.setattr(AliasSampler, "sample", lambda self, u: drawn.append(u.copy())
                        or real(self, u))
    monkeypatch.setattr(walker, "RNG_BLOCK_STEPS", block)
    monte_carlo(small_cfg(with_defaults(build_walk_setup, "r2-c4"), 300, 1100, seed=5))
    per_chunk = sampling_blocks(300, block)
    assert len(drawn) == 2 * per_chunk  # one call per step block and chunk
    # each call holds a (rows, <= STEP_BLOCK, 2) block; stitch them along the steps
    u = np.concatenate([np.concatenate(drawn[:per_chunk], axis=1),
                        np.concatenate(drawn[per_chunk:], axis=1)])
    for rep in range(1100):
        assert np.array_equal(u[rep], substream(5, STREAM_WALK, rep).random((300, 2))), rep


def test_substream_blocks_start_at_any_offset():
    paths = [(STREAM_WALK, rep) for rep in (0, 3, 1 << 40)]
    whole = [substream(2, *p).random((300, 2)) for p in paths]
    for block in (7, 256):
        starts = []
        for start, u in substream_blocks(2, paths, 300, block):
            starts.append(start)
            assert u.shape == (3, min(block, 300 - start), 2)
            for row, ref in zip(u, whole):
                assert np.array_equal(row, ref[start:start + block])
        assert starts == list(range(0, 300, block))  # 0, 7, 14, ... and 0, 256


@pytest.mark.parametrize("seed", [0, 5, (1 << 64) + 7])
def test_stream_keys_match_python_integer_route(seed):
    """The vectorised splitmix64 gives each path the key that folding Python
    integers part by part gives, bit for bit."""
    paths = [(STREAM_WALK, rep) for rep in range(300)] + [
        (0, 0), (0, (1 << 63) - 1), ((1 << 63) - 1, 0), (STREAM_SCAN, 1 << 40)]
    word, mixes = rng._keys(seed, paths)
    assert [(word, int(mix)) for mix in mixes] == [philox_key(seed, p) for p in paths]
    assert rng._keys(seed, [()])[1].tolist() == [philox_key(seed, ())[1]]
    for path in paths[-4:]:
        key = np.array(philox_key(seed, path), dtype=np.uint64)
        assert np.array_equal(substream(seed, *path).random(4),
                              np.random.Generator(np.random.Philox(key=key)).random(4))


def test_substream_blocks_fill_one_buffer():
    """Each block overwrites the last in place, so a walk holds one draw block."""
    paths = [(STREAM_WALK, rep) for rep in range(3)]
    blocks = [u for _, u in substream_blocks(2, paths, 20, 8)]  # 8, 8 and 4 steps
    assert [u.shape[1] for u in blocks] == [8, 8, 4]
    assert all(np.shares_memory(u, blocks[0]) for u in blocks[1:])


def test_walk_builds_one_philox_per_chunk(monkeypatch):
    """Substreams are re-keyed, not rebuilt per replicate."""
    cfg = small_cfg(with_defaults(build_walk_setup, "r2-c4"), 4, 3000)
    built = []
    real = rng.Philox
    monkeypatch.setattr(rng, "Philox", lambda *a, **kw: built.append(a) or real(*a, **kw))
    monte_carlo(cfg)
    assert 0 < len(built) <= -(-3000 // walker.REPLICATE_CHUNK)


def assert_same_samples(runs):
    for other in runs[1:]:
        for name in ("running_max", "y_norm", "layer_euclid", "q_index", "final_y",
                     "cross_residual"):
            assert np.array_equal(getattr(runs[0], name), getattr(other, name))


def test_sample_matrix_helpers():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    cfg = with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=16,
                        checkpoints=(4, 16), replications=5, seed=0)
    res = monte_carlo(cfg)
    assert res.replications == 5

