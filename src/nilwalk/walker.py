"""Random walk simulation with drift recentring and running maxima.

The walk w_n multiplies i.i.d. increments (xi, kappa) in the semidirect
product.  What gets measured is the recentred nilpotent part

    y_n = z_n * (-n v),

v the invariant drift of the step law.  Rather than recomputing that
product each step, the engine uses the algebraic identity

    y_n = y_{n-1} * C_{n-1}(Ad(q_{n-1}) zeta_n),      zeta = xi * (-v),

where C_m is conjugation by m v.  On the Lie algebra C_m is the matrix
exponential of ad_{m v}, a polynomial in m because ad_v is nilpotent.  Its
terms applied to Ad(q) zeta depend only on the twist q and the atom, so they
are tabulated once per walk and each step costs lookups and one BCH product.
A cross-check mode also tracks z_n and verifies the direct recentring at
every checkpoint.

monte_carlo is the one entry point.  Replicates advance in lockstep as
numpy batches, one fixed-size chunk of replicates at a time.  Each
replicate draws from its own counter-based substream, key (seed, path
(STREAM_WALK, replicate)) and counter = draw offset / 4; a chunk reads its
replicates' streams block by block through one re-keyed Philox.  Every
product rounds row by row (einsum, not a BLAS @; or, on the presets'
sparse tensors and unit-vector layer bases, elementwise column arithmetic,
see nilwalk.algebra), so results are bit-identical for any chunk or block
size, and one replicate's atom choices can be redrawn from
substream(seed, STREAM_WALK, replicate) alone.

Only the recursion runs step by step: atom -> increment -> BCH product ->
twist, plus the checkpoint's layer norms, twist and cross-check.  The atom
draws and the gauge run once per block of STEP_BLOCK steps, on the block's
uniforms and on its stacked positions; gauge rows round alone, so the
running maxima hold the bytes a step-by-step gauge gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import layer_components
from .bch import bch
from .norms import HomogeneousNorm, hom_norm
from .errors import ResourceCeilingError
from .rng import STREAM_WALK, AliasSampler, substream_blocks
from .semidirect import StepDistribution

# A walk of R <= 1 024 replicates runs as one chunk, so each step's Python work
# is paid once; a chunk's draw block, rows x steps x 2 doubles, stays 2 MiB.
RNG_BLOCK_STEPS = 128
# Steps whose atoms are drawn, and whose positions are gauged, in one call;
# 16 walked no faster and held 0.9 MiB more.
STEP_BLOCK = 8
REPLICATE_CHUNK = 1024
DEFAULT_MAX_WORK = 2 ** 34


# The engine runs in one thread; kept for callers that report a worker count.
def thread_cap() -> int:
    return 1


@dataclass(frozen=True)
class WalkConfig:
    dist: StepDistribution
    norm: HomogeneousNorm
    n_steps: int
    checkpoints: tuple[int, ...]
    replications: int
    seed: int
    cross_check: bool
    max_work: int = DEFAULT_MAX_WORK

    def __post_init__(self):
        cps = tuple(sorted(set(int(c) for c in self.checkpoints)))
        if not cps:
            raise ValueError("need at least one checkpoint")
        if cps[0] < 1 or cps[-1] != self.n_steps:
            raise ValueError("checkpoints must lie in [1, n_steps] and include n_steps")
        object.__setattr__(self, "checkpoints", cps)
        if self.n_steps * self.replications > self.max_work:
            raise ResourceCeilingError(
                f"requested {self.n_steps} steps x {self.replications} replicates "
                f"exceeds the work ceiling {self.max_work}")


@dataclass
class SampleMatrix:
    """Checkpointed Monte Carlo output; rows are replicates."""

    checkpoints: tuple[int, ...]
    running_max: np.ndarray        # (R, K) running max of |y_k|
    y_norm: np.ndarray             # (R, K) |y_n| at the checkpoint
    layer_euclid: np.ndarray       # (R, K, L) euclidean layer components of y_n
    q_index: np.ndarray            # (R, K) twist position
    final_y: np.ndarray            # (R, d)
    cross_residual: float | None   # None unless the run cross-checks

    @property
    def replications(self) -> int:
        return self.running_max.shape[0]


def recentre(dist: StepDistribution, z: np.ndarray, n: int) -> np.ndarray:
    """y_n = z_n * (-n v_mu), the drift-removed position."""
    return bch(dist.alg, z, -float(n) * dist.v_mu)


def _step_tables(dist: StepDistribution):
    """Per-walk lookup tables with one row g = q * m + a per twist q and atom a.

    Returns the atom sampler; walked[g] = Ad(q) zeta_a; drifts[p-1][g] =
    ad_v^p / p! walked[g] for p = 1 .. step-1 (none for a centred law), so that
    C_m walked[g] = walked[g] + sum_p m^p drifts[p-1][g]; raw[g] = Ad(q) xi_a,
    the cross-check's increment; and next_q[g], the twist after the step.
    """
    alg, q = dist.alg, dist.q
    drifted = np.any(dist.v_mu)
    zetas = np.stack([bch(alg, xi, -dist.v_mu) for xi in dist.xis]) if drifted else dist.xis
    twist = np.repeat(q.matrices, len(dist.xis), axis=0)  # (k m, d, d)
    walked = np.einsum("rij,rj->ri", twist, np.tile(zetas, (q.order, 1)))
    raw = np.einsum("rij,rj->ri", twist, np.tile(dist.xis, (q.order, 1)))
    ad_v, power, drifts = alg.ad(dist.v_mu), np.eye(alg.dim), []
    for p in range(1, alg.step if drifted else 1):
        power = power @ ad_v / p
        drifts.append(np.einsum("rj,ij->ri", walked, power))
    return AliasSampler(dist.probs), walked, drifts, raw, q.table[:, dist.kappas].ravel()


def _run_chunk(cfg: WalkConfig, tables, out: SampleMatrix, lo: int, hi: int) -> None:
    """Walk replicates lo .. hi-1 and write their rows of out."""
    dist = cfg.dist
    sampler, walked, drifts, raw, next_q = tables
    m = len(dist.xis)
    r = hi - lo
    cp_set = {n: i for i, n in enumerate(cfg.checkpoints)}

    y = np.zeros((r, dist.alg.dim))
    z = np.zeros((r, dist.alg.dim))
    qidx = np.full(r, dist.q.identity, dtype=np.int64)
    run_max = np.zeros(r)
    ys = np.empty((STEP_BLOCK, r, dist.alg.dim))  # a block's positions, gauged at once

    paths = [(STREAM_WALK, rep) for rep in range(lo, hi)]
    for step, u in substream_blocks(cfg.seed, paths, cfg.n_steps, RNG_BLOCK_STEPS):
        for b0 in range(0, u.shape[1], STEP_BLOCK):
            atoms = sampler.sample(u[:, b0:b0 + STEP_BLOCK, :])
            first = step + b0 + 1
            # step by step: the recursion, and the checkpoint records that read
            # this step's y, twist or z
            for j in range(atoms.shape[1]):
                n = first + j
                g = qidx * m + atoms[:, j]
                # take gathers rows several times faster than walked[g]
                inc = walked.take(g, axis=0)
                scale = 1.0
                for drift in drifts:
                    scale *= n - 1
                    inc += scale * drift.take(g, axis=0)
                y = bch(dist.alg, y, inc)
                ys[j] = y
                if cfg.cross_check:
                    z = bch(dist.alg, z, raw.take(g, axis=0))
                qidx = next_q[g]
                if n in cp_set:
                    col = cp_set[n]
                    for li, c in enumerate(layer_components(cfg.norm.filtration, y)):
                        out.layer_euclid[lo:hi, col, li] = np.linalg.norm(c, axis=-1)
                    out.q_index[lo:hi, col] = qidx
                    if cfg.cross_check:
                        direct = recentre(dist, z, n)
                        out.cross_residual = max(out.cross_residual,
                                                 float(np.max(np.abs(direct - y))))
            vals = hom_norm(cfg.norm, ys[:atoms.shape[1]])
            for j, val in enumerate(vals):
                run_max = np.maximum(run_max, val)
                if first + j in cp_set:
                    col = cp_set[first + j]
                    out.running_max[lo:hi, col] = run_max
                    out.y_norm[lo:hi, col] = val
    out.final_y[lo:hi] = y


def monte_carlo(cfg: WalkConfig) -> SampleMatrix:
    """Run all replicates, REPLICATE_CHUNK at a time; byte-stable for any chunk size."""
    r, k = cfg.replications, len(cfg.checkpoints)
    out = SampleMatrix(
        checkpoints=cfg.checkpoints,
        running_max=np.zeros((r, k)),
        y_norm=np.zeros((r, k)),
        layer_euclid=np.zeros((r, k, len(cfg.norm.filtration.layers))),
        q_index=np.zeros((r, k), dtype=np.int64),
        final_y=np.zeros((r, cfg.dist.alg.dim)),
        cross_residual=0.0 if cfg.cross_check else None,
    )
    tables = _step_tables(cfg.dist)
    for lo in range(0, r, REPLICATE_CHUNK):
        _run_chunk(cfg, tables, out, lo, min(lo + REPLICATE_CHUNK, r))
    return out
