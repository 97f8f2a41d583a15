"""Random walk simulation with drift recentring and running maxima.

The walk w_n multiplies i.i.d. increments (xi, kappa) in the semidirect
product.  What gets measured is the recentred nilpotent part

    y_n = z_n * (-n v),

v the invariant drift of the step law.  Rather than recomputing that
product each step, the engine uses the algebraic identity

    y_n = y_{n-1} * C_{n-1}(Ad(q_{n-1}) zeta_n),      zeta = xi * (-v),

where C_m is conjugation by m v.  On the Lie algebra C_m is the matrix
exponential of ad_{m v}, a polynomial in m because ad_v is nilpotent, so
each step costs a single BCH product.  A cross-check mode also tracks z_n
and verifies the direct recentring at every checkpoint.

monte_carlo is the one entry point.  Replicates advance in lockstep as
numpy batches, one fixed-size chunk of replicates at a time.  Each
replicate draws from its own counter-based substream keyed by (seed,
replicate), so results are bit-identical for any chunk size, and one
replicate's atom choices can be redrawn from that substream alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import layer_components
from .bch import bch
from .norms import HomogeneousNorm, hom_norm
from .errors import ResourceCeilingError
from .rng import STREAM_WALK, AliasSampler, substream
from .semidirect import StepDistribution

RNG_BLOCK_STEPS = 256
REPLICATE_CHUNK = 512
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
    cross_check: bool = False
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
    cross_residual: float | None = None

    @property
    def replications(self) -> int:
        return self.running_max.shape[0]

    def column(self, n: int) -> int:
        return self.checkpoints.index(n)


def recentre(dist: StepDistribution, z: np.ndarray, n: int) -> np.ndarray:
    """y_n = z_n * (-n v_mu), the drift-removed position."""
    return bch(dist.alg, z, -float(n) * dist.v_mu)


def _ad_power_series(dist: StepDistribution) -> list[np.ndarray]:
    """Matrices ad_v^k / k! for k = 0 .. step-1 (exact conjugation by m v)."""
    alg = dist.alg
    ad_v = alg.ad(dist.v_mu)
    mats = [np.eye(alg.dim)]
    for k in range(1, alg.step):
        mats.append(mats[-1] @ ad_v / k)
    return mats


def _run_chunk(cfg: WalkConfig, rep_ids: np.ndarray) -> dict:
    dist = cfg.dist
    alg = dist.alg
    d = alg.dim
    r = len(rep_ids)
    k_cp = len(cfg.checkpoints)
    cp_set = {n: i for i, n in enumerate(cfg.checkpoints)}

    sampler = AliasSampler(dist.probs)
    drifted = bool(np.linalg.norm(dist.v_mu) > 0)
    zetas = np.stack([bch(alg, xi, -dist.v_mu) for xi in dist.xis]) if drifted \
        else dist.xis
    ad_pows = _ad_power_series(dist) if drifted else None
    q_trivial = dist.q.order == 1
    mats = dist.q.matrices
    table = dist.q.table

    y = np.zeros((r, d))
    z = np.zeros((r, d)) if cfg.cross_check else None
    qidx = np.full(r, dist.q.identity, dtype=np.int64)
    run_max = np.zeros(r)

    out_max = np.zeros((r, k_cp))
    out_norm = np.zeros((r, k_cp))
    out_layers = np.zeros((r, k_cp, len(cfg.norm.filtration.layers)))
    out_q = np.zeros((r, k_cp), dtype=np.int64)
    cross_resid = 0.0

    gens = [substream(cfg.seed, STREAM_WALK, int(rep)) for rep in rep_ids]
    step = 0
    while step < cfg.n_steps:
        block = min(RNG_BLOCK_STEPS, cfg.n_steps - step)
        u = np.stack([g.random((block, 2)) for g in gens])  # (r, block, 2)
        for j in range(block):
            n = step + j + 1
            aidx = sampler.sample(u[:, j, :])
            zeta = zetas[aidx]                       # (r, d)
            if not q_trivial:
                inc = np.einsum("rij,rj->ri", mats[qidx], zeta)
            else:
                inc = zeta
            if drifted:
                m = float(n - 1)
                conj = inc.copy()
                scale = 1.0
                for p in range(1, len(ad_pows)):
                    scale *= m
                    conj += scale * (inc @ ad_pows[p].T)
                inc = conj
            y = bch(alg, y, inc)
            if cfg.cross_check:
                raw = dist.xis[aidx]
                zinc = raw if q_trivial else np.einsum("rij,rj->ri", mats[qidx], raw)
                z = bch(alg, z, zinc)
            if not q_trivial:
                qidx = table[qidx, dist.kappas[aidx]]
            val = hom_norm(cfg.norm, y)
            run_max = np.maximum(run_max, val)
            if n in cp_set:
                col = cp_set[n]
                out_max[:, col] = run_max
                out_norm[:, col] = val
                comps = layer_components(cfg.norm.filtration, y)
                for li, c in enumerate(comps):
                    out_layers[:, col, li] = np.linalg.norm(c, axis=-1) if c.shape[-1] else 0.0
                out_q[:, col] = qidx
                if cfg.cross_check:
                    direct = recentre(dist, z, n)
                    cross_resid = max(cross_resid,
                                      float(np.max(np.abs(direct - y))))
        step += block

    return {"max": out_max, "norm": out_norm, "layers": out_layers,
            "q": out_q, "final_y": y,
            "cross": cross_resid if cfg.cross_check else None}


def monte_carlo(cfg: WalkConfig) -> SampleMatrix:
    """Run all replicates, REPLICATE_CHUNK at a time; byte-stable for any chunk size."""
    results = [_run_chunk(cfg, np.arange(lo, min(lo + REPLICATE_CHUNK, cfg.replications)))
               for lo in range(0, cfg.replications, REPLICATE_CHUNK)]
    return SampleMatrix(
        checkpoints=cfg.checkpoints,
        running_max=np.concatenate([res["max"] for res in results]),
        y_norm=np.concatenate([res["norm"] for res in results]),
        layer_euclid=np.concatenate([res["layers"] for res in results]),
        q_index=np.concatenate([res["q"] for res in results]),
        final_y=np.concatenate([np.atleast_2d(res["final_y"]) for res in results]),
        cross_residual=(max(res["cross"] for res in results)
                        if cfg.cross_check else None),
    )
