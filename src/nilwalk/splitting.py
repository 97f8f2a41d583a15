"""Euclidean isometry lifts of a finite group and their defect functionals.

A lift assigns to every element f of a finite orthogonal group F an
isometry x -> A_f x + u_f whose rotation part A_f is the representation
of f.  Two functionals measure how far the lift is from an honest
section of F:

  * delta      least possible sum of squared distances from a single
               point to all the fixed-point sets
  * big_delta  worst squared translation defect over the composition
               relators f1 f2 (f1 f2)^{-1}

delta vanishes exactly on lifts with a common fixed point; big_delta
vanishes exactly on sections.  Both are fixed linear algebra in the
stacked translations u = (u_f), built once per group by _lift_maps:
delta(u) = |R u|^2 is a least-squares residual and big_delta(u) =
max_k |D_k u|^2 over the relators k, so no fixed-point set is ever
built.  delta and big_delta score one Lift; delta_ratio_scan estimates,
by sampling lifts, an empirical upper estimate of the infimum of
big_delta / delta over all lifts whose elements each fix something, and
Lift.to_json writes the minimizing lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import STREAM_SCAN, substream
from .semidirect import FiniteActionGroup

ORTHO_TOL = 1e-10
FIX_TOL = 1e-9
SCAN_CHUNK = 512
SECTION_DELTA_TOL = 1e-12


@dataclass(frozen=True)
class Lift:
    """Assignment f -> isometry with rotation part rho(f), as translation rows."""

    group: FiniteActionGroup
    translations: np.ndarray   # (|F|, d)

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.translations, dtype=float))
        if t.shape != (self.group.order, self.group.matrices.shape[1]):
            raise ValueError("translations must be one row per group element")
        object.__setattr__(self, "translations", t)

    def conjugate_by_translation(self, z: np.ndarray) -> "Lift":
        """Conjugating by x -> x + z shifts each translation by (I - A)z."""
        z = np.asarray(z, dtype=float)
        shift = z[None, :] - np.einsum("fij,j->fi", self.group.matrices, z)
        return Lift(self.group, self.translations + shift)

    def scale(self, lam: float) -> "Lift":
        return Lift(self.group, self.translations * lam)

    def to_json(self) -> dict:
        return {
            "representation": [m.tolist() for m in self.group.matrices],
            "table": self.group.table.tolist(),
            "translations": self.translations.tolist(),
        }


@dataclass(frozen=True)
class _LiftMaps:
    """Fixed linear maps of a group's stacked translations u, (|F|, d) flattened."""

    proj: np.ndarray     # (|F| d, |F| d) block diagonal: u_f onto range(A_f - I)
    resid: np.ndarray    # (|F| d, |F| d): delta = |resid u|^2 on Sigma
    centre: np.ndarray   # (d, |F| d): minimum-norm delta minimizer x* = centre u
    defect: np.ndarray   # (|F|^2 d, |F| d): relator translations, d rows per (f1, f2)

    def functionals(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(delta, big_delta) of stacked translations u of shape (..., |F| d) in Sigma."""
        r = u @ self.resid.T
        e = (u @ self.defect.T).reshape(u.shape[:-1] + (-1, self.centre.shape[0]))
        return np.sum(r * r, axis=-1), np.max(np.sum(e * e, axis=-1), axis=-1)


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """The (k d, k d) block-diagonal matrix of k blocks of shape (d, d)."""
    k, d, _ = np.shape(blocks)
    out = np.zeros((k, d, k, d))
    out[np.arange(k), :, np.arange(k)] = blocks
    return out.reshape(k * d, k * d)


def _lift_maps(group: FiniteActionGroup) -> _LiftMaps:
    """Build _LiftMaps; raises ValueError if a relator rotation is not the identity.

    With M_f = A_f - I and u_f in its range, Fix(f) is at distance
    |P_f x + M_f^+ u_f| from x, P_f the projector onto the row space of M_f.
    """
    mats = group.matrices
    k, d = mats.shape[0], mats.shape[1]
    proj, rows, rhs = [], [], []
    for m in mats - np.eye(d):
        col, s, row = np.linalg.svd(m)
        r = int(np.sum(s > np.max(s, initial=1.0) * 1e-12))
        col, s, row = col[:, :r], s[:r], row[:r]
        proj.append(col @ col.T)
        rows.append(row.T @ row)
        rhs.append(-(row.T / s) @ col.T)
    rows, rhs = np.vstack(rows), _block_diag(rhs)
    centre = np.linalg.lstsq(rows, rhs, rcond=None)[0]

    inv_prod = group.inverse[group.table]       # (f1, f2) -> (f1 f2)^{-1}
    a12 = mats[:, None] @ mats[None, :]
    if np.max(np.abs(a12 @ mats[inv_prod] - np.eye(d))) > ORTHO_TOL:
        raise ValueError("corrupt lift: relator rotation is not the identity")
    # relator translation u_f1 + A_f1 u_f2 + A_f1 A_f2 u_(f1 f2)^{-1}, per unit u
    e = np.eye(k * d).reshape(k * d, k, d)
    rel = (e[:, :, None] + np.einsum("aij,ncj->naci", mats, e)
           + np.einsum("acij,nacj->naci", a12, e[:, inv_prod]))
    return _LiftMaps(proj=_block_diag(proj), resid=rows @ centre - rhs, centre=centre,
                     defect=rel.reshape(k * d, -1).T)


def delta(lift: Lift) -> tuple[float, np.ndarray]:
    """Least sum of squared distances to all fixed-point sets, with a minimizer.

    Raises ValueError unless every element has a fixed point: each u_f
    must lie in range(A_f - I), its distance from that range at most
    FIX_TOL * max(|u_f|, 1).
    """
    maps = _lift_maps(lift.group)
    t = lift.translations
    u = t.ravel()
    off = np.linalg.norm((u - maps.proj @ u).reshape(t.shape), axis=1)
    if np.any(off > FIX_TOL * np.maximum(np.linalg.norm(t, axis=1), 1.0)):
        raise ValueError("lift is not in Sigma: an element has no fixed point")
    return float(maps.functionals(u)[0]), maps.centre @ u


def big_delta(lift: Lift) -> float:
    """Worst squared translation defect over all products f1 f2 (f1 f2)^{-1}."""
    return float(_lift_maps(lift.group).functionals(lift.translations.ravel())[1])


@dataclass(frozen=True)
class ScanResult:
    c_hat: float
    ratios: np.ndarray          # big_delta per kept replicate (delta normalized to 1)
    deltas_raw: np.ndarray      # delta before normalization
    kept: int
    skipped: int                # near-section draws that cannot be normalized
    argmin_lift: Lift
    histogram: tuple[np.ndarray, np.ndarray]

    @property
    def rows(self) -> np.ndarray:
        """(replicate, delta_raw, Delta, ratio) rows for the kept replicates."""
        idx = np.arange(self.kept, dtype=float)
        return np.column_stack([idx, self.deltas_raw, self.ratios, self.ratios])


def _scan_chunk(maps: _LiftMaps, seed: int, chunk: int, count: int):
    """One chunk of draws projected into Sigma, with their delta and big_delta."""
    rng = substream(seed, STREAM_SCAN, chunk)
    u = rng.normal(size=(count, maps.proj.shape[0])) @ maps.proj.T
    return (u,) + maps.functionals(u)


def delta_ratio_scan(group: FiniteActionGroup, replications: int,
                     seed: int) -> ScanResult:
    """Sample lifts and report the smallest observed big_delta / delta.

    Translations are drawn standard normal and projected so every element
    keeps a fixed point; near sections (delta <= SECTION_DELTA_TOL) are
    skipped.  Each ratio is big_delta of the draw centred on its delta
    minimizer and rescaled to delta = 1, the form of the returned argmin
    lift.  The minimum is an empirical upper estimate of the true infimum
    (more samples can only lower it), never a certificate.
    """
    maps = _lift_maps(group)
    chunks = [_scan_chunk(maps, seed, i, min(SCAN_CHUNK, replications - lo))
              for i, lo in enumerate(range(0, replications, SCAN_CHUNK))]
    u, deltas, worst = (np.concatenate(parts) for parts in zip(*chunks))
    keep = deltas > SECTION_DELTA_TOL
    u, deltas = u[keep], deltas[keep]
    ratios = worst[keep] / deltas
    if ratios.size == 0:
        raise ValueError("no Sigma members sampled: the action admits only sections")
    best = int(np.argmin(ratios))
    argmin_lift = Lift(group, u[best].reshape(group.order, -1)).conjugate_by_translation(
        -(maps.centre @ u[best])).scale(1.0 / np.sqrt(deltas[best]))
    return ScanResult(c_hat=float(ratios[best]), ratios=ratios,
                      deltas_raw=deltas, kept=int(ratios.size),
                      skipped=replications - int(ratios.size),
                      argmin_lift=argmin_lift, histogram=np.histogram(ratios, bins=50))
