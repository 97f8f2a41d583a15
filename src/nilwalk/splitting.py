"""Euclidean isometry lifts of a finite group and their defect functionals.

A lift assigns to every element f of a finite orthogonal group F an
isometry x -> rho(f) x + u_f whose rotation part is the representation
of f.  Two functionals measure how far the lift is from an honest
section of F:

  * delta      least possible sum of squared distances from a single
               point to all the fixed-point sets
  * big_delta  worst squared translation defect over the composition
               relators f1 f2 (f1 f2)^{-1}

delta vanishes exactly on lifts with a common fixed point; big_delta
vanishes exactly on sections.  delta_ratio_scan estimates, by sampling
lifts normalized to delta = 1, an empirical upper estimate of the infimum
of big_delta / delta over all lifts whose elements each fix something.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import STREAM_SCAN, substream
from .semidirect import FiniteActionGroup, finite_group

ORTHO_TOL = 1e-10
FIX_TOL = 1e-9
SCAN_CHUNK = 512
SECTION_DELTA_TOL = 1e-12


@dataclass(frozen=True)
class IsometryElement:
    """Affine isometry x -> rotation @ x + translation."""

    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.translation, dtype=float))
        a = np.ascontiguousarray(np.asarray(self.rotation, dtype=float))
        if a.shape != (u.size, u.size):
            raise ValueError("rotation shape does not match translation")
        if np.max(np.abs(a @ a.T - np.eye(u.size))) > ORTHO_TOL:
            raise ValueError("rotation part is not orthogonal")
        object.__setattr__(self, "translation", u)
        object.__setattr__(self, "rotation", a)

    @property
    def dim(self) -> int:
        return self.translation.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.rotation.T + self.translation

    def compose(self, other: "IsometryElement") -> "IsometryElement":
        return IsometryElement(self.rotation @ other.translation + self.translation,
                               self.rotation @ other.rotation)

    def inverse(self) -> "IsometryElement":
        return IsometryElement(-self.rotation.T @ self.translation, self.rotation.T)

    def power(self, m: int) -> "IsometryElement":
        out = identity_isometry(self.dim)
        for _ in range(m):
            out = out.compose(self)
        return out


def identity_isometry(dim: int) -> IsometryElement:
    return IsometryElement(np.zeros(dim), np.eye(dim))


@dataclass(frozen=True)
class FixedSet:
    """Affine subspace {point + span(directions)}; empty when point is None."""

    point: np.ndarray | None
    directions: np.ndarray   # (k, d) orthonormal rows, possibly k = 0

    @property
    def empty(self) -> bool:
        return self.point is None

    def distance(self, x: np.ndarray) -> float:
        if self.point is None:
            raise ValueError("empty fixed-point set has no distances")
        r = np.asarray(x, dtype=float) - self.point
        return float(np.linalg.norm(r - (r @ self.directions.T) @ self.directions))


def fix_set(g: IsometryElement) -> FixedSet:
    """Fixed points of g as an affine set, solving (A - I)x = -u.

    The system is solved in least squares; inconsistency (residual above
    tolerance relative to the translation size) means no fixed points.
    Direction space is the kernel of A - I.
    """
    d = g.dim
    m = g.rotation - np.eye(d)
    x, _, _, sv = np.linalg.lstsq(m, -g.translation, rcond=None)
    scale = max(float(np.linalg.norm(g.translation)), 1.0)
    if np.linalg.norm(m @ x + g.translation) > FIX_TOL * scale:
        return FixedSet(point=None, directions=np.zeros((0, d)))
    # kernel of A - I from the SVD of m
    _, s_svd, vt = np.linalg.svd(m)
    tol = max(s_svd[0], 1.0) * 1e-12
    return FixedSet(point=x, directions=vt[s_svd <= tol].reshape(-1, d))


def fix_decompose(g: IsometryElement, order: int) -> tuple[np.ndarray, IsometryElement]:
    """Split g = tau . g_prime with tau a translation and g_prime fixing a point.

    tau is the translation part of g^order divided by order; the rotation
    part of g must have order dividing `order`.
    """
    gm = g.power(order)
    if np.max(np.abs(gm.rotation - np.eye(g.dim))) > FIX_TOL:
        raise ValueError("rotation order does not divide the group order")
    tau = gm.translation / order
    g_prime = IsometryElement(g.translation - tau, g.rotation)
    if fix_set(g_prime).empty:
        raise ValueError("decomposition failed: residual part has no fixed point")
    comm = g.rotation @ tau - tau
    if np.linalg.norm(comm) > FIX_TOL:
        raise ValueError("translation part does not commute with the residual")
    return tau, g_prime


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

    def element(self, f: int) -> IsometryElement:
        return IsometryElement(self.translations[f], self.group.matrices[f])

    def elements(self) -> list[IsometryElement]:
        return [self.element(f) for f in range(self.group.order)]

    @property
    def in_sigma(self) -> bool:
        return not any(fix_set(g).empty for g in self.elements())

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


def lift_from_json(doc: dict) -> Lift:
    mats = np.asarray(doc["representation"], dtype=float)
    return Lift(finite_group(mats), np.asarray(doc["translations"], dtype=float))


def delta(lift: Lift) -> tuple[float, np.ndarray]:
    """Least sum of squared distances to all fixed-point sets, with a minimizer.

    Each distance is ||(I - P_g)(x - p_g)|| with P_g the orthogonal
    projector onto the direction space of Fix(g); stacking the rows gives
    one least-squares problem in x.
    """
    d = lift.group.matrices.shape[1]
    rows, rhs = [], []
    for g in lift.elements():
        fx = fix_set(g)
        if fx.empty:
            raise ValueError("lift is not in Sigma: an element has no fixed point")
        proj = np.eye(d) - fx.directions.T @ fx.directions
        rows.append(proj)
        rhs.append(proj @ fx.point)
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    val = float(np.sum((a @ x - b) ** 2))
    return val, x


def big_delta(lift: Lift) -> float:
    """Worst squared translation defect over all products f1 f2 (f1 f2)^{-1}."""
    group = lift.group
    mats = group.matrices
    trans = lift.translations
    worst = 0.0
    for f1 in range(group.order):
        g3 = group.table[f1]                      # indices of f1 f2
        # translation of lift(f1) lift(f2): u1 + A1 u2, all f2 at once
        prod_t = trans[f1][None, :] + trans @ mats[f1].T
        inv3 = group.inverse[g3]
        for f2 in range(group.order):
            a12 = mats[f1] @ mats[f2]
            k = inv3[f2]
            full_rot = a12 @ mats[k]
            if np.max(np.abs(full_rot - np.eye(mats.shape[1]))) > ORTHO_TOL:
                raise ValueError("corrupt lift: relator rotation is not the identity")
            defect = prod_t[f2] + a12 @ trans[k]
            worst = max(worst, float(defect @ defect))
    return worst


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


def _normalize_lift(group: FiniteActionGroup, raw: np.ndarray):
    """Project translations into range(A_f - I), centre the minimizer, set delta = 1."""
    d = group.matrices.shape[1]
    trans = np.empty_like(raw)
    for f in range(group.order):
        m = group.matrices[f] - np.eye(d)
        u_svd, s_svd, vt = np.linalg.svd(m)
        rank = int(np.sum(s_svd > max(s_svd[0], 1.0) * 1e-12)) if s_svd.size else 0
        basis = u_svd[:, :rank]
        trans[f] = basis @ (basis.T @ raw[f])
    lift = Lift(group, trans)
    val, x_star = delta(lift)
    if val <= SECTION_DELTA_TOL:
        return None
    lift = lift.conjugate_by_translation(-x_star).scale(1.0 / np.sqrt(val))
    return lift, val


def _scan_chunk(group: FiniteActionGroup, seed: int, chunk: int, count: int):
    rng = substream(seed, STREAM_SCAN, chunk)
    d = group.matrices.shape[1]
    draws = rng.normal(size=(count, group.order, d))
    deltas, ratios, lifts = [], [], []
    skipped = 0
    for r in range(count):
        norm = _normalize_lift(group, draws[r])
        if norm is None:
            skipped += 1
            continue
        lift, val = norm
        deltas.append(val)
        ratios.append(big_delta(lift))
        lifts.append(lift)
    return deltas, ratios, lifts, skipped


def delta_ratio_scan(group: FiniteActionGroup, replications: int,
                     seed: int) -> ScanResult:
    """Sample lifts with delta = 1 and report the smallest observed big_delta.

    Translations are drawn standard normal, projected so every element
    keeps a fixed point, conjugated so the delta minimizer sits at the
    origin, and rescaled to delta = 1; big_delta of the result equals the
    ratio of the two functionals.  The minimum over the sample is an
    empirical upper estimate of the true infimum (more samples can only
    lower it), never a certificate.
    """
    results = [_scan_chunk(group, seed, i, min(SCAN_CHUNK, replications - lo))
               for i, lo in enumerate(range(0, replications, SCAN_CHUNK))]
    deltas = np.array([v for res in results for v in res[0]])
    ratios = np.array([v for res in results for v in res[1]])
    lifts = [lf for res in results for lf in res[2]]
    skipped = sum(res[3] for res in results)
    if ratios.size == 0:
        raise ValueError("no Sigma members sampled: the action admits only sections")
    best = int(np.argmin(ratios))
    hist = np.histogram(ratios, bins=50)
    return ScanResult(c_hat=float(ratios[best]), ratios=ratios,
                      deltas_raw=deltas, kept=int(ratios.size), skipped=skipped,
                      argmin_lift=lifts[best], histogram=hist)
