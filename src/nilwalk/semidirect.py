"""Semidirect products of a nilpotent group with a finite orthogonal group.

Elements are pairs (xi, kappa): xi in log coordinates on the nilpotent
factor, kappa an index into a finite group Q of orthogonal Lie algebra
automorphisms.  Products twist the nilpotent part:

    (xi1, k1) (xi2, k2) = (xi1 * Ad(k1) xi2,  k1 k2)

with * the BCH product; the walk module multiplies.  This module holds
the twist group Q and the step distribution: a finite atomic measure on
such pairs, read from JSON by distribution_from_json.  q_validate raises
NumericalValidationError, naming each residual, unless Q acts by
orthogonal automorphisms.  A law's derived data (drift split, spectral
constant, centering element) are computed eagerly at construction, and
conjugate_distribution moves the law by the centering element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import groups
from .algebra import (NilpotentAlgebra, complement_within, lower_central_filtration,
                      orthonormal_basis, project_onto, scaled_norm)
from .bch import bch
from .errors import NumericalValidationError

Q_TOL = 1e-10
EIG_TOL = 1e-8


@dataclass(frozen=True)
class FiniteActionGroup:
    """Finite group of orthogonal automorphisms with its Cayley table."""

    matrices: np.ndarray          # (k, d, d)
    table: np.ndarray             # (k, k) indices
    identity: int
    inverse: np.ndarray           # (k,) indices

    @property
    def order(self) -> int:
        return self.matrices.shape[0]


def finite_group(mats: np.ndarray) -> FiniteActionGroup:
    mats = np.asarray(mats, dtype=float)
    table, identity, inverse = groups.cayley_from_matrices(mats)
    return FiniteActionGroup(matrices=mats, table=table, identity=identity,
                             inverse=inverse)


def q_validate(alg: NilpotentAlgebra, q: FiniteActionGroup) -> None:
    """Raise NumericalValidationError unless q acts by orthogonal automorphisms.

    Automorphism means Ad(k)[x, y] = [Ad(k) x, Ad(k) y] for every k.
    Closure needs no check here: finite_group refuses a matrix list that
    is not a closed group.  The message names each residual above Q_TOL.
    """
    mats = q.matrices
    ortho = float(max(np.max(np.abs(m.T @ m - np.eye(alg.dim))) for m in mats))
    c = alg.tensor
    auto = 0.0
    for m in mats:
        left = np.einsum("ijk,mk->ijm", c, m)
        right = np.einsum("ai,bj,abm->ijm", m, m, c)
        auto = max(auto, float(np.max(np.abs(left - right))))
    msgs = [f"{what} residual {res:.3e}" for what, res in
            (("orthogonality", ortho), ("automorphism", auto)) if res > Q_TOL]
    if msgs:
        raise NumericalValidationError("twist group fails validation: " + "; ".join(msgs))


# ---------------------------------------------------------------------------
# step distributions

@dataclass(frozen=True)
class StepDistribution:
    """Finite atomic step law on the semidirect product, with derived data.

    Construction splits the abelianized layer into V, the vectors fixed
    by the subgroup generated by supp(mu_q) (mu_q the marginal law on Q),
    and its orthocomplement W; the mean abelianized displacement splits
    into v_mu in V and w_mu in W.  Derived fields:
      radius          largest euclidean atom displacement
      abelianized_mean  mean displacement projected to the abelianized layer
      v_mu            invariant part of the mean abelianized displacement
      kappa_mu        smallest singular value of (I - Ad(mu_q)) on W;
                      None when W = {0} (nothing to contract)
      centering       element y of W solving (I - Ad(mu_q)) y = w_mu; the
                      conjugated law c_y mu has abelianized mean v_mu
    """

    alg: NilpotentAlgebra
    q: FiniteActionGroup
    probs: np.ndarray
    xis: np.ndarray               # (m, d)
    kappas: np.ndarray            # (m,) indices
    radius: float = field(init=False)
    abelianized_mean: np.ndarray = field(init=False)
    v_mu: np.ndarray = field(init=False)
    kappa_mu: float | None = field(init=False)
    centering: np.ndarray = field(init=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        xis = np.atleast_2d(np.asarray(self.xis, dtype=float))
        kappas = np.asarray(self.kappas, dtype=np.int64)
        if probs.ndim != 1 or len(probs) != len(xis) or len(probs) != len(kappas):
            raise ValueError("probs, xis, kappas must have matching lengths")
        if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(xis))):
            raise ValueError("atom probabilities and displacements must be finite")
        if np.any(probs < 0):
            raise ValueError("negative probability")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        if np.any(kappas < 0) or np.any(kappas >= self.q.order):
            raise ValueError("kappa index out of range")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "xis", xis)
        object.__setattr__(self, "kappas", kappas)
        object.__setattr__(self, "radius", float(np.max(scaled_norm(xis, axis=1))))
        mu_q = np.zeros(self.q.order)
        np.add.at(mu_q, kappas, probs)
        m1 = lower_central_filtration(self.alg).layers[0]
        v_b, w_b = invariant_split(m1, self.q, np.nonzero(mu_q > 0)[0])
        mean_ab = project_onto(m1, probs @ xis)
        object.__setattr__(self, "abelianized_mean", mean_ab)
        object.__setattr__(self, "v_mu", project_onto(v_b, mean_ab))
        w_mu = project_onto(w_b, mean_ab)

        if w_b.shape[0] == 0:
            object.__setattr__(self, "kappa_mu", None)
            object.__setattr__(self, "centering", np.zeros(self.alg.dim))
        else:
            # sum mu(k) (I - Ad(k)) equals I - Ad(mu_q) but avoids the
            # cancellation in 1 - sum, keeping clean values exact
            eye = np.eye(self.alg.dim)
            gap_ambient = np.einsum("k,kij->ij", mu_q,
                                    eye[None] - self.q.matrices)
            gap = w_b @ gap_ambient @ w_b.T
            sing = np.linalg.svd(gap, compute_uv=False)
            kappa_mu = float(sing[-1])
            object.__setattr__(self, "kappa_mu", kappa_mu)
            if kappa_mu <= EIG_TOL:
                raise ValueError(
                    "spectral gap on the moving subspace is numerically zero; "
                    "the invariant-vector tolerance may be mis-specified")
            y = np.linalg.solve(gap, w_b @ w_mu) @ w_b
            object.__setattr__(self, "centering", y)


def invariant_split(m1: np.ndarray, q: FiniteActionGroup,
                    support) -> tuple[np.ndarray, np.ndarray]:
    """Split the abelianized layer, orthonormal rows m1, into fixed vectors
    and their complement.

    Fixed means fixed by every support element, and so by every element
    of the subgroup they generate.  Bases are orthonormal rows in ambient
    coordinates.
    """
    dim = m1.shape[1]
    blocks = [m1 @ (q.matrices[h] - np.eye(dim)).T for h in support if h != q.identity]
    if not blocks:
        return m1, np.zeros((0, dim))
    stacked = np.concatenate(blocks, axis=1)  # rows follow the m1 basis
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    # coordinate directions whose residual under every h is ~ zero
    svals = np.zeros(stacked.shape[0])
    svals[: s.size] = s
    v_coords = u.T[svals <= EIG_TOL]
    v_basis = orthonormal_basis(v_coords @ m1)
    w_basis = complement_within(v_basis, m1)
    return v_basis, w_basis


def conjugate_distribution(dist: StepDistribution) -> StepDistribution:
    """Law of (−y, id) (xi, k) (y, id), y the centering element: atoms
    become (−y) * xi * Ad(k) y."""
    y = dist.centering
    new_xis = np.stack([
        bch(dist.alg, bch(dist.alg, -y, xi), dist.q.matrices[k] @ y)
        for xi, k in zip(dist.xis, dist.kappas)
    ])
    return StepDistribution(alg=dist.alg, q=dist.q, probs=dist.probs,
                            xis=new_xis, kappas=dist.kappas)


# ---------------------------------------------------------------------------
# serialization

def distribution_from_json(alg: NilpotentAlgebra, data: dict) -> StepDistribution:
    """Step law from {"atoms": [{"p", "xi", "kappa"}, ...], "Q": {"matrices"}}.

    data is a payload already checked against the config schema's
    distribution declaration, so its keys and JSON types hold.  Raises
    ValueError on twist matrices that are ragged or not dim x dim, or an xi
    without dim entries; StepDistribution and finite_group raise it on a
    law or a matrix list that is not valid.
    """
    atoms = data["atoms"]
    mats = np.asarray(data["Q"]["matrices"], dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (alg.dim, alg.dim):
        raise ValueError(f"twist matrices must be {alg.dim} x {alg.dim}")
    if any(len(a["xi"]) != alg.dim for a in atoms):
        raise ValueError(f"each xi must have {alg.dim} entries")
    probs = np.array([a["p"] for a in atoms], dtype=float)
    xis = np.array([a["xi"] for a in atoms], dtype=float)
    kappas = np.array([a["kappa"] for a in atoms], dtype=np.int64)
    return StepDistribution(alg=alg, q=finite_group(mats), probs=probs, xis=xis,
                            kappas=kappas)
