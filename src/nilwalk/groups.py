"""Finite orthogonal matrix groups: Cayley tables and stock examples."""

from __future__ import annotations

import numpy as np

MATCH_TOL = 1e-10


def cayley_from_matrices(mats: np.ndarray):
    """(table, identity_index, inverse) for a closed list of matrices.

    table[i, j] is the index of mats[i] @ mats[j].  Raises if the list is
    not closed, misses the identity, or contains duplicates.
    """
    mats = np.asarray(mats, dtype=float)
    k, d, d2 = mats.shape
    if d != d2:
        raise ValueError("matrices must be square")
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must be finite")
    for i in range(k):
        for j in range(i + 1, k):
            if np.max(np.abs(mats[i] - mats[j])) <= MATCH_TOL:
                raise ValueError(f"duplicate group elements at {i}, {j}")

    def find(m):
        diffs = np.max(np.abs(mats - m[None]), axis=(1, 2))
        idx = int(np.argmin(diffs))
        if diffs[idx] > MATCH_TOL:
            raise ValueError("matrix list is not closed under products")
        return idx

    table = np.empty((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            table[i, j] = find(mats[i] @ mats[j])
    identity = find(np.eye(d))
    inverse = np.empty(k, dtype=np.int64)
    for i in range(k):
        hits = np.nonzero(table[i] == identity)[0]
        if hits.size == 0:
            raise ValueError(f"element {i} has no inverse in the list")
        inverse[i] = hits[0]
    return table, identity, inverse


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _reflect(theta: float) -> np.ndarray:
    # reflection across the line at angle theta/2
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]])


def cyclic_rotations(order: int) -> np.ndarray:
    """C_n acting on R^2 by rotation multiples of 2 pi / n."""
    return np.stack([_rot(2.0 * np.pi * k / order) for k in range(order)])


def dihedral(order_of_rotation: int) -> np.ndarray:
    """Dihedral group on R^2: n rotations and n reflections."""
    rots = [_rot(2.0 * np.pi * k / order_of_rotation) for k in range(order_of_rotation)]
    refls = [_reflect(2.0 * np.pi * k / order_of_rotation) for k in range(order_of_rotation)]
    return np.stack(rots + refls)


def sign_flip_line() -> np.ndarray:
    """Z/2 = {1, -1} acting on R^1."""
    return np.array([[[1.0]], [[-1.0]]])


def trivial(dim: int) -> np.ndarray:
    return np.eye(dim)[None]

