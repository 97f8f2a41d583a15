"""Nilpotent Lie algebras given by structure constants.

An algebra lives on R^d with a declared orthonormal basis e_1..e_d and a
structure tensor c, where [e_i, e_j] = sum_k c[i, j, k] e_k.  Everything
else (series, filtrations, layers) is derived from c by numerical linear
algebra.  Subspaces are represented by matrices whose rows are orthonormal
spanning vectors; rank decisions use an SVD cut at RANK_RTOL times the top
singular value.  Span and norm decisions first rescale their input by a
power of two (scale_exponent), which is exact and keeps the largest
square in range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalValidationError, ResourceCeilingError

RANK_RTOL = 1e-10
VALIDATE_TOL = 1e-12
# Largest dim algebra_from_json accepts; validate_algebra's Jacobi
# temporaries are then dim^3 doubles, 2 MiB each.
MAX_DIM = 64
# Doubles in bracket's (rows, d, d) middle array: it is built this many at a
# time, so its memory does not grow with the batch (2 MiB, as above).
BRACKET_MIDDLE = MAX_DIM ** 3


# ---------------------------------------------------------------------------
# subspace arithmetic

def scale_exponent(x: np.ndarray) -> int:
    """The e with max|x| * 2**-e in [0.5, 1), or 0 for zeros.  Scaling by
    2**-e is exact for every entry that stays a normal double, and the sum
    of squares of x * 2**-e neither overflows nor underflows to zero."""
    return int(np.frexp(np.max(np.abs(x)))[1])


def scaled_norm(x: np.ndarray, axis: int | None) -> np.ndarray:
    """Euclidean norm along axis (None: of all of x), taken on x * 2**-e with
    e = scale_exponent(x) and scaled back."""
    e = scale_exponent(x)
    return np.ldexp(np.linalg.norm(np.ldexp(x, -e), axis=axis), e)


def orthonormal_basis(vectors: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Orthonormal row basis for the span of the given row vectors.

    Returns a (k, d) array, with k = 0 for no rows or all-zero rows.  The
    rank cut is RANK_RTOL relative to the largest singular value; `floor`
    raises the reference scale so a matrix that is nothing but rounding
    noise from an O(floor) computation collapses to rank zero instead of
    being renormalized into a spurious basis.  The SVD and the cut run on
    the rows and floor times one power of two, so the span does not
    depend on their scale.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if not np.any(v):
        return np.zeros((0, v.shape[-1]))
    e = scale_exponent(np.append(v, floor))  # so floor * 2**-e cannot overflow
    _, s, vt = np.linalg.svd(np.ldexp(v, -e), full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * max(s[0], np.ldexp(floor, -e))))
    return vt[:rank]


def subspace_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return orthonormal_basis(np.vstack([a, b]))


def project_onto(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x (shape (..., d)) onto span(basis rows)."""
    return (x @ basis.T) @ basis


def complement_within(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of inner inside outer.

    outer's rows are orthonormal, so a residual below RANK_RTOL is noise."""
    return orthonormal_basis(outer - project_onto(inner, outer), floor=1.0)


# ---------------------------------------------------------------------------
# algebras

@dataclass(frozen=True)
class NilpotentAlgebra:
    """Structure-constant presentation of a nilpotent Lie algebra.

    dim: dimension d of the underlying space
    step: declared nilpotency step (validated against the computed one)
    tensor: (d, d, d) array, [e_i, e_j] = sum_k tensor[i, j, k] e_k
    """

    dim: int
    step: int
    tensor: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.tensor, dtype=float))
        if t.shape != (self.dim, self.dim, self.dim):
            raise ValueError(f"tensor shape {t.shape} does not match dim {self.dim}")
        object.__setattr__(self, "tensor", t)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] for single vectors or batches with shape (..., d)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        block = max(1, BRACKET_MIDDLE // max(1, self.dim) ** 2)
        if x.size <= block * self.dim:
            return self._bracket(x, y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        x, y = (np.broadcast_to(a, shape).reshape(-1, self.dim) for a in (x, y))
        return np.concatenate([self._bracket(x[s:s + block], y[s:s + block])
                               for s in range(0, len(x), block)]).reshape(shape)

    def _bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # x into the tensor, then y: still row by row (no BLAS), several times
        # faster than one three-operand einsum; rows round independently
        return np.einsum("...j,...jk->...k", y, np.einsum("...i,ijk->...jk", x, self.tensor))

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad_x = [x, .] acting on column vectors."""
        # (ad_x w)_k = sum_{i j} x_i w_j c[i,j,k]
        return np.einsum("i,ijk->kj", np.asarray(x, dtype=float), self.tensor)


def algebra_residuals(alg: NilpotentAlgebra) -> tuple[float, float]:
    """(antisymmetry, Jacobi) residuals: max |c_ijk + c_jik| and max |Jacobi sum|."""
    c = alg.tensor
    anti = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))))) if alg.dim else 0.0
    # Jacobi on basis triples, one e_a at a time so temporaries stay dim^3:
    # [e_a,[e_b,e_c]] + [e_c,[e_a,e_b]] + [e_b,[e_c,e_a]], indexed [b, c, k]
    peaks = [np.max(np.abs(np.einsum("mk,bcm->bck", c[a], c)
                           + np.einsum("cmk,bm->bck", c, c[a])
                           + np.einsum("bmk,cm->bck", c, c[:, a])))
             for a in range(alg.dim)]
    return anti, float(np.max(peaks)) if peaks else 0.0


def validate_algebra(alg: NilpotentAlgebra) -> tuple[float, float]:
    """algebra_residuals of a nilpotent Lie bracket of the declared step; raises
    NumericalValidationError naming each check the tensor fails."""
    anti, jacobi = algebra_residuals(alg)
    msgs = [f"{name} residual {r:.3e} exceeds {VALIDATE_TOL:.1e}"
            for name, r in (("antisymmetry", anti), ("jacobi", jacobi)) if r > VALIDATE_TOL]
    try:
        found_step = len(lower_central_series(alg)) - 1  # gamma_1 .. gamma_s, then 0
        if found_step != alg.step:
            msgs.append(f"computed step {found_step} != declared step {alg.step}")
    except ValueError:
        msgs.insert(0, "lower central series does not terminate; not nilpotent")
    if msgs:
        raise NumericalValidationError("structure tensor rejected: " + "; ".join(msgs))
    return anti, jacobi


# ---------------------------------------------------------------------------
# series and filtrations

def _bracket_span(alg: NilpotentAlgebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Span of [u, w] over u in rows(a), w in rows(b).

    Rows of a and b are unit vectors, so genuine products live at the
    scale of the structure constants; anchoring the rank cut there keeps
    rounding residue from masquerading as a new ideal direction.
    """
    prods = np.einsum("ui,wj,ijk->uwk", a, b, alg.tensor).reshape(-1, alg.dim)
    return orthonormal_basis(prods, floor=float(np.max(np.abs(alg.tensor))))


def _ideal_bracket_span(alg: NilpotentAlgebra, b: np.ndarray) -> np.ndarray:
    """Span of [n, B]: _bracket_span with the whole algebra as a, in one contraction."""
    prods = np.einsum("wj,ijk->iwk", b, alg.tensor).reshape(-1, alg.dim)
    return orthonormal_basis(prods, floor=float(np.max(np.abs(alg.tensor))))


def lower_central_series(alg: NilpotentAlgebra) -> list[np.ndarray]:
    """[gamma_1, gamma_2, ...] down to and including the first zero ideal."""
    series = [np.eye(alg.dim)]
    for _ in range(alg.dim + 1):
        nxt = _ideal_bracket_span(alg, series[-1])
        series.append(nxt)
        if nxt.shape[0] == 0:
            return series
    raise ValueError("lower central series did not terminate; algebra is not nilpotent")


@dataclass(frozen=True)
class Filtration:
    """A descending filtration with an orthogonal layer decomposition.

    kind: "lower_central" or "weighted"
    ideals: ideals F^(1) >= F^(2) >= ... >= F^(depth+1) = 0 as row bases
    layers: layers[i] spans the orthocomplement of F^(i+2) inside F^(i+1),
            i.e. the weight-(i+1) layer; entries may have zero rows
    depth: largest weight with F^(weight) != 0
    """

    kind: str
    ideals: tuple[np.ndarray, ...]
    layers: tuple[np.ndarray, ...]
    depth: int

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.layers) + 1))

    def layer_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.layers)


def _filtration_from_ideals(kind: str, ideals: list[np.ndarray]) -> Filtration:
    # ideals[0] = F^(1), and the last ideal is the zero ideal
    depth = max(i + 1 for i, b in enumerate(ideals) if b.shape[0] > 0)
    layers = [complement_within(ideals[i + 1], ideals[i]) for i in range(depth)]
    return Filtration(kind=kind, ideals=tuple(ideals), layers=tuple(layers), depth=depth)


def lower_central_filtration(alg: NilpotentAlgebra) -> Filtration:
    series = lower_central_series(alg)
    return _filtration_from_ideals("lower_central", series)


def weighted_filtration(alg: NilpotentAlgebra, v: np.ndarray) -> Filtration:
    """Descending filtration adapted to a drift direction v.

    F^(1) is the whole algebra and
        F^(i+1) = [n, F^(i)] + [v, F^(i-1)]      (with F^(0) = F^(1) = n).
    For v = 0 this reproduces the lower central series.  The depth never
    exceeds twice the step.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (alg.dim,):
        raise ValueError(f"v must have shape ({alg.dim},)")
    full = np.eye(alg.dim)
    if not np.any(v):
        f = lower_central_filtration(alg)
        return Filtration(kind="weighted", ideals=f.ideals, layers=f.layers, depth=f.depth)
    vrow = np.ldexp(v, -scale_exponent(v))[None, :]
    vrow /= np.linalg.norm(vrow)
    ideals = [full, full]  # F^(0), F^(1)
    for i in range(1, 2 * alg.step + 2):
        nxt = subspace_sum(_ideal_bracket_span(alg, ideals[i]),
                           _bracket_span(alg, vrow, ideals[i - 1]))
        ideals.append(nxt)
        if nxt.shape[0] == 0:
            break
    else:
        raise ValueError("weighted filtration did not terminate")
    return _filtration_from_ideals("weighted", ideals[1:])


def layer_components(filt: Filtration, x: np.ndarray) -> list[np.ndarray]:
    """Coordinates of x in each layer's orthonormal row basis (shape (..., dim_i))."""
    out = []
    for b in filt.layers:
        if b.shape[0] == 0:
            out.append(np.zeros(np.shape(x)[:-1] + (0,)))
        else:
            out.append(np.einsum("...j,ij->...i", x, b))  # row-independent, unlike BLAS @
    return out


# ---------------------------------------------------------------------------
# serialization

def algebra_from_json(data: dict) -> NilpotentAlgebra:
    """Algebra from a sparse 1-based bracket table [[i, j, [[k, c], ...]], ...].

    data is a payload already checked against the config schema's algebra
    declaration, so its keys, JSON types and lower bounds hold.  Raises
    ValueError on an index above dim, a bracket of e_i with itself, a pair
    (i, j) given twice in either order, or labels that are not dim long
    (labels are checked, as the manifest records the payload, but not
    kept); ResourceCeilingError on a dim above MAX_DIM, before the dim^3
    tensor is allocated.
    """
    dim, step = data["dim"], data["step"]
    if dim > MAX_DIM:
        raise ResourceCeilingError(f"algebra dim {dim} exceeds the ceiling {MAX_DIM}")
    if "labels" in data and len(data["labels"]) != dim:
        raise ValueError(f"labels must be a list of {dim} strings")
    tensor = np.zeros((dim, dim, dim))
    pairs = set()
    for entry in data.get("brackets", []):
        i, j, coeffs = entry
        if max([i, j] + [k for k, _ in coeffs]) > dim:
            raise ValueError(f"bracket index outside 1..{dim} in {entry}")
        if i == j:
            raise ValueError(f"bracket of e{i} with itself in {entry}")
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            raise ValueError(f"bracket of e{i} and e{j} given twice")
        pairs.add(pair)
        for k, c in coeffs:
            tensor[i - 1, j - 1, k - 1] = float(c)
            tensor[j - 1, i - 1, k - 1] = -float(c)
    return NilpotentAlgebra(dim=dim, step=step, tensor=tensor)
