"""Independent derivation routes used to cross-check the library.

Everything here deliberately avoids the implementation under test:
group products go through faithful matrix representations, series are
summed directly, filtrations are rebuilt by brute-force span closure,
and moment constants come from closed-form Gamma expressions.  The one
exception is the pair of sampled gauge constants, which measure with the
gauge's own hom_norm; the bilinearity one draws its unit-ball pairs with
sample_ball here, through the gauge's layer gauges.  They are the lower
estimates that the closed-form bilinearity bound is held against.
walk.csv is rebuilt from one whole (R*K, 6+L) table through np.savetxt,
the byte contract of the streamed writer.
"""

import math
from itertools import product
from typing import NamedTuple

import numpy as np

# ---------------------------------------------------------------------------
# faithful strictly-upper-triangular representations


def heisenberg_rep():
    """e1 -> E12, e2 -> E23, e3 -> E13 inside 3x3 strictly upper matrices."""
    e = np.zeros((3, 3, 3))
    e[0, 0, 1] = 1.0
    e[1, 1, 2] = 1.0
    e[2, 0, 2] = 1.0
    return e


def filiform_rep(dim):
    """Chain algebra [e1, e_i] = e_{i+1}: e1 is the shift, e_j = (-1)^j E_{1j}.

    Valid for any dim >= 3; the image is abelian away from e1, matching
    the structure tensor used by the presets.
    """
    mats = np.zeros((dim, dim, dim))
    for i in range(dim - 1):
        mats[0, i, i + 1] = 1.0
    for j in range(1, dim):
        mats[j, 0, j] = (-1.0) ** (j + 1)
    return mats


def rep_matrix(rep, x):
    return np.einsum("i,ijk->jk", np.asarray(x, dtype=float), rep)


def nilpotent_expm(x):
    """exp of a nilpotent matrix by its terminating power series."""
    d = x.shape[0]
    out = np.eye(d)
    term = np.eye(d)
    for k in range(1, d):
        term = term @ x / k
        out = out + term
        if not term.any():
            break
    return out


def nilpotent_logm(m):
    """log of a unipotent matrix by the terminating Mercator series."""
    d = m.shape[0]
    a = m - np.eye(d)
    out = np.zeros_like(a)
    term = np.eye(d)
    for k in range(1, d):
        term = term @ a
        out = out + ((-1.0) ** (k + 1) / k) * term
        if not term.any():
            break
    return out


def rep_coordinates(rep, z):
    """Solve z = sum_i c_i rep[i]; the residual must vanish for a true product."""
    d = rep.shape[0]
    basis = rep.reshape(d, -1).T
    coeff, *_ = np.linalg.lstsq(basis, z.ravel(), rcond=None)
    resid = float(np.linalg.norm(basis @ coeff - z.ravel()))
    return coeff, resid


def rep_bch(rep, x, y):
    """log(exp X exp Y) pulled back to coordinates; the reference BCH route."""
    z = nilpotent_logm(nilpotent_expm(rep_matrix(rep, x))
                       @ nilpotent_expm(rep_matrix(rep, y)))
    coeff, resid = rep_coordinates(rep, z)
    if resid > 1e-9:
        raise AssertionError(f"product left the representation span: {resid:.3e}")
    return coeff


# ---------------------------------------------------------------------------
# span-closure filtration oracle


def _span_basis(vectors, tol=1e-10):
    vs = [v for v in vectors if np.linalg.norm(v) > tol]
    if not vs:
        return np.zeros((0, len(vectors[0])))
    m = np.array(vs)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return vt[:rank]


def rotate_basis(tensor, seed):
    """(q, tensor') for the same algebra in the coordinates x' = q x, q a
    seeded random orthogonal matrix: every structure constant becomes dense."""
    d = tensor.shape[0]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q, np.einsum("ai,bj,ijk,ck->abc", q, q, tensor, q)


def three_operand_bracket(tensor, x, y):
    """[x, y] as one contraction of x, y and the structure tensor."""
    return np.einsum("...i,...j,ijk->...k", x, y, tensor)


def _bracket_all(tensor, basis_a, basis_b):
    out = []
    for a in basis_a:
        for b in basis_b:
            out.append(np.einsum("i,j,ijk->k", a, b, tensor))
    return out


def jacobi_residual_dense(tensor):
    """Largest |[e_a,[e_b,e_c]] + [e_b,[e_c,e_a]] + [e_c,[e_a,e_b]]| over all triples.

    Builds the whole dim^4 array at once, summed in the library's term order.
    """
    term = np.einsum("amk,bcm->abck", tensor, tensor)
    jac = term + np.transpose(term, (1, 2, 0, 3)) + np.transpose(term, (2, 0, 1, 3))
    return float(np.max(np.abs(jac))) if tensor.shape[0] else 0.0


def closure_weighted_ideals(tensor, v, max_iter=64):
    """Recompute the drift-weighted ideal chain by explicit span closure.

    n^(1) = everything, n^(2) = [n, n] + span brackets of v with n, and
    from there n^(i+1) = [n, n^(i)] + [v, n^(i-1)].  Returns the chain of
    orthonormal row bases down to (and including) the first zero ideal.
    """
    dim = tensor.shape[0]
    full = np.eye(dim)
    chain = [full]
    prev = full
    cur = _span_basis(_bracket_all(tensor, full, full)
                      + _bracket_all(tensor, [v], full) or [np.zeros(dim)])
    chain.append(cur)
    for _ in range(max_iter):
        if cur.shape[0] == 0:
            break
        gens = _bracket_all(tensor, full, cur) + _bracket_all(tensor, [v], prev)
        nxt = _span_basis(gens or [np.zeros(dim)])
        chain.append(nxt)
        prev, cur = cur, nxt
    return chain


def containment_residual(inner, outer):
    """max_i || v_i - proj_outer v_i || over rows v_i of inner.

    Zero iff span(inner) is contained in span(outer).
    """
    if inner.shape[0] == 0:
        return 0.0
    resid = inner - (inner @ outer.T) @ outer
    return float(np.max(np.linalg.norm(resid, axis=1)))


def subspace_contained(inner, outer, tol=1e-10):
    if inner.shape[0] == 0:
        return True
    if outer.shape[0] == 0:
        return False
    proj = inner @ outer.T @ outer
    return float(np.max(np.abs(proj - inner))) <= tol


# ---------------------------------------------------------------------------
# walk enumeration through matrix products


def enumerate_rep_walk(rep, xis, probs, n_steps):
    """Exact n-step distribution of the walk, multiplying in the representation.

    Yields (probability, coordinates of log(product)) over all atom words.
    Only sensible for tiny q**n.
    """
    exps = [nilpotent_expm(rep_matrix(rep, xi)) for xi in xis]
    for word in product(range(len(xis)), repeat=n_steps):
        p = 1.0
        m = np.eye(rep.shape[1])
        for a in word:
            p *= probs[a]
            m = m @ exps[a]
        coeff, _ = rep_coordinates(rep, nilpotent_logm(m))
        yield p, coeff


# ---------------------------------------------------------------------------
# closed-form moment constants


def gaussian_p_norm(p):
    """||N(0,1)||_p = sqrt(2) (Gamma((p+1)/2) / Gamma(1/2))^(1/p)."""
    return math.sqrt(2.0) * (math.gamma((p + 1) / 2.0)
                             / math.gamma(0.5)) ** (1.0 / p)


def exponential_p_norm(p):
    """||Exp(1)||_p = Gamma(p+1)^(1/p)."""
    return math.gamma(p + 1.0) ** (1.0 / p)


def direct_fit_once(groups, t_grid, moment_orders, tail_window):
    """One concentration fit over groups of absolute values, straight from the
    definitions: family norms from g ** p, exceedance by comparing every
    sample with every grid point.  Returns (alpha_moments, c_moment,
    alpha_tail, p_hat, mask, family_norms)."""
    fam = np.array([max(float(np.mean(g ** p) ** (1.0 / p)) for g in groups)
                    for p in moment_orders])
    slope, intercept = np.polyfit(np.log(np.asarray(moment_orders, dtype=float)),
                                  np.log(fam), 1)
    alpha_m = 1.0 / slope if slope > 0 else np.inf
    p_hat = np.zeros_like(t_grid)
    for g in groups:
        p_hat = np.maximum(p_hat, (g[None, :] >= t_grid[:, None]).mean(axis=1))
    mask = (p_hat >= tail_window[0]) & (p_hat <= tail_window[1]) & (t_grid > 0) & (p_hat < 1)
    alpha_t = np.nan
    if mask.sum() >= 3:
        alpha_t, _ = np.polyfit(np.log(t_grid[mask]), np.log(-np.log(p_hat[mask])), 1)
    return alpha_m, float(np.exp(intercept)), alpha_t, p_hat, mask, fam


# ---------------------------------------------------------------------------
# isometry-lift functionals


class FixedSet(NamedTuple):
    """Affine subspace {point + span(directions)}; point is None when empty."""

    point: np.ndarray | None
    directions: np.ndarray   # (k, d) orthonormal rows, possibly k = 0


def fix_set(rotation, translation):
    """Fixed points of x -> rotation @ x + translation, solving (A - I)x = -u.

    Solved in least squares: a residual above 1e-9 max(|u|, 1) means no
    fixed point.  The directions span the kernel of A - I.
    """
    d = translation.size
    m = rotation - np.eye(d)
    x = np.linalg.lstsq(m, -translation, rcond=None)[0]
    if np.linalg.norm(m @ x + translation) > 1e-9 * max(float(np.linalg.norm(translation)), 1.0):
        return FixedSet(None, np.zeros((0, d)))
    _, s, vt = np.linalg.svd(m)
    return FixedSet(x, vt[s <= max(s[0], 1.0) * 1e-12])


def dispersion_oracle(fixed_sets):
    """(min over x of sum_f dist(x, Fix_f)^2, minimum-norm minimizer).

    Distances come straight from each set's point and direction rows.  The
    objective q is a convex quadratic, so its gradient and Hessian at the
    origin are exact combinations of q at the unit vectors (polarisation),
    and one pseudo-inverse Newton step lands on the minimum.
    """
    dim = fixed_sets[0].point.size

    def q(x):
        total = 0.0
        for fs in fixed_sets:
            r = x - fs.point
            r = r - (r @ fs.directions.T) @ fs.directions
            total += float(r @ r)
        return total

    e = np.eye(dim)
    q0 = q(np.zeros(dim))
    grad = np.array([(q(e[i]) - q(-e[i])) / 2.0 for i in range(dim)])
    hess = np.array([[q(e[i] + e[j]) - q(e[i]) - q(e[j]) + q0 for j in range(dim)]
                     for i in range(dim)])
    x = -np.linalg.pinv(hess, rcond=1e-10) @ grad
    return q(x), x


def relator_defect_oracle(mats, trans):
    """max over f1, f2 of |translation of lift(f1) lift(f2) lift((f1 f2)^-1)|^2.

    Products are (d+1) x (d+1) affine matrices, and (f1 f2)^-1 is found by
    searching the representation for (A_f1 A_f2)^T, not through a Cayley
    table.
    """
    k, d = trans.shape
    aff = np.zeros((k, d + 1, d + 1))
    aff[:, :d, :d] = mats
    aff[:, :d, d] = trans
    aff[:, d, d] = 1.0
    worst = 0.0
    for f1 in range(k):
        for f2 in range(k):
            target = (mats[f1] @ mats[f2]).T
            g = int(np.argmin(np.abs(mats - target).max(axis=(1, 2))))
            e = aff[f1] @ aff[f2] @ aff[g]
            if np.max(np.abs(e[:d, :d] - np.eye(d))) > 1e-10:
                raise AssertionError("no element inverts the product")
            worst = max(worst, float(e[:d, d] @ e[:d, d]))
    return worst


# ---------------------------------------------------------------------------
# polytope gauges


def polygon_gauge_oracle(facets, x):
    """max over facet rows (a, b) of (a . x) / b, the gauge of {y : a.y <= b}.

    A running maximum over every facet in turn, each a . x summed
    coordinate by coordinate; no facet is skipped and no BLAS product is
    used.  NaN in x gives NaN.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape[:-1], -np.inf)
    for row in np.asarray(facets, dtype=float):
        dot = sum(x[..., c] * row[c] for c in range(x.shape[-1]))
        out = np.maximum(out, dot / row[-1])
    return out


def qhull_polytope(points):
    """(vertex rows in input order, facet normals a, offsets b) of the convex
    hull {y : a.y <= b} of points, computed by scipy's Qhull."""
    from scipy.spatial import ConvexHull
    hull = ConvexHull(points)
    return points[np.sort(hull.vertices)], hull.equations[:, :-1], -hull.equations[:, -1]


def sample_ball(rng, norm, count):
    """count points of the gauge's unit ball: in each layer a uniform
    direction, pushed to the layer gauge's unit sphere, times a radius with
    the law of a uniform point's in the euclidean ball of that dimension."""
    from nilwalk.norms import _layer_gauge
    filt = norm.filtration
    out = np.zeros((count, filt.layers[0].shape[1]))
    for i, basis in enumerate(filt.layers):
        k = basis.shape[0]
        if k == 0:
            continue
        dirs = rng.standard_normal((count, k))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        radii = rng.random(count) ** (1.0 / k)
        g = _layer_gauge(norm, i + 1, dirs)  # gauge of the unit direction
        out += (dirs * (radii / np.maximum(g, 1e-300))[:, None]) @ basis
    return out


def bilinearity_constant(norm, alg, n_pairs, seed):
    """Sampled sup of phi([u, v]) over unit-ball pairs.

    A lower estimate of the true constant: sampling can only miss the sup.
    """
    from nilwalk.norms import hom_norm
    from nilwalk.rng import STREAM_GAUGE, substream
    rng = substream(seed, STREAM_GAUGE, 1)
    u = sample_ball(rng, norm, n_pairs)
    v = sample_ball(rng, norm, n_pairs)
    vals = hom_norm(norm, alg.bracket(u, v))
    return float(np.max(vals)) if n_pairs else 0.0


def subadditivity_defect(norm, alg, n_pairs, seed):
    """max |u * v| - |u| - |v| over pairs sampled in the euclidean box [-1, 1]^d.

    Returns (defect, (u, v)) with the maximizing pair; a positive defect
    exhibits a violation of the triangle inequality.
    """
    from nilwalk.bch import bch
    from nilwalk.norms import hom_norm
    from nilwalk.rng import STREAM_GAUGE, substream
    rng = substream(seed, STREAM_GAUGE, 2)
    d = alg.dim
    u = rng.uniform(-1.0, 1.0, size=(n_pairs, d))
    v = rng.uniform(-1.0, 1.0, size=(n_pairs, d))
    defects = hom_norm(norm, bch(alg, u, v)) - hom_norm(norm, u) - hom_norm(norm, v)
    k = int(np.argmax(defects))
    return float(defects[k]), (u[k], v[k])


# ---------------------------------------------------------------------------
# random stream keys, one path at a time in Python integers

MASK64 = (1 << 64) - 1


def splitmix64(x):
    """The splitmix64 finalizer on one Python integer."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def philox_key(seed, path):
    """(seed word, path mix) keying substream(seed, *path): the mix folds
    h = splitmix64(h ^ part) over the parts from a fixed start."""
    h = 0x243F6A8885A308D3
    for part in path:
        h = splitmix64(h ^ (int(part) & MASK64))
    return int(seed) & MASK64, h


# ---------------------------------------------------------------------------
# Clopper-Pearson bounds as roots of the exact binomial tail


def binomial_tail_root(n, k, upper, start):
    """The x with P(Bin(n, x) <= k) = 0.025 (upper) or P(Bin(n, x) >= k) =
    0.025, by Newton steps in mpmath to 30 significant digits from start.
    The tail is summed term by term from k away from the mode until the
    terms fall below 1e-40 of the sum."""
    import mpmath
    with mpmath.workdps(40):
        target, tol = mpmath.mpf(0.025), mpmath.mpf(10) ** -40
        x = mpmath.mpf(start)
        for _ in range(60):
            term = mpmath.binomial(n, k) * x ** k * (1 - x) ** (n - k)
            total, i = term, k
            while term > tol * total and (i > 0 if upper else i < n):
                if upper:
                    term *= i / mpmath.mpf(n - i + 1) * (1 - x) / x
                    i -= 1
                else:
                    term *= (n - i) / mpmath.mpf(i + 1) * x / (1 - x)
                    i += 1
                total += term
            # d/dx P(Bin(n, x) >= j) = n C(n - 1, j - 1) x^(j - 1) (1 - x)^(n - j)
            j = k + 1 if upper else k
            slope = n * mpmath.binomial(n - 1, j - 1) * x ** (j - 1) * (1 - x) ** (n - j)
            step = (total - target) / (-slope if upper else slope)
            x -= step
            if abs(step) <= mpmath.mpf(10) ** -32 * x:
                return x
    raise ArithmeticError(f"no root for n={n} k={k}")


# ---------------------------------------------------------------------------
# walk.csv from one whole table

def walk_csv_full_table(path, result, preset, seed, derived):
    """walk.csv as np.savetxt(fmt="%.17g", delimiter=",") writes it from the
    whole (R*K, 6+L) table of a SampleMatrix, header included."""
    r, k = result.running_max.shape
    nl = result.layer_euclid.shape[2]
    ns = np.asarray(result.checkpoints, dtype=float)
    exponent, kappa = derived["scaling_exponent"], derived["kappa_mu"]
    rows = np.empty((r * k, 6 + nl))
    rows[:, 0] = np.repeat(np.arange(r, dtype=float), k)
    rows[:, 1] = np.tile(ns, r)
    rows[:, 2] = result.running_max.ravel()
    rows[:, 3] = (result.running_max / ns[None, :] ** exponent).ravel()
    rows[:, 4] = result.y_norm.ravel()
    rows[:, 5] = result.q_index.ravel()
    rows[:, 6:] = result.layer_euclid.reshape(r * k, nl)

    def fmt(x):
        return "%.17g" % float(x)

    def vector(v):
        return " ".join(fmt(x) for x in np.ravel(v))

    header = [
        "nilwalk-walk-csv 1",
        f"preset: {preset}",
        f"seed: {seed}",
        f"R_mu: {fmt(derived['R_mu'])}",
        f"kappa_mu: {kappa if isinstance(kappa, str) else fmt(kappa)}",
        f"v_mu: {vector(derived['v_mu'])}",
        f"centering: {vector(derived['centering'])}",
        f"conjugated: {str(derived['conjugated']).lower()}",
        f"scaling_exponent: {fmt(exponent)}",
        f"gauge: {derived['gauge']['mode']} sha256:{derived['gauge']['sha256']}",
        "columns: replicate n M M_scaled y_norm q_index "
        + " ".join(f"layer_{i + 1}" for i in range(nl)),
    ]
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="\n".join(header),
               comments="# ")
