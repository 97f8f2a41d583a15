"""Homogeneous gauges adapted to a filtration.

A gauge assigns each nonempty layer m_i a norm phi_i; the homogeneous norm
of u is max_i phi_i(u_i)^(1/i).  It scales linearly under the adapted
dilations D_r (r^i on the weight-i layer).  Two constructions:

scaled_euclidean
    phi_i = euclidean / lambda_i.  Layer one is plain euclidean.  Each scale
    is a kappa-derived value times the smallest power of two that brings the
    layer's bilinearity constant, sup phi_i([u, v]_i) over the unit ball of
    the layers below, to <= 1, as the concentration arguments need.  The
    constant is an upper bound in closed form (_layer_sup), so the rescaled
    layer's constant is <= 1 for certain; a power of two divides it exactly.

bracket_hull
    Layer one is euclidean; the weight-i unit ball is the convex hull of
    kappa_i * [u, w] over boundary pairs u in the layer-one sphere and w in
    the boundary of the weight-(i-1) ball, projected to the layer.  With
    kappa_i = 2 i^2 A_i (A_i an upper bound for the absolute
    coefficient mass of the degree-i BCH polynomial) the resulting gauge
    has bilinearity constant <= 1 and a subadditive group norm.  Gauge
    evaluation uses the hull's facet description, so it errs on the large
    side when the sampled hull misses extreme points.  A 2-D layer (a
    polygon) is built by Andrew's monotone chain and evaluated by an angular
    facet lookup: a binary search over the vertex angles finds the facet the
    ray through x hits, and only it and its two neighbours are evaluated.
    A 1-D layer is a segment [-b, b], evaluated as |x| / b.

Degenerate layers (dimension zero, or a hull that does not span its
layer) and layers of dimension >= 3 fall back to scaled euclidean and are
flagged.  A hull of N points in dimension k can have on the order of
N^(k // 2) facets (McMullen's upper bound theorem), and any two homogeneous
gauges agree up to constants, so the fallback moves the bounds only by
constants.

Every gauge records bilinearity_bound, an upper bound on sup |[u, v]| over
its unit ball, computed in closed form from the layers as built (facets,
vertices and scales; see bilinearity_certificate) by the same per-layer
bound that calibrates the scales.  Only the hull draws random points.  The
walk reads only the running max of |y| between checkpoints, so running_norm
gauges a polygon layer only on the rows where a Lipschitz bound says it
could raise that max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (RANK_RTOL, Filtration, NilpotentAlgebra, layer_components, project_onto,
                      scaled_norm)
from .bch import TABLE_CAP, dynkin_table
from .errors import NumericalValidationError
from .rng import STREAM_GAUGE, substream

DEFAULT_HULL_SAMPLES = 2048


@dataclass
class HomogeneousNorm:
    """A gauge.  build_gauge fills it in place: the per-weight lists weight
    by weight, then bilinearity_bound once the gauge is complete."""

    filtration: Filtration
    mode: str
    layer_scales: list[float]
    kappa: tuple[float, ...]
    hull_vertices: list[np.ndarray | None]   # layer coords, per weight
    hull_facets: list[np.ndarray | None]     # rows (a..., b): a.x <= b; 1-D or 2-D
    # 2-D hull layers only: sorted angles of the facets' counter-clockwise
    # start vertices, the layer's hull_facets listed in that order
    hull_angles: list[np.ndarray | None]
    fallback_weights: tuple[int, ...]
    bilinearity_bound: float


def coefficient_mass_bound(degree: int) -> float:
    """A_i: crude upper bound for the degree-i BCH coefficient mass.

    Sum of absolute merged coefficients times the surviving word count,
    clamped to at least one.  Deliberately generous; it only ever makes
    kappa larger.  Degrees beyond the table cap fall back to one.
    """
    if degree > TABLE_CAP:
        return 1.0
    table = dynkin_table(degree)
    return max(1.0, table.abs_mass[-1] * table.word_count[-1])


def default_kappas(depth: int) -> tuple[float, ...]:
    """kappa_i = 2 i^2 A_i for i = 1..depth (index 1 is unused)."""
    return tuple(2.0 * i * i * coefficient_mass_bound(i) if i >= 2 else 1.0
                 for i in range(1, depth + 1))


def euclidean_bilinearity_bound(alg: NilpotentAlgebra) -> float:
    """Upper bound on sup ||[u, v]|| over euclidean unit vectors."""
    d = alg.dim
    if d == 0:
        return 0.0
    return float(np.linalg.norm(alg.tensor.reshape(d * d, d), 2))


# ---------------------------------------------------------------------------
# evaluation

def _layer_gauge(norm: HomogeneousNorm, weight: int, coords: np.ndarray) -> np.ndarray:
    """phi_i of layer coordinates, batched over leading axes."""
    i = weight - 1
    facets = norm.hull_facets[i]
    if facets is None:
        if coords.shape[-1] >= 8:  # np.linalg.norm's pairwise sum starts at 8
            return np.linalg.norm(coords, axis=-1) / norm.layer_scales[i]
        # below 8 its sum runs column by column, as this one does; squaring
        # first allocates as it does, so peak memory does not move either
        sq = coords * coords
        total = sq[..., 0]
        for j in range(1, coords.shape[-1]):
            total = total + sq[..., j]
        return np.sqrt(total) / norm.layer_scales[i]
    if norm.hull_angles[i] is not None:
        return _polygon_gauge(norm.hull_angles[i], facets, coords)
    return np.abs(coords[..., 0]) / facets[0, 1]  # segment: max(x / b, -x / b)


def _polygon_gauge(angles: np.ndarray, facets: np.ndarray,
                   coords: np.ndarray) -> np.ndarray:
    """max_j a_j.x / b_j over a polygon's facets, from the facet the ray through x hits.

    Facet j spans the angles [angles[j], angles[j + 1]) (cyclically).  For a
    convex polygon around the origin a_j.x / b_j is unimodal in that cyclic
    order and peaks at the hit facet; its two neighbours absorb rounding in
    the angle of x near a vertex.
    """
    hit = np.searchsorted(angles, np.arctan2(coords[..., 1], coords[..., 0]),
                          side="right") - 1
    near = facets[(hit[..., None] + np.arange(-1, 2)) % len(facets)]  # (..., 3, 3)
    # contiguous (2, 3) blocks: one small matmul per row, which rounds the
    # same however many rows the call holds
    a_t = np.ascontiguousarray(near[..., :2].swapaxes(-1, -2))
    ratios = (coords[..., None, :] @ a_t)[..., 0, :]
    ratios /= near[..., 2]
    return np.max(ratios, axis=-1)


def _layer_term(norm: HomogeneousNorm, weight: int, coords: np.ndarray) -> np.ndarray:
    """phi_i(x_i)^(1/i), the layer's share of |x|."""
    return np.maximum(_layer_gauge(norm, weight, coords), 0.0) ** (1.0 / weight)


def hom_norm(norm: HomogeneousNorm, x: np.ndarray) -> np.ndarray | float:
    """|x| = max_i phi_i(x_i)^(1/i); scalar in, scalar out."""
    x = np.asarray(x, dtype=float)
    comps = layer_components(norm.filtration, x)
    out = np.zeros(x.shape[:-1])
    for i, coords in enumerate(comps):
        if coords.shape[-1]:
            out = np.maximum(out, _layer_term(norm, i + 1, coords))
    return float(out) if out.ndim == 0 else out


def running_norm(norm: HomogeneousNorm, x: np.ndarray, floor: np.ndarray,
                 exact: np.ndarray) -> np.ndarray:
    """|x| for a block of walk positions x (steps, rows, d), exact where it
    could exceed floor (per row) and on every row of the steps where exact
    is set; elsewhere the same max with any running max >= floor.

    Every layer but a polygon is gauged on every row.  A polygon layer has
    phi_i(x_i) <= ||x_i|| / min_f b_f, its facet normals a_f being unit
    vectors, and is gauged only on the rows whose bound
    (||x_i|| / min_f b_f)^(1/i), raised by 1e-9 for rounding, is not below
    max(floor, the other layers' value).  On the others its term is below
    that max, so max(running max, value) holds the bytes |x| gives; "not
    below" sends a NaN or inf bound to the gauge.
    """
    comps = layer_components(norm.filtration, x)
    out = np.zeros(x.shape[:-1])
    polygons = []
    for i, coords in enumerate(comps):
        if norm.hull_angles[i] is not None:
            polygons.append(i)
        elif coords.shape[-1]:
            out = np.maximum(out, _layer_term(norm, i + 1, coords))
    floor = np.maximum(out, floor)
    for i in polygons:
        inradius = np.min(norm.hull_facets[i][:, 2])
        tiny = np.finfo(float).tiny  # the absolute rounding of subnormal facet products
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are gauged
            reach = np.linalg.norm(comps[i], axis=-1) / inradius * (1.0 + 1e-9) + tiny
            rows = ~(reach ** (1.0 / (i + 1)) < floor)
        rows[exact] = True
        out[rows] = np.maximum(out[rows], _layer_term(norm, i + 1, comps[i][rows]))
    return out


def dilate(filt: Filtration, r: float, x: np.ndarray) -> np.ndarray:
    """Adapted dilation: multiply the weight-i component by r^i."""
    x = np.asarray(x, dtype=float)
    return sum((r ** (i + 1)) * project_onto(basis, x) for i, basis in enumerate(filt.layers))


# ---------------------------------------------------------------------------
# construction

def _convex_ring(points: np.ndarray) -> list[int]:
    """Rows of distinct, lexicographically sorted 2-D points that are strict
    vertices of their convex hull, counter-clockwise from the first row
    (Andrew's monotone chain)."""
    pts = points.tolist()

    def chain(order):
        out = []
        for i in order:
            x, y = pts[i]
            while len(out) >= 2:
                (ox, oy), (px, py) = pts[out[-2]], pts[out[-1]]
                if (px - ox) * (y - oy) - (py - oy) * (x - ox) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    n = len(pts)
    return chain(range(n))[:-1] + chain(range(n - 1, -1, -1))[:-1]


def _hull_layer(vertices: np.ndarray):
    """(hull vertices, facet rows (a, b) with hull = {x : a.x <= b}, angles).

    Hull vertices are listed in input order; they are nonzero rows.  A 1-D
    layer is the segment [-b, b] with angles None.  A 2-D layer is built by
    a monotone chain, its facets listed counter-clockwise from the one
    whose start vertex has the smallest angle; angles holds those
    start-vertex angles.  Returns None if the hull is degenerate or misses
    the origin, and for layers of dimension >= 3, which fall back to scaled
    euclidean.
    """
    k = vertices.shape[1]
    if k == 1:
        top = float(np.max(np.abs(vertices)))
        return np.array([[top], [-top]]), np.array([[1.0, top], [-1.0, top]]), None
    if k > 2 or np.linalg.matrix_rank(vertices, rtol=RANK_RTOL) < k:
        return None
    # exact duplicates: keep the first copy, so vertex listings are stable
    points, first = np.unique(vertices, axis=0, return_index=True)
    ring = first[_convex_ring(points)]
    angles = np.arctan2(vertices[ring, 1], vertices[ring, 0])
    turn = int(np.argmin(angles))
    ring, angles = np.roll(ring, -turn), np.roll(angles, -turn)
    s, t = vertices[ring], vertices[np.roll(ring, -1)]
    # outward unit normals of the counter-clockwise edges s -> t, rounded
    # as Qhull rounds them
    a = np.stack([t[:, 1] - s[:, 1], s[:, 0] - t[:, 0]], axis=1)
    a /= np.sqrt(a[:, 0] ** 2 + a[:, 1] ** 2)[:, None]
    b = np.sum(a * s, axis=1)
    if np.any(b <= 0):  # origin not interior
        return None
    return vertices[np.sort(ring)], np.hstack([a, b[:, None]]), angles


def build_gauge(alg: NilpotentAlgebra, filt: Filtration, mode: str, seed: int,
                hull_samples: int = DEFAULT_HULL_SAMPLES) -> HomogeneousNorm:
    """Construct a homogeneous gauge over the filtration's layers."""
    if mode not in ("scaled_euclidean", "bracket_hull"):
        raise ValueError(f"unknown gauge mode {mode!r}")
    depth = filt.depth
    kap = default_kappas(depth)
    ce = max(1.0, euclidean_bilinearity_bound(alg))
    norm = HomogeneousNorm(filtration=filt, mode=mode, layer_scales=[1.0] * depth,
                           kappa=kap, hull_vertices=[None] * depth,
                           hull_facets=[None] * depth, hull_angles=[None] * depth,
                           fallback_weights=(), bilinearity_bound=0.0)

    t, ends = _layer_tensor(alg, filt)
    for w in range(2, depth + 1):
        i = w - 1
        basis = filt.layers[i]
        if basis.shape[0] == 0:
            continue
        if mode == "bracket_hull":
            verts = _build_hull_layer(alg, norm, w, kap[i], hull_samples, seed)
            hull = _hull_layer(verts) if verts is not None else None
            if hull is not None:
                norm.hull_vertices[i], norm.hull_facets[i], norm.hull_angles[i] = hull
                continue
            norm.fallback_weights += (w,)
        # scaled euclidean path (scaled_euclidean mode, or hull fallback)
        scales = norm.layer_scales
        scales[i] = kap[i] * ce * scales[i - 1]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            worst = _layer_sup(norm, t, ends, i)
            if worst > 1.0:  # the smallest k with worst / 2^k <= 1
                mant, exp = np.frexp(worst)
                scales[i] = float(np.ldexp(scales[i], exp - (mant == 0.5)))
        if not (np.isfinite(worst) and np.isfinite(scales[i])):
            raise NumericalValidationError(f"gauge calibration is not finite at weight {w}: "
                                           f"constant {worst:.3e}, scale {scales[i]:.3e}")

    norm.bilinearity_bound = bilinearity_certificate(norm, t, ends)
    return norm


def _pair_sups(m: np.ndarray, ball_j, ball_k) -> np.ndarray:
    """sup of x^T m[f] y over x in B_j, y in B_k, for each f.

    A ball is (vertices, 1.0) for a segment or polygon and (None, lambda)
    for a euclidean ball of radius lambda.  The form peaks at a pair of
    vertices and, against a euclidean ball, at lambda ||m^T x||.  Of two
    polygons the second is widened to its circumscribed disc, so the cost
    stays linear in their vertex counts."""
    (vj, rj), (vk, rk) = ball_j, ball_k
    if vj is not None and vk is not None and min(len(vj), len(vk)) > 2:
        vk, rk = None, float(np.max(np.linalg.norm(vk, axis=1)))
    if vj is not None and vk is not None:
        return np.einsum("pa,fab,qb->fpq", vj, m, vk).max(axis=(1, 2))
    if vj is not None:
        return rk * np.linalg.norm(np.einsum("pa,fab->fpb", vj, m), axis=-1).max(axis=1)
    if vk is not None:
        return rj * np.linalg.norm(np.einsum("fab,qb->fqa", m, vk), axis=-1).max(axis=1)
    return rj * rk * np.linalg.norm(m, 2, axis=(1, 2))


def _layer_tensor(alg: NilpotentAlgebra, filt: Filtration):
    """(t, ends): the bracket tensor in the filtration's layer coordinates, and
    the offsets that delimit each layer's block of them."""
    layers = filt.layers
    basis = np.vstack(layers)
    t = np.einsum("pqr,cr->pqc", alg.tensor, basis)
    t = np.einsum("pbc,ap->abc", np.einsum("pqc,bq->pbc", t, basis), basis)
    return t, np.cumsum([0] + [b.shape[0] for b in layers])


def _layer_sup(norm: HomogeneousNorm, t: np.ndarray, ends: np.ndarray, i: int) -> float:
    """An upper bound on sup phi_i([u, v]_i) over u, v in the unit ball of the
    layers below layer i (0-based), in closed form.

    The ball is the product of the layer balls B_j, and the part of [u, v]
    in layer i is sum_{j+k<=i} T_jk(u_j, v_k), T_jk the bracket of layers j
    and k in layer i's coordinates ([m_j, m_k] lies in F^(j+k), orthogonal
    to layer i when j + k > i).  A segment or polygon target has
    phi_i(z) = max_f w_f.z, w_f = a_f / b_f, so the sup is at most max_f
    sum_{j,k} sup over B_j x B_k of w_f.T_jk; a euclidean target takes the
    same sums per coordinate, and their root sum of squares over lambda_i.
    """
    balls = [(None, norm.layer_scales[j]) if facets is None else (norm.hull_vertices[j], 1.0)
             for j, facets in enumerate(norm.hull_facets[:i])]
    facets = norm.hull_facets[i]
    w = np.eye(ends[i + 1] - ends[i]) if facets is None else facets[:, :-1] / facets[:, -1:]
    sums = np.zeros(len(w))
    for j in range(i):
        for k in range(i - j):  # weights (j + 1) + (k + 1) <= i + 1
            tjk = t[ends[j]:ends[j + 1], ends[k]:ends[k + 1], ends[i]:ends[i + 1]]
            if np.any(tjk):
                sums += _pair_sups(np.einsum("abc,fc->fab", tjk, w), balls[j], balls[k])
    top = np.max(sums) if facets is not None else np.linalg.norm(sums) / norm.layer_scales[i]
    return float(top)


def bilinearity_certificate(norm: HomogeneousNorm, t: np.ndarray, ends: np.ndarray) -> float:
    """An upper bound on sup |[u, v]| over the gauge's unit ball, in closed
    form: the largest weight w's _layer_sup to the 1/w, raised by 16 ulp for
    the rounding of the sums."""
    bound = 0.0
    for i in range(len(ends) - 1):
        if ends[i] < ends[i + 1]:
            bound = max(bound, _layer_sup(norm, t, ends, i) ** (1.0 / (i + 1)))
    return bound * (1.0 + 16 * float(np.finfo(float).eps))


def _build_hull_layer(alg: NilpotentAlgebra, norm: HomogeneousNorm, weight: int,
                      kappa_w: float, hull_samples: int, seed: int):
    """Vertices (layer coords) of kappa * [sphere_1, boundary_(w-1)]."""
    filt = norm.filtration
    b1 = filt.layers[0]
    bprev = filt.layers[weight - 2]
    btarget = filt.layers[weight - 1]
    if b1.shape[0] == 0 or bprev.shape[0] == 0:
        return None
    rng = substream(seed, STREAM_GAUGE, 4, weight)
    dirs = rng.standard_normal((hull_samples, b1.shape[0]))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    g = _layer_gauge(norm, 1, dirs)
    # dirs * (1 / g) rounds unlike dirs / g, and adding into +0.0 folds
    # signed zeros: the hull's vertex bytes rest on both
    u = np.zeros((hull_samples, b1.shape[1]))
    u += (dirs * (1.0 / np.maximum(g, 1e-300))[:, None]) @ b1
    dirs = rng.standard_normal((hull_samples, bprev.shape[0]))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    g = _layer_gauge(norm, weight - 1, dirs)
    wv = (dirs / np.maximum(g, 1e-300)[:, None]) @ bprev
    # structured pairs: basis directions and previous-layer extreme points
    extremes = norm.hull_vertices[weight - 2]
    if extremes is None:
        prev_pts = np.vstack([bprev, -bprev]) * norm.layer_scales[weight - 2]
    else:
        prev_pts = extremes @ bprev
    base_pts = np.vstack([b1, -b1])
    uu = np.vstack([u, np.repeat(base_pts, len(prev_pts), axis=0)])
    ww = np.vstack([wv, np.tile(prev_pts, (len(base_pts), 1))])
    prods = alg.bracket(uu, ww) @ btarget.T
    # rows below RANK_RTOL of the largest possible bracket are rounding residue
    scale = euclidean_bilinearity_bound(alg) * float(
        np.max(scaled_norm(uu, axis=1)) * np.max(scaled_norm(ww, axis=1)))
    prods = prods[scaled_norm(prods, axis=1) > RANK_RTOL * scale]
    if prods.shape[0] == 0:
        return None
    return kappa_w * np.vstack([prods, -prods])


# ---------------------------------------------------------------------------
# serialization

def gauge_descriptor(norm: HomogeneousNorm) -> dict:
    """JSON-ready description; hashed into run manifests."""
    return {
        "mode": norm.mode,
        "depth": norm.filtration.depth,
        "weights": list(norm.filtration.weights),
        "layer_dims": list(norm.filtration.layer_dims()),
        "kappa": [float(k) for k in norm.kappa],
        "layer_scales": [float(s) for s in norm.layer_scales],
        "hull_vertices": [None if v is None else v.tolist() for v in norm.hull_vertices],
        "fallback_weights": list(norm.fallback_weights),
    }
