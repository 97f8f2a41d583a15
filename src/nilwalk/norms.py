"""Homogeneous gauges adapted to a filtration.

A gauge assigns each nonempty layer m_i a norm phi_i; the homogeneous norm
of u is max_i phi_i(u_i)^(1/i).  It scales linearly under the adapted
dilations D_r (r^i on the weight-i layer).  Two constructions:

scaled_euclidean
    phi_i = euclidean / lambda_i.  Layer one is plain euclidean.  Each scale
    starts from a kappa-derived value times the smallest power of two that
    brings a sampled bilinearity constant to <= 1 (exactly: a power of two
    divides each sampled value exactly), as the concentration arguments need.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (RANK_RTOL, Filtration, NilpotentAlgebra, layer_components, project_onto,
                      scaled_norm)
from .bch import TABLE_CAP, bch, dynkin_table
from .errors import NumericalValidationError
from .rng import STREAM_GAUGE, substream

DEFAULT_CALIBRATION_PAIRS = 100_000
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


def hom_norm(norm: HomogeneousNorm, x: np.ndarray) -> np.ndarray | float:
    """|x| = max_i phi_i(x_i)^(1/i); scalar in, scalar out."""
    x = np.asarray(x, dtype=float)
    comps = layer_components(norm.filtration, x)
    out = np.zeros(x.shape[:-1])
    for i, coords in enumerate(comps):
        if coords.shape[-1] == 0:
            continue
        g = _layer_gauge(norm, i + 1, coords)
        out = np.maximum(out, np.maximum(g, 0.0) ** (1.0 / (i + 1)))
    return float(out) if out.ndim == 0 else out


def dilate(filt: Filtration, r: float, x: np.ndarray) -> np.ndarray:
    """Adapted dilation: multiply the weight-i component by r^i."""
    x = np.asarray(x, dtype=float)
    return sum((r ** (i + 1)) * project_onto(basis, x) for i, basis in enumerate(filt.layers))


# ---------------------------------------------------------------------------
# sampling helpers

def _sample_ball(rng, norm: HomogeneousNorm, count: int, upto_weight: int,
                 on_sphere: bool = False) -> np.ndarray:
    """Points of the unit ball of the partial gauge using layers <= upto_weight."""
    filt = norm.filtration
    out = np.zeros((count, filt.layers[0].shape[1]))
    for i in range(upto_weight):
        basis = filt.layers[i]
        k = basis.shape[0]
        if k == 0:
            continue
        dirs = rng.standard_normal((count, k))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        radii = np.ones(count) if on_sphere else rng.random(count) ** (1.0 / k)
        g = _layer_gauge(norm, i + 1, dirs)  # gauge of the unit direction
        coords = dirs * (radii / np.maximum(g, 1e-300))[:, None]
        out += coords @ basis
    return out


def bilinearity_constant(norm: HomogeneousNorm, alg: NilpotentAlgebra,
                         n_pairs: int, seed: int) -> float:
    """Sampled sup of phi([u, v]) over unit-ball pairs.

    A lower estimate of the true constant: sampling can only miss the sup.
    """
    rng = substream(seed, STREAM_GAUGE, 1)
    depth = norm.filtration.depth
    u = _sample_ball(rng, norm, n_pairs, depth)
    v = _sample_ball(rng, norm, n_pairs, depth)
    vals = hom_norm(norm, alg.bracket(u, v))
    return float(np.max(vals)) if n_pairs else 0.0


def subadditivity_defect(norm: HomogeneousNorm, alg: NilpotentAlgebra,
                         n_pairs: int, seed: int):
    """max |u * v| - |u| - |v| over pairs sampled in the euclidean box [-1, 1]^d.

    Returns (defect, (u, v)) with the maximizing pair; a positive defect
    exhibits a violation of the triangle inequality.
    """
    rng = substream(seed, STREAM_GAUGE, 2)
    d = alg.dim
    u = rng.uniform(-1.0, 1.0, size=(n_pairs, d))
    v = rng.uniform(-1.0, 1.0, size=(n_pairs, d))
    defects = hom_norm(norm, bch(alg, u, v)) - hom_norm(norm, u) - hom_norm(norm, v)
    k = int(np.argmax(defects))
    return float(defects[k]), (u[k], v[k])


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
                calibration_pairs: int = DEFAULT_CALIBRATION_PAIRS,
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

    per_layer_pairs = max(256, calibration_pairs // max(1, depth - 1))
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
        rng = substream(seed, STREAM_GAUGE, 3, w)
        u = _sample_ball(rng, norm, per_layer_pairs, w - 1)
        v = _sample_ball(rng, norm, per_layer_pairs, w - 1)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            worst = float(np.max(_layer_gauge(norm, w, alg.bracket(u, v) @ basis.T)))
            if worst > 1.0:  # the smallest k with worst / 2^k <= 1
                mant, exp = np.frexp(worst)
                scales[i] = float(np.ldexp(scales[i], exp - (mant == 0.5)))
        if not (np.isfinite(worst) and np.isfinite(scales[i])):
            raise NumericalValidationError(f"gauge calibration is not finite at weight {w}: "
                                           f"constant {worst:.3e}, scale {scales[i]:.3e}")

    norm.bilinearity_bound = bilinearity_constant(
        norm, alg, n_pairs=min(20_000, calibration_pairs), seed=seed)
    return norm


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
    u = _sample_ball(rng, norm, hull_samples, 1, on_sphere=True)
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
        "hull_vertices": [None if v is None else [[float(c) for c in row] for row in v]
                          for v in norm.hull_vertices],
        "fallback_weights": list(norm.fallback_weights),
    }
