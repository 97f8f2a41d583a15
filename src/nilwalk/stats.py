"""Concentration diagnostics: tail curves, exponent fits, growth checks.

The estimators quantify how a family of samples concentrates:

  * tail_curve        exceedance probabilities with exact 95% Clopper-Pearson
                      bands, inverted in numpy from the binomial tail
  * fit_alpha         two independent estimates of the exponent alpha in
                      P(|f| >= t) <= c2 exp(-c1 t^alpha): one from the
                      growth of L^p norms (||f||_p ~ p^(1/alpha)), one from
                      the slope of log(-log p) against log t
  * lil_diagnostic    per-replicate sup of |y_n| / (n log log n)^alpha
                      along dyadic times, with an unbounded-growth flag

fit_alpha and lil_diagnostic return report sections: the fit entries of
fit-report.json and its "lil" entry, as plain dicts of floats, ints, bools
and lists.  The two alpha estimates answer different questions and are
reported side by side, never averaged.
"""

from __future__ import annotations

import numpy as np

from .binomial import cp_bound
from .rng import STREAM_BOOTSTRAP, substream

MOMENT_ORDERS = (2, 4, 8, 16)
TAIL_WINDOW = (1e-4, 0.2)
BOUNDED_SUPPORT_ALPHA = 5.0
# width, height and margin of every SVG plot
SVG_FRAME = (640, 420, 56)


def tail_curve(samples: np.ndarray, thresholds: np.ndarray):
    """(p_hat, lower, upper) exceedance estimates with 95% Clopper-Pearson bands.

    With k of the n samples at or above a threshold, the lower bound solves
    P(Bin(n, x) >= k) = 0.025 and the upper bound P(Bin(n, x) <= k) = 0.025
    (Clopper & Pearson, Biometrika 26, 1934); they are 0 at k = 0 and 1 at
    k = n.  binomial.cp_bound inverts both in numpy.
    """
    x = np.abs(np.asarray(samples, dtype=float))
    t = np.asarray(thresholds, dtype=float)
    n = x.size
    k = (x[None, :] >= t[:, None]).sum(axis=1)
    p_hat = k / n
    lo, hi = np.zeros(k.shape), np.ones(k.shape)
    k_lo, k_hi = k[k > 0], k[k < n]
    bounds = cp_bound(np.concatenate([k_lo, k_hi + 1]).astype(float),
                      np.concatenate([n - k_lo + 1, n - k_hi]).astype(float),
                      np.arange(k_lo.size + k_hi.size) >= k_lo.size)
    lo[k > 0], hi[k < n] = bounds[:k_lo.size], bounds[k_lo.size:]
    return p_hat, lo, hi


def _tail_grid(groups: list[np.ndarray]) -> np.ndarray:
    pooled = np.sort(np.concatenate(groups))
    n = pooled.size
    lo_p = max(TAIL_WINDOW[0], 2.0 / n)
    probs = np.geomspace(TAIL_WINDOW[1], lo_p, 25)
    idx = np.clip((np.ceil((1.0 - probs) * n) - 1).astype(int), 0, n - 1)
    return np.unique(pooled[idx])


def _fit_alpha_once(tables, t_grid, picks):
    """One fit over the groups, group i resampled at the indices picks[i]:
    both exponents, the moment constant, the family exceedance
    sup_n P(|f_n| >= t) on t_grid, its usable window and the family norms.
    tables[i] holds group i's g ** p for each of MOMENT_ORDERS and how many
    grid points each sample reaches (t_grid[k] <= g), so a resample costs
    gathers and one bincount."""
    fam = np.array([max(float(np.mean(pows[j][pick]) ** (1.0 / p))
                        for (pows, _), pick in zip(tables, picks))
                    for j, p in enumerate(MOMENT_ORDERS)])
    p_hat = np.zeros_like(t_grid)
    for (_, reach), pick in zip(tables, picks):
        hits = reach[pick]
        count = np.cumsum(np.bincount(hits, minlength=t_grid.size + 1)[::-1])[::-1]
        p_hat = np.maximum(p_hat, count[1:] / hits.size)
    lp = np.log(np.asarray(MOMENT_ORDERS, dtype=float))
    with np.errstate(divide="ignore"):  # all-zero samples: log 0 = -inf, so alpha_m is inf
        log_fam = np.log(fam)
    slope, intercept = np.polyfit(lp, log_fam, 1)
    alpha_m = 1.0 / slope if slope > 0 else np.inf
    c_m = float(np.exp(intercept))

    mask = (p_hat >= TAIL_WINDOW[0]) & (p_hat <= TAIL_WINDOW[1]) & (t_grid > 0) & (p_hat < 1)
    if mask.sum() >= 3:
        x = np.log(t_grid[mask])
        yv = np.log(-np.log(p_hat[mask]))
        alpha_t, icpt_t = np.polyfit(x, yv, 1)
    else:
        alpha_t, icpt_t = np.nan, np.nan
    return alpha_m, c_m, alpha_t, p_hat, mask, fam


@np.errstate(over="ignore")  # flagged moment-overflow or tail-overflow instead
def fit_alpha(samples_by_n: dict[int, np.ndarray], n_bootstrap: int, seed: int) -> dict:
    """Joint concentration-exponent fit for a family of sample groups.

    The moment route regresses the family norm sup_n ||f_n||_p on p over
    MOMENT_ORDERS; the tail route regresses the double log of the family
    exceedance on log t inside TAIL_WINDOW.  Confidence intervals are
    percentile bootstrap over n_bootstrap resamples drawn from seed.
    Returns the fit entries of fit-report.json: both exponents with their
    intervals, c_moment (||f||_p <~ c_moment p^(1/alpha_moments)), c1 and
    c2 (tail bound c2 exp(-c1 t^alpha_tail)), the moment orders with the
    family norms sup_n ||f_n||_p, and the flags.
    """
    groups = [np.abs(np.asarray(v, dtype=float).ravel()) for v in samples_by_n.values()]
    if not groups:
        raise ValueError("need at least one sample group")
    flags = []
    if all(float(np.std(g)) < 1e-15 for g in groups):
        flags.append("degenerate-samples")
    t_grid = _tail_grid(groups)
    tables = [([g ** p for p in MOMENT_ORDERS], np.searchsorted(t_grid, g, "right"))
              for g in groups]
    alpha_m, c_m, alpha_t, p_hat, mask, fam = _fit_alpha_once(tables, t_grid,
                                                              [slice(None)] * len(groups))
    if not np.isfinite(fam).all():
        flags.append("moment-overflow")
    if mask.sum() < 3:
        flags.append("tail-window-too-narrow")

    rng = substream(seed, STREAM_BOOTSTRAP, 1)
    boots_m, boots_t = [], []
    for _ in range(n_bootstrap):
        picks = [rng.integers(0, g.size, g.size) for g in groups]
        am, _, at, _, _, _ = _fit_alpha_once(tables, t_grid, picks)
        boots_m.append(am)
        boots_t.append(at)

    # second pass for the tail-bound constants with alpha fixed
    c1, c2 = np.nan, np.nan
    if np.isfinite(alpha_t) and mask.sum() >= 2:
        design = t_grid[mask] ** alpha_t
        if np.isfinite(design @ design):  # polyfit scales by the root sum of squares
            a, b = np.polyfit(design, np.log(p_hat[mask]), 1)
            c1, c2 = float(-a), float(np.exp(b))
        else:
            flags.append("tail-overflow")

    if np.isfinite(alpha_m) and alpha_m > BOUNDED_SUPPORT_ALPHA and \
            (not np.isfinite(alpha_t) or alpha_t > BOUNDED_SUPPORT_ALPHA):
        flags.append("bounded-support-regime")

    return {"alpha_moments": float(alpha_m), "alpha_moments_ci": _pct_ci(boots_m),
            "alpha_tail": float(alpha_t), "alpha_tail_ci": _pct_ci(boots_t),
            "c_moment": c_m, "c1": c1, "c2": c2, "moment_orders": list(MOMENT_ORDERS),
            "family_norms": fam.tolist(), "flags": flags}


def _pct_ci(values) -> list[float]:
    """Central 95% percentile interval of the finite values; NaNs when there are none."""
    arr = np.asarray([v for v in values if np.isfinite(v)], dtype=float)
    if arr.size == 0:
        return [np.nan, np.nan]
    return np.percentile(arr, [2.5, 97.5]).tolist()


# ---------------------------------------------------------------------------
# iterated-logarithm growth diagnostic

def lil_diagnostic(dyadic_n, values: np.ndarray, alpha: float) -> dict:
    """Scaled growth along dyadic times.

    values[r, j] is the displacement statistic of replicate r at time
    dyadic_n[j].  The per-replicate constant is max_j of
    values / (n log log n)^alpha.  Growth is flagged when the scaled
    ratio is still climbing at the end of the range: in more than half
    of the replicates the largest ratio occurs among the last three
    times.  When the exponent is right the ratio sequence
    is roughly stationary and its peak falls anywhere, so the fraction
    stays far below one half; when the exponent is too small the ratio
    drifts upward and the peak concentrates at the top.  Returns the
    "lil" entry of fit-report.json: the median and quartiles of the
    per-replicate constants, the peak-at-top fraction and flag, and the
    per-time median of the scaled ratio.
    """
    ns = np.asarray(dyadic_n, dtype=float)
    vals = np.asarray(values, dtype=float)
    if vals.shape[1] != ns.size:
        raise ValueError("values must have one column per dyadic time")
    usable = ns >= 4  # log log n must be positive
    ns = ns[usable]
    vals = vals[:, usable]
    denom = (ns * np.log(np.log(ns))) ** alpha
    ratios = vals / denom[None, :]
    c_hat = ratios.max(axis=1)
    peak_top = np.argmax(ratios, axis=1) >= ratios.shape[1] - 3
    frac = float(np.mean(peak_top))
    return {"alpha": float(alpha), "dyadic_n": [int(v) for v in ns],
            "median_c": float(np.median(c_hat)),
            "c_hat_quartiles": np.percentile(c_hat, [25, 50, 75]).tolist(),
            "frac_peak_top": frac, "unbounded_flag": frac > 0.5,
            "median_ratio": np.median(ratios, axis=0).tolist()}


# ---------------------------------------------------------------------------
# plain SVG rendering (no plotting dependency, fully deterministic)

def _svg_frame(title: str) -> list[str]:
    """The opening tag, white background, title and both axes of a plot."""
    w, h, m = SVG_FRAME
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
            f'<text x="{w/2:.1f}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>',
            f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
            f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>']


def render_tail_svg(t: np.ndarray, p_hat: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray, fitted, title: str) -> str:
    """Static log-log tail plot as an SVG string.

    fitted is None or (c1, c2, alpha) for the curve c2 exp(-c1 t^alpha).
    """
    w, h, m = SVG_FRAME
    t = np.asarray(t, dtype=float)
    p = np.asarray(p_hat, dtype=float)
    keep = (t > 0) & (p > 0)
    t, p = t[keep], p[keep]
    lo = np.maximum(np.asarray(lo, dtype=float)[keep], 1e-12)
    hi = np.maximum(np.asarray(hi, dtype=float)[keep], 1e-12)
    if t.size == 0:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"/>'
    lx, ly = np.log10(t), np.log10(p)
    x0, x1 = float(lx.min()), float(lx.max()) or 1.0
    ylo = float(np.log10(lo).min())
    y1 = float(np.maximum(ly, np.log10(hi)).max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == ylo:
        y1 = ylo + 1.0

    def sx(v):
        return m + (v - x0) / (x1 - x0) * (w - 2 * m)

    def sy(v):
        return h - m - (v - ylo) / (y1 - ylo) * (h - 2 * m)

    parts = _svg_frame(title)
    for xv, pl, ph in zip(lx, np.log10(lo), np.log10(hi)):
        parts.append(f'<line x1="{sx(xv):.2f}" y1="{sy(pl):.2f}" '
                     f'x2="{sx(xv):.2f}" y2="{sy(ph):.2f}" stroke="#999"/>')
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#205080" stroke-width="1.5"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2.5" fill="#205080"/>')
    if fitted is not None:
        c1, c2, al = fitted
        tt = np.geomspace(10 ** x0, 10 ** x1, 64)
        pp = np.maximum(c2 * np.exp(-c1 * tt ** al), 1e-12)
        pts = " ".join(f"{sx(np.log10(a)):.2f},{sy(np.log10(b)):.2f}"
                       for a, b in zip(tt, pp))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#a03020" '
                     f'stroke-dasharray="5,4"/>')
    parts.append(f'<text x="{w/2:.1f}" y="{h-16}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12">log10 t</text>')
    parts.append(f'<text x="16" y="{h/2:.1f}" font-family="monospace" font-size="12" '
                 f'transform="rotate(-90 16 {h/2:.1f})" text-anchor="middle">log10 P</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_histogram_svg(counts: np.ndarray, edges: np.ndarray,
                         title: str, mark: float | None) -> str:
    """Bar-chart SVG for precomputed histogram counts; mark draws a vertical line."""
    w, h, m = SVG_FRAME
    counts = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    peak = max(float(counts.max()), 1.0)
    x0, x1 = float(edges[0]), float(edges[-1])
    if x1 == x0:
        x1 = x0 + 1.0

    def sx(v):
        return m + (v - x0) / (x1 - x0) * (w - 2 * m)

    parts = _svg_frame(title)
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        bh = (h - 2 * m) * c / peak
        parts.append(f'<rect x="{sx(e0):.2f}" y="{h-m-bh:.2f}" '
                     f'width="{max(sx(e1)-sx(e0)-0.5, 0.5):.2f}" height="{bh:.2f}" '
                     f'fill="#4878a8"/>')
    if mark is not None and x0 <= mark <= x1:
        parts.append(f'<line x1="{sx(mark):.2f}" y1="{m}" x2="{sx(mark):.2f}" '
                     f'y2="{h-m}" stroke="#a03020" stroke-dasharray="5,4"/>')
    parts.append(f'<text x="{w/2:.1f}" y="{h-16}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12">value</text>')
    parts.append("</svg>")
    return "\n".join(parts)
