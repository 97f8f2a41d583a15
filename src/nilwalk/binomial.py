"""Exact 95% Clopper-Pearson bounds in numpy.

Each bound on a binomial proportion solves P(Bin(n, x) >= k) = CP_TAIL or
P(Bin(n, x) <= k) = CP_TAIL for x, which is the inverse of a regularised
incomplete beta function at integer parameters; cp_bound computes it to a
few ulp.  Working arrays hold one entry per bound, nothing of size n.
"""

from __future__ import annotations

import math

import numpy as np

# probability outside the 95% Clopper-Pearson band on each side
CP_TAIL = 0.025
# standard normal quantile at 1 - CP_TAIL
_CP_Z = 1.959963984540054
# Halley steps per band; 7 have sufficed for every n <= 1e7 and k tried
_CP_MAX_STEPS = 12
# stirlerr(n) = log n! - log(sqrt(2 pi n) (n / e)^n) for n = 0 .. 15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
_LN_2PI = math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)


def _stirlerr(n):
    """log n! - log(sqrt(2 pi n) (n / e)^n) at integer n >= 0: the table up
    to 15, the Stirling series above."""
    m = np.maximum(n, 16.0)
    s = 1.0 / (m * m)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / m
    return np.where(n < 16, _STIRLERR[np.minimum(n, 15).astype(np.int64)], series)


def _bd0(x, m):
    """x log(x / m) + m - x without cancellation near x = m (the series in
    v = (x - m) / (x + m), used while |v| < 0.1)."""
    d = x - m
    v = d / (x + m)
    series, term, v2 = d * v, 2.0 * x * v, v * v
    for j in range(3, 21, 2):
        term = term * v2
        series = series + term / j
    return np.where(np.abs(v) < 0.1, series, x * np.log(x / m) + m - x)


def _dbinom(k, n, p, q):
    """Binomial pmf C(n, k) p^k q^(n - k) at integers 1 <= k <= n, in
    Loader's saddle-point form (C. Loader, "Fast and accurate computation of
    binomial probabilities", 2000): no log-gamma cancellation, and p and
    q = 1 - p are passed apart so the smaller keeps its relative precision."""
    top = k == n
    kk, rest = np.where(top, 1.0, k), np.where(top, 1.0, n - k)
    lc = (_stirlerr(n) - _stirlerr(kk) - _stirlerr(rest) - _bd0(kk, n * p)
          - _bd0(rest, n * q) - 0.5 * (_LN_2PI + np.log(kk * rest / n)))
    lc_top = np.where(q < 0.1, -_bd0(n, n * p) - n * q, n * np.log(p))
    return np.exp(np.where(top, lc_top, lc))


def _beta_fraction(a, b, x, y):
    """The continued fraction F with I_x(a, b) = x^a y^b / (B(a, b) F), for
    y = 1 - x and x at most the mean a / (a + b), from DiDonato & Morris (ACM
    TOMS 18, 1992), which carries x and y apart.  Evaluated by the modified
    Lentz method; at integer b the fraction ends after b terms."""
    f = a * (a * y - b * x + 1) / (a + 1)
    c, d = f, np.zeros_like(f)
    done = np.zeros(f.shape, dtype=bool)
    m = 0
    while not done.all():
        m += 1
        den = a + 2 * m - 1
        alpha = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (den * den)
        beta = m + m * (b - m) * x / den + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (den + 2)
        d = 1 / (beta + alpha * d)
        c = beta + alpha / c
        delta = np.where(done, 1.0, c * d)
        f = f * delta
        done |= (np.abs(delta - 1) <= _EPS) | (m >= b)
    return f


def cp_bound(a, b, upper):
    """x in (0, 1) with I_x(a, b) = CP_TAIL, or 1 - I_x(a, b) = CP_TAIL where
    upper, for integer a, b >= 1, elementwise.

    I_x(a, b) = P(Bin(a + b - 1, x) >= a).  The smaller tail is
    x^a y^b / (B(a, b) F) with y = 1 - x: the prefactor is
    a dbinom(a; a + b - 1, x) y and F is _beta_fraction, flipped to
    I_y(b, a) above the mean.  Safeguarded Halley steps on the density
    a dbinom(a; a + b - 1, x) / x start from the normal approximation of
    Algorithm AS 109 (Applied Statistics 26, 1977) and stop once a step
    moves x by at most 2 ulp.
    """
    sign = np.where(upper, -1.0, 1.0)  # the sign of the solved tail's slope
    s, t = 1 / (2 * a - 1), 1 / (2 * b - 1)
    h = 2 / (s + t)
    r = (_CP_Z * _CP_Z - 3) / 6
    w = _CP_Z * np.sqrt(h + r) / h - sign * (t - s) * (r + 5 / 6 - 2 / (3 * h))
    x = a / (a + b * np.exp(2 * sign * w))
    lo, hi = np.zeros_like(x), np.ones_like(x)
    for _ in range(_CP_MAX_STEPS):
        y = 1 - x
        flip = x > a / (a + b)
        fa, fb = np.where(flip, b, a), np.where(flip, a, b)
        fx, fy = np.where(flip, y, x), np.where(flip, x, y)
        pmf = _dbinom(fa, fa + fb - 1, fx, fy)
        small = fa * pmf * fy / _beta_fraction(fa, fb, fx, fy)  # I_fx(fa, fb)
        f = np.where(flip == upper, small, 1 - small) - CP_TAIL
        u = f / (sign * fa * pmf / fx)
        above = f * sign < 0  # the root lies above x
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        halley = 1 - 0.5 * u * ((a - 1) / x - (b - 1) / y)
        new = x - u / np.where(halley > 0.5, halley, 1.0)
        new = np.where(new <= lo, 0.5 * (x + lo), np.where(new >= hi, 0.5 * (x + hi), new))
        moved = np.abs(new - x)
        x = new
        if (moved <= 2 * _EPS * x).all():
            break
    return x
