import xml.etree.ElementTree as ET

import numpy as np
import pytest

from nilwalk import stats
from nilwalk.stats import (fit_alpha, lil_diagnostic, render_histogram_svg,
                           render_tail_svg, tail_curve)

from oracles import (binomial_tail_root, direct_fit_once, exponential_p_norm,
                     gaussian_p_norm)
from schema_defaults import with_defaults


def gaussian_groups(n=50_000, seed=0):
    rng = np.random.default_rng(seed)
    # three "time" groups drawn from the same law; the family sup is what
    # the fit consumes
    return {k: rng.normal(size=n) for k in (256, 512, 1024)}


def test_gaussian_moment_norms_match_gamma_formula():
    fit = with_defaults(fit_alpha, gaussian_groups(), n_bootstrap=50)
    for p, got in zip(fit["moment_orders"], fit["family_norms"]):
        want = gaussian_p_norm(p)
        # the family norm is a sup over three groups, so it sits a touch
        # above the single-group expectation; high orders are noisy
        assert got == pytest.approx(want, rel=0.25)
        assert got >= want * 0.9


def test_gaussian_exponents_land_in_band():
    samples = gaussian_groups()
    fit = with_defaults(fit_alpha, samples, n_bootstrap=200)
    assert 1.8 <= fit["alpha_moments"] <= 2.8
    assert 1.3 <= fit["alpha_tail"] <= 2.4
    assert fit["alpha_moments_ci"][0] <= fit["alpha_moments"] <= fit["alpha_moments_ci"][1]
    assert fit["alpha_tail_ci"][0] <= fit["alpha_tail"] <= fit["alpha_tail_ci"][1]
    assert not fit["flags"]
    # the fitted tail bound should reproduce the curve it was fit to, read
    # off the grid by the direct route
    groups = [np.abs(g) for g in samples.values()]
    t_grid = stats._tail_grid(groups)
    *_, p_hat, mask, _ = direct_fit_once(groups, t_grid, stats.MOMENT_ORDERS, stats.TAIL_WINDOW)
    t, p = t_grid[mask], p_hat[mask]
    model = fit["c2"] * np.exp(-fit["c1"] * t ** fit["alpha_tail"])
    assert np.max(np.abs(np.log(model) - np.log(p))) < 1.0


def test_exponential_tail_exponent_near_one():
    rng = np.random.default_rng(3)
    fit = with_defaults(fit_alpha, {1: rng.exponential(size=60_000)}, n_bootstrap=100)
    assert 0.85 <= fit["alpha_tail"] <= 1.15
    assert fit["family_norms"][0] == pytest.approx(exponential_p_norm(2), rel=0.05)


def test_power_rescaling_halves_the_tail_exponent():
    """|x|^2 has tail exp(-t^(alpha/2)) when |x| has tail exp(-t^alpha)."""
    rng = np.random.default_rng(4)
    x = rng.exponential(size=60_000)
    base = with_defaults(fit_alpha, {1: x}, n_bootstrap=10)
    squared = with_defaults(fit_alpha, {1: x ** 2}, n_bootstrap=10)
    assert squared["alpha_tail"] == pytest.approx(base["alpha_tail"] / 2, rel=0.15)


def test_bounded_support_is_flagged():
    rng = np.random.default_rng(5)
    fit = with_defaults(fit_alpha, {1: rng.uniform(0.5, 1.0, size=40_000)}, n_bootstrap=10)
    assert "bounded-support-regime" in fit["flags"]
    assert fit["alpha_moments"] > 5.0


def test_degenerate_samples_flagged():
    fit = with_defaults(fit_alpha, {1: np.full(100, 2.0)}, n_bootstrap=5)
    assert "degenerate-samples" in fit["flags"]


def _fit_cases():
    rng = np.random.default_rng(9)
    ties = rng.integers(0, 12, size=(3, 400)).astype(float)  # grid points are sample values
    zeros = rng.normal(size=500)
    zeros[::7] = 0.0
    return {
        "unequal-sizes": ({4: rng.exponential(size=300), 16: rng.normal(size=1000),
                           64: rng.standard_t(3, size=57)}, 40),
        "ties": ({n: row for n, row in zip((8, 16, 32), ties)}, 40),
        "zeros": ({1: zeros, 2: rng.normal(size=200)}, 40),
        "degenerate": ({1: np.full(50, 2.0), 2: np.full(80, 2.0)}, 20),
        "no-bootstrap": ({4: rng.normal(size=2000), 8: rng.exponential(size=900)}, 0),
        # one sample's 16th power overflows, so some resamples have a finite
        # moment sum and some do not
        "overflow": ({1: np.where(np.arange(300) == 7, 1e20, rng.normal(size=300)),
                      2: rng.normal(size=100)}, 40),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_fit_cases()))
def test_fit_alpha_bit_equal_to_direct_route(monkeypatch, case):
    """Tabulated powers and reached-grid counts, reweighted by each
    resample's counts, give every field that the resampled groups run
    through the definitions give: bit for bit, except alpha_moments_ci,
    whose resample moment sums are added in another order."""
    samples, n_boot = _fit_cases()[case]
    fast = fit_alpha(samples, n_bootstrap=n_boot, seed=3)
    groups = [np.abs(g) for g in samples.values()]
    by_counts, pairs = stats._fit_alpha_once, []

    def direct_once(tables, t_grid, counts):
        counts = list(counts)
        resampled = [g if w is None else np.repeat(g, w.astype(int))
                     for g, w in zip(groups, counts)]
        want = direct_fit_once(resampled, t_grid, stats.MOMENT_ORDERS, stats.TAIL_WINDOW)
        pairs.append((by_counts(tables, t_grid, counts), want))
        return want

    monkeypatch.setattr(stats, "_fit_alpha_once", direct_once)
    direct = fit_alpha(samples, n_bootstrap=n_boot, seed=3)
    assert len(pairs) == n_boot + 1
    for (am, _, at, *_), (want_am, _, want_at, *_) in pairs:
        assert np.isfinite(am) == np.isfinite(want_am)
        if np.isfinite(am):
            assert am == pytest.approx(want_am, rel=1e-13, abs=0)
        assert np.array_equal(at, want_at, equal_nan=True)
    assert fast.keys() == direct.keys()
    for key in fast:
        got, want = fast[key], direct[key]
        if key == "flags":
            assert got == want
        elif key == "alpha_moments_ci":
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        else:
            assert np.array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                                  equal_nan=True), key
    if case == "degenerate":
        assert "degenerate-samples" in fast["flags"]
    if case == "overflow":
        assert "moment-overflow" in fast["flags"]
        assert len({bool(np.isfinite(pair[0][0])) for pair in pairs[1:]}) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 200, 20_001])
def test_distinct_quantiles_and_median_match_numpy(n):
    """stats' numpy.ma-free replacements give numpy's results bit for bit,
    on ties too."""
    rng = np.random.default_rng(n)
    x = rng.standard_t(2, size=n)
    x[::3] = np.round(x[::3])
    assert np.array_equal(stats.distinct(x), np.unique(x))
    q = [0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0]
    assert np.array_equal(stats.quantiles(x, q), np.quantile(x, q))
    assert stats.quantiles(x, 0.5) == np.quantile(x, 0.5)
    assert np.array_equal(stats.quantiles(x, [0.025, 0.975]), np.percentile(x, [2.5, 97.5]))
    assert np.array_equal(stats.quantiles(x, [0.25, 0.5, 0.75]), np.percentile(x, [25, 50, 75]))
    assert stats.median(x, None) == np.median(x)
    table = rng.exponential(size=(n, 5))
    assert np.array_equal(stats.median(table, 0), np.median(table, axis=0))


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        with_defaults(fit_alpha, {})


def test_tail_curve_exponential_coverage():
    rng = np.random.default_rng(6)
    x = rng.exponential(size=10_000)
    t = np.array([0.0, 1.0, 2.0, 50.0])
    p, lo, hi = tail_curve(x, t)
    assert p[0] == 1.0 and hi[0] == 1.0           # k = n guard
    assert p[3] == 0.0 and lo[3] == 0.0           # k = 0 guard
    for ti, pi, l, u in zip(t[1:3], p[1:3], lo[1:3], hi[1:3]):
        assert l <= pi <= u
        assert l <= np.exp(-ti) <= u


def test_tail_curve_counts_equal_the_comparison_table():
    """Bisecting the sorted |samples| finds, at every threshold, the count of
    samples at or above it that a (thresholds x samples) table sums: ties,
    signed zeros and thresholds outside the samples included."""
    x = np.round(np.random.default_rng(11).standard_normal(2001) * 4) / 2  # many ties
    x[:3] = [-0.0, 0.0, -2.5]
    t = np.r_[-1.0, -0.0, 0.0, np.abs(x[:50]), 0.25, 1e9]
    p, _, _ = tail_curve(x, t)
    k = (np.abs(x)[None, :] >= t[:, None]).sum(axis=1)
    assert np.array_equal(p, k / x.size)


def count_band(n, k):
    """tail_curve on the samples 1 .. n at thresholds with k samples at or above."""
    return tail_curve(np.arange(1, n + 1), n + 1 - np.asarray(k))


@pytest.mark.parametrize("n", [1, 2, 50, 1_000, 20_000, 100_000])
def test_band_matches_betaincinv(n):
    """Both bounds agree with scipy's betaincinv to 1e-12 relative; where
    they differ by more than 1e-13, the exact binomial tail's root decides,
    and the band must be the one within 1e-13 of it."""
    from scipy.special import betaincinv
    k = np.unique(np.r_[[0, 1, 2, n // 2, n - 2, n - 1, n], np.linspace(0, n, 30).astype(int)])
    k = k[(k >= 0) & (k <= n)]
    p, lo, hi = count_band(n, k)
    assert np.array_equal(p, k / n)
    assert np.all(lo <= p) and np.all(p <= hi)
    assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)
    assert lo[0] == 0.0 and hi[-1] == 1.0  # k = 0 and k = n
    for bound, ks, ref, upper in [
            (lo[1:], k[1:], betaincinv(k[1:], n - k[1:] + 1, 0.025), False),
            (hi[:-1], k[:-1], betaincinv(k[:-1] + 1, n - k[:-1], 0.975), True)]:
        gap = np.abs(bound - ref) / ref
        assert gap.max() <= 1e-12, (upper, ks[gap.argmax()], gap.max())
        for j in np.flatnonzero(gap > 1e-13):
            exact = binomial_tail_root(n, int(ks[j]), upper, ref[j])
            assert abs(bound[j] - exact) <= 1e-13 * exact, (upper, ks[j])


@pytest.mark.parametrize("k", [1, 2])
def test_small_upper_bound_at_large_n_matches_exact_tail(k):
    """At n 10^6 scipy's betaincinv misses these upper bounds by 1e-12 and
    1e-11 relative; the band tracks the exact tail's root to 1e-14."""
    n = 10 ** 6
    _, lo, hi = count_band(n, [k])
    for bound, upper in ((lo[0], False), (hi[0], True)):
        exact = binomial_tail_root(n, k, upper, bound)
        assert abs(bound - exact) <= 1e-14 * exact, upper


def test_lil_exact_rate_not_flagged():
    ns = [2 ** j for j in range(2, 11)]
    denom = np.array([n * np.log(np.log(n)) for n in ns])
    vals = np.tile(np.sqrt(denom), (40, 1))
    rep = lil_diagnostic(ns, vals, alpha=0.5)
    assert rep["median_c"] == pytest.approx(1.0, abs=1e-12)
    assert not rep["unbounded_flag"]


def sqrt_growth():
    """Dyadic times and 60 replicates of sqrt(n) times uniform noise in [0.9, 1.1]."""
    ns = [2 ** j for j in range(2, 13)]
    rng = np.random.default_rng(10)
    noise = rng.uniform(0.9, 1.1, size=(60, len(ns)))
    return ns, np.sqrt(np.array(ns, dtype=float))[None, :] * noise


def test_lil_wrong_exponent_flagged():
    ns, vals = sqrt_growth()
    right = lil_diagnostic(ns, vals, alpha=0.5)
    # at the true exponent the scaled ratio decays, peaks come early
    assert right["frac_peak_top"] < 0.5
    assert not right["unbounded_flag"]
    low = lil_diagnostic(ns, vals, alpha=0.25)
    assert low["frac_peak_top"] > 0.5
    assert low["unbounded_flag"]


def test_lil_quartiles_bracket_the_median():
    rep = lil_diagnostic(*sqrt_growth(), alpha=0.5)
    quartiles = rep["c_hat_quartiles"]
    assert len(quartiles) == 3 and quartiles == sorted(quartiles)
    assert quartiles[1] == pytest.approx(rep["median_c"], rel=1e-12)


def test_lil_drops_tiny_times_and_checks_shape():
    ns = [2, 4, 8, 16]
    vals = np.ones((5, 4))
    rep = lil_diagnostic(ns, vals, alpha=0.5)
    assert rep["dyadic_n"] == [4, 8, 16]
    with pytest.raises(ValueError):
        lil_diagnostic([4, 8], np.ones((5, 3)), alpha=0.5)


def test_tail_svg_is_wellformed_xml():
    t = np.geomspace(0.5, 4.0, 12)
    p = np.exp(-t)
    lo, hi = p * 0.8, np.minimum(p * 1.25, 1.0)
    svg = render_tail_svg(t, p, lo, hi, fitted=(1.0, 1.0, 1.0),
                          title="exp tail")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "exp tail" in body
    assert "polyline" in svg


def test_histogram_svg_is_wellformed_xml():
    counts, edges = np.histogram(np.linspace(0, 1, 100) ** 2, bins=8)
    svg = render_histogram_svg(counts, edges, title="ratios", mark=0.5)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.count("<rect") >= 8
    assert "ratios" in svg
