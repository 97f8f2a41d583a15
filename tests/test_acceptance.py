"""Acceptance gate: one test per numbered criterion, at the stated tolerances.

Each test ends in verdict(), which prints a single pass/fail line with the
measured numbers, so a verbose run reads as a checklist.  The heavy Monte
Carlo criteria run at the prescribed replication counts; expect the module
to take several minutes.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nilwalk
from nilwalk import groups
from nilwalk.algebra import (layer_components, lower_central_filtration,
                             lower_central_series, weighted_filtration)
from nilwalk.bch import bch
from nilwalk.cli import default_checkpoints, main
from nilwalk.norms import build_gauge, default_kappas, dilate, hom_norm
from nilwalk.presets import (ALGEBRA_PRESETS, SPLIT_PRESETS, abelian_algebra,
                             build_walk_setup, filiform_algebra, heisenberg_algebra)
from nilwalk.semidirect import StepDistribution, conjugate_distribution, finite_group
from nilwalk.splitting import Lift, big_delta, delta, delta_ratio_scan
from nilwalk.stats import fit_alpha, lil_diagnostic
from nilwalk.walker import WalkConfig, monte_carlo

from oracles import (bilinearity_constant, filiform_rep, heisenberg_rep, nilpotent_expm,
                     nilpotent_logm, rep_coordinates, rep_matrix, subadditivity_defect)
from schema_defaults import with_defaults

MOMENT_ORDERS = (2, 4, 8, 16)


def verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def contain_residual(rows, basis, scale=1.0) -> float:
    """Largest relative distance from the rows to the span of basis."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 1e-12 * max(scale, 1.0)
    if not keep.any():
        return 0.0
    unit = rows[keep] / norms[keep, None]
    if basis.shape[0] == 0:
        return float(np.max(np.linalg.norm(unit, axis=1)))
    resid = unit - (unit @ basis.T) @ basis
    return float(np.max(np.linalg.norm(resid, axis=1)))


def pm_one_line() -> StepDistribution:
    alg = abelian_algebra(1)
    return StepDistribution(alg=alg, q=finite_group(groups.trivial(1)),
                            probs=np.array([0.5, 0.5]),
                            xis=np.array([[1.0], [-1.0]]),
                            kappas=np.array([0, 0]))


def moment_cells(running_max: np.ndarray, ns, exponent: float,
                 per_sqrt_p: bool) -> np.ndarray:
    cells = np.empty((len(ns), len(MOMENT_ORDERS)))
    for j, n in enumerate(ns):
        scaled = running_max[:, j] / float(n) ** exponent
        for k, p in enumerate(MOMENT_ORDERS):
            val = float(np.mean(scaled ** p) ** (1.0 / p))
            cells[j, k] = val / np.sqrt(p) if per_sqrt_p else val
    return cells


def test_criterion_01_bch_matrix_oracle():
    start = time.monotonic()
    worst = 0.0
    cases = ((heisenberg_rep(), heisenberg_algebra()),
             (filiform_rep(4), filiform_algebra(4)))
    rng = np.random.default_rng(1)
    for rep, alg in cases:
        for _ in range(1000):
            x = rng.uniform(-2.0, 2.0, size=alg.dim)
            y = rng.uniform(-2.0, 2.0, size=alg.dim)
            m = nilpotent_expm(rep_matrix(rep, x)) @ nilpotent_expm(rep_matrix(rep, y))
            coords, resid = rep_coordinates(rep, nilpotent_logm(m))
            assert resid <= 1e-9
            worst = max(worst, float(np.max(np.abs(bch(alg, x, y) - coords))))
    elapsed = time.monotonic() - start
    verdict(1, worst <= 1e-9 and elapsed < 10.0,
            f"max residual {worst:.2e} over 2000 pairs, {elapsed:.1f}s")


def test_criterion_02_filtration_invariants():
    rng = np.random.default_rng(2)
    worst = 0.0
    for name, factory in ALGEBRA_PRESETS.items():
        alg = factory()
        scale = float(np.max(np.abs(alg.tensor))) if alg.step > 1 else 1.0
        gammas = lower_central_series(alg)

        def gamma(i):
            return gammas[i - 1] if i - 1 < len(gammas) else np.zeros((0, alg.dim))

        for _ in range(100):
            v = rng.normal(size=alg.dim)
            filt = weighted_filtration(alg, v)
            assert alg.step <= filt.depth <= 2 * alg.step, (name, filt.depth)
            ideals = filt.ideals

            def nth(i):
                if i <= 1:
                    return ideals[0]
                return ideals[i - 1] if i - 1 < len(ideals) else np.zeros((0, alg.dim))

            for k in range(len(ideals) - 1):
                worst = max(worst, contain_residual(ideals[k + 1], ideals[k]))
            for i in range(1, filt.depth + 1):
                bi = nth(i)
                if not bi.shape[0]:
                    continue
                for j in range(i, filt.depth + 1):
                    bj = nth(j)
                    if not bj.shape[0]:
                        continue
                    prods = alg.bracket(bi[:, None, :], bj[None, :, :])
                    worst = max(worst, contain_residual(
                        prods.reshape(-1, alg.dim), nth(i + j), scale))
                worst = max(worst, contain_residual(gamma(i), bi, scale))
                worst = max(worst, contain_residual(nth(2 * i), gamma(i + 1), scale))
            # moving v inside the derived algebra leaves the filtration alone
            g2 = gamma(2)
            if g2.shape[0]:
                moved = weighted_filtration(alg, v + g2.T @ rng.normal(size=g2.shape[0]))
                assert moved.depth == filt.depth
                for a, b in zip(filt.ideals, moved.ideals):
                    worst = max(worst, contain_residual(a, b), contain_residual(b, a))

    heis = weighted_filtration(heisenberg_algebra(), np.array([1.0, 0.0, 0.0]))
    comps = layer_components(heis, np.array([0.0, 0.0, 1.0]))
    e3_at_3 = heis.depth == 3 and np.linalg.norm(comps[2]) == pytest.approx(1.0)
    verdict(2, worst <= 1e-10 and e3_at_3,
            f"max containment residual {worst:.2e}; drifted depth {heis.depth} "
            f"with the bracket direction at weight 3")


def test_criterion_03_gauge_guarantees():
    worst_bil, worst_sub, worst_hom = 0.0, 0.0, 0.0
    for name in ("heisenberg", "filiform4"):
        alg = ALGEBRA_PRESETS[name]()
        filt = lower_central_filtration(alg)
        norm = build_gauge(alg, filt, mode="bracket_hull", seed=0)
        assert norm.kappa == default_kappas(filt.depth)
        worst_bil = max(worst_bil, with_defaults(bilinearity_constant, norm, alg,
                                                 n_pairs=10_000))
        worst_sub = max(worst_sub, with_defaults(subadditivity_defect, norm, alg,
                                                 n_pairs=10_000)[0])
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, alg.dim))
        base = hom_norm(norm, x)
        for r in (1e-2, 1.0, 1e2):
            got = hom_norm(norm, dilate(filt, r, x))
            worst_hom = max(worst_hom, float(np.max(
                np.abs(got - r * base) / np.maximum(r * base, 1e-300))))
    ok = worst_bil <= 1.0 + 1e-9 and worst_sub <= 1e-9 and worst_hom <= 1e-12
    verdict(3, ok, f"bilinearity {worst_bil:.6f}, subadditivity defect "
                   f"{worst_sub:.2e}, homogeneity error {worst_hom:.2e}")


def test_criterion_04_centred_concentration():
    start = time.monotonic()
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    ns = (256, 1024, 4096)
    cfg = with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=ns[-1],
                        checkpoints=ns, replications=10_000, seed=0)
    res = monte_carlo(cfg)
    cells = moment_cells(res.running_max, ns, 0.5, per_sqrt_p=True)
    flat = float(cells.max() / cells.min())
    fit = with_defaults(fit_alpha, {n: res.running_max[:, j] / np.sqrt(n)
                                    for j, n in enumerate(ns)}, n_bootstrap=0)
    elapsed = time.monotonic() - start
    ok = flat <= 2.0 and 1.5 <= fit["alpha_tail"] <= 2.6 and elapsed < 300.0
    verdict(4, ok, f"moment flatness {flat:.3f} <= 2, alpha_tail "
                   f"{fit['alpha_tail']:.3f} in [1.5, 2.6], {elapsed:.0f}s")


def test_criterion_05_drift_scaling():
    ns = tuple(2 ** j for j in range(8, 14))
    reps = 10_000

    drift_std = with_defaults(build_walk_setup, "heisenberg-drift", filtration_choice="standard")
    res_d = monte_carlo(with_defaults(WalkConfig, dist=drift_std.dist, norm=drift_std.norm,
                                      n_steps=ns[-1], checkpoints=ns,
                                      replications=reps, seed=0))
    srw = with_defaults(build_walk_setup, "heisenberg-srw")
    res_s = monte_carlo(with_defaults(WalkConfig, dist=srw.dist, norm=srw.norm,
                                      n_steps=ns[-1], checkpoints=ns,
                                      replications=reps, seed=0))

    # the bracket direction e3 is layer 2 of the lower central series
    med_d = np.median(res_d.layer_euclid[:, :, 1], axis=0)
    med_s = np.median(res_s.layer_euclid[:, :, 1], axis=0)
    slope_d = float(np.polyfit(np.log(ns), np.log(med_d), 1)[0])
    slope_s = float(np.polyfit(np.log(ns), np.log(med_s), 1)[0])

    # drifted maximum at the (2s-1)/2s displacement scale: each moment
    # order is flat across n
    cells_d = moment_cells(res_d.running_max, ns,
                           drift_std.scaling_exponent, per_sqrt_p=False)
    flat_n = float((cells_d.max(axis=0) / cells_d.min(axis=0)).max())
    assert drift_std.scaling_exponent == pytest.approx(0.75)

    # the adapted gauge restores the full sqrt-n subgaussian reading
    adapted = with_defaults(build_walk_setup, "heisenberg-drift")
    ns_a = (256, 1024, 4096)
    res_a = monte_carlo(with_defaults(WalkConfig, dist=adapted.dist, norm=adapted.norm,
                                      n_steps=ns_a[-1], checkpoints=ns_a,
                                      replications=10_000, seed=0))
    cells_a = moment_cells(res_a.running_max, ns_a, 0.5, per_sqrt_p=True)
    flat_a = float(cells_a.max() / cells_a.min())

    ok = (abs(slope_d - 1.5) <= 0.2 and abs(slope_s - 1.0) <= 0.15
          and flat_n <= 2.0 and flat_a <= 2.0)
    verdict(5, ok, f"drift slope {slope_d:.3f} (1.5 +/- 0.2), centred slope "
                   f"{slope_s:.3f} (1.0 +/- 0.15), n^0.75 flatness {flat_n:.3f}, "
                   f"adapted flatness {flat_a:.3f}")


def test_criterion_06_ballistic_window(tmp_path):
    out = tmp_path / "flip"
    code = main(["walk", "--preset", "r1-flip-eps", "--eps", "0.01",
                 "--n", "50", "--reps", "100000", "--out", str(out)])
    assert code == 0
    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    stay = man["derived"]["stay_probability"]
    exact = 0.99 ** 50
    sigma = float(np.sqrt(exact * (1.0 - exact) / 100_000))
    ok = (man["derived"]["kappa_mu"] == 0.02
          and abs(stay["empirical"] - exact) <= 3.0 * sigma
          and stay["within_band"])
    verdict(6, ok, f"kappa_mu = {man['derived']['kappa_mu']} exactly, stay "
                   f"{stay['empirical']:.5f} vs {exact:.5f} +/- {3 * sigma:.5f}")


def test_criterion_07_essential_average():
    alg = abelian_algebra(2)
    q = finite_group(groups.cyclic_rotations(4))
    dist = StepDistribution(alg=alg, q=q, probs=np.array([1.0]),
                            xis=np.array([[1.0, 0.0]]),
                            kappas=np.array([1]))
    y_err = float(np.max(np.abs(dist.centering - np.array([0.5, 0.5]))))
    conj_mean = float(np.max(np.abs(conjugate_distribution(dist).abelianized_mean)))
    lemma = np.linalg.norm(dist.centering) <= dist.radius / dist.kappa_mu + 1e-12
    ok = y_err <= 1e-12 and conj_mean <= 1e-10 and lemma
    verdict(7, ok, f"centering error {y_err:.2e}, conjugated mean "
                   f"{conj_mean:.2e}, |y| <= R/kappa holds")


def test_criterion_08_azuma_baseline():
    norm = with_defaults(build_gauge, abelian_algebra(1),
                         lower_central_filtration(abelian_algebra(1)), mode="scaled_euclidean")
    n, reps = 10_000, 10_000
    cfg = with_defaults(WalkConfig, dist=pm_one_line(), norm=norm, n_steps=n,
                        checkpoints=(n,), replications=reps, seed=0)
    w = monte_carlo(cfg).final_y[:, 0]
    pieces, ok = [], True
    for t in (1.0, 2.0, 3.0):
        p_hat = float(np.mean(np.abs(w) >= t * np.sqrt(n)))
        bound = float(np.exp(-t * t / 2.0))
        half = float(np.sqrt(max(p_hat * (1 - p_hat), bound * (1 - bound)) / reps))
        ok = ok and p_hat <= bound + 3.0 * half
        pieces.append(f"t={t:g}: {p_hat:.4f} <= {bound + 3 * half:.4f}")
    verdict(8, ok, "; ".join(pieces))


def test_criterion_09_splitting_functionals():
    d4 = finite_group(groups.dihedral(4))
    section = Lift(d4, np.zeros((d4.order, 2))).conjugate_by_translation(
        np.array([1.3, -0.4]))
    d_sec, _ = delta(section)
    b_sec = big_delta(section)

    c4 = finite_group(groups.cyclic_rotations(4))
    trans = np.zeros((4, 2))
    trans[1] = [1.0, 0.0]
    worked = big_delta(Lift(c4, trans))

    d4_r2 = SPLIT_PRESETS["d4-r2"][0]()
    scan1 = delta_ratio_scan(d4_r2, 10_000, seed=1)
    scan2 = delta_ratio_scan(d4_r2, 10_000, seed=2)
    agree = abs(scan1.c_hat - scan2.c_hat) <= 0.2 * max(scan1.c_hat, scan2.c_hat)

    ok = (d_sec <= 1e-10 and b_sec <= 1e-10 and worked >= 2.0 - 1e-9
          and scan1.c_hat > 0 and agree)
    verdict(9, ok, f"section delta {d_sec:.2e} Delta {b_sec:.2e}; worked "
                   f"defect {worked:.6f} >= 2; c_hat {scan1.c_hat:.4f} vs "
                   f"{scan2.c_hat:.4f}")


CLI_EXAMPLES = (
    (["walk", "--preset", "heisenberg-srw", "--n", "4096", "--reps", "10000",
      "--seed", "7"], ("walk.csv", "manifest.json")),
    (["walk", "--preset", "r1-flip-eps", "--eps", "0.01", "--n", "50",
      "--reps", "100000"], ("walk.csv", "manifest.json")),
    (["split-scan", "--preset", "d4-r2", "--reps", "10000", "--seed", "1"],
     ("scan.csv", "best-lift.json", "manifest.json")),
)


def test_criterion_10_cli_determinism(tmp_path):
    """Each example's artifacts from main() in this process equal, byte for
    byte, those of a fresh `python -m nilwalk.cli` process."""
    src = str(Path(nilwalk.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    checked = 0
    for k, (argv, files) in enumerate(CLI_EXAMPLES):
        here, fresh = tmp_path / f"ex{k}-main", tmp_path / f"ex{k}-fresh"
        assert main(argv + ["--out", str(here)]) == 0
        rerun = subprocess.run([sys.executable, "-m", "nilwalk.cli", *argv, "--out", str(fresh)],
                               env=env, capture_output=True, text=True)
        assert rerun.returncode == 0, rerun.stderr
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), \
                (argv, name)
            checked += 1
    verdict(10, True, f"{checked} artifacts byte-identical between main() in "
                      "the test process and a fresh python -m nilwalk.cli process")


def test_criterion_11_lil_diagnostic():
    srw = with_defaults(build_walk_setup, "heisenberg-srw")
    norm1 = with_defaults(build_gauge, abelian_algebra(1),
                          lower_central_filtration(abelian_algebra(1)), mode="scaled_euclidean")
    pieces, ok = [], True
    for label, dist, norm in (("abelian", pm_one_line(), norm1),
                              ("heisenberg", srw.dist, srw.norm)):
        cps = default_checkpoints(2 ** 16)
        cfg = with_defaults(WalkConfig, dist=dist, norm=norm, n_steps=2 ** 16,
                            checkpoints=cps, replications=100, seed=0)
        res = monte_carlo(cfg)
        good = lil_diagnostic(res.checkpoints, res.y_norm, alpha=0.5)
        bad = lil_diagnostic(res.checkpoints, res.y_norm, alpha=0.25)
        ok = ok and not good["unbounded_flag"] and bad["unbounded_flag"] \
            and 0.05 < good["median_c"] < 10.0
        pieces.append(f"{label}: C_hat median {good['median_c']:.3f}, "
                      f"peak-at-top {good['frac_peak_top']:.2f} vs "
                      f"{bad['frac_peak_top']:.2f} at alpha=1/4")
    verdict(11, ok, "; ".join(pieces))
