"""Named experiment setups: algebras, step laws, gauges, scan actions.

Each walk preset builds an atomic step law, which carries its algebra
and finite twist group.  build_walk_setup applies one policy for the
filtration and gauge to a preset's law or to an explicit one.  Derived
data (drift, spectral constant, centering element) comes from the step
law itself; the builder only decides whether to conjugate and which
filtration the norm lives on.  It takes every setting as a required
argument: their defaults and allowed values live in the CLI's
CONFIG_SCHEMA, which checks them before a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .algebra import (NilpotentAlgebra, lower_central_filtration, scaled_norm,
                      weighted_filtration)
from .norms import HomogeneousNorm, build_gauge
from .semidirect import (StepDistribution, conjugate_distribution,
                         finite_group, q_validate)
from .walker import SampleMatrix

CENTERING_TOL = 1e-12


def heisenberg_algebra() -> NilpotentAlgebra:
    """Dimension 3, step 2: [e1, e2] = e3."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    return NilpotentAlgebra(dim=3, step=2, tensor=c)


def filiform_algebra(dim: int) -> NilpotentAlgebra:
    """Maximal-step chain algebra: [e1, e_i] = e_{i+1} for 2 <= i < dim."""
    if dim < 3:
        raise ValueError("filiform needs dimension at least 3")
    c = np.zeros((dim, dim, dim))
    for i in range(1, dim - 1):
        c[0, i, i + 1], c[i, 0, i + 1] = 1.0, -1.0
    return NilpotentAlgebra(dim=dim, step=dim - 1, tensor=c)


def free_step3_algebra() -> NilpotentAlgebra:
    """Free 2-generator algebra cut at step 3: dimension 5.

    [e1,e2] = e3, [e1,e3] = e4, [e2,e3] = e5; extends the dimension-4
    chain algebra by the second independent weight-3 bracket.
    """
    c = np.zeros((5, 5, 5))
    for i, j, k in ((0, 1, 2), (0, 2, 3), (1, 2, 4)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    return NilpotentAlgebra(dim=5, step=3, tensor=c)


def abelian_algebra(dim: int) -> NilpotentAlgebra:
    return NilpotentAlgebra(dim=dim, step=1, tensor=np.zeros((dim, dim, dim)))


def _uniform_generators(alg: NilpotentAlgebra, q) -> StepDistribution:
    """Uniform law on +/- e1 and +/- e2, no twist."""
    xis = np.zeros((4, alg.dim))
    xis[:, :2] = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    return StepDistribution(alg=alg, q=q, probs=np.full(4, 0.25), xis=xis,
                            kappas=np.zeros(4, dtype=np.int64))


@dataclass(frozen=True)
class WalkSetup:
    """Everything a Monte Carlo run needs, plus notes for the manifest.

    The algebra is dist.alg and the filtration is norm.filtration.
    """

    preset: str
    base_dist: StepDistribution
    dist: StepDistribution          # law the walker actually runs
    norm: HomogeneousNorm
    conjugated: bool
    scaling_exponent: float
    notes: tuple[str, ...]


def _walk_heisenberg_srw(eps):
    return _uniform_generators(heisenberg_algebra(), finite_group(groups.trivial(3)))


def _walk_heisenberg_drift(eps):
    return StepDistribution(alg=heisenberg_algebra(), q=finite_group(groups.trivial(3)),
                            probs=np.array([0.5, 0.5]),
                            xis=np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]),
                            kappas=np.zeros(2, dtype=np.int64))


def _walk_filiform4_srw(eps):
    return _uniform_generators(filiform_algebra(4), finite_group(groups.trivial(4)))


def _walk_engel5_srw(eps):
    return _uniform_generators(free_step3_algebra(), finite_group(groups.trivial(5)))


def _walk_r2_c4(eps):
    return StepDistribution(alg=abelian_algebra(2),
                            q=finite_group(groups.cyclic_rotations(4)),
                            probs=np.array([1.0]), xis=np.array([[1.0, 0.0]]),
                            kappas=np.array([1], dtype=np.int64))


def _walk_r1_flip_eps(eps):
    if eps is None:
        eps = 0.01
    return StepDistribution(alg=abelian_algebra(1), q=finite_group(groups.sign_flip_line()),
                            probs=np.array([1.0 - eps, eps]),
                            xis=np.array([[1.0], [0.0]]),
                            kappas=np.array([0, 1], dtype=np.int64))


# name -> factory(eps) returning the step law; only r1-flip-eps reads eps
WALK_PRESETS = {
    "heisenberg-srw": _walk_heisenberg_srw,
    "heisenberg-drift": _walk_heisenberg_drift,
    "filiform4-srw": _walk_filiform4_srw,
    "engel5-srw": _walk_engel5_srw,
    "r2-c4": _walk_r2_c4,
    "r1-flip-eps": _walk_r1_flip_eps,
}

ALGEBRA_PRESETS = {
    "heisenberg": heisenberg_algebra,
    "filiform4": lambda: filiform_algebra(4),
    "engel5": free_step3_algebra,
    "abelian1": lambda: abelian_algebra(1),
    "abelian2": lambda: abelian_algebra(2),
}

SPLIT_PRESETS = {
    "d4-r2": (lambda: finite_group(groups.dihedral(4)),
              "dihedral group of order 8 acting on the plane"),
    # S_3 in its faithful planar representation, the matrices of D_3
    "s3-r2": (lambda: finite_group(groups.dihedral(3)),
              "triangle symmetries (order 6) acting on the plane"),
}


def build_walk_setup(preset: str, law: StepDistribution | None, eps: float | None,
                     seed: int, gauge_mode: str, filtration_choice: str,
                     conjugate: str) -> WalkSetup:
    """Assemble the distribution, filtration, and gauge for a walk.

    The law is the walk preset's, or `law` when given (then `preset` only
    names the run); eps reaches the preset's factory.  filtration_choice
    "standard" forces the lower central series, and any other choice adapts
    the filtration to the invariant drift (degenerating to the lower
    central series for centred laws, |v_mu| <= CENTERING_TOL).  conjugate
    "auto" applies the centering conjugation whenever the law calls for
    one, and any other choice never does.
    """
    base = WALK_PRESETS[preset](eps) if law is None else law
    alg = base.alg
    q_validate(alg, base.q)

    notes = []
    dist = base
    conjugated = False
    if conjugate == "auto" and scaled_norm(base.centering, axis=None) > CENTERING_TOL:
        dist = conjugate_distribution(base)
        conjugated = True
        notes.append("law conjugated by the centering element before walking")

    # one threshold decides whether the law is centred, for the filtration,
    # the notes and the displacement scale alike
    drifted = scaled_norm(dist.v_mu, axis=None) > CENTERING_TOL
    if filtration_choice == "standard":
        filt = lower_central_filtration(alg)
    else:
        filt = weighted_filtration(alg, dist.v_mu if drifted else np.zeros(alg.dim))
        if not drifted:
            notes.append("centred law: adapted filtration equals the lower central series")

    if drifted and filt.kind == "lower_central":
        s = alg.step
        exponent = (2.0 * s - 1.0) / (2.0 * s)
        notes.append("drifted walk in the unadapted gauge: displacement scale "
                     f"n^{exponent:g}")
    else:
        exponent = 0.5

    norm = build_gauge(alg, filt, gauge_mode, seed=seed)
    if norm.fallback_weights:
        notes.append("hull construction degenerate on weights "
                     f"{norm.fallback_weights}; scaled gauge used there")
    return WalkSetup(preset=preset, base_dist=base, dist=dist, norm=norm,
                     conjugated=conjugated, scaling_exponent=exponent,
                     notes=tuple(notes))


def stay_diagnostic(result: SampleMatrix, dist: StepDistribution) -> dict:
    """Fraction of replicates that never flipped, against the exact power.

    A replicate that avoided every flip atom ends at the last checkpoint n with
    the twist at the identity and the first coordinate exactly n; any flip makes
    both impossible at once, so the event is read off the final state exactly.
    The exact rate is p^n, p the first (stay) atom's probability.
    """
    n = result.checkpoints[-1]
    ident = int(dist.q.identity)
    stayed = (result.q_index[:, -1] == ident) & (result.final_y[:, 0] == float(n))
    emp = float(np.mean(stayed))
    exact = float(dist.probs[0]) ** n
    half = 3.0 * float(np.sqrt(exact * (1.0 - exact) / result.replications))
    return {"empirical": emp, "exact": exact, "halfwidth_3sigma": half,
            "within_band": bool(abs(emp - exact) <= half)}
