import numpy as np
import pytest

from nilwalk.errors import NumericalValidationError
from nilwalk.presets import (ALGEBRA_PRESETS, SPLIT_PRESETS, WALK_PRESETS,
                             build_walk_setup, stay_diagnostic)
from nilwalk.semidirect import StepDistribution, finite_group
from nilwalk import groups
from nilwalk.algebra import validate_algebra
from nilwalk.walker import WalkConfig, monte_carlo

from schema_defaults import with_defaults


def test_every_walk_preset_assembles():
    for name in WALK_PRESETS:
        setup = with_defaults(build_walk_setup, name)
        assert setup.preset == name
        assert setup.norm.filtration.depth >= 1
        assert 0.5 <= setup.scaling_exponent < 1.0


def test_every_algebra_preset_validates():
    for name, factory in ALGEBRA_PRESETS.items():
        rep = validate_algebra(factory())
        assert rep.ok, (name, rep.messages)


def test_unknown_preset_raises_key_error():
    with pytest.raises(KeyError):
        with_defaults(build_walk_setup, "no-such-walk")


def test_split_presets_build():
    for name in SPLIT_PRESETS:
        group = SPLIT_PRESETS[name][0]()
        assert group.order in (6, 8)


def test_drift_preset_gets_adapted_filtration_and_half_exponent():
    setup = with_defaults(build_walk_setup, "heisenberg-drift")
    assert setup.norm.filtration.kind == "weighted"
    assert setup.scaling_exponent == 0.5
    assert not setup.conjugated        # trivial twist, nothing to centre
    # the drift e1 fills weight 1 with e2, pushing the bracket to weight 3
    assert setup.norm.filtration.layer_dims() == (2, 0, 1)
    assert setup.norm.filtration.depth == 3


def test_drift_preset_standard_filtration_changes_exponent():
    setup = with_defaults(build_walk_setup, "heisenberg-drift", filtration_choice="standard")
    assert setup.norm.filtration.kind == "lower_central"
    # step 2 and nonzero drift: displacement scale (2s-1)/2s
    assert setup.scaling_exponent == pytest.approx(0.75)
    assert any("n^0.75" in note for note in setup.notes)


def test_centred_preset_keeps_lower_central_series():
    setup = with_defaults(build_walk_setup, "heisenberg-srw")
    assert setup.scaling_exponent == 0.5
    assert np.linalg.norm(setup.dist.v_mu) <= 1e-15
    assert setup.norm.filtration.depth == setup.dist.alg.step
    assert any("centred law" in note for note in setup.notes)


def test_r2_c4_preset_is_conjugated():
    setup = with_defaults(build_walk_setup, "r2-c4")
    assert setup.conjugated
    assert np.linalg.norm(setup.dist.v_mu) <= 1e-12
    assert np.allclose(setup.base_dist.centering, [0.5, 0.5], atol=1e-12)
    raw = with_defaults(build_walk_setup, "r2-c4", conjugate="never")
    assert not raw.conjugated
    assert np.array_equal(raw.dist.xis, raw.base_dist.xis)


def test_flip_preset_eps_validation():
    setup = with_defaults(build_walk_setup, "r1-flip-eps", eps=0.25)
    assert np.array_equal(setup.base_dist.probs, [0.75, 0.25])
    assert setup.dist.kappa_mu == pytest.approx(0.5)


def test_build_walk_setup_rejects_bad_twist_group():
    # a shear is invertible but not orthogonal, so the twist validation
    # must refuse it
    alg = ALGEBRA_PRESETS["abelian2"]()
    shear = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises((NumericalValidationError, ValueError)):
        q = finite_group(shear)
        dist = StepDistribution(alg=alg, q=q, probs=np.array([1.0]),
                                xis=np.array([[1.0, 0.0]]),
                                kappas=np.array([0]))
        with_defaults(build_walk_setup, "bad", dist)


def test_stay_diagnostic_matches_exact_power():
    eps, n = 0.02, 64
    setup = with_defaults(build_walk_setup, "r1-flip-eps", eps=eps)
    cfg = with_defaults(WalkConfig, dist=setup.dist, norm=setup.norm, n_steps=n,
                        checkpoints=(n,), replications=4000, seed=0)
    res = monte_carlo(cfg)
    diag = stay_diagnostic(res, setup.dist)
    assert diag["exact"] == pytest.approx((1 - eps) ** n)
    assert diag["within_band"]
    # the stay event is read from the exact final state, so the empirical
    # rate is a multiple of 1/replications
    assert (diag["empirical"] * 4000) == pytest.approx(
        round(diag["empirical"] * 4000), abs=1e-9)


def test_walk_preset_descriptions_exist():
    # walk presets map a name to a law factory and carry no text; the split
    # presets keep the description that split-scan reports
    for name, factory in WALK_PRESETS.items():
        assert isinstance(name, str) and name and callable(factory)
    for _, (factory, text) in SPLIT_PRESETS.items():
        assert isinstance(text, str) and text
