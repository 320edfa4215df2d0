"""Backward tail integration: seeds, exit flags, residuals, and the
non-exponential necessary-condition report.

Slow (non-exponential) seeds are only faithful over a window of roughly
15/c below z_hi: the seed's offset from the exact slow trajectory grows
like e^{c dz} going backward.  Tests therefore use z_hi=400 with either a
short friendly window (z_lo=395, completes) or a long harsh one (z_lo=40,
truncates via an event and keeps the surviving segment).
"""

import math

import numpy as np
import pytest

from forcedwaves import localsolve as ls
from forcedwaves.environment import (
    DecayAnsatz,
    EnvironmentProfile,
    ProfileItself,
    PureExp,
    Sigma1Int,
    SlowMaximal,
    TildeA,
)


@pytest.fixture(scope="module")
def tilde_run(alg3):
    anz = TildeA(profile=alg3, c=1.0)
    return ls.integrate_backward(alg3, 1.0, anz, 400.0, 395.0)


@pytest.fixture(scope="module")
def slowmax_run(alg3):
    anz = SlowMaximal(profile=alg3, c=1.0)
    return ls.integrate_backward(alg3, 1.0, anz, 400.0, 395.0)


@pytest.fixture(scope="module")
def exp_run(exp2):
    anz = PureExp(K=1.0, c=1.0, z0=8.0)
    return ls.integrate_backward(exp2, 1.0, anz, 30.0, -10.0)


class TestSeeds:
    def test_tilde_a_seed_closed_form(self, alg3):
        # tilde(120) = (120/12)^-3 = 1e-3; log-slope = -a/c = -0.025
        psi, dpsi = ls.seed_state(TildeA(profile=alg3, c=1.0), 120.0)
        assert psi == pytest.approx(1e-3, rel=1e-12)
        assert dpsi == pytest.approx(-2.5e-5, rel=1e-12)

    def test_slow_maximal_seed_closed_form(self, alg3):
        # value = (gamma - c)/z exactly on the algebraic tail
        psi, dpsi = ls.seed_state(SlowMaximal(profile=alg3, c=1.0), 400.0)
        assert psi == pytest.approx(5e-3, rel=1e-12)
        assert dpsi == pytest.approx(5e-3 * (5e-3 - 7.5e-3), rel=1e-10)


class TestFriendlyWindows:
    def test_slow_seeds_complete(self, tilde_run, slowmax_run):
        assert tilde_run.exit_flag == "completed"
        assert slowmax_run.exit_flag == "completed"
        assert tilde_run.grid[0] == 395.0 and tilde_run.grid[-1] == 400.0

    @pytest.mark.parametrize("fixture", ["tilde_run", "slowmax_run"])
    def test_residual_tiny(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        assert ls.residual_norm(sol) < 1e-9  # measured ~9e-11

    @pytest.mark.parametrize("fixture", ["tilde_run", "slowmax_run"])
    def test_stays_on_seeding_law(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        assert ls.consistency_drift(sol) < 1e-3  # measured <4e-5

    def test_positive_and_decreasing(self, tilde_run):
        assert np.all(tilde_run.psi > 0)
        assert np.all(np.diff(tilde_run.psi) < 0)

    def test_theta_property_matches(self, tilde_run):
        assert np.allclose(tilde_run.theta, tilde_run.dpsi / tilde_run.psi, rtol=1e-14)

    def test_amplitude_linearity_in_K(self, alg3):
        # linear tail regime: doubling K doubles psi; quadrupling across the
        # ends of the K range
        runs = [ls.integrate_backward(alg3, 1.0, TildeA(profile=alg3, c=1.0, K=K),
                                      400.0, 395.0) for K in (0.5, 1.0, 2.0)]
        assert all(r.exit_flag == "completed" for r in runs)
        ratio = runs[2].psi / runs[0].psi
        assert abs(float(np.mean(ratio)) - 4.0) < 0.02
        assert float(np.max(ratio) / np.min(ratio)) - 1.0 < 0.02


class TestIntegratorCost:
    def test_right_hand_side_calls(self, alg3, monkeypatch):
        # one profile.a call per right-hand side: DOP853 at rtol 1e-11 makes
        # 168 over this window, RK45 at rtol 1e-10 made 399
        calls, a = [], EnvironmentProfile.a
        monkeypatch.setattr(EnvironmentProfile, "a",
                            lambda self, z: calls.append(z) or a(self, z))
        ls.integrate_backward(alg3, 1.0, TildeA(profile=alg3, c=1.0), 400.0, 395.0)
        assert len(calls) <= 200

    @pytest.mark.parametrize("fixture, make, z_hi, z_lo, bound", [
        ("exp2", lambda p: PureExp(K=1.0, c=1.0, z0=8.0), 30.0, -10.0, 5.6e-11),
        ("pow2", lambda p: ProfileItself(profile=p), 400.0, 395.0, 8.4e-11),
    ], ids=["exp2", "pow2"])
    def test_error_against_tight_reference(self, request, fixture, make, z_hi,
                                           z_lo, bound):
        # bounds at RK45's error at rtol 1e-10 (5.5e-11, 8.3e-11); DOP853 at
        # rtol 1e-11 measures 4.2e-11 and 1.9e-11
        p = request.getfixturevalue(fixture)
        anz = make(p)
        sol = ls.integrate_backward(p, 1.0, anz, z_hi, z_lo)
        ref = ls.integrate_backward(p, 1.0, anz, z_hi, z_lo, rtol=1e-13, atol=1e-16)
        m = min(len(sol.grid), len(ref.grid))  # exp2 stops at the amplitude cap
        assert np.array_equal(sol.grid[-m:], ref.grid[-m:])
        assert np.max(np.abs(sol.log_psi[-m:] - ref.log_psi[-m:])) < bound


class TestHarshWindow:
    def test_slow_seed_truncates_with_event(self, alg3):
        sol = ls.integrate_backward(alg3, 1.0, SlowMaximal(profile=alg3, c=1.0),
                                    400.0, 40.0, n_points=16001)
        assert sol.exit_flag == "theta"
        # survives roughly 11 units below z_hi, then the backward instability
        # takes over
        assert 380.0 < sol.grid[0] < 392.0
        assert ls.residual_norm(sol) < 1e-6      # measured 1.1e-7
        assert ls.consistency_drift(sol) < 1e-2  # measured 7.8e-5

    def test_exponential_seed_grows_to_cap(self, exp_run):
        # fast family: backward growth is the stable direction; the run ends
        # at the amplitude cap 2 alpha before reaching the plateau
        assert exp_run.exit_flag == "amplitude"
        assert exp_run.grid[0] > 7.5
        assert exp_run.psi.max() <= 2.0
        assert np.all(np.diff(exp_run.psi) < 0)
        assert ls.residual_norm(exp_run) < 1e-6       # measured 2.2e-7
        assert ls.consistency_drift(exp_run) < 1e-3   # measured 1.1e-8

    def test_inconsistent_seed_self_reports(self, alg3, alg05):
        # tilde_a is not a local solution shape when it is not integrable
        # (gamma < c); the drift grows far beyond the consistent case
        good = ls.integrate_backward(alg3, 1.0, TildeA(profile=alg3, c=1.0),
                                     400.0, 395.0)
        bad = ls.integrate_backward(alg05, 1.0, TildeA(profile=alg05, c=1.0),
                                    400.0, 388.0)
        assert ls.consistency_drift(bad) > 2e-2   # measured 5.6e-2
        assert ls.consistency_drift(bad) > 100 * ls.consistency_drift(good)


class TestNecessaryConditionReport:
    def test_slow_families_pass(self, tilde_run, slowmax_run):
        for sol in (tilde_run, slowmax_run):
            rep = ls.check_nonexponential_necessaries(sol)
            assert rep.passed
            assert rep.theta_final < rep.threshold
            assert rep.max_psi_over_a < 1.0

    def test_exponential_family_fails_theta(self, alg3):
        sol = ls.integrate_backward(alg3, 1.0, Sigma1Int(profile=alg3, c=1.0),
                                    400.0, 395.0)
        rep = ls.check_nonexponential_necessaries(sol)
        assert not rep.theta_ok
        assert rep.theta_final > 0.9  # theta ~ sigma1 ~ -c
        assert not rep.passed

    def test_profile_itself_sits_on_boundary(self, pow2):
        sol = ls.integrate_backward(pow2, 1.0, ProfileItself(profile=pow2),
                                    400.0, 395.0)
        assert sol.exit_flag == "completed"
        rep = ls.check_nonexponential_necessaries(sol)
        # psi tracks a(z) itself to well under the 1% band ...
        assert rep.below_a_ok
        assert rep.boundary_case
        assert 1.0 < rep.max_psi_over_a < 1.01
        assert rep.theta_ok
        # ... but psi' ~ a' makes psi''/psi' an O(1/z)-over-O(1/z) ratio whose
        # measured value reflects the profile, not a decay-rate excess; the
        # curvature check is known to stay red for this family
        assert not rep.curvature_ok
        assert ls.consistency_drift(sol) < 1e-2
        assert ls.residual_norm(sol) < 1e-8

    def test_passed_requires_all_three(self, tilde_run):
        rep = ls.check_nonexponential_necessaries(tilde_run)
        assert rep.passed == (rep.theta_ok and rep.curvature_ok and rep.below_a_ok)


class TestPlumbing:
    def test_rejects_reversed_window(self, alg3):
        with pytest.raises(ValueError, match="z_lo < z_hi"):
            ls.integrate_backward(alg3, 1.0, TildeA(profile=alg3, c=1.0),
                                  395.0, 400.0)

    def test_rejects_nonpositive_seed(self, alg3):
        class Broken(DecayAnsatz):
            tag = "broken"

            def value(self, z):
                return 0.0

            def log_derivative(self, z):
                return 0.0

        with pytest.raises(ValueError, match="nonpositive"):
            ls.integrate_backward(alg3, 1.0, Broken(), 400.0, 395.0)

    def test_residual_needs_enough_points(self, alg3):
        sol = ls.integrate_backward(alg3, 1.0, TildeA(profile=alg3, c=1.0),
                                    400.0, 395.0, n_points=5)
        with pytest.raises(ValueError, match="too short"):
            ls.residual_norm(sol)

    def test_tail_window_mask(self, tilde_run):
        m = tilde_run.tail_window()
        assert m[-1] and not m[0]
        assert tilde_run.grid[m][0] >= 399.0 - 1e-12


def _numpy_scalar_rhs(profile, c, blend_formula):
    """integrate_backward's right-hand side on numpy scalars, with a(z) from
    the full blend formula: the form that the float version must match."""
    def rhs(z, y):
        u1, th = y
        th = max(min(th, 1e8), -1e8)
        return [th, -th * th - c * th - float(blend_formula(profile, z))
                + math.exp(min(u1, ls._LOG_CAP))]
    return rhs


@pytest.mark.parametrize("fixture, c, z_hi, z_lo", [
    ("alg3", 1.0, 400.0, 395.0), ("pow2", 1.0, 400.0, 395.0),
    ("itlog", 1.0, 400.0, 395.0),
    # a fast seed above the spreading speed runs through the blend [4, 12]
    # onto the plateau before psi reaches 2 alpha
    ("alg3", 2.2, 30.0, 2.0),
])
def test_float_rhs_keeps_the_numpy_scalar_bits(fixture, c, z_hi, z_lo, request,
                                               monkeypatch, blend_formula):
    profile = request.getfixturevalue(fixture)
    anz = (TildeA(profile=profile, c=c) if z_hi == 400.0
           else PureExp(K=1e-6, c=c, z0=profile.z_switch))
    fast = ls.integrate_backward(profile, c, anz, z_hi, z_lo)
    if z_hi != 400.0:
        assert fast.grid[0] < profile.z_star
    solve_ivp = ls.solve_ivp
    monkeypatch.setattr(ls, "solve_ivp", lambda fun, *args, **kwargs: solve_ivp(
        _numpy_scalar_rhs(profile, c, blend_formula), *args, **kwargs))
    ref = ls.integrate_backward(profile, c, anz, z_hi, z_lo)
    assert fast.exit_flag == ref.exit_flag
    for name in ("grid", "psi", "dpsi"):
        assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name
