"""Truncated-domain Newton solver: waves, families, continuation, checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from forcedwaves import analysis as an
from forcedwaves import oracles as orc
from forcedwaves import wavesolver as ws
from forcedwaves.environment import TildeA, classify
from forcedwaves.wavesolver import (
    NewtonDivergenceError,
    NoPositiveWaveError,
    SolverConfig,
    WaveSolution,
)


class TestSolverConfig:
    def test_defaults_scale_with_tail(self, exp2, alg3):
        fast = SolverConfig.default_for(exp2)
        slow = SolverConfig.default_for(alg3)
        assert fast.L == 60.0 and fast.N == 4001
        assert slow.L == 200.0 and slow.N == 8001  # slow tails need more room

    @pytest.mark.parametrize("field,value", [
        ("L", -5.0), ("N", 10), ("newton_tol", 0.0),
    ])
    def test_validation(self, field, value):
        good = dict(L=60.0, N=4001, newton_tol=1e-10, newton_max_iter=120,
                    max_halvings=30)
        with pytest.raises(ValueError):
            SolverConfig(**dict(good, **{field: value}))


class TestMinimalWave:
    def test_converges_with_small_residual(self, exp_wave_c1):
        w = exp_wave_c1
        assert w.residual_norm < 1e-10  # measured 2.4e-13
        assert w.iterations <= 30
        assert w.decay_tag == "sigma1"

    def test_positive_and_connects_to_plateau(self, exp_wave_c1, exp2):
        w = exp_wave_c1
        assert np.all(w.phi > 0)
        assert w.phi[0] == pytest.approx(exp2.a(w.grid[0]), abs=1e-12)
        assert w.phi.max() <= exp2.alpha * (1 + 1e-8)

    def test_tail_decays_at_rate_c(self, exp_wave_c1):
        # for the exponential tail the minimal wave decays like e^{-cz}
        w = exp_wave_c1
        m = w.grid >= w.grid[-1] - 0.2 * (w.grid[-1] - w.grid[0])
        rate = float(np.mean(np.gradient(np.log(w.phi[m]), w.grid[m])))
        assert rate == pytest.approx(-1.0, rel=0.02)

    def test_right_bc_matches_target_rate(self, exp_wave_c1):
        assert exp_wave_c1.bc_right == pytest.approx(-1.0, abs=1e-6)

    def test_custom_config(self, exp2):
        cfg = SolverConfig(L=40.0, N=2001, newton_tol=1e-10, newton_max_iter=120,
                           max_halvings=30)
        w = ws.solve_wave(exp2, 1.0, "sigma1", cfg=cfg)
        assert len(w.grid) == 2001 and w.grid[-1] == 40.0
        assert w.residual_norm < 1e-10

    def test_sidecar_dict(self, exp_wave_c1):
        import json

        d = exp_wave_c1.sidecar_dict()
        json.dumps(d)
        assert d["decay_tag"] == "sigma1"
        assert d["residual_norm"] == exp_wave_c1.residual_norm

    def test_to_csv_round_trips_exactly(self, exp_wave_c1, tmp_path):
        path = tmp_path / "wave.csv"
        exp_wave_c1.to_csv(path)
        data = path.read_bytes()
        assert data.startswith(b"z,phi\r\n") and data.endswith(b"\r\n")
        lines = data.decode().split("\r\n")[:-1]
        assert len(lines) == len(exp_wave_c1.grid) + 1
        cells = [line.split(",") for line in lines[1:]]
        assert all(float(z) == v for (z, _), v in zip(cells, exp_wave_c1.grid))
        assert all(float(p) == v for (_, p), v in zip(cells, exp_wave_c1.phi))

    def test_bracketed_by_hand_built_pair(self, exp_wave_c1, exp2):
        # 0 < bump <= phi <= exp-corner super-solution
        w = exp_wave_c1
        sub = orc.cos_bump_sub(1.0, 1.0, exp2)
        sup = orc.exp_super(1.0, 1.0, 0.5, exp2)
        assert float(np.min(w.phi - sub.on_grid(w.grid))) >= -1e-12
        assert float(np.min(sup.on_grid(w.grid) - w.phi)) >= -1e-12


class TestSlowWaves:
    def test_maximal_wave_z_phi_limit(self, alg3_maximal):
        # z phi -> gamma - c = 2 on the algebraic tail
        w = alg3_maximal
        assert w.residual_norm < 1e-10
        assert w.grid[-1] * w.phi[-1] == pytest.approx(2.0, rel=0.1)

    def test_maximal_wave_bracketed(self, alg3_maximal, alg3):
        w = alg3_maximal
        sub = orc.slow_sub(alg3, 1.0)
        sup = orc.alpha_super(alg3, 1.0)
        m = w.grid >= sub.support[0]
        assert float(np.min(w.phi[m] - sub.on_grid(w.grid[m]))) >= -1e-12
        assert float(np.min(sup.on_grid(w.grid) - w.phi)) >= -1e-12

    def test_iterated_log_below_lead_solves(self, itlog):
        # ROADMAP 3c: the slow_sub start below lead used to NaN at large z
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            sub = orc.slow_sub(itlog, 0.9)
            w = ws.solve_wave(itlog, 0.9, "sigma1", SolverConfig(L=200.0, N=1001))
        assert math.isfinite(sub.params["z_M"])
        assert float(np.min(w.phi)) > 0.0
        assert abs(w.phi[1] - w.phi[0]) <= 1e-6 * itlog.alpha

    def test_profile_itself_wave_tracks_a(self, pow2_maximal, pow2):
        w = pow2_maximal
        assert w.decay_tag == "profile_itself"
        m = w.grid >= w.grid[-1] - 0.2 * (w.grid[-1] - w.grid[0])
        ratio = w.phi[m] / pow2.a(w.grid[m])
        assert 0.95 < float(ratio.min()) and float(ratio.max()) < 1.0


class TestFamily:
    def test_pins_scale_linearly_in_K(self, alg3_family):
        pins = [w.pinned_amplitude for w in alg3_family]
        assert pins[1] / pins[0] == pytest.approx(2.0, rel=1e-12)
        assert pins[2] / pins[0] == pytest.approx(4.0, rel=1e-12)
        assert all(w.decay_tag == "tilde_a" for w in alg3_family)

    def test_pin_is_right_endpoint_value(self, alg3_family):
        for w in alg3_family:
            assert w.phi[-1] == pytest.approx(w.pinned_amplitude, rel=1e-12)

    def test_members_are_ordered_without_crossing(self, alg3_family):
        for lo, hi in zip(alg3_family, alg3_family[1:]):
            r = ws.ordering_check(lo, hi)
            assert r.ordered and r.direction == "first<=second"
            assert r.max_violation == 0.0
            assert float(np.max(hi.phi - lo.phi)) > 1e-5  # strictly separated

    def test_members_stay_below_maximal(self, alg3_family, alg3_maximal):
        for w in alg3_family:
            r = ws.ordering_check(w, alg3_maximal)
            assert r.ordered and r.direction == "first<=second"

    def test_member_reproducible_by_direct_solve(self, alg3, alg3_family):
        w = alg3_family[1]
        direct = ws.solve_wave(alg3, 1.0, TildeA(profile=alg3, c=1.0, K=1.0),
                               pin_amplitude=w.pinned_amplitude)
        assert float(np.max(np.abs(direct.phi - w.phi))) < 1e-12

    def test_empty_request_gives_empty_family(self, alg3):
        assert ws.wave_family(alg3, 1.0, ()) == []

    def test_rejects_regime_without_slow_family(self, alg05):
        with pytest.raises(ValueError, match="case 2 or 3"):
            ws.wave_family(alg05, 1.0, (1.0,))


class TestOrderingCheck:
    def test_reflexive(self, alg3_family):
        r = ws.ordering_check(alg3_family[0], alg3_family[0])
        assert r.ordered and r.max_violation == 0.0

    def test_detects_direction(self, alg3_family):
        r = ws.ordering_check(alg3_family[1], alg3_family[0])
        assert r.ordered and r.direction == "second<=first"

    def test_crossing_waves_are_unordered(self, alg3_family):
        a = alg3_family[0]
        crossing = dataclasses.replace(a, phi=a.phi[::-1].copy())
        r = ws.ordering_check(a, crossing)
        assert not r.ordered and r.direction == "none"
        assert r.max_violation > 1e-8

    def test_grid_and_speed_mismatch_rejected(self, exp_wave_c1, alg3_family):
        with pytest.raises(ValueError, match="grid mismatch"):
            ws.ordering_check(exp_wave_c1, alg3_family[0])
        slower = dataclasses.replace(alg3_family[0], c=0.5)
        with pytest.raises(ValueError, match="speed mismatch"):
            ws.ordering_check(slower, alg3_family[0])


class TestStartIndependence:
    def test_minimal_wave_from_all_standard_starts(self, exp2):
        cfg = SolverConfig.default_for(exp2)
        grid = np.linspace(-cfg.L, cfg.L, cfg.N)
        starts = ws.standard_starts(exp2, 1.0, grid)
        assert sorted(starts) == ["sub", "super", "tanh"]
        sols = [ws.solve_wave(exp2, 1.0, "sigma1", initial_guess=u0)
                for u0 in starts.values()]
        for s in sols[1:]:
            assert float(np.max(np.abs(s.phi - sols[0].phi))) < 1e-12

    def test_maximal_wave_from_all_standard_starts(self, alg3):
        cfg = SolverConfig.default_for(alg3)
        grid = np.linspace(-cfg.L, cfg.L, cfg.N)
        sols = [ws.solve_wave(alg3, 1.0, "slow_maximal", initial_guess=u0)
                for u0 in ws.standard_starts(alg3, 1.0, grid).values()]
        for s in sols[1:]:
            assert float(np.max(np.abs(s.phi - sols[0].phi))) < 1e-12


class TestDefaultStart:
    @pytest.mark.parametrize("fixture,c,target", [
        ("pow2", 0.7, "profile_itself"), ("alg3", 1.0, "slow_maximal")])
    def test_default_start_builds_no_oracle(self, monkeypatch, request,
                                            fixture, c, target):
        # the default start is the tanh front alone, so no oracle is built;
        # on pow2 at c = 0.7 a slow_sub start fails after a costly search
        profile = request.getfixturevalue(fixture)
        grid = SolverConfig.default_for(profile).grid()
        want = ws.solve_wave(profile, c, target, initial_guess=ws.standard_starts(
            profile, c, grid)["tanh"])

        def built(*args, **kwargs):
            raise AssertionError("the default start built an oracle")

        for name in ("cos_bump_sub", "slow_sub", "exp_super"):
            monkeypatch.setattr(orc, name, built)
        got = ws.solve_wave(profile, c, target)
        assert np.array_equal(got.phi, want.phi)
        assert got.iterations == want.iterations
        assert got.residual_norm == want.residual_norm


class TestLogNewton:
    """Predicted targets: one Newton in log phi from the target's own shape."""

    @pytest.mark.parametrize("fixture,c,target", [
        ("alg3", 0.7, "slow_maximal"), ("alg3", 1.0, "slow_maximal"),
        ("pow2", 1.3, "profile_itself"), ("itlog", 1.0, "slow_maximal")])
    def test_warm_start_from_the_minimal_wave_finds_the_slow_wave(
            self, request, fixture, c, target):
        # the minimal wave's tail is far below newton_tol, so it used to pass
        # the absolute Robin row and come back after 0 iterations, labelled
        # with the slow target (0.05-0.42 off the slow wave)
        profile = request.getfixturevalue(fixture)
        want = ws.solve_wave(profile, c, target)
        minimal = ws.solve_wave(profile, c, "sigma1")
        got = ws.solve_wave(profile, c, target, initial_guess=minimal.phi)
        assert got.iterations > 0
        assert float(np.max(np.abs(got.phi - want.phi))) < 1e-9

    @pytest.mark.parametrize("c", [0.9, 1.0])
    def test_power_tail_minimal_wave_solves(self, pow2, c):
        # ROADMAP 3a: these raised NoPositiveWaveError (c = 0.9) and
        # NewtonDivergenceError (c = 1.0) from the default start
        w = ws.solve_wave(pow2, c, "sigma1")
        assert float(np.min(w.phi)) > 0.0
        assert abs(w.phi[1] - w.phi[0]) <= 1e-6 * pow2.alpha
        assert w.residual_norm <= w.config.newton_tol
        grid = SolverConfig.default_for(pow2).grid()
        ref = ws.solve_wave(pow2, c, "sigma1",
                            initial_guess=ws.standard_starts(pow2, c, grid)["super"])
        assert float(np.max(np.abs(w.phi - ref.phi))) < 1e-9
        report = classify(pow2, c)
        fit = an.fit_decay(w, [report.minimal_decay, report.maximal_decay])
        verdict = an.inventory_verdict(pow2, c, [w], [fit])
        minimal = [ck for ck in verdict.checks
                   if ck["prediction"].startswith("minimal")]
        assert minimal and minimal[0]["passed"]

    def test_reported_residual_is_the_phi_residual(self, alg3_maximal, alg3):
        w = alg3_maximal
        a = alg3.a(w.grid)
        F = ws.discrete_residual(w.phi, a, w.h, w.c, float(a[0]), w.bc_right, None)
        assert w.residual_norm == float(np.max(np.abs(F)))
        assert w.residual_norm <= w.config.newton_tol

    @pytest.mark.parametrize("fixture,c", [("alg3", 0.7), ("pow2", 1.0)])
    def test_compact_support_guess_fails_typed(self, request, fixture, c):
        # floored by the decay shape, the sub-solution's support edge leaves
        # a cliff of 3 (alg3) to 38 (pow2) decades in one cell; the solve
        # must fail typed, not with an OverflowError or a ValueError
        profile = request.getfixturevalue(fixture)
        grid = SolverConfig.default_for(profile).grid()
        sub = ws.standard_starts(profile, c, grid)["sub"]
        with pytest.raises(NewtonDivergenceError) as ei:
            ws.solve_wave(profile, c, "sigma1", initial_guess=sub)
        assert ei.value.residual_history

    def test_non_finite_guess_fails_typed(self, alg3):
        guess = np.full(SolverConfig.default_for(alg3).N, np.inf)
        with pytest.raises(NewtonDivergenceError, match="non-finite"):
            ws.solve_wave(alg3, 1.0, "slow_maximal", initial_guess=guess)


class TestAboveThreshold:
    def test_no_positive_wave_at_high_speed(self, exp2):
        # the solver converges to the truncated-domain parasite and the
        # wall-layer admissibility check rejects it
        with pytest.raises(NoPositiveWaveError, match="boundary layer"):
            ws.solve_wave(exp2, 2.2, "sigma1")

    def test_failure_carries_residual_history(self, exp2):
        with pytest.raises((NoPositiveWaveError, NewtonDivergenceError)) as ei:
            ws.solve_wave(exp2, 2.0, "sigma1")
        hist = ei.value.residual_history
        assert len(hist) > 0
        assert all(r >= 0 for r in hist)


class TestContinuation:
    def test_existence_boundary(self, exp_continuation):
        res = exp_continuation
        assert len(res.c_values) == 45
        solved_c = [w.c for w in res.solutions]
        assert len(solved_c) == 36
        assert max(solved_c) == pytest.approx(1.95, abs=1e-9)
        assert min(f.c for f in res.failures) == pytest.approx(2.0, abs=1e-9)

    def test_failures_above_threshold_only(self, exp_continuation):
        # threshold c = 2 sqrt(alpha) = 2: everything below solves, nothing
        # at or above does
        for f in exp_continuation.failures:
            assert f.c >= 2.0 - 1e-9
            assert f.kind in ("divergence", "no_positive_wave")
            assert f.message

    def test_solutions_well_converged(self, exp_continuation):
        for w in exp_continuation.solutions:
            assert w.residual_norm < 1e-9

    def test_residual_decreases_with_refinement(self, exp_wave_c1, exp2):
        # second-order scheme: quadrupling expected when halving h; checked
        # coarsely here, precisely in the acceptance suite
        coarse = ws.continuum_residual(exp_wave_c1, exp2)
        assert coarse < 1e-4
