"""Truncated-domain Newton solver: waves, families, continuation, checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from forcedwaves import analysis as an
from forcedwaves import cli
from forcedwaves import environment as env
from forcedwaves import oracles as orc
from forcedwaves import wavesolver as ws
from forcedwaves.environment import (AnsatzUnavailableError, PureExp, SlowMaximal,
                                     TildeA, classify)
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
        ("L", -5.0), ("N", 10),
    ])
    def test_validation(self, field, value):
        good = dict(L=60.0, N=4001)
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
        cfg = SolverConfig(L=40.0, N=2001)
        w = ws.solve_wave(exp2, 1.0, "sigma1", cfg=cfg)
        assert len(w.grid) == 2001 and w.grid[-1] == 40.0
        assert w.residual_norm < 1e-10

    # wave.json's sidecar and wave.csv are built in cli, from the wave alone
    def test_sidecar_dict(self, exp_wave_c1):
        import json

        d = cli._wave_record(exp_wave_c1)
        json.dumps(d)
        assert d["decay_tag"] == "sigma1"
        assert d["residual_norm"] == exp_wave_c1.residual_norm

    def test_to_csv_round_trips_exactly(self, exp_wave_c1, tmp_path):
        path = tmp_path / "wave.csv"
        cli._write_wave_csv(path, exp_wave_c1)
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


class TestLayerCounts:
    """The calls that the benchmark tracer counts per layer, pinned: a
    change to the Newton loop that keeps its bits keeps these numbers."""

    @pytest.mark.parametrize("solve, expected", [
        ("sigma1", (8, 7, 7)),  # (discrete_residual, solve_banded, iterations)
        ("family_K2", (8, 7, 7)),
    ])
    def test_residual_and_solve_calls(self, alg3, monkeypatch, solve, expected):
        calls = {"discrete_residual": 0, "solve_banded": 0}

        def counted(name):
            fn = getattr(ws, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ws, name, counted(name))
        if solve == "sigma1":
            w = ws.solve_wave(alg3, 1.0, "sigma1")
        else:
            (w,) = ws.wave_family(alg3, 1.0, (2.0,))
        assert (calls["discrete_residual"], calls["solve_banded"],
                w.iterations) == expected


class TestTargetOutcomes:
    @pytest.mark.parametrize("tag", ws.TARGET_TAGS)
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.4])
    @pytest.mark.parametrize("fixture", ["exp2", "alg3", "pow2", "itlog"])
    def test_typed_failure_or_the_targeted_robin_row(self, request, fixture,
                                                     c, tag):
        # a solve fails typed or returns a wave labelled with its tag whose
        # Robin coefficient is the target's log-derivative at L, or -a(L)/c
        # for a slow_maximal that has no ansatz
        profile = request.getfixturevalue(fixture)
        try:
            w = ws.solve_wave(profile, c, tag)
        except (NoPositiveWaveError, NewtonDivergenceError,
                AnsatzUnavailableError):
            return
        L = w.config.L
        _, ansatz = ws.resolve_target(profile, c, tag)
        if ansatz is None:
            assert tag == "slow_maximal"
            want = -float(profile.a(L)) / c
        else:
            want = float(ansatz.log_derivative(L))
        assert (w.decay_tag, w.bc_right) == (tag, want)

    @pytest.mark.parametrize("build,match", [
        (lambda alg3, pow2: TildeA(alg3, c=2.0), "c = 2, not c = 1"),
        (lambda alg3, pow2: PureExp(K=1.0, c=3.0, z0=12.0), "c = 3, not c = 1"),
        (lambda alg3, pow2: SlowMaximal(pow2, c=1.0), "another profile"),
    ], ids=["tilde_a-other-c", "pure_exp-other-c", "slow_maximal-other-profile"])
    def test_target_built_for_another_speed_or_profile_is_rejected(
            self, alg3, pow2, build, match):
        # such a target would set the Robin row from another problem's law
        with pytest.raises(ValueError, match=match):
            ws.solve_wave(alg3, 1.0, build(alg3, pow2))


class TestPlanOrder:
    """_plan resolves and checks the target, then the guess, then asks the
    classifier.  On pow2 at c = 0.002 the classifier raises (a(z) never
    drops below c^2/4), so its error is the one that comes last."""

    C = 0.002

    def test_the_classifier_raises_here(self, pow2):
        with pytest.raises(AnsatzUnavailableError, match="never drops below c\\^2/4"):
            env.classify(pow2, self.C)

    @pytest.mark.parametrize("build,kwargs,error,match", [
        (lambda alg3, c: "bogus", {}, ValueError, "unknown target 'bogus'"),
        (lambda alg3, c: TildeA(alg3, c), {}, ValueError, "built for another profile"),
        (lambda alg3, c: "tilde_a", {"initial_guess": np.ones(5)}, ValueError,
         "initial guess does not match the grid"),
        (lambda alg3, c: "sigma1", {}, AnsatzUnavailableError,
         "no sigma1 ansatz for this profile"),
        (lambda alg3, c: "slow_maximal", {}, AnsatzUnavailableError,
         "never drops below c\\^2/4"),
        (lambda alg3, c: "tilde_a", {"pin_amplitude": 1e-3}, AnsatzUnavailableError,
         "never drops below c\\^2/4"),
    ], ids=["unknown-tag", "other-profile", "guess-shape", "no-sigma1",
            "slow_maximal", "pinned-tilde_a"])
    def test_target_checks_come_before_the_classifier(self, alg3, pow2, build,
                                                      kwargs, error, match):
        with pytest.raises(error, match=match):
            ws.solve_wave(pow2, self.C, build(alg3, self.C), **kwargs)


class TestCertify:
    def test_nonpositive_state_is_rejected_with_its_payload(self, alg3):
        phi = np.linspace(1.0, -0.1, 12)
        with pytest.raises(NoPositiveWaveError) as info:
            ws.certify(alg3, phi, 3e-11, [0.5, 3e-11])
        assert str(info.value) == ("converged state has min phi = -1.000e-01 <= 0: "
                                   "no positive wave with this target")
        assert info.value.phi is phi
        assert (info.value.residual_norm, info.value.residual_history) == \
            (3e-11, [0.5, 3e-11])

    def test_left_wall_layer_is_rejected_with_its_payload(self, alg3):
        phi = np.linspace(1.0, 0.5, 11)  # first cell drops by 0.05
        with pytest.raises(NoPositiveWaveError) as info:
            ws.certify(alg3, phi, 2e-11, [2e-11])
        assert str(info.value) == (
            "converged state has a boundary layer at the left wall "
            "(|phi' (-L)| h = 5.000e-02): it does not connect to the plateau "
            "equilibrium, so it is not a forced wave")
        assert info.value.phi is phi
        assert (info.value.residual_norm, info.value.residual_history) == \
            (2e-11, [2e-11])
        assert info.value.kind == "no_positive_wave"

    def test_solved_wave_is_accepted(self, exp2, exp_wave_c1):
        w = exp_wave_c1
        assert ws.certify(exp2, w.phi, w.residual_norm, [w.residual_norm]) is None


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
        with pytest.raises(NoPositiveWaveError) as ei:
            ws.solve_wave(exp2, 2.0, "sigma1")
        hist = ei.value.residual_history
        assert len(hist) > 0
        assert all(r >= 0 for r in hist)

    @pytest.mark.parametrize("target", ["pure_exp", "sigma1"])
    @pytest.mark.parametrize("c", [2.1, 2.4])
    @pytest.mark.parametrize("fixture", ["exp2", "alg3", "pow2", "itlog"])
    def test_default_start_reaches_the_wall_layer(self, request, fixture, c,
                                                  target):
        # no wave decays exponentially for c >= 2 sqrt(alpha); from the tanh
        # front Newton dragged the front leftward toward the wall layer and
        # hit the 120-iteration cap (alg3, pow2, itlog) or took 52-102
        # iterations (exp2); from the wall-layer shape it takes 4
        profile = request.getfixturevalue(fixture)
        assert classify(profile, c).minimal_decay is None
        with pytest.raises(NoPositiveWaveError, match="boundary layer") as ei:
            ws.solve_wave(profile, c, target)
        assert len(ei.value.residual_history) - 1 <= 5

    def test_continuation_past_threshold_fails_fast(self, exp2, monkeypatch):
        # each point solves from its own start; past c = 2 that is the wall
        # layer, and each point fails "no positive wave" within 5 iterations
        # (a warm start from the c = 1.95 wave ran each to the 120-iteration
        # cap and a "divergence" verdict)
        iters, newton = [], ws._newton

        def counted(*args, **kwargs):
            out = newton(*args, **kwargs)
            iters.append(out[2])
            return out

        monkeypatch.setattr(ws, "_newton", counted)
        res = ws.continuation_in_c(exp2, 1.9, 2.1, 5, "sigma1")
        assert [(w.c, w.iterations) for w in res.solutions] == [(1.9, 10), (1.95, 12)]
        assert res.failed_c() == pytest.approx([2.0, 2.05, 2.1], abs=1e-12)
        for f in res.failures:
            assert f.kind == "no_positive_wave"
            assert "boundary layer" in f.message
        assert len(iters) == 5 and max(iters[2:]) <= 5


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
            assert f.kind == "no_positive_wave"
            assert f.message

    def test_unavailable_ansatz_is_recorded(self, alg3):
        # ROADMAP 3b: sigma1 is complex on the grid at c = 0.2; the march
        # records that speed and goes on
        res = ws.continuation_in_c(alg3, 0.2, 0.3, 3, "sigma1")
        assert res.solved_c() == pytest.approx([0.25, 0.3], abs=1e-12)
        assert [(f.c, f.kind) for f in res.failures] \
            == [(0.2, "ansatz_unavailable")]

    def test_sigma1_that_is_never_real_is_recorded(self, pow2):
        # at c = 0.002 a(z) never drops below c^2/4, so there is no sigma1
        # ansatz; this left the march as a plain ValueError
        res = ws.continuation_in_c(pow2, 0.002, 0.002, 1, "sigma1")
        assert res.solutions == []
        assert [(f.c, f.kind) for f in res.failures] \
            == [(0.002, "ansatz_unavailable")]

    def test_step_counts(self, exp2):
        res = ws.continuation_in_c(exp2, 1.0, 2.0, 0, "sigma1")
        assert len(res.c_values) == 0
        assert res.solutions == [] and res.failures == []
        with pytest.raises(ValueError, match="steps must be >= 0"):
            ws.continuation_in_c(exp2, 1.0, 2.0, -1, "sigma1")

    def test_solutions_well_converged(self, exp_continuation):
        for w in exp_continuation.solutions:
            assert w.residual_norm < 1e-9

    def test_residual_decreases_with_refinement(self, exp_wave_c1, exp2):
        # second-order scheme: quadrupling expected when halving h; checked
        # coarsely here, precisely in the acceptance suite
        coarse = ws.continuum_residual(exp_wave_c1, exp2)
        assert coarse < 1e-4
