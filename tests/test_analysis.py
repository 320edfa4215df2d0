"""Log-space decay fitting, ranking ambiguity, and inventory verdicts."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from forcedwaves import analysis as an
from forcedwaves import cli
from forcedwaves import wavesolver as ws
from forcedwaves.analysis import FitWindowError


def candidates_for(profile, c, tags):
    out = []
    for t in tags:
        _, a = ws.resolve_target(profile, c, t)
        if a is not None:
            out.append(a)
    return out


class TestTailWindow:
    def test_window_bounds(self):
        grid = np.linspace(0.0, 100.0, 1001)
        mask = an.tail_window(grid)
        z = grid[mask]
        assert z[0] == pytest.approx(80.0)   # last 20% of the span
        assert z[-1] == pytest.approx(98.0)  # minus the final 2%

    def test_custom_fraction(self):
        grid = np.linspace(0.0, 100.0, 1001)
        z = grid[an.tail_window(grid, window_fraction=0.5)]
        assert z[0] == pytest.approx(50.0)

    def test_local_log_derivative_exact_for_exponential(self):
        z = np.linspace(0.0, 10.0, 201)
        d = an.local_log_derivative(np.exp(-2.0 * z), z)
        assert np.max(np.abs(d + 2.0)) < 1e-10

    def test_local_log_derivative_requires_positive(self):
        z = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="strictly positive"):
            an.local_log_derivative(np.linspace(-1.0, 1.0, 11), z)


class TestSyntheticRecovery:
    def test_exact_ansatz_recovered(self, alg3):
        # field manufactured from the candidate itself: amplitude comes back
        # to machine precision and the rms log-error is numerically zero
        _, ans = ws.resolve_target(alg3, 1.0, "tilde_a")
        grid = np.linspace(-60.0, 200.0, 4001)
        phi = 2.5 * ans.value(np.maximum(grid, 12.0))
        wave = SimpleNamespace(grid=grid, phi=phi)
        rk = an.fit_decay(wave, [ans])
        assert rk.winner.amplitude == pytest.approx(2.5, abs=1e-4)
        assert rk.winner.rms_log_error < 1e-6
        assert rk.winner.local_rate_error < 1e-4
        assert rk.winner.n_points >= 100

    def test_fit_fields(self, alg3):
        _, ans = ws.resolve_target(alg3, 1.0, "tilde_a")
        grid = np.linspace(-60.0, 200.0, 4001)
        wave = SimpleNamespace(grid=grid, phi=ans.value(np.maximum(grid, 12.0)))
        f = an.fit_decay(wave, [ans]).winner
        assert f.tag == ans.tag == "tilde_a"
        assert f.window[0] >= 148.0 - 1e-9
        assert f.window[1] <= 200.0


class TestWindowErrors:
    def test_short_wave_rejected(self):
        grid = np.linspace(0.0, 10.0, 200)
        wave = SimpleNamespace(grid=grid, phi=np.exp(-grid))
        from forcedwaves.environment import PureExp
        cand = PureExp(K=1.0, c=2.0, z0=0.0)
        with pytest.raises(FitWindowError, match="at least 100"):
            an.fit_decay(wave, [cand])

    def test_underflowed_tail_rejected(self):
        grid = np.linspace(0.0, 400.0, 2001)
        wave = SimpleNamespace(grid=grid, phi=np.exp(-4.0 * grid))  # 0.0 past ~z=177
        from forcedwaves.environment import PureExp
        cand = PureExp(K=1.0, c=8.0, z0=0.0)
        with pytest.raises(FitWindowError, match="underflow"):
            an.fit_decay(wave, [cand])

    def test_no_candidates(self, exp_wave_c1):
        with pytest.raises(ValueError, match="no candidates"):
            an.fit_decay(exp_wave_c1, [])

    def test_unavailable_candidate_skipped(self, pow2):
        # sigma1 is complex on the pow2 tail window at c = 0.7: it drops out
        # of the ranking, and with no candidate left the window is rejected
        sigma1, itself = candidates_for(pow2, 0.7, ["sigma1", "profile_itself"])
        grid = np.linspace(-200.0, 200.0, 8001)
        wave = SimpleNamespace(grid=grid,
                               phi=itself.value(np.maximum(grid, 20.0)))
        rk = an.fit_decay(wave, [sigma1, itself])
        assert [f.tag for f in rk.fits] == ["profile_itself"]
        with pytest.raises(FitWindowError, match="no candidate"):
            an.fit_decay(wave, [sigma1])


class TestComputedWaveFits:
    def test_exp_wave_is_exponential_but_ambiguous(self, exp2, exp_wave_c1):
        # sigma1 integrates to pure-exp-plus-corrections here, so the two
        # exponential readings legitimately tie
        cands = candidates_for(exp2, 1.0, ("pure_exp", "sigma1", "tilde_a"))
        rk = an.fit_decay(exp_wave_c1, cands)
        assert rk.winner.tag == "pure_exp"
        assert rk.ambiguous
        assert {rk.fits[0].tag, rk.fits[1].tag} == {"pure_exp", "sigma1"}

    def test_tied_exponential_laws_keep_candidate_order(self, exp2):
        # at c = 0.3 the two rms values differ by ~4e-10 relative; rounding
        # must not pick the winner, so either candidate order wins
        wave = ws.solve_wave(exp2, 0.3, "sigma1", ws.SolverConfig(L=60.0, N=4001))
        cands = candidates_for(exp2, 0.3, ("pure_exp", "sigma1"))
        assert [f.tag for f in an.fit_decay(wave, cands).fits] == ["pure_exp", "sigma1"]
        assert [f.tag for f in an.fit_decay(wave, cands[::-1]).fits] == ["sigma1", "pure_exp"]

    def test_family_member_fits_tilde_a_with_its_pin(self, alg3, alg3_family):
        cands = candidates_for(alg3, 1.0, ("sigma1", "tilde_a", "slow_maximal"))
        rk = an.fit_decay(alg3_family[1], cands)  # K = 1.0 member
        assert rk.winner.tag == "tilde_a"
        assert not rk.ambiguous
        assert rk.winner.amplitude == pytest.approx(1.0, rel=1e-2)

    def test_maximal_wave_fits_slow_maximal_decisively(self, alg3, alg3_maximal):
        cands = candidates_for(alg3, 1.0, ("sigma1", "tilde_a", "slow_maximal"))
        rk = an.fit_decay(alg3_maximal, cands)
        assert rk.winner.tag == "slow_maximal"
        assert not rk.ambiguous
        assert rk.fits[1].rms_log_error >= 5.0 * rk.winner.rms_log_error  # measured ~800x

    def test_power_maximal_fits_profile_itself(self, pow2, pow2_maximal):
        cands = candidates_for(pow2, 1.0, ("sigma1", "tilde_a", "profile_itself"))
        rk = an.fit_decay(pow2_maximal, cands)
        assert rk.winner.tag == "profile_itself"
        assert not rk.ambiguous


@pytest.fixture(scope="module")
def ranking(exp2, exp_wave_c1):
    cands = candidates_for(exp2, 1.0, ("pure_exp", "sigma1", "tilde_a"))
    return an.fit_decay(exp_wave_c1, cands)


class TestRankingContainer:
    def test_sequence_protocol(self, ranking):
        assert len(ranking.fits) == 3
        assert ranking.fits[0] is ranking.winner
        rms = [f.rms_log_error for f in ranking.fits]
        assert rms == sorted(rms)

    # fit.json and fit.csv are built in cli, from the ranking alone
    def test_json_roundtrip(self, ranking):
        payload = cli._ranking_record(ranking)
        assert payload["ambiguous"] is True
        assert payload["fits"][0]["candidate"] == "pure_exp"
        assert json.loads(json.dumps(payload)) == payload

    def test_csv_header(self, ranking, tmp_path):
        p = tmp_path / "fits.csv"
        cli._write_fit_csv(p, ranking)
        rows = p.read_text().strip().splitlines()
        assert rows[0] == "candidate,K,rms_log_error,rate_error"
        assert len(rows) == 4


class TestInventoryVerdict:
    def test_slow_regime_full_inventory(self, alg3, alg3_minimal, alg3_family,
                                        alg3_maximal):
        waves = [alg3_minimal, alg3_family[1], alg3_maximal]
        tags = ("sigma1", "tilde_a", "slow_maximal")
        fits = [an.fit_decay(w, candidates_for(alg3, 1.0, tags)) for w in waves]
        v = an.inventory_verdict(alg3, 1.0, waves, fits)
        assert v.inventory == "exponential-plus-infinitely-many-nonexponential"
        assert v.case_123 == "2"
        assert len(v.checks) == 3
        for ch in v.checks:
            assert ch["passed"]
            assert ch["measured"]

    def test_unique_regime(self, exp2, exp_wave_c1):
        cands = candidates_for(exp2, 1.0, ("pure_exp", "sigma1"))
        fits = [an.fit_decay(exp_wave_c1, cands)]
        v = an.inventory_verdict(exp2, 1.0, [exp_wave_c1], fits)
        assert v.inventory == "unique-exponential"
        assert all(ch["passed"] for ch in v.checks)

    def test_empty_regime(self, alg05):
        v = an.inventory_verdict(alg05, 3.0, [], [])
        assert v.inventory == "none"
        assert all(ch["passed"] for ch in v.checks)
        assert v.checks[0]["prediction"] == "no forced wave"

    def test_parallel_validation(self, alg3, alg3_minimal):
        with pytest.raises(ValueError, match="parallel"):
            an.inventory_verdict(alg3, 1.0, [alg3_minimal], [])

    def test_verdict_json(self, alg05):
        v = an.inventory_verdict(alg05, 3.0, [], [])
        assert all(ch["passed"] is True for ch in v.checks)
        assert v.inventory == "none"
        assert json.loads(json.dumps(list(v.checks))) == list(v.checks)
