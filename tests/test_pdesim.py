"""Moving-frame IMEX integration: steady waves, stability, order preservation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dptsv

from forcedwaves import cli, frame
from forcedwaves import oracles as orc
from forcedwaves import pdesim as ps
from forcedwaves import wavesolver as ws
from forcedwaves.environment import EnvironmentProfile
from forcedwaves.pdesim import StepRejectedError


@pytest.fixture(scope="module")
def wave_state(exp_wave_c1, exp2):
    return ps.state_from_wave(exp_wave_c1, exp2)


class TestStateConstruction:
    def test_state_from_wave_matches_bcs(self, exp_wave_c1, exp2, wave_state):
        assert wave_state.left_value == pytest.approx(exp2.a(exp_wave_c1.grid[0]))
        assert wave_state.robin_sigma == exp_wave_c1.bc_right
        assert wave_state.t == 0.0

    def test_make_state_defaults_left_value_to_a(self, exp2):
        grid = np.linspace(-40.0, 40.0, 1001)
        st = ps.make_state(exp2, 1.0, grid, np.zeros(1001), left_value=None)
        assert st.left_value == pytest.approx(exp2.a(-40.0))
        assert st.robin_sigma is None  # Neumann unless asked otherwise

    def test_shape_mismatch_rejected(self, exp2):
        with pytest.raises(ValueError, match="shapes"):
            ps.make_state(exp2, 1.0, np.linspace(0, 1, 10), np.zeros(9))

    def test_snapshot_csv(self, wave_state, tmp_path):
        p = tmp_path / "snap.csv"
        cli._write_state_csv(p, wave_state)
        rows = p.read_text().strip().splitlines()
        assert rows[0] == "t,z,u"
        assert len(rows) == len(wave_state.grid) + 1


class TestEquilibria:
    def test_zero_is_exactly_steady(self, exp2, exp_wave_c1):
        grid = exp_wave_c1.grid
        st = ps.make_state(exp2, 1.0, grid, np.zeros_like(grid), left_value=0.0)
        res = ps.evolve(st, 5.0, dt=0.01)
        assert float(np.abs(res.state.u).max()) == 0.0

    def test_solved_wave_is_steady(self, wave_state, exp_wave_c1):
        # the IMEX fixed point coincides with the Newton solution, so drift
        # is Newton-tolerance-sized, not O(dt)
        res = ps.evolve(wave_state, 10.0, dt=0.01,
                        monitors={"dist": ps.distance_monitor(exp_wave_c1.phi)})
        assert max(res.series["dist"]) < 1e-10  # measured 5.4e-14
        assert res.steps_taken == 1000

    def test_steady_residual_monitor_stays_small(self, wave_state):
        res = ps.evolve(wave_state, 1.0, dt=0.01,
                        monitors={"res": ps.residual_monitor()})
        assert max(res.series["res"]) < 1e-8


class TestDynamics:
    def test_plateau_start_decays_to_local_equilibrium(self, exp2, exp_wave_c1):
        # constant alpha is far from equilibrium in the tail where a ~ 0;
        # by T=50 the right end has collapsed toward a
        grid = exp_wave_c1.grid
        st = ps.make_state(exp2, 1.0, grid, np.ones_like(grid))
        res = ps.evolve(st, 50.0, dt=0.01)
        assert res.state.u[-1] < 0.05  # measured 0.0196
        assert float(res.state.u.min()) >= 0.0
        assert float(res.state.u.max()) <= 1.0 + 1e-12

    def test_localized_bump_converges_to_minimal_wave(self, exp2):
        # unique-exponential regime: the flow forgets the initial condition
        # and locks onto the solved wave
        cfg = ws.SolverConfig(L=40.0, N=2001)
        wmin = ws.solve_wave(exp2, 1.0, "sigma1", cfg=cfg)
        zz = wmin.grid
        bump = np.minimum(0.5 * np.exp(-(zz / 5.0) ** 2), 1.0)
        st = ps.make_state(exp2, 1.0, zz, bump)
        res = ps.evolve(st, 200.0, dt=0.01,
                        monitors={"dist": ps.distance_monitor(wmin.phi)})
        assert res.series["dist"][-1] < 1e-3  # measured 4.4e-14

    def test_front_position_monitor(self, exp2, exp_wave_c1, wave_state):
        mon = ps.front_position_monitor(1.0)
        pos = mon(wave_state)
        assert -10.0 < pos < 10.0  # the half-level crossing sits in the blend
        empty = ps.make_state(exp2, 1.0, exp_wave_c1.grid,
                              np.zeros_like(exp_wave_c1.phi), left_value=0.0)
        assert mon(empty) == -math.inf


class TestStepControl:
    def test_large_dt_rejected_with_suggestion(self, exp2, exp_wave_c1):
        st = ps.make_state(exp2, 1.0, exp_wave_c1.grid,
                           np.ones_like(exp_wave_c1.phi))
        with pytest.raises(StepRejectedError) as ei:
            ps.step(st, 1.0)
        assert ei.value.suggested_dt == pytest.approx(0.45, rel=1e-12)

    def test_suggested_dt_is_accepted(self, exp2, exp_wave_c1):
        st = ps.make_state(exp2, 1.0, exp_wave_c1.grid,
                           np.ones_like(exp_wave_c1.phi))
        with pytest.raises(StepRejectedError) as ei:
            ps.step(st, 1.0)
        ps.step(st, ei.value.suggested_dt)  # must not raise

    def test_evolve_and_comparison_reject_like_step(self, exp2, exp_wave_c1):
        # dt = 0.95 passes the zero state (max|a| = 1) and fails the plateau
        # (max|a - 2| = 2), so the pair must be checked field by field
        grid = exp_wave_c1.grid
        lo = ps.make_state(exp2, 1.0, grid, np.zeros_like(grid), left_value=0.0)
        hi = ps.make_state(exp2, 1.0, grid, np.ones_like(grid))
        ps.step(lo, 0.95)
        with pytest.raises(StepRejectedError) as ref:
            ps.step(hi, 0.95)
        for run in (lambda: ps.evolve(hi, 2.0, dt=0.95),
                    lambda: ps.comparison_test(lo, hi, 2.0, dt=0.95)):
            with pytest.raises(StepRejectedError) as ei:
                run()
            assert ei.value.suggested_dt == ref.value.suggested_dt
            assert str(ei.value) == str(ref.value)

    def test_nonpositive_inputs(self, wave_state):
        with pytest.raises(ValueError):
            ps.step(wave_state, 0.0)
        with pytest.raises(ValueError):
            ps.evolve(wave_state, 0.0)

    def test_non_finite_field_rejected(self, wave_state):
        # the factored solve keeps solve_banded's finiteness check
        bad = wave_state.copy()
        bad.u[len(bad.u) // 2] = np.nan
        for run in (lambda: ps.step(bad, 0.01),
                    lambda: ps.evolve(bad, 0.1, dt=0.01),
                    lambda: ps.comparison_test(bad, wave_state, 0.1, dt=0.01)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                run()

    @pytest.mark.parametrize("dt, left", [(2.0 ** -64, 0.5), (0.01, 2.0 ** 70)])
    def test_step_outside_the_symmetric_contract_is_solve_banded(
            self, monkeypatch, exp2, dt, left):
        # a right-hand side bound of 2**63 or more, from dt (about 1/dt) or
        # from the left value folded into row 1, is outside frame.factor's
        # symmetric contract: the step takes its pivoted LU, with
        # solve_banded's bits
        def symmetric(*args, **kwargs):
            raise AssertionError("the step took the symmetric LDL^T solve")

        monkeypatch.setattr(frame, "dpttrs", symmetric)
        st0 = ps.make_state(exp2, 1.0, GRID, _field("bump"), left_value=left)
        u, a = st0.u, exp2.a(GRID)
        rhs = u + dt * u * (a - u)
        rhs[0] = left
        ab = frame.banded(len(GRID), st0.h, 1.0, 0.0, -dt, 1.0)
        assert _same_bits(ps.step(st0, dt).u, solve_banded((1, 1), ab, rhs))


class TestComparison:
    def test_zero_below_wave(self, exp2, exp_wave_c1):
        lo = ps.make_state(exp2, 1.0, exp_wave_c1.grid,
                           np.zeros_like(exp_wave_c1.phi),
                           robin_sigma=exp_wave_c1.bc_right, left_value=0.0)
        hi = ps.state_from_wave(exp_wave_c1, exp2)
        assert ps.comparison_test(lo, hi, 10.0, dt=0.01) <= 1e-12

    def test_sub_below_super_solution(self, exp2, exp_wave_c1):
        grid = exp_wave_c1.grid
        sub = orc.cos_bump_sub(1.0, 1.0, exp2)
        sup = orc.exp_super(1.0, 1.0, 0.5, exp2)
        lo = ps.make_state(exp2, 1.0, grid, sub.on_grid(grid),
                           left_value=float(sub.on_grid(np.array([grid[0]]))[0]))
        hi = ps.make_state(exp2, 1.0, grid, sup.on_grid(grid), left_value=1.0)
        assert ps.comparison_test(lo, hi, 50.0, dt=0.01) <= 1e-8

    def test_family_members_stay_ordered(self, alg3, alg3_family):
        lo = ps.state_from_wave(alg3_family[0], alg3)
        hi = ps.state_from_wave(alg3_family[1], alg3)
        assert ps.comparison_test(lo, hi, 10.0, dt=0.01) <= 1e-8

    def test_rejects_unordered_initial_states(self, exp2, exp_wave_c1):
        hi = ps.state_from_wave(exp_wave_c1, exp2)
        lo = hi.copy()
        lo.u = hi.u + 1e-3  # strictly above
        with pytest.raises(ValueError, match="not ordered"):
            ps.comparison_test(lo, hi, 1.0)

    def test_rejects_mismatched_bcs(self, exp2, exp_wave_c1):
        hi = ps.state_from_wave(exp_wave_c1, exp2)
        lo = ps.make_state(exp2, 1.0, exp_wave_c1.grid,
                           np.zeros_like(exp_wave_c1.phi), left_value=0.0)
        with pytest.raises(ValueError, match="boundary"):
            ps.comparison_test(lo, hi, 1.0)  # Neumann vs Robin

    def test_neumann_wall_written_two_ways_is_one_boundary(self, exp2, exp_wave_c1):
        # robin_sigma None is the Neumann wall 0.0: both step to the same
        # bits, so a pair that writes it both ways is one comparison
        grid, zero = exp_wave_c1.grid, np.zeros_like(exp_wave_c1.phi)
        pairs = [(ps.make_state(exp2, 1.0, grid, zero, robin_sigma=lo, left_value=0.0),
                  ps.make_state(exp2, 1.0, grid, exp_wave_c1.phi, robin_sigma=hi))
                 for lo, hi in ((None, None), (None, 0.0), (0.0, None))]
        same, *mixed = [ps.comparison_test(lo, hi, 0.5, dt=0.01) for lo, hi in pairs]
        assert mixed == [same, same]
        assert {st.right_sigma for pair in pairs for st in pair} == {0.0}

    def test_rejects_mismatched_speed_or_profile(self, exp2, alg3, exp_wave_c1):
        # the pair is advanced by one matrix and one a(grid): two different
        # equations would certify nothing
        hi = ps.state_from_wave(exp_wave_c1, exp2)
        zero = np.zeros_like(exp_wave_c1.phi)
        for c, profile in ((1.1, exp2), (1.0, alg3)):
            lo = ps.make_state(profile, c, exp_wave_c1.grid, zero,
                               robin_sigma=hi.robin_sigma, left_value=0.0)
            with pytest.raises(ValueError, match="speed and profile"):
                ps.comparison_test(lo, hi, 1.0)

    def test_equals_hand_stepped_pair(self, exp2, exp_wave_c1):
        # the two-column solve must reproduce stepping each state alone
        hi0 = ps.state_from_wave(exp_wave_c1, exp2)
        lo0 = ps.make_state(exp2, 1.0, hi0.grid, 0.5 * hi0.u,
                            robin_sigma=hi0.robin_sigma, left_value=0.5)
        lo, hi = lo0, hi0
        expect = float(np.max(lo.u - hi.u))
        while lo.t < 0.35 - 1e-12:
            d = min(0.1, 0.35 - lo.t)
            lo, hi = ps.step(lo, d), ps.step(hi, d)
            expect = max(expect, float(np.max(lo.u - hi.u)))
        assert lo.t == pytest.approx(0.35) and expect < 0.0
        assert ps.comparison_test(lo0, hi0, 0.35, dt=0.1) == expect


class TestEvolveBookkeeping:
    def test_monitor_series_aligned_with_times(self, wave_state, exp_wave_c1):
        res = ps.evolve(wave_state, 1.0, dt=0.01,
                        monitors={"dist": ps.distance_monitor(exp_wave_c1.phi),
                                  "front": ps.front_position_monitor(1.0)})
        assert len(res.times) == len(res.series["dist"]) == len(res.series["front"])
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(1.0, abs=1e-9)

    def test_monitors_csv_format(self, wave_state, exp_wave_c1, tmp_path):
        res = ps.evolve(wave_state, 0.1, dt=0.01,
                        monitors={"dist": ps.distance_monitor(exp_wave_c1.phi)})
        p = tmp_path / "mon.csv"
        cli._write_monitors_csv(p, res)
        rows = p.read_text().strip().splitlines()
        assert rows[0] == "t,metric,value"
        assert all(r.split(",")[1] == "dist" for r in rows[1:])

    def test_final_time_reached_exactly(self, wave_state):
        res = ps.evolve(wave_state, 0.35, dt=0.1)  # non-divisible horizon
        assert res.state.t == pytest.approx(0.35, abs=1e-12)
        assert res.steps_taken == 4

    @pytest.mark.parametrize("robin", [False, True])
    def test_equals_hand_stepped_trajectory(self, exp2, exp_wave_c1, robin):
        # steps of 0.1, 0.1, 0.1 and then the 0.05 remainder: the factored
        # trajectory must end on exactly the bits of repeated step calls
        grid = exp_wave_c1.grid
        st = ps.make_state(exp2, 1.0, grid, 0.5 * np.exp(-(grid / 5.0) ** 2),
                           robin_sigma=exp_wave_c1.bc_right if robin else None)
        cur = st
        while cur.t < 0.35 - 1e-12:
            cur = ps.step(cur, min(0.1, 0.35 - cur.t))
        res = ps.evolve(st, 0.35, dt=0.1)
        assert np.array_equal(res.state.u, cur.u)
        assert res.state.t == cur.t

    def test_trajectory_work_is_done_once(self, monkeypatch, wave_state,
                                          exp_wave_c1):
        # a(grid) once for the steps and once for the residual monitor, one
        # implicit matrix per trajectory: the 100th step's remainder,
        # 1 - t = 0.009999999999999343 after 99 rounded additions of dt, is
        # stepped at dt
        counts = {"a": 0, "dt": []}
        a, banded = EnvironmentProfile.a, frame.banded

        def counted_a(self, z):
            counts["a"] += 1
            return a(self, z)

        def counted_banded(n, h, c, sigma, scale, shift):
            counts["dt"].append(-scale)
            return banded(n, h, c, sigma, scale, shift)

        monkeypatch.setattr(EnvironmentProfile, "a", counted_a)
        monkeypatch.setattr(frame, "banded", counted_banded)
        res = ps.evolve(wave_state, 1.0, dt=0.01, monitor_every=10,
                        monitors={"res": ps.residual_monitor(),
                                  "dist": ps.distance_monitor(exp_wave_c1.phi)})
        assert res.steps_taken == 100 and len(res.times) == 11
        assert res.state.t == 1.0
        assert counts["a"] <= 2
        assert counts["dt"] == [0.01]


# ---------------------------------------------------------------------------
# bit identity with the plain-expression step


def _reference_step(state, u, left, dt, a):
    """One IMEX step of u (a field or rows of fields) from the plain
    expressions: the per-field exact dt check, u + dt u (a - u), the
    finiteness check and a solve with frame.banded's M = I - dt A, by the
    symmetric system where frame.factor takes it, else by solve_banded."""
    for m in np.atleast_1d(np.max(np.abs(a - 2.0 * u), axis=-1)):
        if dt * m >= 1.0:
            raise StepRejectedError(
                f"dt = {dt:.3e} too large: dt * max|a - 2u| = {dt * m:.3f} >= 1",
                suggested_dt=0.9 / float(m))
    rhs = u + dt * u * (a - u)
    rhs[..., 0] = left
    np.asarray_chkfinite(rhs)
    sigma = 0.0 if state.robin_sigma is None else state.robin_sigma
    ab = frame.banded(len(state.u), state.h, state.c, sigma, -dt, 1.0)
    x = _symmetric_solve(ab, rhs.T)
    return (solve_banded((1, 1), ab, rhs.T) if x is None else x).T


def _symmetric_solve(ab, b):
    """M x = b for M in banded's layout as s M s^-1 (s x) = s b, one-shot
    dptsv on the symmetric tridiagonal system after folding the Dirichlet
    row 0 into row 1; None where the off-diagonal pairs below row 0 are not
    all negative, s spans more than 2**1000 or dptsv finds M s^-1 not
    positive definite.  s is shifted by a power of two to max(s) in
    [2**(K-1), 2**K), K = 1023 - 64 - the frexp exponent of
    max(diag) + 2 max|offdiag|, an upper bound on ||s M s^-1||_inf."""
    p, q = ab[0, 2:], ab[2, 1:-1]  # (M[i, i+1], M[i+1, i]), i >= 1
    if not (np.all(p < 0.0) and np.all(q < 0.0)):
        return None
    with np.errstate(all="ignore"):
        s = np.cumprod(np.concatenate(([1.0, 1.0], np.sqrt(p / q))))
    lo, hi = s[1:].min(), s[1:].max()
    if not hi <= 2.0 ** 1000 * lo:
        return None
    e = np.concatenate(([0.0], -np.sqrt(p * q)))
    K = 1023 - 64 - math.frexp(np.max(ab[1]) + 2.0 * np.max(np.abs(e)))[1]
    s[1:] = s[1:] * 2.0 ** (K - math.frexp(hi)[1])
    s = s.reshape((-1,) + (1,) * (b.ndim - 1))
    b = b.copy()
    b[1] = b[1] - ab[2, 0] * b[0]
    *_, y, info = dptsv(ab[1], e, s * b)
    return None if info else y / s


def _reference_march(state, u, left, T, dt):
    """[(t, u)] after each reference step to state.t + T; a remainder
    within 1e-12 of dt is stepped at dt, and the last step ends at
    state.t + T."""
    t, t_end, a = state.t, state.t + T, state.profile.a(state.grid)
    out = []
    while t < t_end - 1e-12:
        if t_end - t > dt + 1e-12:
            u, t = _reference_step(state, u, left, dt, a), t + dt
        else:
            d = dt if t_end - t > dt - 1e-12 else t_end - t
            u, t = _reference_step(state, u, left, d, a), t_end
        out.append((t, u))
    return out


def _reference_comparison(lo, hi, T, dt):
    """comparison_test's value from the reference steps of the pair."""
    ref = _reference_march(lo, np.array([lo.u, hi.u]),
                           [lo.left_value, hi.left_value], T, dt)
    return max([float(np.max(lo.u - hi.u))]
               + [float(np.max(p[0] - p[1])) for _, p in ref])


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _outcome(run):
    """The bits of run's result, or (error class, message, suggested_dt)."""
    try:
        return np.asarray(run()).tobytes()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "suggested_dt", None)


GRID = np.linspace(-40.0, 40.0, 401)
# the algebraic-family default grid, L = 200 and N = 8001
WIDE = ws.SolverConfig(L=200.0, N=8001).grid()
GRIDS = {"bump": GRID, "signed-subnormal": GRID, "wide-bump": WIDE}


def _field(kind):
    if kind == "wide-bump":
        # the simulate bump (height 1/2, width 5) at z = 8: its Gaussian
        # tails underflow, and at dt = 0.01 the exact step decays through
        # the subnormal range towards +L
        return 0.5 * np.exp(-((WIDE - 8.0) / 5.0) ** 2)
    u = 0.9 * np.exp(-((GRID - 4.0) / 6.0) ** 2)
    if kind == "signed-subnormal":
        u[::7] = 5e-324
        u[3::11] = -1e-3
        u[5::13] = -1e-310
    return u


@pytest.fixture
def checked(monkeypatch):
    """The shapes passed to asarray_chkfinite: one per exactly checked step."""
    calls = []
    chk = np.asarray_chkfinite

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return chk(x, *args, **kwargs)

    monkeypatch.setattr(ps.np, "asarray_chkfinite", counted)
    return calls


class TestReferenceBits:
    """step, evolve and comparison_test reproduce the plain-expression step
    bit for bit, whether the dt bound or the exact check admits the step."""

    C = 1.0  # h c = 0.2 on GRID: the symmetric LDL^T solve

    # dt = 0.01 is inside dt (max|a| + 2 max|u|) <= 1/2 on every step;
    # dt = 0.3 is outside it on every step (max|u| >= 0.9; the wide bump's
    # 0.5 at the first step, then its left value 1; the last step is 0.24)
    # and still passes the exact check dt max|a - 2u| < 1
    @pytest.mark.parametrize("dt,exact", [(0.01, False), (0.3, True)])
    @pytest.mark.parametrize("kind", ["bump", "signed-subnormal", "wide-bump"])
    @pytest.mark.parametrize("robin", [None, -0.5])
    def test_step_and_evolve(self, exp2, checked, dt, exact, kind, robin):
        st0 = ps.make_state(exp2, self.C, GRIDS[kind], _field(kind),
                            robin_sigma=robin)
        ref = _reference_march(st0, st0.u, st0.left_value, 11.8 * dt, dt)
        assert len(ref) == 12
        del checked[:]  # solve_banded's own checks in the reference
        one = ps.step(st0, dt)
        assert _same_bits(one.u, ref[0][1]) and one.t == ref[0][0]
        mons = {"dist": ps.distance_monitor(st0.u),
                "res": ps.residual_monitor()}
        res = ps.evolve(st0, 11.8 * dt, dt=dt, monitors=mons, monitor_every=5)
        assert _same_bits(res.state.u, ref[-1][1])
        assert res.state.t == ref[-1][0] and res.steps_taken == 12
        # records at steps 0, 5, 10 and the last
        kept = [(st0.t, st0.u)] + [ref[k - 1] for k in (5, 10, 12)]
        assert res.times == [t for t, _ in kept]
        for name, mon in mons.items():
            assert res.series[name] == [
                mon(ps.replace(st0, t=t, u=u)) for t, u in kept]
        # the exact check ran on every step or on none
        assert len(checked) == (13 if exact else 0)

    @pytest.mark.parametrize("dt,exact", [(0.01, False), (0.3, True)])
    def test_comparison_pair(self, exp2, checked, dt, exact):
        lo = ps.make_state(exp2, self.C, GRID, 0.5 * _field("signed-subnormal"),
                           robin_sigma=-0.5, left_value=0.5)
        hi = ps.make_state(exp2, self.C, GRID, np.maximum(_field("bump"), lo.u),
                           robin_sigma=-0.5)
        expect = _reference_comparison(lo, hi, 11.8 * dt, dt)
        del checked[:]
        assert ps.comparison_test(lo, hi, 11.8 * dt, dt=dt) == expect
        assert len(checked) == (12 if exact else 0)

    @pytest.mark.parametrize("level", [1.5, -1.0])
    def test_rejection_like_reference(self, exp2, level):
        # dt = 0.4 fails dt max|a - 2u| < 1 on both plateaus (max 3); only
        # the min reduction of u keeps the bound from passing the negative one
        st0 = ps.make_state(exp2, self.C, GRID, np.full_like(GRID, level))
        ref = _outcome(lambda: _reference_step(st0, st0.u, st0.left_value,
                                               0.4, exp2.a(GRID)))
        assert ref[0] is StepRejectedError
        for run in (lambda: ps.step(st0, 0.4),
                    lambda: ps.evolve(st0, 1.0, dt=0.4)):
            assert _outcome(run) == ref

    def test_nan_left_value_raises_like_solve_banded(self, exp2):
        st0 = ps.make_state(exp2, self.C, GRID, _field("bump"),
                            left_value=math.nan)
        a = exp2.a(GRID)
        ref = _outcome(lambda: _reference_step(st0, st0.u, math.nan, 0.01, a))
        assert ref[0] is ValueError and "infs or NaNs" in ref[1]
        zero = ps.make_state(exp2, self.C, GRID, np.zeros_like(GRID),
                             left_value=0.0)
        for run in (lambda: ps.step(st0, 0.01),
                    lambda: ps.evolve(st0, 0.1, dt=0.01),
                    lambda: ps.comparison_test(zero, st0, 0.1, dt=0.01)):
            assert _outcome(run) == ref

    @settings(max_examples=50, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), pair=st.booleans(),
           limit=st.sampled_from(["bound", "reject"]),
           factor=st.floats(0.5, 1.5), robin=st.sampled_from([None, -0.5]),
           c=st.sampled_from([C, 12.0]))
    def test_random_fields_match_reference(self, exp2, seed, pair, limit,
                                           factor, robin, c):
        # fields in [-0.5, 1.5]; dt on either side of the dt bound
        # dt (max|a| + 2 max|u|) = 1/2 or of the rejection limit
        # dt max|a - 2u| = 1; c on either side of h c = 2
        rng = np.random.default_rng(seed)
        u = rng.uniform(-0.5, 1.5, (2, len(GRID)))
        u.sort(axis=0)  # rows lo <= hi, as comparison_test requires
        left = np.sort(rng.uniform(-0.5, 1.5, 2))
        a = exp2.a(GRID)
        if limit == "bound":
            dt = factor * 0.5 / (np.max(np.abs(a)) + 2.0 * np.max(np.abs(u)))
        else:
            dt = factor / np.max(np.abs(a - 2.0 * u))
        dt = float(dt)
        lo, hi = (ps.make_state(exp2, c, GRID, u[i], robin_sigma=robin,
                                left_value=float(left[i])) for i in (0, 1))
        if pair:
            got = _outcome(lambda: ps.comparison_test(lo, hi, 3.0 * dt, dt=dt))
            want = _outcome(lambda: _reference_comparison(lo, hi, 3.0 * dt, dt))
        else:
            got = _outcome(lambda: ps.step(hi, dt).u)
            want = _outcome(lambda: _reference_step(hi, hi.u, hi.left_value,
                                                    dt, a))
        assert got == want


class TestReferenceBitsLU(TestReferenceBits):
    """The same checks where h c = 2.4 on GRID and the scale on WIDE spans
    far more than 2**1000 (h c = 0.6): the step takes the pivoted LU, and
    the reference is solve_banded."""

    C = 12.0
    # hypothesis runs a @given method for one class only; the base class
    # draws both speeds
    test_random_fields_match_reference = None
