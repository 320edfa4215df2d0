"""One moving-frame operator: the banded matrices, the residual and the IMEX
step must all describe the same discrete A u = u'' + c u'."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from forcedwaves import frame
from forcedwaves import pdesim as ps
from forcedwaves import wavesolver as ws


def dense(ab):
    """solve_banded's (3, n) layout as a dense matrix."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def free_rows(n, sigma):
    return slice(1, n if sigma is not None else n - 1)


@pytest.mark.parametrize("sigma", [None, 0.0, -0.7])
def test_banded_is_scaled_shifted_apply(sigma):
    rng = np.random.default_rng(0)
    n, h, c, scale = 41, 0.25, 1.3, -0.02
    u = rng.uniform(0.1, 1.0, n)
    shift = rng.uniform(-1.0, 1.0, n)
    M = dense(frame.banded(n, h, c, sigma, scale, shift))
    free = free_rows(n, sigma)
    expect = scale * frame.apply(u, h, c, sigma) + shift[free] * u[free]
    np.testing.assert_allclose((M @ u)[free], expect, rtol=1e-12, atol=1e-12)
    fixed = [0] if sigma is not None else [0, n - 1]
    np.testing.assert_array_equal(M[fixed], np.eye(n)[fixed])


class _Captured(Exception):
    pass


# with both set, the pin replaces the Robin row in the matrix as in the residual
@pytest.mark.parametrize("sigma_R, pin", [(-0.8, None), (None, 0.05), (-0.8, 0.05)])
def test_newton_jacobian_matches_residual_differences(monkeypatch, sigma_R, pin):
    n, c = 41, 1.0
    z = np.linspace(-10.0, 10.0, n)
    h = float(z[1] - z[0])
    a = 1.0 / (1.0 + np.exp(z))
    phi = 0.5 * (1.0 - np.tanh(z / 3.0)) + 0.01

    # the matrix _newton hands to its first linear solve
    def capture(ab, b):
        raise _Captured(ab.copy())

    monkeypatch.setattr(ws, "solve_banded", capture)
    with pytest.raises(_Captured) as info:
        ws._newton(phi, a, h, c, a[0], sigma_R, pin, ws.SolverConfig(L=1.0, N=1001))
    ab = info.value.args[0]

    def F(p):
        return ws.discrete_residual(p, a, h, c, a[0], sigma_R, pin)

    delta = 1e-4
    fd = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = delta
        fd[:, j] = (F(phi + e) - F(phi - e)) / (2.0 * delta)
    # the residual is quadratic in phi, so central differences are exact up
    # to rounding
    np.testing.assert_allclose(dense(ab), fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize("sigma_R, pin", [(-0.8, None), (None, 0.05)])
def test_log_jacobian_matches_residual_differences(sigma_R, pin):
    # with R = F / phi, jacobian is the Jacobian of G(v) = F(e^v) / e^v in
    # v = log phi, the system the log Newton solves
    n, c = 41, 1.0
    z = np.linspace(-10.0, 10.0, n)
    h = float(z[1] - z[0])
    a = 1.0 / (1.0 + np.exp(z))
    phi = 0.5 * (1.0 - np.tanh(z / 3.0)) + 0.01
    sigma = frame.right_sigma(sigma_R, pin)
    linear = frame.banded(n, h, c, sigma, 1.0, a)

    def G(v):
        p = np.exp(v)
        return frame.discrete_residual(p, a, h, c, a[0], sigma_R, pin) / p

    R = frame.discrete_residual(phi, a, h, c, a[0], sigma_R, pin) / phi
    J = frame.jacobian(linear, phi, sigma, R, np.empty_like(linear))
    v, delta = np.log(phi), 1e-5
    fd = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = delta
        fd[:, j] = (G(v + e) - G(v - e)) / (2.0 * delta)
    np.testing.assert_allclose(dense(J), fd, rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# frame.solve_banded: one dgtsv with scipy.linalg.solve_banded's bits and errors


def scipy_solve(ab, b):
    return solve_banded((1, 1), ab, b)


@pytest.mark.parametrize("pivot", [False, True])
@pytest.mark.parametrize("cols", [None, 3])
def test_solve_banded_is_scipys(pivot, cols):
    rng = np.random.default_rng(4)
    n = 501
    ab = rng.uniform(-1.0, 1.0, (3, n))
    # diagonally dominant, or with |dl_i| > |d_i| on most rows
    ab[1] = 0.1 * ab[1] if pivot else 3.0 + ab[1]
    assert np.any(np.abs(ab[2, :-1]) > np.abs(ab[1, :-1])) == pivot
    b = rng.uniform(-1.0, 1.0, n if cols is None else (n, cols))
    expect, before = scipy_solve(ab, b), ab.copy()
    b_in = b.copy(order="F")
    x = frame.solve_banded(ab, b_in)
    assert x.tobytes() == expect.tobytes()
    assert np.shares_memory(x, b_in)
    assert ab.tobytes() == before.tobytes()


def test_newton_solves_at_solved_waves_are_scipys(alg3, pow2, itlog, alg3_minimal,
                                                  pow2_maximal):
    # the phi-form and log-form Newton systems at converged waves
    for prof, wave in [(alg3, alg3_minimal), (pow2, pow2_maximal),
                       (itlog, ws.solve_wave(itlog, 1.0, "sigma1"))]:
        phi, a = wave.phi, prof.a(wave.grid)
        n, sigma = len(phi), wave.bc_right
        linear = frame.banded(n, wave.h, wave.c, sigma, 1.0, a)
        F = frame.discrete_residual(phi, a, wave.h, wave.c, a[0], sigma, None)
        for R in (None, F / phi):
            ab = frame.jacobian(linear, phi, sigma, R, np.empty_like(linear))
            b = -(F if R is None else R)
            expect = scipy_solve(ab, b)
            assert frame.solve_banded(ab, b).tobytes() == expect.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["ab", "b"])
def test_solve_banded_rejects_non_finite_entries_as_scipy(bad, where):
    ab, b = frame.banded(11, 0.1, 1.0, -0.5, 1.0, 0.3), np.ones(11)
    if where == "ab":
        ab[0, 4] = bad
    else:
        b[4] = bad
    with pytest.raises(ValueError) as ref:
        scipy_solve(ab, b)
    with pytest.raises(ValueError) as mine:
        frame.solve_banded(ab, b)
    assert str(mine.value) == str(ref.value) == "array must not contain infs or NaNs"


def test_solve_banded_zero_pivot_is_scipys_error():
    # row 5 of the matrix is zero
    ab, b = frame.banded(11, 0.1, 1.0, -0.5, 1.0, 0.3), np.ones(11)
    ab[1, 5] = ab[0, 6] = ab[2, 4] = 0.0
    with pytest.raises(np.linalg.LinAlgError) as ref:
        scipy_solve(ab, b)
    with pytest.raises(np.linalg.LinAlgError) as mine:
        frame.solve_banded(ab, b)
    assert str(mine.value) == str(ref.value) == "singular matrix"


@pytest.mark.parametrize("bad, message", [
    (0.0, "singular matrix"), (np.nan, "array must not contain infs or NaNs")])
def test_unsolvable_newton_system_is_divergence(monkeypatch, alg3, bad, message):
    # a singular or non-finite Newton matrix ends the solve as a typed
    # divergence that keeps the iterate and the history
    def broken(ab, b):
        ab[:, 5] = bad
        return frame.solve_banded(ab, b)

    monkeypatch.setattr(ws, "solve_banded", broken)
    with pytest.raises(ws.NewtonDivergenceError,
                       match=f"^no Newton step: {message}$") as info:
        ws.solve_wave(alg3, 1.0, "sigma1")
    assert info.value.last_iterate is not None
    assert len(info.value.residual_history) == 1


def _outcome(solve):
    """What a solve returns or how it fails, in bits."""
    try:
        w = solve()
    except (ws.NewtonDivergenceError, ws.NoPositiveWaveError) as exc:
        return type(exc), str(exc), exc.residual_history
    return w.phi.tobytes(), w.iterations, w.residual_norm


def test_solve_wave_is_unchanged_by_scipys_wrapper(monkeypatch, exp2, alg3, pow2):
    solves = [lambda: ws.solve_wave(alg3, 1.0, "sigma1"),  # log phi
              lambda: ws.solve_wave(exp2, 1.0, "tilde_a"),  # phi
              lambda: ws.wave_family(alg3, 1.0, (2.0,))[0],  # pinned
              lambda: ws.solve_wave(alg3, 1.0, "profile_itself"),  # min phi < 0
              lambda: ws.solve_wave(pow2, 1.0, "tilde_a")]  # divergence
    mine = [_outcome(solve) for solve in solves]
    assert [m[0] for m in mine[3:]] == [ws.NoPositiveWaveError,
                                        ws.NewtonDivergenceError]
    calls = []

    def wrapper(ab, b):
        calls.append(1)
        return scipy_solve(ab, b)

    monkeypatch.setattr(ws, "solve_banded", wrapper)
    assert [_outcome(solve) for solve in solves] == mine
    assert len(calls) > 20


def test_step_from_solved_wave_moves_by_at_most_dt_residual(exp_wave_c1, exp2):
    # (I - dt A) has inverse max-norm <= 1, so one step from phi moves it by
    # at most dt * max|F(phi)| when the step and the residual share A
    state = ps.state_from_wave(exp_wave_c1, exp2)
    dt = ps.default_dt(state)
    moved = float(np.max(np.abs(ps.step(state, dt).u - exp_wave_c1.phi)))
    assert moved <= dt * exp_wave_c1.residual_norm + 1e-14


def _symmetric_solve_called(*args, **kwargs):
    raise AssertionError("frame.factor took the symmetric LDL^T solve")


def _lu_solve_called(*args, **kwargs):
    raise AssertionError("frame.factor took the pivoted LU solve")


def _bounds(b):
    """frame.factor's (rows, left) for b alone: max|b_i| over i >= 1, |b_0|."""
    return np.max(np.abs(b[1:])), np.max(np.abs(b[0]))


@pytest.mark.parametrize("sigma", [None, 0.0, -0.7])
@pytest.mark.parametrize("scale, shift", [(-0.01, 1.0), (-1.0, 3.5)])  # IMEX, shifted -A
@pytest.mark.parametrize("cols", [None, 2])
def test_factored_solve_is_bit_identical_to_solve_banded(monkeypatch, sigma,
                                                         scale, shift, cols):
    # at h c = 2.4 frame.factor falls back to dgttrf once and dgttrs per
    # solve; that must reproduce solve_banded's gtsv to the last bit
    monkeypatch.setattr(frame, "dpttrs", _symmetric_solve_called)
    rng = np.random.default_rng(1)
    n, h, c = 401, 0.05, 48.0
    ab = frame.banded(n, h, c, sigma, scale, shift)
    b = rng.uniform(0.0, 1.0, n if cols is None else (n, cols))
    x = frame.factor(ab, *_bounds(b))(b.copy(order="F"))
    assert np.array_equal(x, solve_banded((1, 1), ab, b))


@pytest.mark.parametrize("sigma", [None, 0.0, -0.7])
def test_apply_and_residual_keep_the_expression_bits(sigma):
    # frame.apply fills its output with in-place ufuncs, and discrete_residual
    # has it write straight into the residual's free rows; their bits must
    # equal the plain numpy expressions they replace
    rng = np.random.default_rng(2)
    n, h, c = 401, 0.05, 1.3
    u = rng.uniform(0.0, 1.0, n)
    a = rng.uniform(0.0, 1.0, n)
    expr = ((u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
            + c * (u[2:] - u[:-2]) / (2.0 * h))
    out = np.full(n - (1 if sigma is not None else 2), np.nan)
    assert frame.apply(u, h, c, sigma, out=out) is out
    alloc = frame.apply(u, h, c, sigma)
    assert out.tobytes() == alloc.tobytes()
    assert out[:n - 2].tobytes() == expr.tobytes()

    pin = None if sigma is not None else 0.05
    free = free_rows(n, sigma)
    ref = np.empty(n)
    ref[0] = u[0] - a[0]
    ref[free] = alloc + u[free] * (a[free] - u[free])
    if pin is not None:
        ref[-1] = u[-1] - pin
    assert ws.discrete_residual(u, a, h, c, a[0], sigma, pin).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# frame.factor: the symmetric LDL^T solve and its pivoted-LU fallback


def thomas_longdouble(ab, b):
    """M x = b in long double by elimination without pivoting; M is
    diagonally dominant where h|c| < 2, and where h|c| > 2 its off-diagonal
    pairs have negative products, which only raise the pivots."""
    n = ab.shape[1]
    dl, d, du = (np.array(v, dtype=np.longdouble)
                 for v in (ab[2, :-1], ab[1], ab[0, 1:]))
    x = np.array(b, dtype=np.longdouble)
    for i in range(1, n):
        w = dl[i - 1] / d[i - 1]
        d[i] -= w * du[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1]) / d[i]
    return x


def test_step_error_on_the_acceptance_waves(monkeypatch, exp2, alg3, pow2,
                                            exp_wave_c1, alg3_minimal,
                                            alg3_family, alg3_maximal,
                                            pow2_maximal):
    # one IMEX step (dt = 0.01, as ACCEPTANCE 11) from each cross-validated
    # wave, against the long-double solve of the same right-hand side;
    # measured at most 1.0e-15 (solve_banded: 4.7e-16)
    monkeypatch.setattr(frame, "dgttrs", _lu_solve_called)
    dt = 0.01
    for prof, wave in [(exp2, exp_wave_c1), (alg3, alg3_minimal),
                       (alg3, alg3_family[1]), (alg3, alg3_maximal),
                       (pow2, pow2_maximal)]:
        state = ps.state_from_wave(wave, prof)
        u, a = state.u, prof.a(state.grid)
        rhs = u + dt * u * (a - u)
        rhs[0] = state.left_value
        sigma = 0.0 if state.robin_sigma is None else state.robin_sigma
        ab = frame.banded(len(u), state.h, state.c, sigma, -dt, 1.0)
        exact = thomas_longdouble(ab, rhs)
        assert np.max(np.abs(ps.step(state, dt).u - exact)) <= 2e-15


def _simulate_bump(grid, z_star):
    """The simulate command's bump: height 1/2 and width 5 at z_star."""
    return 0.5 * np.exp(-((grid - z_star) / 5.0) ** 2)


def _max_relative_error(x, exact, floor=1e-290):
    """max |x - exact| / |exact| over the entries with |exact| >= floor."""
    keep = np.abs(exact) >= floor
    return float(np.max(np.abs(x[keep] - exact[keep]) / np.abs(exact[keep])))


@pytest.mark.parametrize("name", ["alg3", "pow2", "itlog"])
def test_transient_step_decays_through_normal_numbers(monkeypatch, request,
                                                      name):
    # one step (dt = 0.01, sigma = 0, c = 1) from the bump on the default
    # grid (L = 200, N = 8001), whose Gaussian tails underflow: the exact
    # step decays through the subnormal range towards +L.  Relative error
    # against the long-double solve where it is at least 1e-290: measured
    # 1.0e-13; 9.6e-5 with s centred on 1, where the dpttrs sweep stuck at
    # the smallest subnormal (its multiplier is about 0.61 > 1/2)
    monkeypatch.setattr(frame, "dgttrs", _lu_solve_called)
    prof, dt = request.getfixturevalue(name), 0.01
    grid = ws.SolverConfig.default_for(prof).grid()
    state = ps.make_state(prof, 1.0, grid, _simulate_bump(grid, prof.z_star))
    u, a = state.u, prof.a(grid)
    rhs = u + dt * u * (a - u)
    rhs[0] = state.left_value
    ab = frame.banded(len(u), state.h, 1.0, 0.0, -dt, 1.0)
    exact = thomas_longdouble(ab, rhs)
    assert _max_relative_error(ps.step(state, dt).u, exact) <= 1e-12


def test_solve_at_the_edge_of_the_contract(monkeypatch, alg3):
    # stated bounds just inside 2**63, and b up to twice that, just under
    # 2**64, the margin left for the rounding of a caller's bound; as two
    # columns of one solve on the same grid: the bump (its far field decays
    # through the subnormal range) and a plateau (s b and s x within a few
    # bits of overflow at the top of s); row 0 is 0, so the fold leaves
    # row 1 inside the contract too
    monkeypatch.setattr(frame, "dgttrs", _lu_solve_called)
    grid = ws.SolverConfig.default_for(alg3).grid()
    n, h = len(grid), float(grid[1] - grid[0])
    ab = frame.banded(n, h, 1.0, 0.0, -0.01, 1.0)
    edge, bump = np.nextafter(2.0 ** 64, 0.0), _simulate_bump(grid, 8.0)
    b = np.column_stack([edge * (bump / bump.max()), np.full(n, edge)])
    b[0] = 0.0
    assert np.max(np.abs(b)) == edge
    x = frame.factor(ab, np.nextafter(2.0 ** 63, 0.0), 0.0)(b.copy(order="F"))
    assert np.isfinite(x).all()
    for j in range(2):
        exact = thomas_longdouble(ab, b[:, j])
        assert _max_relative_error(x[:, j], exact) <= 1e-12


# on GRID's h = 0.2, h c = 2.4 breaks the M-matrix condition; on the
# default algebraic grid (L = 200, N = 8001) log2 of the scale's span is
# 1012 at c = 3.5 (over 1000) and overflows at c = 4
@pytest.mark.parametrize("L, n, c", [(40.0, 401, 12.0), (200.0, 8001, 3.5),
                                     (200.0, 8001, 4.0)])
@pytest.mark.parametrize("cols", [None, 2])
def test_fallback_is_solve_banded(monkeypatch, L, n, c, cols):
    monkeypatch.setattr(frame, "dpttrs", _symmetric_solve_called)
    rng = np.random.default_rng(3)
    ab = frame.banded(n, 2.0 * L / (n - 1), c, 0.0, -0.01, 1.0)
    b = rng.uniform(0.0, 1.0, n if cols is None else (n, cols))
    x = frame.factor(ab, *_bounds(b))(b.copy(order="F"))
    assert x.tobytes() == solve_banded((1, 1), ab, b).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(h=st.floats(0.01, 0.5),
       hc=st.floats(-1.99, 1.99) | st.floats(2.0, 4.0) | st.floats(-4.0, -2.0),
       dt=st.floats(1e-4, 1.0), sigma=st.floats(-2.0, 0.0))
def test_solve_matches_long_double(h, hc, dt, sigma):
    # h|c| < 2 (the symmetric solve) and h|c| >= 2 (the LU); the bound is
    # eps (1 + 4 dt / h^2) max|x|, a bound on the condition of I - dt A,
    # times 16; the 60 examples measure at most 1.13 times the first factor
    n = 201
    ab = frame.banded(n, h, hc / h, sigma, -dt, 1.0)
    b = np.random.default_rng(4).uniform(0.0, 1.0, n)
    exact = thomas_longdouble(ab, b)
    err = np.max(np.abs(frame.factor(ab, *_bounds(b))(b.copy()) - exact))
    bound = 16.0 * np.finfo(float).eps * (1.0 + 4.0 * dt / h**2)
    assert err <= bound * np.max(np.abs(exact))


@pytest.mark.parametrize("c", [1.0, 12.0])  # symmetric solve, LU (h = 0.2)
@pytest.mark.parametrize("cols", [None, 2])
def test_zero_stays_exactly_zero(c, cols):
    ab = frame.banded(401, 0.2, c, -0.5, -0.01, 1.0)
    zero = np.zeros(401 if cols is None else (401, cols), order="F")
    solve = frame.factor(ab, *_bounds(zero))
    assert solve(zero.copy(order="F")).tobytes() == zero.tobytes()


def _routes(monkeypatch):
    """The names of the LAPACK solves frame.factor's solve calls, in order."""
    calls = []
    for name in ("dpttrs", "dgttrs"):
        def counted(*args, _real=getattr(frame, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(frame, name, counted)
    return calls


# frame.factor's folded bound rows + |M[1,0]| left, with M[1,0] = -0.225
# here (h c = 0.2, where the symmetric conditions hold): just inside 2**63
# the symmetric solve; at or above it, or NaN, the pivoted LU
@pytest.mark.parametrize("rows, left, route", [
    (np.nextafter(2.0 ** 63, 0.0), 0.0, "dpttrs"),
    (2.0 ** 63, 0.0, "dgttrs"),
    (np.nextafter(2.0 ** 64, 0.0), 0.0, "dgttrs"),
    (1.0, 2.0 ** 70, "dgttrs"),  # the left bound alone, through the fold
    (2.0 ** 62, 2.0 ** 64, "dpttrs"),  # 1.9 * 2**62 folded
    (2.0 ** 62, 2.0 ** 65, "dgttrs"),  # 2.8 * 2**62 folded
    (1.0, math.inf, "dgttrs"),
    (math.nan, 1.0, "dgttrs"),
], ids=["inside", "at", "above", "left-2**70", "fold-inside", "fold-above",
        "left-inf", "rows-nan"])
@pytest.mark.parametrize("cols", [None, 2])
def test_the_bound_chooses_the_solve(monkeypatch, rows, left, route, cols):
    calls = _routes(monkeypatch)
    n = 401
    ab = frame.banded(n, 0.2, 1.0, -0.5, -0.01, 1.0)
    assert ab[2, 0] == pytest.approx(-0.225)
    b = np.random.default_rng(5).uniform(0.0, 1.0,
                                         n if cols is None else (n, cols))
    x = frame.factor(ab, rows, left)(b.copy(order="F"))
    assert calls == [route]
    if route == "dgttrs":
        assert x.tobytes() == solve_banded((1, 1), ab, b).tobytes()
    else:
        np.testing.assert_allclose(x, solve_banded((1, 1), ab, b), rtol=1e-13)
