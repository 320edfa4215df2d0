"""One moving-frame operator: the banded matrices, the residual and the IMEX
step must all describe the same discrete A u = u'' + c u'."""

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


@pytest.mark.parametrize("sigma_R, pin", [(-0.8, None), (None, 0.05)])
def test_newton_jacobian_matches_residual_differences(monkeypatch, sigma_R, pin):
    n, c = 41, 1.0
    z = np.linspace(-10.0, 10.0, n)
    h = float(z[1] - z[0])
    a = 1.0 / (1.0 + np.exp(z))
    phi = 0.5 * (1.0 - np.tanh(z / 3.0)) + 0.01

    # the matrix _newton hands to its first linear solve
    def capture(l_and_u, ab, b):
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
    x = frame.factor(ab)(b.copy(order="F"))
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
    x = frame.factor(ab)(b.copy(order="F"))
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
    err = np.max(np.abs(frame.factor(ab)(b.copy()) - exact))
    bound = 16.0 * np.finfo(float).eps * (1.0 + 4.0 * dt / h**2)
    assert err <= bound * np.max(np.abs(exact))


@pytest.mark.parametrize("c", [1.0, 12.0])  # symmetric solve, LU (h = 0.2)
@pytest.mark.parametrize("cols", [None, 2])
def test_zero_stays_exactly_zero(c, cols):
    ab = frame.banded(401, 0.2, c, -0.5, -0.01, 1.0)
    zero = np.zeros(401 if cols is None else (401, cols), order="F")
    assert frame.factor(ab)(zero.copy(order="F")).tobytes() == zero.tobytes()
