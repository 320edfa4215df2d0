"""One moving-frame operator: the banded matrices, the residual and the IMEX
step must all describe the same discrete A u = u'' + c u'."""

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

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


@pytest.mark.parametrize("sigma", [None, 0.0, -0.7])
@pytest.mark.parametrize("scale, shift", [(-0.01, 1.0), (-1.0, 3.5)])  # IMEX, shifted -A
@pytest.mark.parametrize("cols", [None, 2])
def test_factored_solve_is_bit_identical_to_solve_banded(sigma, scale, shift, cols):
    # the IMEX step factors I - dt A once with dgttrf and solves with
    # dgttrs; that must reproduce solve_banded's gtsv to the last bit
    rng = np.random.default_rng(1)
    n, h, c = 401, 0.05, 1.0
    ab = frame.banded(n, h, c, sigma, scale, shift)
    b = rng.uniform(0.0, 1.0, n if cols is None else (n, cols))
    *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    assert info == 0
    x, info = dgttrs(*lu, b)
    assert info == 0
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
