"""The discrete problem on a uniform grid: the moving-frame operator
A u = u'' + c u', the collocation residual, Newton's Jacobian and the
tridiagonal solves.

Centred second-order differences on the interior.  Row 0 is a Dirichlet row.
The last row is the Robin condition u'(L) = sigma u(L) when sigma is a float
(0.0 is homogeneous Neumann), eliminated through the ghost node
u_{N+1} = u_{N-1} + 2 h sigma u_N, which keeps that row a centred
second-order discretization and the matrix tridiagonal; with sigma None it is
an amplitude pin.  The rows that carry the operator are the free rows.  A
pin replaces the Robin row (right_sigma), in the residual and the Jacobian
alike.

This module is the only one that knows the rows and the linear algebra:
discrete_residual is the system Newton solves and the residual monitor
reads, jacobian is Newton's matrix (in phi and, rescaled, in log phi),
solve_banded its solve and factor the IMEX step's.  They all use this one
stencil, so a solved wave is an exact fixed point of the step.

factor solves with the IMEX step's implicit matrix M = I - dt A.  When
h|c| < 2 every off-diagonal pair of M is negative (M is an M-matrix), and a
diagonal scale s with s_{i+1}/s_i = sqrt(M[i,i+1]/M[i+1,i]) makes it
symmetric: s M s^{-1} has off-diagonals -sqrt(M[i,i+1] M[i+1,i]).  That
matrix is factored once as LDL^T (LAPACK dpttrf) and each solve is one
dpttrs between a scaling and an unscaling, about half the cost of the
pivoted dgttrs, whose back-substitution divides on every row.  Where the
pairs are not all negative, s spans more than _SCALE_SPAN or dpttrf finds
the matrix not positive definite, factor uses the pivoted LU (dgttrf and
dgttrs, bit-identical to solve_banded) instead.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf, dpttrs

# largest max(s)/min(s) on the symmetric path.  The running product starts
# at 1, so it stays normal, and after centring s lies in (2**-502, 2**501):
# s b cannot overflow for |b| < 2**522, and an underflow of s b changes x by
# about 2**-1074 / min(s) < 2**-572 at most.  On banded's interior rows
# log s grows by atanh(h c / 2) per node, so at L = 200, N = 8001 the
# symmetric path holds for |c| up to about 3.45.
_SCALE_SPAN = 2.0 ** 1000


def apply(u: np.ndarray, h: float, c: float, sigma: Optional[float],
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """A u on the free rows of nodes 0..N: rows 1..N-1, plus row N when sigma is set.

    The result is written into out when given (length N - 1, or N with
    sigma).  Each in-place ufunc below is one IEEE operation of
    (u_{i-1} - 2 u_i + u_{i+1}) / h^2 + c (u_{i+1} - u_{i-1}) / (2 h) on
    the same operands in the same order (x * 2.0 is 2.0 * x), so out holds
    the expression's bits with one temporary in place of seven.
    """
    if out is None:
        out = np.empty(len(u) - (1 if sigma is not None else 2))
    inner = out[:len(u) - 2]
    np.multiply(u[1:-1], 2.0, out=inner)
    np.subtract(u[:-2], inner, out=inner)
    np.add(inner, u[2:], out=inner)
    np.divide(inner, h**2, out=inner)
    drift = np.subtract(u[2:], u[:-2])
    np.multiply(drift, c, out=drift)
    np.divide(drift, 2.0 * h, out=drift)
    np.add(inner, drift, out=inner)
    if sigma is not None:
        out[-1] = ((2.0 * u[-2] - 2.0 * u[-1] + 2.0 * h * sigma * u[-1]) / h**2
                   + c * sigma * u[-1])
    return out


def banded(n: int, h: float, c: float, sigma: Optional[float], scale: float,
           shift) -> np.ndarray:
    """scale A + diag(shift) in solve_banded's (3, n) layout.

    Fixed rows (row 0, and the last row when sigma is None) are identity
    rows.  shift is a scalar or an array of length n.
    """
    ab = np.zeros((3, n))
    free = slice(1, n if sigma is not None else n - 1)
    # row 0: superdiagonal shifted right; row 1: diagonal; row 2: subdiagonal
    # shifted left.  The order of operations fixes the last bits of every
    # solve and step; tools/golden_run.py checks the CLI outputs against it.
    ab[0, 2:] = scale * (1.0 / h**2 + c / (2.0 * h))
    ab[1, :] = -2.0 * scale / h**2
    ab[2, :-2] = scale * (1.0 / h**2 - c / (2.0 * h))
    if sigma is not None:
        ab[2, -2] = 2.0 * scale / h**2
        ab[1, -1] = scale * (-2.0 + 2.0 * h * sigma) / h**2 + scale * c * sigma
    ab[1, free] += shift[free] if np.ndim(shift) else shift
    ab[1, 0], ab[0, 1] = 1.0, 0.0
    if sigma is None:
        ab[1, -1], ab[2, -2] = 1.0, 0.0
    return ab


def right_sigma(sigma_R: Optional[float], pin_value: Optional[float]):
    """The last row's sigma: None (a pin row) when pin_value is set, which
    replaces the Robin row u'(L) = sigma_R u(L)."""
    return None if pin_value is not None else sigma_R


def discrete_residual(phi: np.ndarray, a: np.ndarray, h: float, c: float,
                      left_value: float, sigma_R: Optional[float],
                      pin_value: Optional[float]) -> np.ndarray:
    """Residual of the collocation system; boundary rows at both ends.

    apply writes A phi straight into the free rows and the reaction
    phi (a - phi) is added to them in place: the same sum of the same two
    terms as Au + phi (a - phi), with two temporaries where that expression
    made eleven.
    """
    sigma = right_sigma(sigma_R, pin_value)
    F = np.empty_like(phi)
    F[0] = phi[0] - left_value
    free = slice(1, len(phi) if sigma is not None else len(phi) - 1)
    Au = apply(phi, h, c, sigma, out=F[free])
    reaction = np.subtract(a[free], phi[free])
    np.multiply(reaction, phi[free], out=reaction)
    np.add(Au, reaction, out=Au)
    if pin_value is not None:
        F[-1] = phi[-1] - pin_value
    return F


def jacobian(linear: np.ndarray, phi: np.ndarray, sigma: Optional[float],
             R: Optional[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Newton's Jacobian of discrete_residual at phi, written into out.

    linear is banded(n, h, c, sigma, 1.0, a), the Jacobian's part that does
    not depend on phi; the reaction adds -2 phi to the free rows' diagonal.
    With R None that is J, the Jacobian in phi.  Given R = F / phi it is
    the Jacobian of G = F / phi in v = log phi, diag(1/phi) J diag(phi) -
    diag(R): each off-diagonal is scaled by a ratio of neighbouring phi.
    """
    np.copyto(out, linear)
    free = slice(1, len(phi) if sigma is not None else len(phi) - 1)
    out[1, free] -= 2.0 * phi[free]
    if R is not None:
        ratio = phi[1:] / phi[:-1]
        np.multiply(linear[0, 1:], ratio, out=out[0, 1:])
        np.divide(linear[2, :-1], ratio, out=out[2, :-1])
        out[1] -= R
    return out


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tridiagonal system in banded's (3, n) layout, by one LAPACK dgtsv.

    That is the routine scipy.linalg.solve_banded((1, 1), ab, b) calls,
    without the wrapper's argument handling; the bits are the wrapper's, and
    so are the errors: ValueError on a NaN or inf entry, LinAlgError on a
    zero pivot.  ab is left as it is; b is overwritten, and x shares its
    memory, when b is a float vector or (n, k) array in Fortran order.
    """
    np.asarray_chkfinite(ab)
    np.asarray_chkfinite(b)
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def factor(ab: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor banded's implicit matrix M once; return solve(b) -> M^{-1} b.

    ab is in solve_banded's (3, n) layout with row 0 a Dirichlet identity
    row.  b is a vector of length n or an (n, k) array of k columns solved
    together; solve overwrites b and returns x, which shares b's memory when
    b is contiguous in Fortran order.  The symmetric path is taken when the
    module docstring's three conditions hold, the pivoted LU otherwise.
    """
    dl, d, du = ab[2, :-1], ab[1], ab[0, 1:]
    symmetric = _symmetric(dl, d, du)
    if symmetric is not None:
        return symmetric
    *lu, info = dgttrf(dl, d, du)
    if info:
        raise np.linalg.LinAlgError("singular implicit matrix")

    def solve(b: np.ndarray) -> np.ndarray:
        return dgttrs(*lu, b, overwrite_b=1)[0]
    return solve


def _symmetric(dl, d, du):
    """factor's LDL^T solve of s M s^{-1}, or None where it does not apply.

    Row 0 is folded into row 1's right-hand side (b_1 - M[1,0] b_0), which
    decouples it, so s_0 = 1 and the pairs checked start below row 0.
    """
    p, q = du[1:], dl[1:]  # (M[i,i+1], M[i+1,i]) for i >= 1
    if not (d[0] == 1.0 and du[0] == 0.0 and np.all(p < 0.0)
            and np.all(q < 0.0)):
        return None
    s = np.ones(len(d))
    with np.errstate(all="ignore"):  # an overflow fails the span test
        np.cumprod(np.sqrt(p / q), out=s[2:])
    lo, hi = s[1:].min(), s[1:].max()
    if not hi <= _SCALE_SPAN * lo:
        return None
    # centre on 1 by a power of two, which rounds nothing
    s[1:] = np.ldexp(s[1:], -((np.frexp(lo)[1] + np.frexp(hi)[1]) // 2))
    d_fact, e_fact, info = dpttrf(d, np.concatenate(([0.0], -np.sqrt(p * q))))
    if info:
        return None
    fold, s_col = dl[0], s[:, None]

    def solve(b: np.ndarray) -> np.ndarray:
        scale = s if b.ndim == 1 else s_col
        b[1] -= fold * b[0]
        b *= scale
        x = dpttrs(d_fact, e_fact, b, overwrite_b=1)[0]
        x /= scale
        return x
    return solve
