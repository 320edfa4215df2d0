"""The discrete moving-frame operator A u = u'' + c u' on a uniform grid.

Centred second-order differences on the interior.  Row 0 is a Dirichlet row.
The last row is the Robin condition u'(L) = sigma u(L) when sigma is a float
(0.0 is homogeneous Neumann), eliminated through the ghost node
u_{N+1} = u_{N-1} + 2 h sigma u_N, which keeps that row a centred
second-order discretization and the matrix tridiagonal; with sigma None it is
an amplitude pin.  The rows that carry the operator are the free rows.

The Newton solver (in phi and, rescaled, in log phi), the IMEX step and
the residual monitor all use this one stencil, so a solved wave is an
exact fixed point of the step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


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
