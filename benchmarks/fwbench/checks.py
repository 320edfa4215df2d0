"""Verdicts on op answers, against the tolerances the program and its
acceptance gate state.

Every function here takes plain answers (arrays, numbers, exit codes) and
returns a list of reasons the answer is wrong; an empty list means correct.
None of them call the program, so a forged answer can be checked directly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# ACCEPTANCE 6 / 11 / 14 bounds (tests/test_acceptance.py)
ORDERING_TOL = 1e-8
DRIFT_PER_TIME_TOL = 1e-6
COMPARISON_TOL = 1e-8
CONVERGENCE_RATIO = (3.5, 4.5)
# admissibility, as solve_wave states it: no jump of more than 1e-6 alpha
# between the first two cells
LEFT_WALL_TOL = 1e-6
# rounding allowance when re-evaluating a residual the solver reported
RESIDUAL_ROUNDING = 1e-12
DOCUMENTED_EXITS = (0, 2, 3, 4, 5)


def collocation_residual(phi, a, h, c, left_value, sigma_R, pin_value):
    """Max-norm of the collocation system the solver claims to have solved,
    evaluated independently of the solver's own residual routine."""
    phi = np.asarray(phi, dtype=float)
    inner = ((phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / h**2
             + c * (phi[2:] - phi[:-2]) / (2.0 * h)
             + phi[1:-1] * (a[1:-1] - phi[1:-1]))
    left = phi[0] - left_value
    if pin_value is not None:
        right = phi[-1] - pin_value
    else:
        right = ((2.0 * phi[-2] - 2.0 * phi[-1] + 2.0 * h * sigma_R * phi[-1])
                 / h**2 + c * sigma_R * phi[-1] + phi[-1] * (a[-1] - phi[-1]))
    return float(max(np.max(np.abs(inner)), abs(left), abs(right)))


def wave_problems(phi, a, h, c, alpha, residual_norm, newton_tol,
                  sigma_R=None, pin_value=None) -> list:
    """Admissibility of a returned wave: finite, positive, no left-wall
    layer, and both the reported and the re-evaluated residual within the
    Newton tolerance."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        return ["non-finite values in phi"]
    out = []
    if float(np.min(phi)) <= 0.0:
        out.append(f"min phi = {float(np.min(phi)):.3e} <= 0")
    jump = abs(float(phi[1] - phi[0]))
    if jump > LEFT_WALL_TOL * alpha:
        out.append(f"left-wall layer |phi1 - phi0| = {jump:.3e}")
    if not residual_norm <= newton_tol:
        out.append(f"reported residual {residual_norm:.3e} > {newton_tol:.1e}")
    recomputed = collocation_residual(phi, a, h, c, float(a[0]), sigma_R,
                                      pin_value)
    if not recomputed <= newton_tol + RESIDUAL_ROUNDING:
        out.append(f"re-evaluated residual {recomputed:.3e} > {newton_tol:.1e}")
    return out


def no_wave_problems(predicted: bool) -> list:
    """A returned wave is wrong exactly when the classifier predicts none."""
    return [] if predicted else ["a wave was returned where none is predicted"]


def ordering_violation(lo, hi) -> float:
    """max(lo - hi), clipped at 0: how far `lo <= hi` fails."""
    return max(0.0, float(np.max(np.asarray(lo) - np.asarray(hi))))


def ordering_problems(lo, hi, reported_ordered: bool,
                      reported_direction: str) -> list:
    v = ordering_violation(lo, hi)
    out = []
    if v > ORDERING_TOL:
        out.append(f"ordering violated by {v:.3e} > {ORDERING_TOL:.0e}")
    if not (reported_ordered and reported_direction == "first<=second"):
        out.append(f"ordering_check reports ({reported_ordered}, "
                   f"{reported_direction})")
    return out


def bound_problems(label: str, value: float, bound: float) -> list:
    if not (math.isfinite(value) and value <= bound):
        return [f"{label} = {value:.3e} exceeds {bound:.0e}"]
    return []


def ratio_problems(ratio: float) -> list:
    lo, hi = CONVERGENCE_RATIO
    if not lo <= ratio <= hi:
        return [f"grid-convergence ratio {ratio:.4f} outside [{lo}, {hi}]"]
    return []


def field_bound_problems(u, lower: float, upper: float) -> list:
    """A transient IMEX run keeps u in the invariant box [lower, upper]."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        return ["non-finite field"]
    lo, hi = float(np.min(u)), float(np.max(u))
    if lo < lower - 1e-12 or hi > upper + 1e-12:
        return [f"field left [{lower:g}, {upper:g}]: range [{lo:.3e}, {hi:.3e}]"]
    return []


def exit_problems(code, expected: tuple) -> list:
    """CLI exit codes: documented, and the one the classifier implies."""
    if code not in DOCUMENTED_EXITS:
        return [f"undocumented exit {code!r}"]
    if code not in expected:
        return [f"exit {code}, expected {' or '.join(map(str, expected))}"]
    return []


def consistency_problems(drift: float, bound: Optional[float],
                         psi, exit_flag: str) -> list:
    psi = np.asarray(psi, dtype=float)
    out = []
    if not (np.all(np.isfinite(psi)) and np.all(psi > 0)):
        out.append("local solution is not finite and positive")
    if exit_flag != "completed":
        out.append(f"backward integration stopped early ({exit_flag})")
    if not math.isfinite(drift):
        out.append("non-finite consistency drift")
    elif bound is not None and drift > bound:
        out.append(f"consistency drift {drift:.3e} > {bound:.0e}")
    return out
