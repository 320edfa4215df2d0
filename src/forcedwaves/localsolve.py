"""Local positive tail solutions by backward integration.

Solves psi'' + c psi' + psi (a(z) - psi) = 0 from asymptotic seed data at
z_hi down to z_lo in the variables (log psi, theta = psi'/psi), which keeps
the trajectory meaningful across hundreds of orders of magnitude of psi.
Backward is the stable direction for the fast (exponential) component; the
slow families stay faithful over a window limited by the e^{c dz} growth of
seeding noise, so callers should keep z_hi - z_lo around 15/c for slow seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .environment import DecayAnsatz, EnvironmentProfile

__all__ = [
    "LocalSolution",
    "NonExpReport",
    "seed_state",
    "integrate_backward",
    "residual_norm",
    "consistency_drift",
    "check_nonexponential_necessaries",
]

_LOG_CAP = 500.0  # exp() guard inside the RHS; far above any physical amplitude
_TAIL_FRACTION = 0.2  # z-extent share read by consistency_drift and the nonexp checks


@dataclass
class LocalSolution:
    """Backward-integrated tail trajectory (grid ascending)."""

    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    family: str
    K: float
    c: float
    profile: EnvironmentProfile
    ansatz: DecayAnsatz
    exit_flag: str  # "completed" | "amplitude" | "theta"

    @property
    def log_psi(self) -> np.ndarray:
        return np.log(self.psi)

    @property
    def theta(self) -> np.ndarray:
        return self.dpsi / self.psi

    def tail_window(self) -> np.ndarray:
        """Boolean mask for the last _TAIL_FRACTION of the grid by z-extent.

        The right end is kept: it is the exact seed (the ansatz's value and
        log-derivative), the point consistency_drift measures departure
        from.  analysis.tail_window drops a boundary-value wave's last cells
        instead, where the Robin row imposes the target's rate.
        """
        z0, z1 = self.grid[0], self.grid[-1]
        return self.grid >= z1 - _TAIL_FRACTION * (z1 - z0)


def seed_state(ansatz: DecayAnsatz, z_hi: float) -> tuple[float, float]:
    """(psi, psi') at z_hi from the ansatz value and log-derivative."""
    v = float(ansatz.value(z_hi))
    return v, v * float(ansatz.log_derivative(z_hi))


def integrate_backward(profile: EnvironmentProfile, c: float,
                       ansatz: DecayAnsatz, z_hi: float, z_lo: float,
                       n_points: int = 4001, rtol: float = 1e-11,
                       atol: float = 1e-12) -> LocalSolution:
    """Integrate the tail ODE from z_hi down to z_lo.

    DOP853 (8th-order Dormand-Prince) needs fewer right-hand-side calls than
    RK45.  Its rtol is 1e-11: at 1e-10 its error exceeds RK45's on some
    windows (exp2, pow2 at c = 1), at 1e-11 it is below it on every one checked.

    The trajectory is truncated (with an exit flag) where psi leaves
    (0, 2 alpha): beyond 2 alpha the local-solution picture is
    meaningless, and exponential seeds do grow backward to O(alpha).
    """
    if not z_lo < z_hi:
        raise ValueError("need z_lo < z_hi")
    log_cap = math.log(2.0 * profile.alpha)

    psi0, dpsi0 = seed_state(ansatz, z_hi)
    if not psi0 > 0:
        raise ValueError("ansatz seed is nonpositive at z_hi")
    y0 = [math.log(psi0), dpsi0 / psi0]

    def rhs(z, y):
        # Python floats: the same IEEE operations as on numpy scalars, at a
        # fraction of the per-call cost; profile.a takes its float branch
        # off the blend
        u1, th = float(y[0]), float(y[1])
        th = max(min(th, 1e8), -1e8)  # trial steps can wander past the event
        return [th, -th * th - c * th - profile.a(z) + math.exp(min(u1, _LOG_CAP))]

    def ev_amplitude(z, y):
        return y[0] - log_cap

    ev_amplitude.terminal = True

    def ev_theta(z, y):
        return abs(y[1]) - 1e4

    ev_theta.terminal = True

    t_eval = np.linspace(z_hi, z_lo, n_points)
    sol = solve_ivp(rhs, (z_hi, z_lo), y0, method="DOP853", t_eval=t_eval,
                    rtol=rtol, atol=atol, events=[ev_amplitude, ev_theta],
                    dense_output=False)
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"backward integration failed: {sol.message}")

    exit_flag = "completed"
    if sol.status == 1:
        exit_flag = "amplitude" if len(sol.t_events[0]) else "theta"

    z = sol.t[::-1].copy()
    u1 = sol.y[0][::-1]
    th = sol.y[1][::-1]
    psi = np.exp(u1)
    return LocalSolution(grid=z, psi=psi, dpsi=psi * th,
                         family=ansatz.tag, K=float(getattr(ansatz, "K", 1.0)),
                         c=c, profile=profile, ansatz=ansatz, exit_flag=exit_flag)


def residual_norm(sol: LocalSolution) -> float:
    """max over interior points of |psi'' + c psi' + psi (a - psi)| / max(psi, 1e-300),
    with psi'' reconstructed by fourth-order differences of the stored psi'."""
    z, psi, dpsi = sol.grid, sol.psi, sol.dpsi
    if len(z) < 7:
        raise ValueError("trajectory too short for a residual estimate")
    h = z[1] - z[0]
    # interior 5-point first derivative of dpsi (uniform grid from t_eval)
    d2 = (dpsi[:-4] - 8 * dpsi[1:-3] + 8 * dpsi[3:-1] - dpsi[4:]) / (12 * h)
    i = slice(2, -2)
    a = sol.profile.a(z[i])
    res = d2 + sol.c * dpsi[i] + psi[i] * (a - psi[i])
    return float(np.max(np.abs(res) / np.maximum(psi[i], 1e-300)))


def consistency_drift(sol: LocalSolution) -> float:
    """Peak-to-peak of log psi - log(ansatz) over the default tail window.

    Small drift certifies the trajectory stays on its seeding law; for seeds
    with no underlying local solution the drift grows and self-reports the
    inconsistency.
    """
    m = sol.tail_window()
    s = sol.log_psi[m] - sol.ansatz.log_value(sol.grid[m])
    return float(np.max(s) - np.min(s))


@dataclass(frozen=True)
class NonExpReport:
    """Necessary conditions for non-exponential decay, measured on the tail window."""

    theta_final: float
    theta_trend_ok: bool
    theta_ok: bool
    curvature_final: float
    curvature_trend_ok: bool
    curvature_ok: bool
    below_a_ok: bool
    boundary_case: bool
    max_psi_over_a: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.theta_ok and self.curvature_ok and self.below_a_ok


def _trend_toward_zero(x: np.ndarray, threshold: float) -> bool:
    """|x| trends toward 0 across the window: later-half peak no higher than
    the earlier half.  A window that is already flat at the scale of the
    threshold (peak-to-peak below 10% of it) counts as trending — backward
    seeding noise can exceed the tiny genuine variation there."""
    ax = np.abs(np.asarray(x, dtype=float))
    if len(ax) < 4:
        return True
    if float(np.max(ax) - np.min(ax)) <= 0.1 * threshold:
        return True
    half = len(ax) // 2
    early, late = float(np.max(ax[:half])), float(np.max(ax[half:]))
    return late <= early * (1.0 + 1e-6) + 1e-12


def check_nonexponential_necessaries(sol: LocalSolution) -> NonExpReport:
    """psi'/psi -> 0, psi''/psi' -> 0, and psi < a, on the default tail window.

    psi'' comes from the ODE itself (differencing psi' would amplify noise).
    The psi < a comparison carries a 1% tolerance band: families with
    psi ~ a sit exactly on the boundary and are reported as such.
    """
    m = sol.tail_window()
    z, psi, dpsi = sol.grid[m], sol.psi[m], sol.dpsi[m]
    a = np.asarray(sol.profile.a(z), dtype=float)
    thr = 1e-2 * sol.c

    theta = dpsi / psi
    d2psi = -sol.c * dpsi - psi * (a - psi)
    curv = d2psi / np.where(np.abs(dpsi) > 0, dpsi, np.nan)

    theta_final = float(abs(theta[-1]))
    curvature_final = float(abs(curv[-1]))
    theta_trend = _trend_toward_zero(theta, thr)
    curv_trend = _trend_toward_zero(curv[np.isfinite(curv)], thr)
    ratio = psi / a
    max_ratio = float(np.max(ratio))
    below = max_ratio <= 1.0 + 1e-2
    boundary = below and max_ratio > 1.0

    return NonExpReport(
        theta_final=theta_final, theta_trend_ok=theta_trend,
        theta_ok=theta_trend and theta_final < thr,
        curvature_final=curvature_final, curvature_trend_ok=curv_trend,
        curvature_ok=curv_trend and curvature_final < thr,
        below_a_ok=below, boundary_case=boundary,
        max_psi_over_a=max_ratio, threshold=thr)
