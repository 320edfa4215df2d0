"""Moving-frame time integration u_t = u_zz + c u_z + u (a(z) - u).

Cross-validates solved waves as steady states and checks the order-
preservation (comparison) structure of the scalar flow.  IMEX scheme: the
linear transport part u_zz + c u_z is implicit (tridiagonal solve), the
reaction u (a - u) explicit.  The implicit matrix is an M-matrix when the
grid resolves the drift, h|c| < 2, and the explicit part is monotone under
the dt restriction, so the step preserves nonnegativity and ordering by
construction.

A converged wave from the solver is an exact fixed point of the step: the
IMEX update (I - dt A) u' = u + dt f(u) at u = phi reduces to A phi + f(phi)
= 0, which is the solved system.  This holds because step, the residual
monitor and Newton take A, boundary rows included, from forcedwaves.frame:
the step's matrix from frame.banded, the monitor's and Newton's residual
from frame.discrete_residual.  Measured drift therefore reflects only the
Newton tolerance, not the time discretization.

a(grid) is evaluated once per trajectory and I - dt A factored once per dt
by frame.factor, and a last step within 1e-12 of dt is taken at dt, so a
horizon of whole steps factors once; each step is one in-place solve after
a bound-first dt check (see _stepper).  The step gives frame.factor its
bounds on the right-hand side, and frame.factor alone chooses the solve:
the symmetric LDL^T under the M-matrix condition h|c| < 2, the pivoted LU
otherwise (see frame for the scale and the other conditions).
comparison_test advances its pair as the two columns of one solve, and
evolve builds a state only for the steps it records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import frame
from .environment import EnvironmentProfile

__all__ = [
    "SimulationState",
    "StepRejectedError",
    "state_from_wave",
    "make_state",
    "default_dt",
    "step",
    "evolve",
    "EvolveResult",
    "comparison_test",
    "distance_monitor",
    "residual_monitor",
    "front_position_monitor",
]


class StepRejectedError(ValueError):
    kind = "step_rejected"

    def __init__(self, message, suggested_dt):
        super().__init__(message)
        self.suggested_dt = suggested_dt


@dataclass
class SimulationState:
    t: float
    grid: np.ndarray
    u: np.ndarray
    c: float
    profile: EnvironmentProfile
    left_value: float             # Dirichlet value at -L
    robin_sigma: Optional[float] = None  # None -> homogeneous Neumann at +L

    def __post_init__(self):
        if self.grid.shape != self.u.shape:
            raise ValueError("grid and field shapes differ")
        if self.t < 0:
            raise ValueError("t must be nonnegative")

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def right_sigma(self) -> float:
        """The Robin coefficient at +L; None is the Neumann wall 0.0."""
        return 0.0 if self.robin_sigma is None else self.robin_sigma

    def copy(self) -> "SimulationState":
        return replace(self, u=self.u.copy())


def make_state(profile: EnvironmentProfile, c: float, grid: np.ndarray,
               u0: np.ndarray, robin_sigma: Optional[float] = None,
               left_value: Optional[float] = None) -> SimulationState:
    """A state at t = 0; left_value defaults to a at the left end."""
    if left_value is None:
        left_value = float(profile.a(float(grid[0])))
    return SimulationState(t=0.0, grid=np.asarray(grid, dtype=float),
                           u=np.asarray(u0, dtype=float).copy(), c=c,
                           profile=profile, left_value=left_value,
                           robin_sigma=robin_sigma)


def state_from_wave(wave, profile: EnvironmentProfile) -> SimulationState:
    """Seed a simulation with a solved wave, matching its right BC.

    Amplitude-pinned solves carry no Robin coefficient; a homogeneous
    Neumann wall would then grow a boundary layer (slow tails have
    phi'(L) != 0), so the radiation condition falls back to the pinned
    ansatz's own log-derivative at the edge.
    """
    sigma = wave.bc_right
    if sigma is None and wave.target is not None:
        sigma = float(wave.target.log_derivative(float(wave.grid[-1])))
    return make_state(profile, wave.c, wave.grid, wave.phi,
                      robin_sigma=sigma)


def default_dt(state: SimulationState) -> float:
    # h^2 safety for the split accuracy, 0.1/alpha for the reaction scale
    return min(0.5 * state.h ** 2, 0.1 / state.profile.alpha)


def _stepper(state: SimulationState, dt: float, a: np.ndarray, left):
    """advance(u): the IMEX step at one dt for u (a field, or k fields as
    rows) on state's trajectory, a = a(grid), left its Dirichlet value(s);
    factors I - dt A once.  dt (max|a| + 2 max|u|) <= 1/2 and a finite left
    prove dt max|a - 2u| < 1 and a finite right-hand side, rounding included;
    only other steps (NaN or inf in u too) run the exact and finiteness
    checks, so each step decides and reports as before.  The right-hand side
    is one fresh array built in place in the order of u + dt u (a - u).

    Both admissions give dt |a - 2u| < 1, so with dt u = (dt a - delta) / 2,
    |delta| < 1, each entry of the right-hand side below row 0 is at most
    (1 + dt max|a|)(3 + dt max|a|) / (4 dt), about 1/dt, and row 0 is at
    most max|left|.  Those are the bounds frame.factor is given; it decides
    from them, and from M, which solve the step takes."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ab = frame.banded(len(state.u), state.h, state.c, state.right_sigma,
                      -dt, 1.0)
    a_max, left_max = np.max(np.abs(a)), np.max(np.abs(left))
    rows = (1.0 + dt * a_max) * (3.0 + dt * a_max) / (4.0 * dt)
    solve = frame.factor(ab, rows, left_max)
    left_ok = math.isfinite(left_max)

    def advance(u: np.ndarray) -> np.ndarray:
        proven = left_ok and dt * (a_max + 2.0 * max(u.max(), -u.min())) <= 0.5
        if not proven:
            for m in np.atleast_1d(np.max(np.abs(a - 2.0 * u), axis=-1)):
                if dt * m >= 1.0:
                    raise StepRejectedError(
                        f"dt = {dt:.3e} too large: dt * max|a - 2u| = {dt * m:.3f} >= 1",
                        suggested_dt=0.9 / float(m))
        rhs = dt * u
        rhs *= a - u
        rhs += u
        rhs[..., 0] = left
        if not proven:
            np.asarray_chkfinite(rhs)  # a NaN or inf raises ValueError
        return solve(rhs.T).T  # fields as columns
    return advance


def _march(state: SimulationState, u: np.ndarray, left, T: float, dt: float):
    """Yield (t, u) after each step to state.t + T; one factor per distinct dt.

    A remainder within the loop's 1e-12 slack of dt is stepped at dt, so the
    rounding of t += dt costs no second factor; the last step ends at
    state.t + T."""
    t, t_end, d_lu = state.t, state.t + T, None
    a = state.profile.a(state.grid)
    while t < t_end - 1e-12:
        rest = t_end - t
        d = dt if rest > dt - 1e-12 else rest
        if d != d_lu:
            advance, d_lu = _stepper(state, d, a, left), d
        u = advance(u)
        t = t + d if rest > dt + 1e-12 else t_end
        yield t, u


def step(state: SimulationState, dt: float) -> SimulationState:
    """One IMEX step; rejects dt that breaks the explicit-reaction bound."""
    a = state.profile.a(state.grid)
    u = _stepper(state, dt, a, state.left_value)(state.u)
    return replace(state, t=state.t + dt, u=u)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def distance_monitor(reference: np.ndarray) -> Callable[[SimulationState], float]:
    ref = np.asarray(reference, dtype=float)

    def mon(state: SimulationState) -> float:
        return float(np.max(np.abs(state.u - ref)))
    return mon


def residual_monitor() -> Callable[[SimulationState], float]:
    """Interior max-norm of u'' + c u' + u (a - u) (steady-state residual):
    the interior rows of frame.discrete_residual, whose boundary rows are
    not read."""
    last = [None, None, None]  # grid, profile and a(grid) of the last call

    def mon(state: SimulationState) -> float:
        if last[0] is not state.grid or last[1] is not state.profile:
            last[:] = (state.grid, state.profile,
                       np.asarray(state.profile.a(state.grid), dtype=float))
        F = frame.discrete_residual(state.u, last[2], state.h, state.c,
                                    state.left_value, 0.0, None)
        return float(np.max(np.abs(F[1:-1])))
    return mon


def front_position_monitor(alpha: float) -> Callable[[SimulationState], float]:
    """Rightmost z with u > alpha/2; -inf when the field is everywhere below."""
    half = 0.5 * alpha

    def mon(state: SimulationState) -> float:
        idx = np.nonzero(state.u > half)[0]
        return float(state.grid[idx[-1]]) if len(idx) else -math.inf
    return mon


@dataclass
class EvolveResult:
    state: SimulationState
    times: list
    series: dict           # monitor name -> list of values
    initial_u: np.ndarray = field(repr=False, default=None)
    steps_taken: int = 0

    @property
    def drift_per_unit_time(self) -> float:
        span = self.state.t - self.times[0] if self.times else self.state.t
        if span <= 0:
            return 0.0
        return float(np.max(np.abs(self.state.u - self.initial_u))) / span


def evolve(state: SimulationState, T: float, dt: Optional[float] = None,
           monitors: Optional[dict] = None,
           monitor_every: Optional[int] = None) -> EvolveResult:
    if T <= 0:
        raise ValueError("T must be positive")
    if dt is None:
        dt = default_dt(state)
    monitors = monitors or {}
    if monitor_every is None:
        monitor_every = max(1, int(math.ceil(T / dt - 1e-12)) // 200)
    cur = state.copy()
    initial_u = state.u.copy()
    times, series = [], {k: [] for k in monitors}

    def record():
        times.append(cur.t)
        for k, f in monitors.items():
            series[k].append(f(cur))

    record()
    k, t, u = 0, cur.t, cur.u
    for k, (t, u) in enumerate(_march(cur, cur.u, cur.left_value, T, dt), 1):
        if k % monitor_every == 0:
            cur = replace(cur, t=t, u=u)
            record()
    if cur.t < t:
        cur = replace(cur, t=t, u=u)
        record()
    return EvolveResult(state=cur, times=times, series=series,
                        initial_u=initial_u, steps_taken=k)


def comparison_test(state_lo: SimulationState, state_hi: SimulationState,
                    T: float, dt: Optional[float] = None) -> float:
    """Co-evolve an ordered pair; max over time of max(lo - hi).

    A nonpositive return certifies the discrete comparison principle held
    along the whole trajectory.
    """
    if not np.array_equal(state_lo.grid, state_hi.grid):
        raise ValueError("comparison requires identical grids")
    if (state_lo.right_sigma, state_lo.c, state_lo.profile) != \
            (state_hi.right_sigma, state_hi.c, state_hi.profile):
        raise ValueError("comparison requires identical boundary conditions, "
                         "speed and profile")
    if state_lo.left_value > state_hi.left_value:
        raise ValueError("left boundary values are not ordered")
    v0 = float(np.max(state_lo.u - state_hi.u))
    if v0 > 0:
        raise ValueError(f"states are not ordered initially (max lo-hi = {v0:.3e})")
    if dt is None:
        dt = min(default_dt(state_lo), default_dt(state_hi))
    pair = np.array([state_lo.u, state_hi.u])  # rows lo, hi: one solve
    left = [state_lo.left_value, state_hi.left_value]
    return max([v0] + [float(np.max(p[0] - p[1]))
                       for _, p in _march(state_lo, pair, left, T, dt)])
