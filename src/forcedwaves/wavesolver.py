"""Global forced waves on a truncated domain [-L, L].

Second-order centered collocation of phi'' + c phi' + phi (a(z) - phi) = 0
with a Dirichlet left boundary phi(-L) = a(-L) (the local equilibrium; the
wave approaches alpha only asymptotically) and a right boundary that encodes
the targeted decay law: either Robin phi'(L) = sigma_R phi(L) with sigma_R
the target ansatz's log-derivative, or an amplitude pin phi(L) = value for
selecting individual members of the slow family (the Robin coefficient is
shared across that family, so it cannot separate them).

The nonlinear system is solved by damped Newton with a tridiagonal Jacobian.
A target the classifier predicts is solved for v = log phi, with each row
divided by phi, from the target's own decay shape: the stopping test is then
relative, so a tail of 1e-50 is resolved instead of passing the absolute
Robin row for any decay rate, and phi stays positive.  Any other target is
solved for phi from the tanh front or the caller's guess, with no positivity
projection: a converged iterate with phi <= 0 somewhere is the meaningful
"no positive wave" outcome, distinct from Newton divergence.  Either way a
failure's residual_history holds the phi-residual max |F| at each iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.linalg import solve_banded

from . import frame, oracles
from .environment import (
    AnsatzUnavailableError,
    DecayAnsatz,
    EnvironmentProfile,
    ExpTail,
    ProfileItself,
    PureExp,
    Sigma1Int,
    SlowMaximal,
    TildeA,
    classify,
)
from .tables import write_csv

__all__ = [
    "SolverConfig",
    "WaveSolution",
    "NewtonDivergenceError",
    "NoPositiveWaveError",
    "resolve_target",
    "standard_starts",
    "solve_wave",
    "continuation_in_c",
    "ContinuationResult",
    "wave_family",
    "ordering_check",
    "OrderingResult",
    "continuum_residual",
]

TARGET_TAGS = ("pure_exp", "sigma1", "tilde_a", "slow_maximal", "profile_itself")
MINIMAL_TAGS = ("pure_exp", "sigma1")


@dataclass(frozen=True)
class SolverConfig:
    L: float
    N: int
    newton_tol: float = 1e-10
    newton_max_iter: int = 120
    max_halvings: int = 30

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("L must be positive")
        if self.N < 1001:
            raise ValueError("N must be at least 1001")
        if self.newton_tol < 1e-12:
            raise ValueError("newton_tol below 1e-12 is not resolvable")

    @staticmethod
    def default_for(profile: EnvironmentProfile) -> "SolverConfig":
        # exponential tails settle within tens of units; algebraic-family
        # tails need long domains before the asymptotic regime is visible
        if isinstance(profile.tail, ExpTail):
            return SolverConfig(L=60.0, N=4001)
        return SolverConfig(L=200.0, N=8001)

    def grid(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.N)


class NewtonDivergenceError(RuntimeError):
    kind = "divergence"

    def __init__(self, message, last_iterate=None, residual_history=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_history = list(residual_history or [])


class NoPositiveWaveError(RuntimeError):
    """Newton converged, but the converged state is not a positive wave."""

    kind = "no_positive_wave"

    def __init__(self, message, phi=None, residual_norm=None, residual_history=None):
        super().__init__(message)
        self.phi = phi
        self.residual_norm = residual_norm
        self.residual_history = list(residual_history or [])


@dataclass
class WaveSolution:
    c: float
    grid: np.ndarray
    phi: np.ndarray
    residual_norm: float
    decay_tag: str
    bc_right: Optional[float]  # Robin coefficient; None when amplitude-pinned
    target: Optional[DecayAnsatz] = field(default=None, repr=False)
    pinned_amplitude: Optional[float] = None
    iterations: int = 0
    config: Optional[SolverConfig] = field(default=None, repr=False)

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def to_csv(self, path) -> None:
        write_csv(path, ["z", "phi"], [self.grid, self.phi])

    def sidecar_dict(self) -> dict:
        return {
            "c": self.c,
            "L": float(self.grid[-1]),
            "N": int(len(self.grid)),
            "residual_norm": self.residual_norm,
            "decay_tag": self.decay_tag,
            "bc_right": self.bc_right,
            "pinned_amplitude": self.pinned_amplitude,
            "iterations": self.iterations,
        }


# ---------------------------------------------------------------------------
# discrete operator
# ---------------------------------------------------------------------------

def discrete_residual(phi: np.ndarray, a: np.ndarray, h: float, c: float,
                      left_value: float, sigma_R: Optional[float],
                      pin_value: Optional[float]) -> np.ndarray:
    """Residual of the collocation system; boundary rows at both ends."""
    sigma = None if pin_value is not None else sigma_R
    F = np.empty_like(phi)
    F[0] = phi[0] - left_value
    Au = frame.apply(phi, h, c, sigma)
    free = slice(1, 1 + len(Au))
    F[free] = Au + phi[free] * (a[free] - phi[free])
    if pin_value is not None:
        F[-1] = phi[-1] - pin_value
    return F


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _newton(phi0, a, h, c, left_value, sigma_R, pin_value, cfg: SolverConfig,
            log: bool = False):
    """Damped Newton with max-norm step halving on the collocation system.

    With log False the unknown is phi and the residual F = discrete_residual.
    With log True the unknown is v = log phi and the residual is G = F / phi,
    the same system with each row divided by phi_i, whose Jacobian is
    diag(1/phi) J diag(phi) - diag(G).  Its stopping test is relative, so a
    tail far below newton_tol is resolved, and phi stays positive.  The
    iterate is kept as phi and stepped by the increment phi (e^delta - 1):
    as in phi, an update below half an ulp leaves an entry unchanged, so
    members of a family stay ordered bit for bit on the plateau.  A log
    solve needs max |G| and max |F| within newton_tol, then keeps one more
    full step if it stays within.  Returns phi, max |F|, the iteration
    count and max |F| (= max |phi G|) at each accepted iterate; every
    failure raises NewtonDivergenceError.
    """
    free = slice(1, len(phi0) if sigma_R is not None else len(phi0) - 1)
    linear = frame.banded(len(phi0), h, c, sigma_R, 1.0, a)

    def evaluate(phi):
        F = discrete_residual(phi, a, h, c, left_value, sigma_R, pin_value)
        R = F / phi if log else F
        nrm = float(np.max(np.abs(R)))
        return R, nrm, float(np.max(np.abs(F))) if log else nrm

    def newton_step(phi, R):
        ab = linear.copy()
        ab[1, free] -= 2.0 * phi[free]
        if log:
            ratio = phi[1:] / phi[:-1]
            ab[0, 1:] *= ratio
            ab[2, :-1] /= ratio
            ab[1] -= R
        try:
            return solve_banded((1, 1), ab, -R)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NewtonDivergenceError(f"no Newton step: {exc}",
                                        last_iterate=phi, residual_history=history)

    def moved(phi, delta):
        return phi + phi * np.expm1(delta) if log else phi + delta

    phi = phi0.astype(float).copy()
    R, nrm, fnrm = evaluate(phi)
    history = [fnrm]
    iters = 0
    while not (nrm <= cfg.newton_tol and fnrm <= cfg.newton_tol):
        if iters == cfg.newton_max_iter:
            raise NewtonDivergenceError(
                f"not converged after {cfg.newton_max_iter} iterations "
                f"(residual {nrm:.3e})", last_iterate=phi, residual_history=history)
        if not math.isfinite(nrm):
            raise NewtonDivergenceError("residual became non-finite",
                                        last_iterate=phi, residual_history=history)
        delta = newton_step(phi, R)
        step = 1.0
        for _ in range(cfg.max_halvings + 1):
            trial = moved(phi, step * delta)
            tR, nt, ft = evaluate(trial)
            if math.isfinite(nt) and nt < nrm:
                phi, R, nrm, fnrm = trial, tR, nt, ft
                break
            step *= 0.5
        else:
            raise NewtonDivergenceError(
                f"no residual decrease after {cfg.max_halvings} halvings "
                f"(residual {nrm:.3e})", last_iterate=phi, residual_history=history)
        iters += 1
        history.append(fnrm)
    if log:
        trial = moved(phi, newton_step(phi, R))
        _, nt, ft = evaluate(trial)
        if nt <= cfg.newton_tol and ft <= cfg.newton_tol:
            phi, fnrm, iters = trial, ft, iters + 1
            history.append(fnrm)
    return phi, fnrm, iters, history


# ---------------------------------------------------------------------------
# targets and starts
# ---------------------------------------------------------------------------

def resolve_target(profile: EnvironmentProfile, c: float,
                   target: Union[DecayAnsatz, str]) -> tuple[str, Optional[DecayAnsatz]]:
    """(tag, ansatz-or-None) for a target.

    Accepts either a constructed ansatz or one of the tags pure_exp / sigma1 /
    tilde_a / slow_maximal / profile_itself.  slow_maximal in a regime where
    int tilde_a diverges has no ansatz; its Robin coefficient degenerates to
    the tilde_a value -a(L)/c, which is returned via a None ansatz.
    """
    if isinstance(target, DecayAnsatz):
        return target.tag, target
    tag = str(target)
    if tag not in TARGET_TAGS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGET_TAGS}")
    try:
        if tag == "pure_exp":
            ansatz = PureExp(K=1.0, c=c, z0=profile.z_switch)
        elif tag == "sigma1":
            ansatz = Sigma1Int(profile, c)
        elif tag == "tilde_a":
            ansatz = TildeA(profile, c)
        elif tag == "slow_maximal":
            ansatz = SlowMaximal(profile, c)
        else:
            ansatz = ProfileItself(profile)
    except AnsatzUnavailableError:
        return tag, None
    return tag, ansatz


def _sigma_R_for(profile: EnvironmentProfile, c: float, tag: str,
                 ansatz: Optional[DecayAnsatz], L: float) -> float:
    if ansatz is not None:
        return float(ansatz.log_derivative(L))
    if tag in ("tilde_a", "slow_maximal"):
        # limiting coefficient of the slow family when the ansatz itself is
        # unavailable (int tilde_a = inf): log-derivative -> -a/c
        return -float(profile.a(L)) / c
    raise ValueError(f"no Robin coefficient for target {tag}")


def _target_predicted(profile: EnvironmentProfile, c: float, tag: str) -> bool:
    """Whether the classifier predicts a wave with this decay exists.

    It chooses solve_wave's variable: a predicted target is solved for
    log phi from its own decay shape, which resolves a tail far below
    newton_tol; any other target keeps Newton on phi from the tanh front or
    the caller's guess, where a failure is the meaningful outcome.
    """
    report = classify(profile, c)
    if tag in MINIMAL_TAGS:
        return report.minimal_decay is not None
    # the classifier sets maximal_decay exactly in cases 2 and 3
    return (report.maximal_decay is not None
            and tag in ("tilde_a", report.maximal_decay.tag))


def _tanh_start(profile: EnvironmentProfile, grid: np.ndarray) -> np.ndarray:
    """Smooth front from alpha down to 0 across the transition zone."""
    w = max(1.0, profile.transition_width / 2.0)
    return 0.5 * profile.alpha * (1.0 - np.tanh((grid - profile.transition_center) / w))


def standard_starts(profile: EnvironmentProfile, c: float,
                    grid: np.ndarray) -> dict[str, np.ndarray]:
    """The three canonical Newton starts: oracle sub-solution, tanh front,
    oracle super-solution.  solve_wave does not call this."""
    alpha = profile.alpha
    starts: dict[str, np.ndarray] = {}

    sub = np.zeros_like(grid)
    try:
        sub = np.maximum(sub, oracles.cos_bump_sub(alpha, c, profile).on_grid(grid))
    except oracles.ConstructionError:
        pass
    try:
        sub = np.maximum(sub, oracles.slow_sub(profile, c).on_grid(grid))
    except oracles.ConstructionError:
        pass
    starts["sub"] = sub

    starts["tanh"] = _tanh_start(profile, grid)

    eps = 0.5 * c
    starts["super"] = oracles.exp_super(alpha, c, eps, profile).on_grid(grid)
    return starts


def _shape_start(profile: EnvironmentProfile, c: float, tag: str,
                 ansatz: DecayAnsatz, grid: np.ndarray,
                 guess: Optional[np.ndarray]) -> np.ndarray:
    """Start of the log-variable Newton: plateau glued to the target's shape.

    The shape is the slow ansatz for slow targets and e^{-c (z - z_switch)}
    for minimal ones (sigma1 is complex where 4 a > c^2).  It floors the
    guess, which is a slow target's tanh front by default: a tail below the
    slow shape sits in the minimal wave's basin, and a zero has no log.
    """
    minimal = tag in MINIMAL_TAGS
    if minimal:
        ansatz = PureExp(K=1.0, c=c, z0=profile.z_switch)
    tail = ansatz.value(np.maximum(grid, profile.z_switch))
    shape = np.minimum(profile.alpha, tail)
    if guess is None:
        guess = shape if minimal else _tanh_start(profile, grid)
    return np.maximum(guess, shape)


# ---------------------------------------------------------------------------
# solver entry points
# ---------------------------------------------------------------------------

def solve_wave(profile: EnvironmentProfile, c: float,
               target: Union[DecayAnsatz, str], cfg: Optional[SolverConfig] = None,
               initial_guess: Optional[np.ndarray] = None,
               pin_amplitude: Optional[float] = None) -> WaveSolution:
    """Solve the truncated boundary value problem for one targeted wave.

    A target the classifier predicts is solved by Newton in log phi from
    its own decay shape, floored by initial_guess (_shape_start); any other
    by Newton in phi from initial_guess, or from the tanh front without
    one.  No oracle is constructed.  pin_amplitude, when given, replaces
    the Robin row by the Dirichlet condition phi(L) = pin_amplitude (used by
    wave_family to separate slow family members, which share the same
    Robin coefficient).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    cfg = SolverConfig.default_for(profile) if cfg is None else cfg
    grid = cfg.grid()
    h = float(grid[1] - grid[0])
    a = np.asarray(profile.a(grid), dtype=float)
    left_value = float(a[0])

    tag, ansatz = resolve_target(profile, c, target)
    sigma_R: Optional[float] = None
    if pin_amplitude is None:
        sigma_R = _sigma_R_for(profile, c, tag, ansatz, float(grid[-1]))

    guess = None if initial_guess is None else np.asarray(initial_guess, dtype=float)
    if guess is not None and guess.shape != grid.shape:
        raise ValueError("initial guess does not match the grid")

    log = _target_predicted(profile, c, tag)
    if log:
        start = _shape_start(profile, c, tag, ansatz, grid, guess)
    else:
        start = _tanh_start(profile, grid) if guess is None else guess
    phi, nrm, iters, history = _newton(start, a, h, c, left_value, sigma_R,
                                       pin_amplitude, cfg, log)
    if float(np.min(phi)) <= 0.0:
        raise NoPositiveWaveError(
            f"converged state has min phi = {float(np.min(phi)):.3e} <= 0: "
            "no positive wave with this target",
            phi=phi, residual_norm=nrm, residual_history=history)
    # a forced wave holds the plateau at the left wall; a state whose first
    # grid cell already leaves alpha is a truncation artifact (the boundary
    # layer "wave" that exists on any finite domain even where the infinite-
    # domain problem has no solution)
    if abs(phi[1] - phi[0]) > 1e-6 * profile.alpha:
        raise NoPositiveWaveError(
            f"converged state has a boundary layer at the left wall "
            f"(|phi' (-L)| h = {abs(phi[1] - phi[0]):.3e}): it does not "
            "connect to the plateau equilibrium, so it is not a forced wave",
            phi=phi, residual_norm=nrm, residual_history=history)
    return WaveSolution(c=c, grid=grid, phi=phi, residual_norm=nrm,
                        decay_tag=tag, bc_right=sigma_R, target=ansatz,
                        pinned_amplitude=pin_amplitude, iterations=iters,
                        config=cfg)


@dataclass(frozen=True)
class FailureRecord:
    c: float
    kind: str  # the kind of the error that stopped the solve
    message: str


@dataclass
class ContinuationResult:
    c_values: np.ndarray
    solutions: list  # converged WaveSolutions in c order
    failures: list   # FailureRecords in c order

    def solved_c(self) -> list:
        return [w.c for w in self.solutions]

    def failed_c(self) -> list:
        return [f.c for f in self.failures]


def continuation_in_c(profile: EnvironmentProfile, c_start: float, c_end: float,
                      steps: int, target: Union[DecayAnsatz, str],
                      cfg: Optional[SolverConfig] = None) -> ContinuationResult:
    """March c over `steps` uniform values, warm-starting from the last success.

    All points are attempted; failures are recorded and do not stop the march.
    Points before the first success use solve_wave's default start; every
    later point passes the last converged wave as its initial guess.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cs = np.linspace(c_start, c_end, steps)
    cfg = SolverConfig.default_for(profile) if cfg is None else cfg
    warm: Optional[np.ndarray] = None
    solutions, failures = [], []
    for cv in cs:
        try:
            w = solve_wave(profile, float(cv), target, cfg, initial_guess=warm)
            solutions.append(w)
            warm = w.phi
        except (NoPositiveWaveError, NewtonDivergenceError) as exc:
            failures.append(FailureRecord(float(cv), exc.kind, str(exc)))
    return ContinuationResult(c_values=cs, solutions=solutions, failures=failures)


def wave_family(profile: EnvironmentProfile, c: float, K_values: Sequence[float],
                cfg: Optional[SolverConfig] = None) -> list:
    """Slow-family members selected by amplitude pinning phi(L) = K tilde_a(L).

    Only meaningful when the classifier predicts non-exponential multiplicity
    (case 2 or 3).  Returned in ascending-K order.
    """
    report = classify(profile, c)
    if report.case_123 not in ("2", "3"):
        raise ValueError(
            f"wave_family needs case 2 or 3 (got case {report.case_123}): "
            "the slow family does not exist here")
    cfg = SolverConfig.default_for(profile) if cfg is None else cfg
    L = cfg.L
    ansatz0 = TildeA(profile, c)
    out = []
    for K in sorted(float(k) for k in K_values):
        pin = K * float(ansatz0.value(L))
        w = solve_wave(profile, c, TildeA(profile, c, K=K), cfg, pin_amplitude=pin)
        out.append(w)
    return out


@dataclass(frozen=True)
class OrderingResult:
    ordered: bool
    max_violation: float
    direction: str  # "first<=second" | "second<=first" | "none"


def ordering_check(w1: WaveSolution, w2: WaveSolution) -> OrderingResult:
    """Whether w1 <= w2 or w2 <= w1 on the shared grid, up to 1e-8."""
    if w1.grid.shape != w2.grid.shape or not np.allclose(w1.grid, w2.grid, atol=0, rtol=0):
        raise ValueError("grid mismatch: ordering is defined on a shared grid")
    if w1.c != w2.c:
        raise ValueError("speed mismatch: ordering compares waves at the same c")
    v12 = float(np.max(w1.phi - w2.phi))  # violation of w1 <= w2
    v21 = float(np.max(w2.phi - w1.phi))
    if v12 <= 1e-8:
        return OrderingResult(True, max(v12, 0.0), "first<=second")
    if v21 <= 1e-8:
        return OrderingResult(True, max(v21, 0.0), "second<=first")
    return OrderingResult(False, min(v12, v21), "none")


def continuum_residual(wave: WaveSolution, profile: EnvironmentProfile) -> float:
    """Max |phi'' + c phi' + phi (a - phi)| of the quintic-spline interpolant,
    probed at 2000 points at least 5 away from the boundaries.  Scales like
    h^2 for the second-order scheme, which is what the grid-convergence
    check measures."""
    spl = make_interp_spline(wave.grid, wave.phi, k=5)
    zz = np.linspace(wave.grid[0] + 5.0, wave.grid[-1] - 5.0, 2000)
    phi = spl(zz)
    d1 = spl.derivative(1)(zz)
    d2 = spl.derivative(2)(zz)
    a = np.asarray(profile.a(zz), dtype=float)
    return float(np.max(np.abs(d2 + wave.c * d1 + phi * (a - phi))))
