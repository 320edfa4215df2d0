"""Global forced waves on a truncated domain [-L, L].

Second-order centered collocation of phi'' + c phi' + phi (a(z) - phi) = 0
with a Dirichlet left boundary phi(-L) = a(-L) (the local equilibrium; the
wave approaches alpha only asymptotically) and a right boundary that encodes
the targeted decay law: either Robin phi'(L) = sigma_R phi(L) with sigma_R
the target ansatz's log-derivative, or an amplitude pin phi(L) = value for
selecting individual members of the slow family (the Robin coefficient is
shared across that family, so it cannot separate them).

The rows, the tridiagonal Jacobian and its solve are forcedwaves.frame's;
this module holds the damped Newton iteration, the targets and the starts.
Newton runs for phi or, for a target the classifier predicts, for
v = log phi with each row divided by phi: the stopping test is then
relative, so a tail of 1e-50 is resolved instead of passing the absolute
Robin row for any decay rate, and phi stays positive.

A solve reads top to bottom: _plan resolves the target, checks it and the
guess, asks the classifier and returns a Plan (tag, law, Robin coefficient,
variable, start); _newton iterates; certify accepts the converged state or
raises.  A converged phi <= 0 or wall layer is the meaningful "no positive
wave" outcome, distinct from Newton divergence.  Either way a failure's
residual_history holds the phi-residual max |F| at each iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence, Union

import numpy as np
from scipy.interpolate import make_interp_spline

from . import frame, oracles
from .environment import (
    MINIMAL_TAGS,
    TARGET_TAGS,  # not used here; kept importable as wavesolver.TARGET_TAGS
    AnsatzUnavailableError,
    DecayAnsatz,
    EnvironmentProfile,
    ExpTail,
    TildeA,
    classify,
    resolve_target,
)
# _newton calls these by this module's names, which tests and tracing patch
from .frame import discrete_residual, solve_banded

__all__ = [
    "SolverConfig",
    "WaveSolution",
    "NewtonDivergenceError",
    "NoPositiveWaveError",
    "certify",
    "standard_starts",
    "solve_wave",
    "continuation_in_c",
    "ContinuationResult",
    "wave_family",
    "ordering_check",
    "OrderingResult",
    "continuum_residual",
]


@dataclass(frozen=True)
class SolverConfig:
    L: float
    N: int
    newton_tol: ClassVar[float] = 1e-10
    newton_max_iter: ClassVar[int] = 120
    max_halvings: ClassVar[int] = 30

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError("L must be positive and finite")
        if self.N < 1001:
            raise ValueError("N must be at least 1001")

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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _newton(phi0, a, h, c, left_value, sigma_R, pin_value, cfg: SolverConfig,
            log: bool = False):
    """Damped Newton with max-norm step halving on the collocation system.

    With log False the unknown is phi and the residual F = discrete_residual.
    With log True the unknown is v = log phi and the residual is G = F / phi,
    the same system with each row divided by phi_i.  Each step solves with
    frame.jacobian in the matching form.  Its stopping test is relative, so a
    tail far below newton_tol is resolved, and phi stays positive.  The
    iterate is kept as phi and stepped by the increment phi (e^delta - 1):
    as in phi, an update below half an ulp leaves an entry unchanged, so
    members of a family stay ordered bit for bit on the plateau.  A log
    solve needs max |G| and max |F| within newton_tol, then keeps one more
    full step if it stays within.  Returns phi, max |F|, the iteration
    count and max |F| (= max |phi G|) at each accepted iterate; every
    failure raises NewtonDivergenceError.

    The Jacobian is written into one band array per solve, a full step
    skips 1.0 * delta, and the step and max |F| work in place on arrays
    that nothing reads afterwards.  Each in-place ufunc repeats one
    IEEE operation of the plain expressions on the same operands, so the
    iterates keep their bits.  Residuals and trial iterates stay fresh
    arrays, which the allocator recycles: a set kept for the whole solve
    raised the heap's peak until glibc trimmed it after each solve and
    faulted it back in on the next (about 190 page faults per log solve
    at N = 8001).
    """
    sigma = frame.right_sigma(sigma_R, pin_value)
    linear = frame.banded(len(phi0), h, c, sigma, 1.0, a)
    ab = np.empty_like(linear)

    def evaluate(phi):
        F = discrete_residual(phi, a, h, c, left_value, sigma_R, pin_value)
        R = F / phi if log else F
        nrm = float(np.abs(R).max())
        return R, nrm, float(np.abs(F, out=F).max()) if log else nrm

    def newton_step(phi, R):
        frame.jacobian(linear, phi, sigma, R if log else None, ab)
        try:
            return solve_banded(ab, -R)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NewtonDivergenceError(f"no Newton step: {exc}",
                                        last_iterate=phi, residual_history=history)

    def moved(phi, delta):
        if not log:
            return phi + delta
        out = np.expm1(delta)
        np.multiply(phi, out, out=out)
        return np.add(phi, out, out=out)

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
            trial = moved(phi, delta if step == 1.0 else step * delta)
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


@dataclass(frozen=True, eq=False)
class Plan:
    """What solve_wave reads of a target: its tag and law, the Robin
    coefficient, Newton's variable and the start."""

    tag: str
    ansatz: Optional[DecayAnsatz]
    sigma_R: Optional[float]  # None when the amplitude is pinned
    log: bool                 # Newton in v = log phi
    start: np.ndarray = field(repr=False)


def _plan(profile: EnvironmentProfile, c: float, target: Union[DecayAnsatz, str],
          grid: np.ndarray, guess: Optional[np.ndarray], pinned: bool) -> Plan:
    """Resolve the target, check it and the guess, then ask the classifier.

    sigma_R, the Robin coefficient, is the ansatz's log-derivative at L, or
    None when the amplitude is pinned.  slow_maximal where int tilde_a
    diverges has no ansatz; its coefficient degenerates to the tilde_a value
    -a(L)/c.  Any other unavailable ansatz raises AnsatzUnavailableError.
    The target's own errors come before the classifier's.

    A target the classifier predicts is solved for log phi (log True), from
    its decay shape capped at alpha (e^{-c (z - z_switch)} if minimal, as
    sigma1 is complex where 4 a > c^2), flooring the guess, by default a
    slow target's tanh front: a tail below the slow shape sits in the
    minimal wave's basin, and a zero has no log.  Any other target is solved
    for phi from the guess unchanged, where a failure is the meaningful
    outcome; without a guess a slow target starts from the tanh front and a
    minimal one, whose only root for c >= 2 sqrt(alpha) is the wall layer,
    from a(-L) e^{-(c/2)(z + L)}: c/2 is the double root of
    lambda^2 - c lambda + alpha at threshold.
    """
    tag, ansatz = resolve_target(profile, c, target)
    if ansatz is None and tag != "slow_maximal":
        raise AnsatzUnavailableError(f"no {tag} ansatz for this profile at c = {c:g}")
    sigma_R = None
    if not pinned:
        L = float(grid[-1])
        sigma_R = (-float(profile.a(L)) / c if ansatz is None
                   else float(ansatz.log_derivative(L)))
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != grid.shape:
            raise ValueError("initial guess does not match the grid")
    report = classify(profile, c)
    minimal = tag in MINIMAL_TAGS
    # the classifier sets maximal_decay exactly in cases 2 and 3
    law = report.minimal_decay if minimal else report.maximal_decay
    log = law is not None and (minimal or tag in ("tilde_a", law.tag))
    if not log:
        if guess is None:
            guess = (float(profile.a(grid[0])) * np.exp(-0.5 * c * (grid - grid[0]))
                     if minimal else _tanh_start(profile, grid))
        return Plan(tag, ansatz, sigma_R, log, guess)
    shaped = resolve_target(profile, c, "pure_exp")[1] if minimal else ansatz
    shape = np.minimum(profile.alpha, shaped.value(np.maximum(grid, profile.z_switch)))
    if guess is None:
        guess = shape if minimal else _tanh_start(profile, grid)
    return Plan(tag, ansatz, sigma_R, log, np.maximum(guess, shape))


# ---------------------------------------------------------------------------
# solver entry points
# ---------------------------------------------------------------------------

def certify(profile: EnvironmentProfile, phi: np.ndarray, residual_norm: float,
            history: list) -> None:
    """Accept a converged state as a forced wave, or raise NoPositiveWaveError.

    A converged phi <= 0 somewhere is no positive wave.  A forced wave holds
    the plateau at the left wall; a state whose first grid cell already
    leaves alpha is a truncation artifact (the boundary layer "wave" that
    exists on any finite domain even where the infinite-domain problem has
    no solution).
    """
    lowest = float(np.min(phi))
    if lowest <= 0.0:
        message = (f"converged state has min phi = {lowest:.3e} <= 0: "
                   "no positive wave with this target")
    elif abs(phi[1] - phi[0]) > 1e-6 * profile.alpha:
        message = (f"converged state has a boundary layer at the left wall "
                   f"(|phi' (-L)| h = {abs(phi[1] - phi[0]):.3e}): it does not "
                   "connect to the plateau equilibrium, so it is not a forced wave")
    else:
        return
    raise NoPositiveWaveError(message, phi=phi, residual_norm=residual_norm,
                              residual_history=history)


def solve_wave(profile: EnvironmentProfile, c: float,
               target: Union[DecayAnsatz, str], cfg: Optional[SolverConfig] = None,
               initial_guess: Optional[np.ndarray] = None,
               pin_amplitude: Optional[float] = None) -> WaveSolution:
    """Solve the truncated boundary value problem for one targeted wave.

    The variable and the start, which initial_guess enters, are _plan's;
    certify accepts the result.  No oracle is constructed.  pin_amplitude,
    when given, replaces the Robin row by the Dirichlet condition
    phi(L) = pin_amplitude (used by wave_family to separate slow family
    members, which share the same Robin coefficient).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    cfg = SolverConfig.default_for(profile) if cfg is None else cfg
    grid = cfg.grid()
    plan = _plan(profile, c, target, grid, initial_guess, pin_amplitude is not None)
    a = np.asarray(profile.a(grid), dtype=float)
    phi, nrm, iters, history = _newton(plan.start, a, float(grid[1] - grid[0]), c,
                                       float(a[0]), plan.sigma_R, pin_amplitude, cfg,
                                       plan.log)
    certify(profile, phi, nrm, history)
    return WaveSolution(c=c, grid=grid, phi=phi, residual_norm=nrm,
                        decay_tag=plan.tag, bc_right=plan.sigma_R, target=plan.ansatz,
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
    """March c over `steps` uniform values (none for steps = 0), solving
    each with solve_wave from its own start.

    All points are attempted; a typed solve failure (no positive wave,
    divergence, unavailable ansatz) is recorded and does not stop the march.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    cs = np.linspace(c_start, c_end, steps)
    cfg = SolverConfig.default_for(profile) if cfg is None else cfg
    solutions, failures = [], []
    for cv in cs:
        try:
            solutions.append(solve_wave(profile, float(cv), target, cfg))
        except (NoPositiveWaveError, NewtonDivergenceError,
                AnsatzUnavailableError) as exc:
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
