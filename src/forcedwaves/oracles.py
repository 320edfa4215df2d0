"""Closed-form sub- and super-solutions for the moving-frame operator.

Each construction returns a ComparisonFunction carrying one analytic jet
z -> (u, u', u''), its support, and a sign contract for the residual

    R[u] = u'' + c u' + u (a(z) - u),

namely R >= 0 on the support interior for a sub-solution and R <= 0 for a
super-solution.  residual_sign_check samples the support densely and
certifies the contract to a stated tolerance.  Free constants are chosen at
admissible values derived from the same inequalities that make the sign
argument work, so a failed check is evidence of a bug, not of bad luck.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .environment import (
    Algebraic,
    EnvironmentProfile,
    IteratedLog,
    Power,
    TailFamily,
)

__all__ = [
    "ComparisonFunction",
    "CheckResult",
    "ConstructionError",
    "cos_bump_sub",
    "exp_super",
    "alpha_super",
    "slow_sub",
    "sub2_slow",
    "g1_sub",
    "alg_super",
    "profile_band_sub",
    "profile_band_super",
    "residual_sign_check",
    "comparison_suite",
    "bracketing_pairs",
]


class ConstructionError(ValueError):
    """The requested construction does not apply to this profile/speed."""


@dataclass
class ComparisonFunction:
    """A sub- or super-solution with analytic derivatives on its support.

    _jet(z) returns (u, u', u''), then a(z) if it computes it anyway, and
    shares work once; value, d1 and d2 index it, residual evaluates it once.
    """

    kind: str
    role: str  # "sub" | "super"
    support: tuple[float, float]
    params: dict
    profile: EnvironmentProfile
    c: float
    _jet: Callable = field(repr=False)

    def value(self, z):
        return self._jet(np.asarray(z, dtype=float))[0]

    def d1(self, z):
        return self._jet(np.asarray(z, dtype=float))[1]

    def d2(self, z):
        return self._jet(np.asarray(z, dtype=float))[2]

    def residual(self, z):
        z = np.asarray(z, dtype=float)
        u, d1, d2, *a = self._jet(z)
        a = a[0] if a else self.profile.a(z)
        return d2 + self.c * d1 + u * (a - u)

    def on_grid(self, z) -> np.ndarray:
        """Evaluate on an arbitrary grid (the piecewise formulas handle
        points outside the support; compact constructions vanish there)."""
        return np.asarray(self.value(z), dtype=float)


@dataclass(frozen=True)
class CheckResult:
    kind: str
    role: str
    n_samples: int
    min_residual: float
    max_residual: float
    tolerance: float
    passed: bool


# ---------------------------------------------------------------------------
# plateau-side constructions
# ---------------------------------------------------------------------------

def cos_bump_sub(alpha: float, c: float, profile: EnvironmentProfile) -> ComparisonFunction:
    """Compactly supported sub-solution delta e^{-cz/2} cos(pi z / L + pi).

    Lives on (-3L/2, -L/2), entirely inside the plateau, and needs the
    plateau to clear c^2/4: exists exactly for c < 2 sqrt(alpha).
    """
    if abs(alpha - profile.alpha) > 1e-12 * max(1.0, profile.alpha):
        raise ValueError("alpha must match the profile plateau")
    if c <= 0:
        raise ValueError("c must be positive")
    a0 = (alpha - c * c / 4.0) / 2.0
    if a0 <= 0:
        raise ConstructionError(
            f"no admissible bump: c={c} is at or above 2 sqrt(alpha)")
    L = math.pi / math.sqrt(a0)
    if profile.z_star < 0:
        L = max(L, -2.0 * profile.z_star)
    L *= 1.05  # strict slack in pi^2/L^2 < a0
    delta = a0 * math.exp(-3.0 * c * L / 4.0)
    lo, hi = -1.5 * L, -0.5 * L
    if hi > profile.z_star:
        raise ConstructionError("bump support leaks out of the plateau")
    piL = math.pi / L

    def jet(z):
        inside = (z > lo) & (z < hi)
        e = delta * np.exp(-c * z / 2.0)
        W = np.cos(piL * z + math.pi)
        Wp = -piL * np.sin(piL * z + math.pi)
        return (np.where(inside, e * W, 0.0),
                np.where(inside, e * (-0.5 * c * W + Wp), 0.0),
                np.where(inside, e * (0.25 * c * c * W - c * Wp - piL * piL * W), 0.0))

    return ComparisonFunction(
        kind="CosBumpSub", role="sub", support=(lo, hi),
        params={"a0": a0, "L": L, "delta": delta}, profile=profile, c=c,
        _jet=jet)


def exp_super(alpha: float, c: float, eps: float,
              profile: EnvironmentProfile) -> ComparisonFunction:
    """min(alpha, k e^{-(c-eps) z}): a super-solution for any c > 0.

    Needs a(z) <= eps (c - eps) beyond the crossing point zbar; k is chosen
    so the exponential branch meets alpha exactly at zbar.
    """
    if not 0 < eps < c:
        raise ConstructionError(
            f"eps={eps} must lie strictly inside (0, c={c}); "
            "eps near c/2 maximizes the admissible window")
    thresh = eps * (c - eps)
    if thresh >= alpha:
        zbar = profile.z_star
    else:
        lo = profile.z_star
        hi = profile.z_switch + 1.0
        while profile.a(hi) > thresh:
            hi = profile.z_switch + 2 * (hi - profile.z_switch)
            if hi > 1e12:
                raise ConstructionError("profile tail never drops below eps (c - eps)")
        zbar = float(brentq(lambda s: float(profile.a(s)) - thresh, lo, hi, xtol=1e-12))
    rate = c - eps
    logk = math.log(alpha) + rate * zbar

    def jet(z):
        e = np.exp(np.minimum(logk - rate * z, 700.0))
        return (np.minimum(alpha, e),
                np.where(z > zbar, -rate * e, 0.0),
                np.where(z > zbar, rate * rate * e, 0.0))

    return ComparisonFunction(
        kind="ExpSuper", role="super", support=(-math.inf, math.inf),
        params={"eps": eps, "zbar": zbar, "log_k": logk, "rate": rate},
        profile=profile, c=c, _jet=jet)


def alpha_super(profile: EnvironmentProfile, c: float) -> ComparisonFunction:
    """The constant alpha; a super-solution since a <= alpha everywhere."""
    alpha = profile.alpha

    def jet(z):
        return np.full_like(z, alpha), np.zeros_like(z), np.zeros_like(z)

    return ComparisonFunction(
        kind="AlphaSuper", role="super", support=(-math.inf, math.inf),
        params={"alpha": alpha}, profile=profile, c=c, _jet=jet)


# ---------------------------------------------------------------------------
# slow (tail-side) sub-solutions
# ---------------------------------------------------------------------------

def _slow_sub_from_tail(profile: EnvironmentProfile, c: float, A: float,
                        tail: TailFamily, kind: str,
                        extra_params: dict) -> ComparisonFunction:
    """Common body of slow_sub / sub2_slow: A ta(z) (1 - M b(z)) beyond z_M.

    ta is the decay weight of `tail` normalized to 1 at z0 = z_switch (exact
    closed forms; for slow_sub it is the profile's own tail), b =
    int_z^inf ta.  The constants are the ones the residual bound
    A ta^2 (cM/2 - A) > 0 needs: z_M = max(z0, z*), where a_tail(z*) = c^2/6,
    so a_tail <= c^2/6 on the decreasing tail past z_M; M = 1/b(z_M), so
    u vanishes at z_M; and A = min(A, 0.4 c M), so M >= 2.5 A/c > 2A/c.
    """
    if not tail.tilde_in_L1(c):
        raise ConstructionError("int tilde_a diverges: no slow sub-solution exists")
    z0 = profile.z_switch
    F0 = float(tail.antiderivative(z0))

    def log_ta(z):
        return -(np.asarray(tail.antiderivative(z), dtype=float) - F0) / c

    cap = c * c / 6.0
    z_M, hi = z0, 2.0 * z0
    if float(tail.value(z0)) > cap:
        while float(tail.value(hi)) > cap:
            hi *= 2.0
            if hi > 1e12:
                raise ConstructionError(
                    f"a_tail stays above c^2/6 = {cap:.6g} to z = 1e12")
        z_M = float(brentq(lambda s: float(tail.value(s)) - cap, z0, hi))
    log_M = -float(log_ta(z_M) + np.log(tail.slow_scale(z_M, c)))
    with np.errstate(over="ignore"):
        M = float(np.exp(log_M))
    if not math.isfinite(M):
        raise ConstructionError(
            f"M = 1/b(z_M) = exp({log_M:.6g}) is not finite at z_M = {z_M:.6g}")
    A = min(A, 0.4 * c * M)

    def jet(z):
        inside = z > z_M
        zs = np.maximum(z, z_M)
        lt = log_ta(zs)
        ta = np.exp(lt)
        gap = 1.0 - M * np.exp(lt + np.log(tail.slow_scale(zs, c)))
        av, avp, _ = tail.jet(zs)
        return (np.where(inside, A * ta * gap, 0.0),
                np.where(inside, A * ta * (-(av / c) * gap + M * ta), 0.0),
                np.where(inside, A * ta * (gap * (av * av / (c * c) - avp / c)
                                           - 3.0 * M * (av / c) * ta), 0.0))

    params = {"A": A, "M": M, "z_M": z_M, "z0": z0}
    params.update(extra_params)
    return ComparisonFunction(
        kind=kind, role="sub", support=(z_M, math.inf), params=params,
        profile=profile, c=c, _jet=jet)


def slow_sub(profile: EnvironmentProfile, c: float, A: float = 1.0) -> ComparisonFunction:
    """A tilde_a (1 - M b) beyond z_M: the slow sub-solution of the tail family.

    tilde_a is normalized to 1 at z_switch, where the pure tail starts, and
    b = int_z^inf tilde_a.  z_M = max(z_switch, z*) with a(z*) = c^2/6,
    M = 1/b(z_M) and the amplitude is min(A, 0.4 c M).
    """
    if A <= 0 or c <= 0:
        raise ValueError("need A > 0 and c > 0")
    return _slow_sub_from_tail(profile, c, A, profile.tail, "SlowSub", {})


def sub2_slow(profile: EnvironmentProfile, c: float) -> ComparisonFunction:
    """The slow sub-solution built from a smaller same-family tail a_plus.

    a_plus = _surrogate(profile, c) sits below a on the tail with
    int (a - a_plus) = inf; when its decay weight is integrable, the
    slow_sub construction for a_plus is a sub-solution for the true profile
    as well.  params["surrogate"] records a_plus.
    """
    a_plus = _surrogate(profile, c)
    return _slow_sub_from_tail(profile, c, 1.0, a_plus, "Sub2Slow",
                               {"surrogate": asdict(a_plus)})


def _surrogate(profile: EnvironmentProfile, c: float) -> TailFamily:
    """sub2_slow's a_plus: the profile's tail family at strictly smaller
    gamma or r, with the same z_min (below z_star), so its weight is
    normalized at z_switch like slow_sub's.

    Chosen so the slow shape built from a_plus still exists (tilde_a_plus
    integrable) while decaying strictly more slowly than the one built from
    a; that gap is what the two-sided slow construction needs.
    """
    tail = profile.tail
    if isinstance(tail, Algebraic):
        if tail.gamma <= c:
            raise ConstructionError("gamma <= c: no surrogate keeps tilde_a in L1")
        gp = 0.5 * (tail.gamma + max(c, tail.gamma / 2.0))
        return Algebraic(gamma=gp)
    if isinstance(tail, Power):
        return Power(gamma=0.5 * tail.gamma, p=tail.p)
    if isinstance(tail, IteratedLog):
        if tail.r <= c:
            raise ConstructionError("r <= c: no surrogate keeps tilde_a in L1")
        return IteratedLog(k=tail.k, r=0.5 * (tail.r + c), lead=tail.lead)
    raise ConstructionError("no surrogate for this tail family")


# ---------------------------------------------------------------------------
# tail-window pairs
# ---------------------------------------------------------------------------

def _tail_window(kind: str, role: str, profile: EnvironmentProfile, c: float,
                 params: dict, jet, lo: float) -> ComparisonFunction:
    """Tail construction supported on (z_start, inf).

    The support starts at the first point z_start of a doubling grid from lo
    where the residual has the role's strict sign over the next four decades.
    """
    fn = ComparisonFunction(kind=kind, role=role, support=(lo, math.inf),
                            params=params, profile=profile, c=c, _jet=jet)
    sign = 1.0 if role == "sub" else -1.0
    z_start = lo
    for _ in range(60):
        if np.all(sign * fn.residual(np.geomspace(z_start, z_start * 1e4, 512)) > 0):
            break
        z_start *= 2.0
    else:
        raise ConstructionError("no admissible support start found below 2^60 lo")
    fn.support = (z_start, math.inf)
    fn.params["z_start"] = z_start
    return fn


def g1_sub(profile: EnvironmentProfile, c: float) -> ComparisonFunction:
    """1 / (z ln z ... ln^{k-1} z (ln^k z)^lam): tail sub-solution.

    k and lam come from the tail: algebraic tails take k = 0, the pure power
    z^{-lam}, with lam = (1 + gamma/c)/2; iterated-log tails (lead = c) take
    their own k with lam = (1 + r/c)/2.  lam must lie strictly inside
    (1, gamma/c) or (1, r/c), so algebraic tails need gamma > c.
    g1 = exp(-int G), where G = -g1'/g1 is a unit-lead tail of the same
    family: Algebraic(lam), or IteratedLog(k, r=lam, lead=1).  Any other
    tail raises ConstructionError.
    """
    tail = profile.tail
    if isinstance(tail, Algebraic):
        k, lam = 0, 0.5 * (1.0 + tail.gamma / c)
        if not 1.0 < lam < tail.gamma / c:
            raise ConstructionError(f"need 1 < lam < gamma/c = {tail.gamma / c}")
    elif isinstance(tail, IteratedLog):
        if not math.isclose(tail.lead, c, rel_tol=1e-12):
            raise ConstructionError("iterated-log pair needs lead coefficient = c")
        k, lam = tail.k, 0.5 * (1.0 + tail.r / c)
        if not 1.0 < lam < tail.r / c:
            raise ConstructionError(f"need 1 < lam < r/c = {tail.r / c}")
    else:
        raise ConstructionError("needs an algebraic or iterated-log tail")

    G = Algebraic(gamma=lam) if k == 0 else IteratedLog(k=k, r=lam, lead=1.0)

    def jet(z):
        g = np.exp(-G.antiderivative(z))
        Gv, Gp, _ = G.jet(z)
        return g, -g * Gv, g * (Gv * Gv - Gp)

    lo0 = max(profile.z_switch, (tail.z_min if math.isfinite(tail.z_min) else 1.0) * 1.5)
    return _tail_window("G1Sub", "sub", profile, c, {"k": k, "lam": lam}, jet, lo0)


def alg_super(profile: EnvironmentProfile, c: float) -> ComparisonFunction:
    """M z^{-q}: tail super-solution, with (M, q) fixed by the tail family.

    Algebraic tails above the critical line (gamma > c) take q = 1 and
    M = gamma + delta, delta = min((gamma - c)/c, 1/2)/2; M > gamma closes the
    sign.  Iterated-log tails take q = 1/2, since any power beats the
    borderline decay, and M = 1.5 (a z^q + q(1+q) z^{q-2}) at 1.05 z_switch,
    the start of the support scan.  Any other tail raises ConstructionError.
    """
    tail = profile.tail
    lo0 = profile.z_switch * 1.05
    if isinstance(tail, Algebraic):
        if tail.gamma <= c:
            raise ConstructionError("algebraic tail needs gamma > c")
        q = 1.0
        M = tail.gamma + 0.5 * min((tail.gamma - c) / c, 0.5)
    elif isinstance(tail, IteratedLog):
        q = 0.5
        M = 1.5 * float(profile.a(lo0) * lo0 ** q + q * (1 + q) * lo0 ** (q - 2.0))
    else:
        raise ConstructionError("needs an algebraic or iterated-log tail")

    def jet(z):
        return (M * z ** (-q),
                -q * M * z ** (-q - 1.0),
                q * (q + 1.0) * M * z ** (-q - 2.0))

    return _tail_window("AlgSuper", "super", profile, c, {"M": M, "q": q}, jet, lo0)


_BAND_EPS = 0.05  # band half-width relative to a


def _profile_band(profile: EnvironmentProfile, c: float,
                  sign: int) -> ComparisonFunction:
    """(1 +- eps) a(z), eps = 0.05; needs z a -> inf so eps a^2 dominates
    a'' + c a'."""
    if not math.isinf(profile.tail.za_limit):
        raise ConstructionError(
            "profile band needs z a(z) -> inf (a'/a^2 -> 0 with a^2 dominant)")
    m = 1.0 + sign * _BAND_EPS

    def jet(z):
        a, ap, app = profile.a_jet(z)
        return m * a, m * ap, m * app, a

    kind, role = ("ProfileBandSub", "sub") if sign < 0 else ("ProfileBandSuper", "super")
    return _tail_window(kind, role, profile, c, {"eps": _BAND_EPS}, jet,
                        profile.z_switch * 1.05)


def profile_band_sub(profile: EnvironmentProfile, c: float) -> ComparisonFunction:
    """(1 - eps) a(z) on a tail window: sub-solution for tails with z a -> inf."""
    return _profile_band(profile, c, -1)


def profile_band_super(profile: EnvironmentProfile, c: float) -> ComparisonFunction:
    """(1 + eps) a(z) on a tail window: super-solution for tails with z a -> inf."""
    return _profile_band(profile, c, +1)


# ---------------------------------------------------------------------------
# checking and pairing
# ---------------------------------------------------------------------------

def _sample_support(fn: ComparisonFunction, n: int) -> np.ndarray:
    lo, hi = fn.support
    prof = fn.profile
    if math.isfinite(lo) and math.isfinite(hi):
        pad = (hi - lo) * 1e-6
        return np.linspace(lo + pad, hi - pad, n)
    if math.isfinite(lo):
        start = lo * (1 + 1e-9) + 1e-12 if lo > 0 else lo + 1e-9
        base = max(start, 1e-6)
        return np.geomspace(base, base * 1e4, n)
    # doubly infinite: plateau box plus four tail decades
    left = np.linspace(prof.z_star - 60.0, prof.z_switch, n // 2)
    right = np.geomspace(max(prof.z_switch, 1.0), max(prof.z_switch, 1.0) * 1e4,
                         n - n // 2)
    return np.concatenate([left, right])


def residual_sign_check(fn: ComparisonFunction, n_samples: int = 10_000,
                        tolerance: float = 1e-9) -> CheckResult:
    """Sample the support and certify the residual sign contract."""
    z = _sample_support(fn, n_samples)
    r = fn.residual(z)
    rmin, rmax = float(np.min(r)), float(np.max(r))
    if fn.role == "sub":
        passed = rmin >= -tolerance
    else:
        passed = rmax <= tolerance
    return CheckResult(kind=fn.kind, role=fn.role, n_samples=n_samples,
                       min_residual=rmin, max_residual=rmax,
                       tolerance=tolerance, passed=passed)


def _tail_pair(profile: EnvironmentProfile, c: float) -> list:
    """The tail family's named (sub, super) constructions, each taking
    (profile, c), [] if it has none: the (1 -+ eps) a bands for power tails,
    g1_sub with alg_super for iterated-log tails and for algebraic tails
    with gamma > c."""
    tail = profile.tail
    if isinstance(tail, Power):
        return [("band_sub", profile_band_sub), ("band_super", profile_band_super)]
    if isinstance(tail, IteratedLog) or (isinstance(tail, Algebraic)
                                         and tail.gamma > c):
        return [("g1_sub", g1_sub), ("alg_super", alg_super)]
    return []


def comparison_suite(profile: EnvironmentProfile, c: float) -> list:
    """(name, make) for the five plateau and slow constructions, then the
    tail family's pair; a make() that does not apply to (profile, c) raises
    ConstructionError or ValueError."""
    return [
        ("cos_bump_sub", lambda: cos_bump_sub(profile.alpha, c, profile)),
        ("exp_super", lambda: exp_super(profile.alpha, c, 0.5 * c, profile)),
        ("alpha_super", lambda: alpha_super(profile, c)),
        ("slow_sub", lambda: slow_sub(profile, c)),
        ("sub2_slow", lambda: sub2_slow(profile, c)),
    ] + [(name, functools.partial(make, profile, c))
         for name, make in _tail_pair(profile, c)]


def bracketing_pairs(profile: EnvironmentProfile, c: float
                    ) -> list[tuple[ComparisonFunction, ComparisonFunction]]:
    """The tail family's (sub, super) pair from comparison_suite, built."""
    pair = _tail_pair(profile, c)
    if not pair:
        raise ConstructionError("no tail pair: needs an algebraic tail with "
                                "gamma > c, an iterated-log or a power tail")
    (_, make_sub), (_, make_super) = pair
    return [(make_sub(profile, c), make_super(profile, c))]
