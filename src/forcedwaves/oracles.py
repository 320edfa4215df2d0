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
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .environment import (
    Algebraic,
    EnvironmentProfile,
    ExpTail,
    IteratedLog,
    Power,
    TailFamily,
)
from .tables import write_csv

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
    "bracketing_pairs",
    "default_surrogate",
]

KINDS = (
    "CosBumpSub", "SlowSub", "Sub2Slow", "ExpSuper", "AlphaSuper",
    "G1Sub", "AlgSuper", "ProfileBandSub", "ProfileBandSuper",
)


class ConstructionError(ValueError):
    """The requested construction does not apply to this profile/speed."""


@dataclass
class ComparisonFunction:
    """A sub- or super-solution with analytic derivatives on its support.

    _jet(z) returns (u, u', u'') and computes what they share once;
    value, d1 and d2 index it and residual evaluates it once.
    """

    kind: str
    role: str  # "sub" | "super"
    support: tuple[float, float]
    params: dict
    profile: EnvironmentProfile
    c: float
    _jet: Callable = field(repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.role not in ("sub", "super"):
            raise ValueError("role must be 'sub' or 'super'")

    def value(self, z):
        return self._jet(np.asarray(z, dtype=float))[0]

    def d1(self, z):
        return self._jet(np.asarray(z, dtype=float))[1]

    def d2(self, z):
        return self._jet(np.asarray(z, dtype=float))[2]

    def residual(self, z):
        z = np.asarray(z, dtype=float)
        u, d1, d2 = self._jet(z)
        return d2 + self.c * d1 + u * (self.profile.a(z) - u)

    def on_grid(self, z) -> np.ndarray:
        """Evaluate on an arbitrary grid (the piecewise formulas handle
        points outside the support; compact constructions vanish there)."""
        return np.asarray(self.value(z), dtype=float)

    def record_dict(self) -> dict:
        """Constants and contract, JSON-ready."""
        return {
            "kind": self.kind,
            "role": self.role,
            "sign_contract": ">= 0" if self.role == "sub" else "<= 0",
            "support": list(self.support),
            "params": dict(self.params),
            "c": self.c,
        }

    def to_csv(self, path, n_samples: int = 1000) -> None:
        z = _sample_support(self, n_samples)
        write_csv(path, ["z", "value", "residual"],
                  [z, self.on_grid(z), self.residual(z)])


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
                        z0: float, tail: TailFamily, kind: str,
                        extra_params: dict) -> ComparisonFunction:
    """Common body of slow_sub / sub2_slow: A ta(z) (1 - M b(z)) beyond z_M.

    ta is the normalized decay weight of `tail` (exact closed forms; for
    slow_sub it is the profile's own tail), b = int_z^inf ta.  M is grown
    until M > 2A/c, M b(z_M) = 1 and a_tail(z_M) <= c^2/6, which makes the
    residual bound A ta^2 (cM/2 - A) > 0 provable.
    """
    if not tail.tilde_in_L1(c):
        raise ConstructionError("int tilde_a diverges: no slow sub-solution exists")
    F0 = float(tail.antiderivative(z0))

    def log_ta(z):
        return -(np.asarray(tail.antiderivative(z), dtype=float) - F0) / c

    def log_b(z):
        return log_ta(z) + np.log(tail.slow_scale(z, c))

    @functools.cache  # halving A re-walks the same exact M lattice 2.5 A/c 2^k
    def probe(Mv):
        """z_M for M (A-free): None to try 2M, inf if b > 1/M to the horizon."""
        if float(log_b(z0)) <= -math.log(Mv):
            return None  # b already below 1/M at z0: shrink 1/M to recover a root
        hi = 2.0 * z0
        while float(log_b(hi)) > -math.log(Mv):
            hi *= 2.0
            if hi > 1e12:
                return math.inf
        zM = float(brentq(lambda s: float(log_b(s)) + math.log(Mv), z0, hi, xtol=1e-12))
        return zM if float(tail.value(zM)) <= c * c / 6.0 else None

    def find_zM(Av):
        """Smallest (M, z_M) with M > 2Av/c, M b(z_M) = 1 and a(z_M) <= c^2/6."""
        Mv = 2.5 * Av / c
        for _ in range(80):
            zM = probe(Mv)
            if zM is not None:
                return (None if zM == math.inf else zM), Mv
            Mv *= 2.0
        return None, Mv

    # Large amplitudes can push z_M astronomically far out (b decays like
    # 1/log z for iterated-log tails); halve A until the support is usable.
    z_M = None
    for _ in range(60):
        z_M, M = find_zM(A)
        if z_M is not None:
            break
        A /= 2.0
    if z_M is None:
        raise ConstructionError("could not locate a usable z_M at any amplitude")

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

    tilde_a is normalized to 1 at z_switch, where the pure tail starts.
    """
    if A <= 0 or c <= 0:
        raise ValueError("need A > 0 and c > 0")
    return _slow_sub_from_tail(profile, c, A, profile.z_switch, profile.tail,
                               "SlowSub", {})


def sub2_slow(profile: EnvironmentProfile, c: float,
              a_plus: TailFamily) -> ComparisonFunction:
    """Surrogate slow sub-solution built from a smaller tail a_plus.

    Valid when a_plus <= a on the tail with int (a - a_plus) = inf and the
    surrogate decay weight integrable; then the construction for a_plus is a
    sub-solution for the true profile as well.  The surrogate must be the
    same family kind with strictly reduced strength.
    """
    tail = profile.tail
    if type(a_plus) is not type(tail):
        raise ConstructionError("surrogate must be the same tail family kind")
    if isinstance(tail, ExpTail):
        raise ConstructionError("int a < inf: no slow sub-solution exists")
    if isinstance(tail, Algebraic):
        if not a_plus.gamma < tail.gamma:
            raise ConstructionError(
                "surrogate gamma must be strictly below the profile's "
                "(a_plus = a gives int (a - a_plus) = 0)")
        if not a_plus.tilde_in_L1(c):
            raise ConstructionError("surrogate gamma must stay above c")
    elif isinstance(tail, Power):
        if a_plus.p != tail.p or not a_plus.gamma < tail.gamma:
            raise ConstructionError("surrogate must share p with gamma strictly below")
    elif isinstance(tail, IteratedLog):
        if a_plus.k != tail.k or a_plus.lead != tail.lead or not a_plus.r < tail.r:
            raise ConstructionError("surrogate must share (k, lead) with r strictly below")
        if not a_plus.tilde_in_L1(c):
            raise ConstructionError("surrogate r must stay above c")
    z0 = max(profile.z_switch, a_plus.z_min * 1.0 + 1e-9) if math.isfinite(a_plus.z_min) \
        else profile.z_switch
    z0 = max(z0, profile.z_switch)
    return _slow_sub_from_tail(profile, c, 1.0, z0, a_plus, "Sub2Slow",
                               {"surrogate": asdict(a_plus)})


def default_surrogate(profile: EnvironmentProfile, c: float) -> TailFamily:
    """A same-family tail a_plus sitting below a, for sub2_slow.

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


def g1_sub(profile: EnvironmentProfile, c: float, lam: float,
           k: Optional[int] = None) -> ComparisonFunction:
    """1 / (z ln z ... ln^{k-1} z (ln^k z)^lam): tail sub-solution.

    k = 0 gives the pure power z^{-lam} used for algebraic tails above the
    critical line; k >= 1 matches the iterated-log family with lam strictly
    inside (1, r/c).  g1 = exp(-int G), where G = -g1'/g1 is a unit-lead
    tail of the same family: Algebraic(lam), or IteratedLog(k, r=lam, lead=1).
    """
    tail = profile.tail
    if k is None:
        k = tail.k if isinstance(tail, IteratedLog) else 0
    if k == 0:
        if not isinstance(tail, Algebraic):
            raise ConstructionError("k = 0 needs an algebraic tail")
        if not 1.0 < lam < tail.gamma / c:
            raise ConstructionError(f"need 1 < lam < gamma/c = {tail.gamma / c}")
    else:
        if not isinstance(tail, IteratedLog) or tail.k != k:
            raise ConstructionError("k >= 1 needs a matching iterated-log tail")
        if not math.isclose(tail.lead, c, rel_tol=1e-12):
            raise ConstructionError("iterated-log pair needs lead coefficient = c")
        if not 1.0 < lam < tail.r / c:
            raise ConstructionError(f"need 1 < lam < r/c = {tail.r / c}")

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
        return m * a, m * ap, m * app

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


def bracketing_pairs(profile: EnvironmentProfile, c: float
                    ) -> list[tuple[ComparisonFunction, ComparisonFunction]]:
    """Matched (sub, super) tail pairs bracketing slow decay, by family.

    Algebraic gamma > c: (z^{-(1+delta)}, (gamma+delta)/z).
    IteratedLog r > c = lead: (1/g1 with lam in (1, r/c), M z^{-1/2}).
    Power: ((1-eps) a, (1+eps) a).
    """
    tail = profile.tail
    if isinstance(tail, Algebraic):
        if tail.gamma <= c:
            raise ConstructionError("algebraic pair needs gamma > c")
        delta = 0.5 * min((tail.gamma - c) / c, 0.5)
        sub = g1_sub(profile, c, lam=1.0 + delta, k=0)
        sup = alg_super(profile, c)
        return [(sub, sup)]
    if isinstance(tail, IteratedLog):
        if not math.isclose(tail.lead, c, rel_tol=1e-12) or tail.r <= c:
            raise ConstructionError("iterated-log pair needs lead = c and r > c")
        lam = 0.5 * (1.0 + tail.r / c)
        sub = g1_sub(profile, c, lam=lam, k=tail.k)
        sup = alg_super(profile, c)
        return [(sub, sup)]
    if isinstance(tail, Power):
        return [(profile_band_sub(profile, c), profile_band_super(profile, c))]
    raise ConstructionError("no tail pair for this family")
