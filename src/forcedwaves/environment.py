"""Resource profiles a(z) and the quantities derived from them.

A profile is a C^1 plateau-to-tail blend: a(z) = alpha on the left, a
prescribed decaying tail formula on the right, joined by a smoothstep over
[z_star, z_switch].  Everything downstream (eigenvalue formulas, the
normalized decay weight tilde_a, the slow decay scale B, decay ansatz
shapes, and the regime classifier) lives here because it is all determined
by (alpha, tail, c).

Conventions used throughout:
    tilde_a(z) = exp(-(1/c) * int_{z0}^{z} a(s) ds)
    B(z)       = int_z^inf exp(-(1/c) * int_z^s a(u) du) ds
so that int_z^inf tilde_a = tilde_a(z) * B(z); the slow maximal decay shape
is c / B(z).  B is evaluated in the pure-tail region z >= z_switch, in
closed form except for iterated-log tails below lead (one panel pass).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureError",
    "AnsatzUnavailableError",
    "ExpTail",
    "Algebraic",
    "IteratedLog",
    "Power",
    "TailFamily",
    "EnvironmentProfile",
    "exp_tail_touching",
    "sigma",
    "SigmaPair",
    "sigma1_valid_from",
    "generalized_eigenvalues",
    "tilde_a",
    "log_tilde_a",
    "DecayAnsatz",
    "PureExp",
    "Sigma1Int",
    "TildeA",
    "SlowMaximal",
    "ProfileItself",
    "RegimeReport",
    "classify",
    "partial_integral_tilde_a",
    "iterated_log",
]

_REL_EQ = 1e-12  # tolerance for "equal" float parameters (e.g. lead == c)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved abs error estimate {achieved:.3e})")
        self.achieved = achieved


class AnsatzUnavailableError(ValueError):
    """The requested decay shape does not exist in this regime."""

    kind = "ansatz_unavailable"


# ---------------------------------------------------------------------------
# iterated logarithms
# ---------------------------------------------------------------------------

def iterated_log(j: int, z):
    """j-fold composition ln(ln(...ln(z))), with iterated_log(0, z) = z.

    Callers that need the product P_j = prod_{i=1..j} ln^i z use
    _log_products below.
    """
    out = np.asarray(z, dtype=float)
    for _ in range(j):
        out = np.log(out)
    return out


def _log_products(k: int, z):
    """P_j = prod_{i=1..j} ln^i z for j = 0..k (P_0 = 1), stacked along axis 0."""
    z = np.asarray(z, dtype=float)
    prods = [np.ones_like(z)]
    cur = z
    for _ in range(k):
        cur = np.log(cur)
        prods.append(prods[-1] * cur)
    return np.stack(prods, axis=0)


def _nested_exp(k: int) -> float:
    """exp applied k times to 1; the point where ln^k z = 1."""
    v = 1.0
    for _ in range(k):
        v = math.exp(v)
    return v


# ---------------------------------------------------------------------------
# tail families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpTail:
    """a(z) = amplitude * exp(-kappa z); int a < inf, so tilde_a never in L1."""

    kappa: float
    amplitude: float = 1.0
    kind = "exp"

    def __post_init__(self):
        if self.kappa <= 0 or self.amplitude <= 0:
            raise ValueError("ExpTail needs kappa > 0 and amplitude > 0")

    @property
    def z_min(self) -> float:
        return -math.inf

    def value(self, z):
        return self.amplitude * np.exp(-self.kappa * np.asarray(z, dtype=float))

    def jet(self, z):
        v = self.value(z)
        return v, -self.kappa * v, self.kappa ** 2 * v

    def antiderivative(self, z):
        return -self.amplitude / self.kappa * np.exp(-self.kappa * np.asarray(z, dtype=float))

    @property
    def za_limit(self) -> float:
        return 0.0

    @property
    def integral_finite(self) -> bool:
        return True

    @property
    def integral_sq_finite(self) -> bool:
        return True

    def tilde_in_L1(self, c: float) -> bool:
        return False  # tilde_a tends to a positive constant

    def slow_scale(self, z, c: float):
        return np.full_like(np.asarray(z, dtype=float), math.inf)


def exp_tail_touching(alpha: float, kappa: float, z_left: float) -> ExpTail:
    """ExpTail whose value equals alpha at z_left (start of the blend)."""
    return ExpTail(kappa=kappa, amplitude=alpha * math.exp(kappa * z_left))


@dataclass(frozen=True)
class Algebraic:
    """a(z) = gamma / z.  z*a -> gamma; the gamma-vs-c comparison decides the case."""

    gamma: float
    kind = "algebraic"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("Algebraic needs gamma > 0")

    @property
    def z_min(self) -> float:
        return 0.0

    def value(self, z):
        return self.gamma / np.asarray(z, dtype=float)

    def jet(self, z):
        z = np.asarray(z, dtype=float)
        return self.gamma / z, -self.gamma / z ** 2, 2 * self.gamma / z ** 3

    def antiderivative(self, z):
        return self.gamma * np.log(np.asarray(z, dtype=float))

    @property
    def za_limit(self) -> float:
        return self.gamma

    @property
    def integral_finite(self) -> bool:
        return False

    @property
    def integral_sq_finite(self) -> bool:
        return True

    def tilde_in_L1(self, c: float) -> bool:
        return self.gamma > c * (1 + _REL_EQ)

    def slow_scale(self, z, c: float):
        z = np.asarray(z, dtype=float)
        if not self.tilde_in_L1(c):
            return np.full_like(z, math.inf)
        # int_z^inf (s/z)^(-gamma/c) ds = z / (gamma/c - 1), exact
        return c * z / (self.gamma - c)


@dataclass(frozen=True)
class IteratedLog:
    """Critical-decay tail built from iterated logarithms.

    a(z) = lead * sum_{j=0}^{k-1} 1/(z P_j) + r/(z P_k),  P_j = prod_{i=1..j} ln^i z.

    z*a -> lead, so with lead equal to the wave speed this sits exactly on the
    critical line; r <= lead keeps tilde_a out of L1 and r > lead puts it in.
    The lead coefficient is stored explicitly so the profile is a function of
    z alone.
    """

    k: int
    r: float
    lead: float
    kind = "iterated_log"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("IteratedLog needs k >= 1")
        if self.r <= 0 or self.lead <= 0:
            raise ValueError("IteratedLog needs r > 0 and lead > 0")

    @property
    def z_min(self) -> float:
        return _nested_exp(self.k)

    def _coeffs(self):
        return [self.lead] * self.k + [self.r]

    def value(self, z):
        z = np.asarray(z, dtype=float)
        P = _log_products(self.k, z)
        out = np.zeros_like(z)
        for j, cj in enumerate(self._coeffs()):
            out += cj / (z * P[j])
        return out

    def jet(self, z):
        """(a, a', a'') from (1/(z P_j))' = -Q_j/(z^2 P_j), Q_j = 1 + sum_{i<=j} 1/P_i."""
        z = np.asarray(z, dtype=float)
        P = _log_products(self.k, z)
        a, ap, app = np.zeros_like(z), np.zeros_like(z), np.zeros_like(z)
        Q, corr = np.ones_like(z), np.zeros_like(z)
        for j, cj in enumerate(self._coeffs()):
            if j:
                Q = Q + 1.0 / P[j]
                corr = corr + (Q - 1.0) / P[j]
            a += cj / (z * P[j])
            ap += -cj * Q / (z ** 2 * P[j])
            app += cj * (Q ** 2 + Q + corr) / (z ** 3 * P[j])
        return a, ap, app

    def antiderivative(self, z):
        z = np.asarray(z, dtype=float)
        # int 1/(z P_j) dz = ln^{j+1} z
        total = np.zeros_like(z)
        cur = np.log(z)
        for j, cj in enumerate(self._coeffs()):
            total += cj * cur
            cur = np.log(cur)
        return total

    @property
    def za_limit(self) -> float:
        return self.lead

    @property
    def integral_finite(self) -> bool:
        return False

    @property
    def integral_sq_finite(self) -> bool:
        return True

    def _critical(self, c: float) -> bool:
        return math.isclose(self.lead, c, rel_tol=_REL_EQ)

    def tilde_in_L1(self, c: float) -> bool:
        if self._critical(c):
            return self.r > c * (1 + _REL_EQ)
        return self.lead > c

    def slow_scale(self, z, c: float):
        z = np.asarray(z, dtype=float)
        if not self.tilde_in_L1(c):
            return np.full_like(z, math.inf)
        if self._critical(c):
            # exact: substitution u = ln^k s collapses the integral
            P = _log_products(self.k, z)
            return c / (self.r - c) * z * P[self.k]
        # supercritical lead: one panel pass for all points.  With s = e^t,
        # B(z) = z int_{ln z}^inf e^(phi(t) - phi(ln z)) dt, where
        # phi(t) = -delta t - sum_{j>=1} c_j ln^j(t) / c, delta = lead/c - 1.
        # Every lower term increases, so phi' <= -delta and cutting at
        # T = max ln z + 40/delta drops < 1/(e^40 - 1) of each B.  8-point
        # Gauss panels have an edge at every query point and width
        # w = min(t/4, 2/(delta + p/t)), p = sum_{j>=1} c_j / c, so w |phi'| <= 2:
        # geometric, then near 2/delta, so the node count stays bounded as
        # c -> lead.  Sums run from the right in log space (no overflow).
        cs, delta = self._coeffs(), self.lead / c - 1.0
        p = sum(cs[1:]) / c

        def phi(t):
            return -delta * t - sum(cj * iterated_log(j, t) for j, cj in enumerate(cs[1:], 1)) / c

        tq, inv = np.unique(np.log(z.ravel()), return_inverse=True)
        mesh, T = [tq[0]], tq[-1] + 40.0 / delta
        while mesh[-1] < T:
            mesh.append(mesh[-1] + min(0.25 * mesh[-1], 2.0 / (delta + p / mesh[-1])))
        edges = np.union1d(tq, mesh)
        half = 0.5 * np.diff(edges)[:, None]
        nodes = edges[:-1, None] + half * (1.0 + _GAUSS_X)
        panel = special.logsumexp(phi(nodes), axis=1, b=half * _GAUSS_W)
        tail = np.logaddexp.accumulate(panel[::-1])[::-1]
        out = np.exp(tail[np.searchsorted(edges, tq)] - phi(tq) + tq)[inv]
        return out.reshape(z.shape) if z.ndim else float(out[0])


@dataclass(frozen=True)
class Power:
    """a(z) = gamma * z^(-p) with 0 < p < 1; z*a -> inf and tilde_a always in L1."""

    gamma: float
    p: float
    kind = "power"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("Power needs gamma > 0")
        if not 0 < self.p < 1:
            raise ValueError("Power needs 0 < p < 1")

    @property
    def z_min(self) -> float:
        return 0.0

    def value(self, z):
        return self.gamma * np.asarray(z, dtype=float) ** (-self.p)

    def jet(self, z):
        z = np.asarray(z, dtype=float)
        return (self.gamma * z ** (-self.p),
                -self.p * self.gamma * z ** (-self.p - 1),
                self.p * (self.p + 1) * self.gamma * z ** (-self.p - 2))

    def antiderivative(self, z):
        q = 1.0 - self.p
        return self.gamma * np.asarray(z, dtype=float) ** q / q

    @property
    def za_limit(self) -> float:
        return math.inf

    @property
    def integral_finite(self) -> bool:
        return False

    @property
    def integral_sq_finite(self) -> bool:
        return self.p > 0.5 + 1e-15

    def tilde_in_L1(self, c: float) -> bool:
        return True

    def slow_scale(self, z, c: float):
        # B(z) = e^v * Gamma(1/q, v) / (q * beta^(1/q)),  v = beta z^q,
        # q = 1 - p, beta = gamma/(c q).  Asymptotic series above v = 350.
        z = np.asarray(z, dtype=float)
        q = 1.0 - self.p
        beta = self.gamma / (c * q)
        a_par = 1.0 / q
        v = beta * z ** q
        v_flat = np.atleast_1d(v).astype(float)
        out = np.empty_like(v_flat)
        small = v_flat <= 350.0
        if np.any(small):
            vs = v_flat[small]
            out[small] = np.exp(vs) * special.gammaincc(a_par, vs) * special.gamma(a_par)
        if np.any(~small):
            vl = v_flat[~small]
            # Gamma(a, v) e^v ~ v^(a-1) (1 + (a-1)/v + (a-1)(a-2)/v^2 + ...)
            term = np.ones_like(vl)
            acc = np.ones_like(vl)
            for n in range(1, 40):
                term = term * (a_par - n) / vl
                acc = acc + term
                if np.all(np.abs(term) < 1e-17 * np.abs(acc)):
                    break
            out[~small] = vl ** (a_par - 1.0) * acc
        out = out / (q * beta ** a_par)
        return out.reshape(np.shape(v)) if np.ndim(v) else float(out[0])


TailFamily = Union[ExpTail, Algebraic, IteratedLog, Power]

_TAIL_KINDS = {"exp": ExpTail, "algebraic": Algebraic, "iterated_log": IteratedLog, "power": Power}


# ---------------------------------------------------------------------------
# the profile
# ---------------------------------------------------------------------------

def _smoothstep(x):
    # 7th-order smoothstep: C^3 at both ends, monotone on [0, 1].  The extra
    # smoothness keeps high-order residual stencils accurate across the
    # blend edges.
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (35.0 + x * (-84.0 + x * (70.0 - 20.0 * x)))


@dataclass(frozen=True)
class EnvironmentProfile:
    """Plateau alpha blended into a decaying tail over [z_star, z_switch].

    The blend weight is a C^3 smoothstep, so a(z) = alpha exactly for
    z <= z_star = center - width and a(z) = tail(z) exactly for
    z >= z_switch = center + width.  Construction validates that the tail is
    defined and below alpha on the whole blend interval, which makes
    a in (0, alpha] and a' <= 0 for z >= z_star automatic.
    """

    alpha: float
    tail: TailFamily
    transition_center: float
    transition_width: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.transition_width <= 0:
            raise ValueError("transition_width must be positive")
        zs = self.z_star
        if zs <= self.tail.z_min:
            raise ValueError(
                f"blend start z={zs} is inside the tail's undefined region "
                f"(z_min={self.tail.z_min}); move transition_center right")
        t_left = float(self.tail.value(zs))
        if t_left > self.alpha * (1 + 1e-12):
            raise ValueError(
                f"tail value {t_left:.6g} exceeds alpha={self.alpha} at the blend "
                f"start z={zs}; move transition_center right or shrink the width")

    # -- geometry -----------------------------------------------------------

    @property
    def z_star(self) -> float:
        """Left edge of the blend; a(z) = alpha and a' = 0 for z <= z_star."""
        return self.transition_center - self.transition_width

    @property
    def z_switch(self) -> float:
        """Right edge of the blend; a(z) equals the tail formula beyond it."""
        return self.transition_center + self.transition_width

    # -- evaluation ---------------------------------------------------------

    def _x(self, z):
        return (np.asarray(z, dtype=float) - self.z_star) / (2.0 * self.transition_width)

    def a(self, z):
        z_arr = np.asarray(z, dtype=float)
        s = _smoothstep(self._x(z_arr))
        z_safe = np.maximum(z_arr, self.z_star)
        t = self.tail.value(z_safe)
        out = self.alpha * (1.0 - s) + t * s
        return out if np.ndim(z) else float(out)

    def a_jet(self, z):
        """(a, a', a''); the first equals a(z) bit for bit."""
        z_arr = np.asarray(z, dtype=float)
        w2 = 2.0 * self.transition_width
        x = self._x(z_arr)
        inside = (x > 0) & (x < 1)
        xc = np.clip(x, 0.0, 1.0)
        s = _smoothstep(xc)
        q = xc * (1.0 - xc)
        ds = np.where(inside, 140.0 * q ** 3 / w2, 0.0)
        dss = np.where(inside, 420.0 * q ** 2 * (1.0 - 2.0 * xc) / w2 ** 2, 0.0)
        t, td, tdd = self.tail.jet(np.maximum(z_arr, self.z_star))
        td = np.where(z_arr >= self.z_star, td, 0.0)
        tdd = np.where(z_arr >= self.z_star, tdd, 0.0)
        out = (self.alpha * (1.0 - s) + t * s, ds * (t - self.alpha) + td * s,
               dss * (t - self.alpha) + 2.0 * ds * td + tdd * s)
        return out if np.ndim(z) else tuple(float(v) for v in out)

    # -- integrals ----------------------------------------------------------

    def integral_a(self, z1: float, z2: float, *, epsabs: float = 1e-10,
                   epsrel: float = 1e-8) -> float:
        """int_{z1}^{z2} a via adaptive quadrature, split at the blend edges."""
        if z2 < z1:
            return -self.integral_a(z2, z1, epsabs=epsabs, epsrel=epsrel)
        pts = [z1] + [p for p in (self.z_star, self.z_switch) if z1 < p < z2] + [z2]
        total, err = 0.0, 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            val, e = integrate.quad(lambda s: float(self.a(s)), lo, hi,
                                    epsabs=epsabs, epsrel=epsrel, limit=400)
            total += val
            err += e
        if err > 10 * max(epsabs, epsrel * abs(total)):
            raise QuadratureError("integral of a did not meet tolerance", err)
        return total

    def cumulative_integral_a(self, z0: float, zs: np.ndarray) -> np.ndarray:
        """int_{z0}^{z} a for every z in the ascending array zs (panel Gauss)."""
        zs = np.asarray(zs, dtype=float)
        if zs.ndim != 1 or np.any(np.diff(zs) < 0):
            raise ValueError("zs must be an ascending 1-d array")
        return _cumulative_gauss(self.a, z0, zs,
                                 breakpoints=(self.z_star, self.z_switch))

    def slow_scale(self, c: float, z):
        """B(z) = int_z^inf exp(-(1/c) int_z^s a) ds for z >= z_switch.

        The profile equals its tail there, so this is the tail's slow_scale:
        closed forms, or one Gauss-panel pass for iterated-log tails below
        lead; +inf where the integral diverges.
        """
        z_arr = np.asarray(z, dtype=float)
        if np.any(z_arr < self.z_switch - 1e-12):
            raise ValueError("slow_scale is defined for z >= z_switch only")
        out = self.tail.slow_scale(z_arr, c)
        return out if np.ndim(z) else float(out)

    def params_dict(self):
        return {
            "alpha": self.alpha,
            "tail_kind": self.tail.kind,
            "tail_params": asdict(self.tail),
            "transition_center": self.transition_center,
            "transition_width": self.transition_width,
            "z_star": self.z_star,
            "z_switch": self.z_switch,
        }


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_MESH_STEP = 1.0 / 12.0  # panel-mesh step in asinh(z/8)


def _cumulative_gauss(f: Callable, z0: float, zs, breakpoints=()) -> np.ndarray:
    """int_{z0}^{z} f for every z in zs (any order or shape, either side of z0).

    Composite 8-point Gauss panels with edges at z0, at every query point, at
    the breakpoints (blend edges, where higher derivatives jump) and on a
    fixed mesh uniform in asinh(z/8), which keeps every panel narrower than
    about max(1, |z|/8).  The mesh does not depend on the query, so a point's
    value is the same alone and inside any batch, and a span costs
    O(log(z_max/z_min)) panels.  Sums run outward from z0.
    """
    zs = np.asarray(zs, dtype=float)
    lo, hi = min(z0, zs.min()), max(z0, zs.max())
    u = np.arange(math.ceil(math.asinh(lo / 8.0) / _MESH_STEP),
                  math.floor(math.asinh(hi / 8.0) / _MESH_STEP) + 1) * _MESH_STEP
    extra = [p for p in breakpoints if lo < p < hi]
    grid = np.unique(np.concatenate([[z0], zs.ravel(), 8.0 * np.sinh(u), extra]))
    half = 0.5 * np.diff(grid)
    nodes = grid[:-1, None] + half[:, None] * (1.0 + _GAUSS_X)
    panel = (f(nodes) @ _GAUSS_W) * half
    k = np.searchsorted(grid, z0)
    cum = np.concatenate([-np.cumsum(panel[:k][::-1])[::-1], [0.0],
                          np.cumsum(panel[k:])])
    return cum[np.searchsorted(grid, zs)]


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------

class SigmaPair(NamedTuple):
    sigma1: object
    sigma2: object
    real: bool


def sigma(profile: EnvironmentProfile, c: float, z) -> SigmaPair:
    """Characteristic decay rates at z: roots of s^2 + c s + a(z) = 0.

    sigma1 <= -c/2 <= sigma2 < 0 when c^2 >= 4 a(z); otherwise the complex
    pair is returned with real=False.
    """
    a_val = profile.a(z)
    disc = c * c - 4.0 * np.asarray(a_val, dtype=float)
    if np.all(disc >= 0):
        root = np.sqrt(disc)
        s1 = (-c - root) / 2.0
        s2 = (-c + root) / 2.0
        if np.ndim(z) == 0:
            return SigmaPair(float(s1), float(s2), True)
        return SigmaPair(s1, s2, True)
    root = np.sqrt(disc.astype(complex))
    s1 = (-c - root) / 2.0
    s2 = (-c + root) / 2.0
    if np.ndim(z) == 0:
        return SigmaPair(complex(s1), complex(s2), False)
    return SigmaPair(s1, s2, False)


def generalized_eigenvalues(alpha: float, c: float) -> tuple[float, float]:
    """(lambda1, lambda1') for plateau level alpha and speed c.

    lambda1(c) = -alpha + c^2/4 on the whole line; lambda1' equals -alpha for
    c <= 0, lambda1(c) on (0, 2 sqrt(alpha)), and 0 beyond.  Both branches
    agree at the junctions, so the pair is continuous in c.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lam1 = -alpha + c * c / 4.0
    cbar = 2.0 * math.sqrt(alpha)
    if c <= 0:
        lam1p = -alpha
    elif c < cbar:
        lam1p = lam1
    else:
        lam1p = 0.0
    return lam1, lam1p


# ---------------------------------------------------------------------------
# tilde_a
# ---------------------------------------------------------------------------

def sigma1_valid_from(profile: EnvironmentProfile, c: float) -> float:
    """Smallest z >= z_switch with 4 a(z) <= 0.9 c^2.

    Beyond this point the characteristic roots are real with a 10% margin,
    so exponential-shape ansatz evaluations are well defined.
    """
    from scipy.optimize import brentq

    if c <= 0:
        raise ValueError("c must be positive")
    target = 0.9 * c * c / 4.0
    z = profile.z_switch
    if profile.a(z) <= target:
        return z
    hi = z + 1.0
    while profile.a(hi) > target:
        hi = z + (hi - z) * 2.0
        if hi - z > 1e12:
            raise AnsatzUnavailableError("a(z) never drops below c^2/4")
    return float(brentq(lambda s: float(profile.a(s)) - target, z, hi, xtol=1e-10))


def log_tilde_a(profile: EnvironmentProfile, c: float, z0: float, z: float) -> float:
    """log of tilde_a(z) = exp(-(1/c) int_{z0}^z a), quadrature-backed."""
    if c <= 0:
        raise ValueError("c must be positive")
    return -profile.integral_a(z0, z) / c


def tilde_a(profile: EnvironmentProfile, c: float, z0: float, z: float) -> float:
    return math.exp(log_tilde_a(profile, c, z0, z))


def partial_integral_tilde_a(profile: EnvironmentProfile, c: float, z0: float,
                             Z: float) -> float:
    """int_{z0}^{Z} tilde_a, for numeric cross-checks of the L1 decision.

    Computed as tilde_a(z0)=1 times the panel-Gauss cumulative of the
    normalized integrand; stable because the integrand is <= 1 and decreasing.
    """
    n = max(64, int(20 * math.log10(max(Z / max(z0, 1e-6), 10.0)) * 40))
    zs = np.geomspace(max(z0, 1e-6), Z, n) if z0 > 0 else np.linspace(z0, Z, n)
    zs[0], zs[-1] = z0, Z
    log_ta = -profile.cumulative_integral_a(z0, zs) / c
    ta = np.exp(log_ta)
    return float(np.trapezoid(ta, zs))


# ---------------------------------------------------------------------------
# decay ansatz shapes
# ---------------------------------------------------------------------------

class DecayAnsatz:
    """A positive reference decay shape with log-space evaluation.

    Subclasses provide log_value(z) and log_derivative(z), both vectorized;
    value() exponentiates, so evaluators are strictly positive by
    construction.
    """

    tag: str = "base"

    def log_value(self, z):
        raise NotImplementedError

    def log_derivative(self, z):
        raise NotImplementedError

    def value(self, z):
        return np.exp(self.log_value(z))

    def describe(self) -> dict:
        """The tag and every dataclass field except the profile, JSON-ready."""
        d = {"tag": self.tag}
        d.update((f.name, getattr(self, f.name)) for f in fields(self)
                 if f.name != "profile")
        return d


@dataclass(frozen=True)
class PureExp(DecayAnsatz):
    """K * exp(-c (z - z0)); the minimal-wave shape when int a < inf."""

    K: float
    c: float
    z0: float
    tag = "pure_exp"

    def __post_init__(self):
        if self.K <= 0 or self.c <= 0:
            raise ValueError("PureExp needs K > 0 and c > 0")

    def log_value(self, z):
        return math.log(self.K) - self.c * (np.asarray(z, dtype=float) - self.z0)

    def log_derivative(self, z):
        return np.full_like(np.asarray(z, dtype=float), -self.c)


@dataclass(frozen=True)
class Sigma1Int(DecayAnsatz):
    """K * exp(int_{z0}^z sigma1); the exponential (minimal) wave shape."""

    profile: EnvironmentProfile
    c: float
    K: float = 1.0
    z0: Optional[float] = None
    tag = "sigma1"

    def __post_init__(self):
        if self.K <= 0 or self.c <= 0:
            raise ValueError("Sigma1Int needs K > 0 and c > 0")
        z0 = self.z0 if self.z0 is not None else sigma1_valid_from(self.profile, self.c)
        object.__setattr__(self, "z0", float(z0))
        if self.c ** 2 < 4 * self.profile.a(self.z0):
            raise AnsatzUnavailableError(
                "sigma1 is complex at z0; choose z0 where 4 a(z) < c^2")

    def _sigma1(self, z):
        a_val = np.asarray(self.profile.a(z), dtype=float)
        disc = self.c ** 2 - 4.0 * a_val
        if np.any(disc < 0):
            raise AnsatzUnavailableError("sigma1 is complex inside the requested range")
        return (-self.c - np.sqrt(disc)) / 2.0

    def log_value(self, z):
        out = math.log(self.K) + _cumulative_gauss(
            self._sigma1, self.z0, z,
            breakpoints=(self.profile.z_star, self.profile.z_switch))
        return out if np.ndim(z) else float(out)

    def log_derivative(self, z):
        out = self._sigma1(np.asarray(z, dtype=float))
        return out if np.ndim(z) else float(out)


@dataclass(frozen=True)
class TildeA(DecayAnsatz):
    """K * tilde_a(z) with tilde_a normalized to 1 at z0 (default z_switch)."""

    profile: EnvironmentProfile
    c: float
    K: float = 1.0
    z0: Optional[float] = None
    tag = "tilde_a"

    def __post_init__(self):
        if self.K <= 0 or self.c <= 0:
            raise ValueError("TildeA needs K > 0 and c > 0")
        z0 = self.z0 if self.z0 is not None else self.profile.z_switch
        object.__setattr__(self, "z0", float(z0))

    def log_value(self, z):
        z_arr = np.asarray(z, dtype=float)
        tail = self.profile.z_switch - 1e-12
        if self.z0 >= tail and np.all(z_arr >= tail):
            # both ends in the pure tail: closed form
            F = self.profile.tail.antiderivative
            integral = F(z_arr) - float(F(self.z0))
        else:
            integral = _cumulative_gauss(
                self.profile.a, self.z0, z_arr,
                breakpoints=(self.profile.z_star, self.profile.z_switch))
        out = math.log(self.K) - integral / self.c
        return out if np.ndim(z) else float(out)

    def log_derivative(self, z):
        out = -np.asarray(self.profile.a(z), dtype=float) / self.c
        return out if np.ndim(z) else float(out)


@dataclass(frozen=True)
class SlowMaximal(DecayAnsatz):
    """c * tilde_a(z) / int_z^inf tilde_a = c / B(z); the maximal-wave shape.

    Scale-free (no amplitude constant).  Only exists when tilde_a is
    integrable; construction raises otherwise.  Defined for z >= z_switch.
    """

    profile: EnvironmentProfile
    c: float
    tag = "slow_maximal"

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("SlowMaximal needs c > 0")
        if not self.profile.tail.tilde_in_L1(self.c):
            raise AnsatzUnavailableError(
                "int tilde_a diverges for this tail and speed; "
                "the slow maximal shape does not exist")

    def log_value(self, z):
        B = self.profile.slow_scale(self.c, z)
        out = math.log(self.c) - np.log(B)
        return out if np.ndim(z) else float(out)

    def log_derivative(self, z):
        # d/dz log(c tilde_a / b) = -a/c + tilde_a/b = (value - a)/c, exact
        val = np.exp(self.log_value(z))
        out = (val - np.asarray(self.profile.a(z), dtype=float)) / self.c
        return out if np.ndim(z) else float(out)


@dataclass(frozen=True)
class ProfileItself(DecayAnsatz):
    """The resource profile a(z) itself; maximal-wave shape when int a^2 = inf."""

    profile: EnvironmentProfile
    tag = "profile_itself"

    def log_value(self, z):
        return self._exact(z, self.profile.a(z), np.log,
                           lambda t, z: math.log(t.amplitude) - t.kappa * z)

    def log_derivative(self, z):
        a, ap, _ = self.profile.a_jet(z)
        return self._exact(z, a, lambda a: ap / a, lambda t, z: -t.kappa)

    def _exact(self, z, a, of_a, exp_tail):
        """of_a(a) where a(z) is a normal float.  Below the smallest normal,
        where log a and a'/a lose precision, exp_tail(tail, z): the exp
        tail's closed form; any other profile raises AnsatzUnavailableError."""
        z_arr = np.asarray(z, dtype=float)
        low = np.asarray(a) < np.finfo(float).tiny
        tail = self.profile.tail
        closed = isinstance(tail, ExpTail) & (z_arr >= self.profile.z_switch)
        bad = low & ~closed
        if np.any(bad):
            raise AnsatzUnavailableError(
                f"a(z) underflows at z = {float(np.min(z_arr[bad])):g}")
        out = of_a(np.where(low, 1.0, a))
        if np.any(low):
            out = np.where(low, exp_tail(tail, z_arr), out)
        return out if np.ndim(z) else float(out)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

INVENTORY_NONE = "none"
INVENTORY_UNIQUE_EXP = "unique-exponential"
INVENTORY_EXP_PLUS_FAMILY = "exponential-plus-infinitely-many-nonexponential"
INVENTORY_FAMILY_ONLY = "infinitely-many-nonexponential-only"


@dataclass(frozen=True)
class RegimeReport:
    """Classifier output: decay-rate comparison case, integrability case,
    generalized eigenvalues, and the predicted wave inventory."""

    profile: EnvironmentProfile
    c: float
    case_abcd: str
    case_123: str
    lambda1: float
    lambda1_prime: float
    inventory: Optional[str]
    minimal_decay: Optional[DecayAnsatz]
    maximal_decay: Optional[DecayAnsatz]

    def to_dict(self) -> dict:
        d = {
            "c": self.c,
            "case_abcd": self.case_abcd,
            "case_123": self.case_123,
            "lambda1": self.lambda1,
            "lambda1_prime": self.lambda1_prime,
            "inventory": self.inventory,
            "minimal_decay": self.minimal_decay.describe() if self.minimal_decay else None,
            "maximal_decay": self.maximal_decay.describe() if self.maximal_decay else None,
        }
        d.update({f"profile_{k}": v for k, v in self.profile.params_dict().items()})
        return d


def classify(profile: EnvironmentProfile, c: float) -> RegimeReport:
    """Decide the regime of (profile, c) from analytic tail metadata.

    case_abcd compares lim z a(z) with c; case_123 combines integrability of
    a^2 with integrability of tilde_a.  The inventory prediction follows the
    case table: below the speed threshold 2 sqrt(alpha) an exponential
    (minimal) wave exists and is unique; slow (non-exponential) waves exist
    exactly when tilde_a is integrable, and then come as an infinite ordered
    family capped by a maximal wave.
    """
    if c <= 0:
        raise ValueError("classify needs c > 0")
    tail = profile.tail
    za = tail.za_limit
    if za < c * (1 - _REL_EQ):
        case_abcd = "A"
    elif math.isinf(za):
        case_abcd = "D"
    elif abs(za - c) <= _REL_EQ * max(1.0, c):
        case_abcd = "B"
    else:
        case_abcd = "C"  # za > c: the A and B tests cover all of za <= c

    in_l1 = tail.tilde_in_L1(c)
    sq_fin = tail.integral_sq_finite
    if not in_l1:
        case_123 = "1" if sq_fin else "exceptional"
    else:
        case_123 = "2" if sq_fin else "3"

    lam1, lam1p = generalized_eigenvalues(profile.alpha, c)
    cbar = 2.0 * math.sqrt(profile.alpha)
    has_minimal = c < cbar

    minimal = None
    if has_minimal:
        if tail.integral_finite:
            minimal = PureExp(K=1.0, c=c, z0=profile.z_switch)
        else:
            minimal = Sigma1Int(profile=profile, c=c, K=1.0)

    maximal = None
    inventory: Optional[str]
    if case_123 == "1":
        inventory = INVENTORY_UNIQUE_EXP if has_minimal else INVENTORY_NONE
    elif case_123 in ("2", "3"):
        inventory = INVENTORY_EXP_PLUS_FAMILY if has_minimal else INVENTORY_FAMILY_ONLY
        if case_123 == "2":
            maximal = SlowMaximal(profile=profile, c=c)
        else:
            maximal = ProfileItself(profile=profile)
    else:
        inventory = None  # exceptional: no prediction
        minimal = minimal if has_minimal else None

    return RegimeReport(
        profile=profile, c=c, case_abcd=case_abcd, case_123=case_123,
        lambda1=lam1, lambda1_prime=lam1p, inventory=inventory,
        minimal_decay=minimal, maximal_decay=maximal)
