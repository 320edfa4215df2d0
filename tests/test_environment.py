"""Profiles, spectral quantities, decay shapes, and the regime classifier."""

import math

import numpy as np
import pytest

from forcedwaves import environment as env
from forcedwaves.environment import (
    Algebraic,
    AnsatzUnavailableError,
    EnvironmentProfile,
    ExpTail,
    IteratedLog,
    Power,
    ProfileItself,
    PureExp,
    Sigma1Int,
    SlowMaximal,
    TildeA,
    classify,
    generalized_eigenvalues,
    iterated_log,
    sigma1_valid_from,
)
from forcedwaves.wavesolver import SolverConfig


def tilde_a_quad(profile, c, z0, z):
    """exp(-(1/c) int_{z0}^{z} a) by adaptive quadrature: an independent
    reference for TildeA, which integrates by closed forms and Gauss panels."""
    return math.exp(-profile.integral_a(z0, z) / c)


def partial_integral_tilde_a(profile, c, z0, Z):
    """int_{z0}^{Z} tilde_a by the trapezoid rule on a log-spaced grid, for
    numeric cross-checks of the L1 decision; the integrand is <= 1 and
    decreasing, so the sum is stable."""
    n = max(64, int(20 * math.log10(max(Z / max(z0, 1e-6), 10.0)) * 40))
    zs = np.geomspace(max(z0, 1e-6), Z, n) if z0 > 0 else np.linspace(z0, Z, n)
    zs[0], zs[-1] = z0, Z
    return float(np.trapezoid(TildeA(profile, c, z0=z0).value(zs), zs))


# ---------------------------------------------------------------------------
# profile construction and evaluation


class TestProfileGeometry:
    def test_blend_edges(self, exp2):
        assert exp2.z_star == 0.0
        assert exp2.z_switch == 8.0

    def test_plateau_is_exact(self, exp2):
        assert exp2.a(-5.0) == 1.0
        assert exp2.a(0.0) == 1.0  # left edge included

    def test_pure_tail_is_exact(self, exp2, alg3, pow2, itlog):
        # beyond z_switch the profile equals the tail formula, no blend residue
        assert exp2.a(20.0) == math.exp(-40.0)
        assert alg3.a(100.0) == 3.0 / 100.0
        assert pow2.a(1.0e4) == 2.0 * (1.0e4) ** -0.5
        z = 1.0e4
        assert itlog.a(z) == pytest.approx(1.0 / z + 2.0 / (z * math.log(z)), rel=1e-15)

    @pytest.mark.parametrize("fixture", ["exp2", "alg3", "pow2", "itlog"])
    def test_bounded_positive_nonincreasing(self, fixture, request):
        p = request.getfixturevalue(fixture)
        zs = np.linspace(p.z_star - 3.0, p.z_switch + 50.0, 4001)
        a = p.a(zs)
        assert np.all(a > 0)
        assert np.all(a <= p.alpha + 1e-15)
        assert np.all(np.diff(a) <= 1e-15)

    def test_scalar_in_scalar_out(self, alg3):
        assert isinstance(alg3.a(5.0), float)
        assert all(isinstance(v, float) for v in alg3.a_jet(5.0))
        out = alg3.a(np.array([5.0, 6.0]))
        assert out.shape == (2,)

    def test_rejects_bad_alpha_and_width(self):
        with pytest.raises(ValueError):
            EnvironmentProfile(0.0, ExpTail(kappa=1.0), 4.0, 4.0)
        with pytest.raises(ValueError):
            EnvironmentProfile(1.0, ExpTail(kappa=1.0), 4.0, 0.0)

    def test_rejects_tail_above_alpha_at_blend_start(self):
        # 3/z = 30 > alpha at z_star = 0.1
        with pytest.raises(ValueError, match="exceeds alpha"):
            EnvironmentProfile(1.0, Algebraic(gamma=3.0), 1.0, 0.9)

    def test_rejects_blend_inside_undefined_region(self):
        # iterated log needs z > e; z_star = 1 is too far left
        with pytest.raises(ValueError, match="undefined region"):
            EnvironmentProfile(1.0, IteratedLog(k=1, r=2.0, lead=1.0), 2.0, 1.0)

    def test_tail_parameter_validation(self):
        with pytest.raises(ValueError):
            ExpTail(kappa=-1.0)
        with pytest.raises(ValueError):
            Algebraic(gamma=0.0)
        with pytest.raises(ValueError):
            Power(gamma=1.0, p=1.0)
        with pytest.raises(ValueError):
            IteratedLog(k=0, r=1.0, lead=1.0)

    # a check written x <= 0 lets NaN through; every one of these was
    # accepted before
    @pytest.mark.parametrize("build", [
        lambda: EnvironmentProfile(math.nan, ExpTail(kappa=2.0), 4.0, 4.0),
        lambda: EnvironmentProfile(math.inf, ExpTail(kappa=2.0), 4.0, 4.0),
        lambda: EnvironmentProfile(1.0, ExpTail(kappa=2.0), math.nan, 4.0),
        lambda: EnvironmentProfile(1.0, ExpTail(kappa=2.0), 4.0, math.nan),
        lambda: ExpTail(kappa=math.nan),
        lambda: ExpTail(kappa=math.inf),
        lambda: ExpTail(kappa=2.0, amplitude=math.nan),
        lambda: Algebraic(math.nan),
        lambda: Algebraic(math.inf),
        lambda: Power(math.nan, 0.5),
        lambda: IteratedLog(1, math.nan, 1.0),
        lambda: IteratedLog(1, 2.0, math.inf),
        lambda: SolverConfig(L=math.inf, N=8001),
    ], ids=["alpha-nan", "alpha-inf", "center-nan", "width-nan", "kappa-nan",
            "kappa-inf", "amplitude-nan", "algebraic-gamma-nan",
            "algebraic-gamma-inf", "power-gamma-nan", "itlog-r-nan",
            "itlog-lead-inf", "solver-L-inf"])
    def test_non_finite_parameters_are_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestProfileDerivatives:
    @pytest.mark.parametrize("fixture", ["exp2", "alg3", "pow2", "itlog", "itlog2"])
    def test_a_d1_matches_central_difference(self, fixture, request):
        p = request.getfixturevalue(fixture)
        zs = np.linspace(p.z_star - 5.0, p.z_switch + 40.0, 3001)
        h = 1e-5
        fd = (p.a(zs + h) - p.a(zs - h)) / (2 * h)
        a, ap, _ = p.a_jet(zs)
        assert np.array_equal(a, p.a(zs))
        assert np.max(np.abs(fd - ap)) < 5e-9

    @pytest.mark.parametrize("fixture", ["exp2", "alg3", "pow2", "itlog", "itlog2"])
    def test_a_d2_matches_central_difference(self, fixture, request):
        p = request.getfixturevalue(fixture)
        zs = np.linspace(p.z_star - 5.0, p.z_switch + 40.0, 3001)
        h = 1e-4
        fd = (p.a(zs + h) - 2 * p.a(zs) + p.a(zs - h)) / h**2
        assert np.max(np.abs(fd - p.a_jet(zs)[2])) < 1e-5

    @pytest.mark.parametrize("tail", [
        ExpTail(kappa=2.0), Algebraic(gamma=3.0), Power(gamma=1.3, p=0.8),
        IteratedLog(k=1, r=2.0, lead=1.0), IteratedLog(k=2, r=2.8, lead=1.0)],
        ids=["exp", "alg", "pow", "itlog1", "itlog2"])
    def test_tail_jet_matches_difference_quotients(self, tail):
        # pointwise relative bounds: the profile tests' absolute bounds cannot
        # see the ~1% correction sum in an iterated-log a''
        zs = np.linspace(1.0, 8.0, 41) if tail.kind == "exp" else np.geomspace(40.0, 4e3, 41)
        h = 1e-4 * zs
        v, d1, d2 = tail.jet(zs)
        assert np.array_equal(v, tail.value(zs))
        fd1 = (tail.value(zs + h) - tail.value(zs - h)) / (2 * h)
        fd2 = (tail.value(zs + h) - 2 * v + tail.value(zs - h)) / h**2
        assert np.all(np.abs(fd1 - d1) <= 1e-5 * np.abs(d1))
        assert np.all(np.abs(fd2 - d2) <= 1e-5 * np.abs(d2))

    def test_derivatives_vanish_on_plateau(self, exp2):
        assert exp2.a_jet(-2.0)[1:] == (0.0, 0.0)


class TestScalarPathBitIdentity:
    """The value-only path avoids np.clip and np.stack, which dominate a 0-d
    evaluation; its results must not move by a bit."""

    EDGES = [-0.5, -0.0, 0.0, 0.3, 1.0, np.nextafter(1.0, 2.0), 7.0, -np.inf, np.inf, np.nan]

    @pytest.mark.parametrize("x", [*EDGES, np.array(EDGES)], ids=[*map(str, EDGES), "array"])
    def test_smoothstep_clamp_equals_np_clip(self, x):
        xc = np.clip(x, 0.0, 1.0)
        ref = xc ** 4 * (35.0 + xc * (-84.0 + xc * (70.0 - 20.0 * xc)))
        out = env._smoothstep(x)
        assert np.shape(out) == np.shape(ref)
        assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iterated_log_value_equals_stacked_products(self, k):
        tail = IteratedLog(k=k, r=2.5, lead=1.0)
        zs = np.geomspace(tail.z_min * 1.001, 1e12, 2001)
        for z in [zs, zs[0], zs[1000], 397.3 if k < 3 else 4e6]:
            z = np.asarray(z, dtype=float)
            P = env._log_products(k, z)
            ref = np.zeros_like(z)
            for j, cj in enumerate(tail._coeffs()):
                ref += cj / (z * P[j])
            out = tail.value(z)
            assert np.shape(out) == np.shape(ref)
            assert np.asarray(out).tobytes() == ref.tobytes()


class TestProfileValueBranches:
    """a(z) skips the blend where the smoothstep is exactly 0 or 1; every
    value must keep the bits of the full formula alpha (1 - s) + t s."""

    @staticmethod
    def _edge_points(p):
        pts = [p.z_star, p.z_switch]
        for z in (p.z_star, p.z_switch):
            pts += [np.nextafter(z, -np.inf), np.nextafter(z, np.inf)]
        return [*map(float, pts), -np.inf, np.inf, np.nan]

    @pytest.mark.parametrize("fixture", ["exp2", "alg3", "pow2", "itlog", "uneven"])
    def test_bits_equal_blend_formula(self, fixture, request, blend_formula):
        if fixture == "uneven":
            # z_switch - z_star = 0.6000000000000001 != 2 * width: x rounds
            # past 1 at z_switch and below 1 one ulp left of it
            p = EnvironmentProfile(1.0, ExpTail(kappa=2.0), 1.1, 0.3)
            assert p.z_switch - p.z_star != 2.0 * p.transition_width
        else:
            p = request.getfixturevalue(fixture)
        pts = self._edge_points(p)
        inner = np.linspace(p.z_star, p.z_switch, 201)[1:-1]
        for z in [*pts, *map(float, inner)]:
            out, ref = p.a(z), blend_formula(p, z)
            assert isinstance(out, float)
            assert np.float64(out).tobytes() == np.float64(ref).tobytes(), z
        zs = np.array(pts)
        for arr in (zs, zs[::-1], np.linspace(p.z_star - 1.0, p.z_switch + 1.0, 4001)):
            out, ref = p.a(arr), blend_formula(p, arr)
            assert out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()


class TestProfileIntegrals:
    def test_integral_matches_closed_form_on_tail(self, exp2):
        closed = (math.exp(-16.0) - math.exp(-40.0)) / 2.0
        assert exp2.integral_a(8.0, 20.0) == pytest.approx(closed, rel=1e-10)

    def test_integral_matches_log_on_algebraic_tail(self, alg3):
        assert alg3.integral_a(12.0, 120.0) == pytest.approx(3.0 * math.log(10.0), abs=1e-12)

    def test_integral_is_antisymmetric(self, exp2):
        assert exp2.integral_a(20.0, 8.0) == -exp2.integral_a(8.0, 20.0)

    def test_cumulative_matches_adaptive(self, alg3):
        zs = np.array([13.0, 20.0, 57.0, 300.0])
        cum = env._cumulative_gauss(alg3.a, 12.0, zs,
                                    breakpoints=(alg3.z_star, alg3.z_switch))
        direct = np.array([alg3.integral_a(12.0, float(z)) for z in zs])
        assert np.max(np.abs(cum - direct)) < 1e-5


class TestSlowScale:
    def test_algebraic_closed_form(self, alg3):
        # B(z) = c z / (gamma - c) exactly in the pure tail
        assert alg3.slow_scale(1.0, 20.0) == pytest.approx(10.0, rel=1e-14)

    def test_iterated_log_critical_closed_form(self, itlog):
        # lead == c: B(z) = c z ln z / (r - c)
        assert itlog.slow_scale(1.0, 100.0) == pytest.approx(
            100.0 * math.log(100.0), rel=1e-13)

    def test_power_matches_quadrature(self, pow2):
        from scipy import integrate

        z = 30.0
        val, _ = integrate.quad(
            lambda s: math.exp(-pow2.integral_a(z, s)), z, 2000.0,
            epsabs=1e-12, epsrel=1e-10, limit=800)
        assert pow2.slow_scale(1.0, z) == pytest.approx(val, rel=1e-10)

    def test_power_smooth_across_series_switchover(self, pow2):
        # the incomplete-gamma evaluation changes method around v = 350
        # (z ~ 7656 here); a glitch would show up as a spike in the second
        # difference of log B
        zs = np.linspace(7000.0, 8500.0, 151)
        logb = np.log(pow2.slow_scale(1.0, zs))
        assert np.max(np.abs(np.diff(logb, 2))) < 1e-4

    def test_divergent_cases_return_inf(self, exp2, alg05):
        assert exp2.slow_scale(1.0, 10.0) == math.inf
        assert alg05.slow_scale(1.0, 20.0) == math.inf

    def test_requires_tail_region(self, alg3):
        with pytest.raises(ValueError, match="z_switch"):
            alg3.slow_scale(1.0, 5.0)

    # iterated-log tails below lead: no closed form, one panel pass per call

    @staticmethod
    def _mp_slow_scale(tail, z, c):
        # B(z) = z int_{ln z}^inf exp(t - ln z - (F(e^t) - F(z))/c) dt at 30 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            coeffs = [mp.mpf(tail.lead)] * tail.k + [mp.mpf(tail.r)]
            c = mp.mpf(c)

            def F(t):  # tail antiderivative at e^t
                out, cur = 0, t
                for cj in coeffs:
                    out += cj * cur
                    cur = mp.log(cur)
                return out

            t0 = mp.log(mp.mpf(z))
            d = mp.mpf(tail.lead) / c - 1
            pts = sorted({t0 + x for x in (0, 1, 1 / d, 10 / d)}) + [mp.inf]
            return float(z * mp.quad(lambda t: mp.exp(t - t0 - (F(t) - F(t0)) / c), pts))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("c", [0.2, 0.6, 0.9, 0.99])
    def test_iterated_log_below_lead_matches_mpmath(self, k, c):
        tail = IteratedLog(k=k, r=2.0, lead=1.0)
        zs = np.array([25.0, 200.0, 3200.0, 51200.0, 204800.0])
        got = tail.slow_scale(zs, c)
        ref = np.array([self._mp_slow_scale(tail, z, c) for z in zs])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-12

    def test_iterated_log_below_lead_shapes_and_duplicates(self):
        tail = IteratedLog(k=1, r=2.0, lead=1.0)
        z = np.array([900.0, 25.0, 4000.0, 25.0, 130.0, 900.0])
        out = tail.slow_scale(z, 0.6)
        # one pass over the sorted unique points, mapped back
        uniq = tail.slow_scale(np.array([25.0, 130.0, 900.0, 4000.0]), 0.6)
        assert out.shape == z.shape
        np.testing.assert_array_equal(out, uniq[[2, 0, 3, 0, 1, 2]])
        np.testing.assert_array_equal(tail.slow_scale(z.reshape(2, 3), 0.6),
                                      out.reshape(2, 3))
        scalars = [tail.slow_scale(float(zi), 0.6) for zi in z]
        assert all(isinstance(b, float) for b in scalars)
        # the panel edges depend on the other points: equal to rounding only
        np.testing.assert_allclose(out, scalars, rtol=1e-13, atol=0.0)

    def test_iterated_log_near_lead_is_finite_and_increasing(self):
        tail = IteratedLog(k=1, r=2.0, lead=1.0)
        B = tail.slow_scale(np.linspace(25.0, 225.0, 1001), 1.0 - 1e-6)
        assert np.all(np.isfinite(B)) and np.all(B > 0)
        assert np.all(np.diff(B) > 0)
        # continuous into the critical closed form c z ln z / (r - c)
        assert B[0] == pytest.approx(25.0 * math.log(25.0), rel=1e-4)

    def test_iterated_log_below_lead_makes_no_quad_call(self, monkeypatch):
        calls = []
        quad = env.integrate.quad

        def counted_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(env.integrate, "quad", counted_quad)
        B = IteratedLog(k=1, r=2.0, lead=1.0).slow_scale(np.linspace(25.0, 225.0, 1001), 0.6)
        assert B.shape == (1001,)
        assert calls == []


# ---------------------------------------------------------------------------
# spectral quantities


class TestSigma1ValidFrom:
    def test_hits_margin_level(self, alg3):
        z = sigma1_valid_from(alg3, 1.0)
        assert z == pytest.approx(40.0 / 3.0, abs=1e-8)  # 3/z = 0.9/4
        assert alg3.a(z) == pytest.approx(0.225, abs=1e-8)

    def test_returns_switch_when_already_valid(self, exp2):
        assert sigma1_valid_from(exp2, 3.0) == 8.0

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_rejects_nonpositive_speed(self, exp2, c):
        # c = -1 used to return z_switch and c = 0 to blame a margin
        with pytest.raises(ValueError, match="c must be positive"):
            sigma1_valid_from(exp2, c)


class TestGeneralizedEigenvalues:
    @pytest.mark.parametrize(
        "alpha,c,lam1,lam1p",
        [(1.0, 2.0, 0.0, 0.0), (1.0, 0.0, -1.0, -1.0), (4.0, 5.0, 2.25, 0.0)],
    )
    def test_reference_values(self, alpha, c, lam1, lam1p):
        got = generalized_eigenvalues(alpha, c)
        assert got[0] == pytest.approx(lam1, abs=1e-15)
        assert got[1] == pytest.approx(lam1p, abs=1e-15)

    def test_lambda1_formula(self):
        for c in np.linspace(-1.0, 4.0, 21):
            lam1, _ = generalized_eigenvalues(2.0, float(c))
            assert lam1 == pytest.approx(-2.0 + c * c / 4.0, rel=1e-15)

    def test_prime_branch_continuity(self):
        # both branch junctions (c=0 and c=2 sqrt(alpha)) are continuous:
        # the jump across the junction is bounded by the local slope ~ eps
        alpha = 1.0
        cbar = 2.0
        for eps in (1e-6, 1e-9):
            lo = generalized_eigenvalues(alpha, cbar - eps)[1]
            hi = generalized_eigenvalues(alpha, cbar + eps)[1]
            assert abs(lo - hi) <= 2.0 * eps
            lo = generalized_eigenvalues(alpha, -eps)[1]
            hi = generalized_eigenvalues(alpha, eps)[1]
            assert abs(lo - hi) <= 2.0 * eps

    def test_prime_never_above_zero_or_below_minus_alpha(self):
        for c in np.linspace(-2.0, 5.0, 71):
            _, lam1p = generalized_eigenvalues(1.5, float(c))
            assert -1.5 - 1e-15 <= lam1p <= 0.0

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            generalized_eigenvalues(0.0, 1.0)


# ---------------------------------------------------------------------------
# tilde_a and its partial integrals


class TestTildeA:
    def test_closed_form_exponential_tail(self, exp2):
        closed = math.exp(-(math.exp(-16.0) - math.exp(-40.0)) / 2.0)
        assert tilde_a_quad(exp2, 1.0, 8.0, 20.0) == pytest.approx(closed, rel=1e-12)

    def test_closed_form_algebraic_tail(self, alg3):
        # exp(-gamma ln(z/z0) / c) = (z/z0)^(-gamma/c)
        assert tilde_a_quad(alg3, 1.0, 12.0, 100.0) == pytest.approx(
            (100.0 / 12.0) ** -3.0, rel=1e-12)

    def test_normalized_at_anchor(self, alg3):
        assert float(TildeA(alg3, 1.0, z0=12.0).value(12.0)) == 1.0

    def test_rejects_nonpositive_speed(self, alg3):
        with pytest.raises(ValueError):
            TildeA(alg3, 0.0, z0=12.0)

    def test_partial_integral_converges_when_integrable(self, alg3):
        # int_{z0}^inf (s/z0)^(-3) ds = z0/2 = 6
        got = partial_integral_tilde_a(alg3, 1.0, 12.0, 1.2e4)
        assert got == pytest.approx(6.0, abs=1e-3)

    def test_partial_integral_grows_when_not_integrable(self, alg05):
        p2 = partial_integral_tilde_a(alg05, 1.0, 12.0, 1e2)
        p4 = partial_integral_tilde_a(alg05, 1.0, 12.0, 1e4)
        assert p4 > 10.0 * p2

    def test_iterated_log_decade_increments_separate_cases(self, itlog):
        # same lead, same speed; only r decides integrability.  Successive
        # decade contributions shrink fast iff tilde_a is integrable.
        it_div = EnvironmentProfile(1.0, IteratedLog(k=1, r=0.5, lead=1.0), 15.0, 10.0)

        def decade_ratio(prof):
            z0 = prof.z_switch
            vals = [partial_integral_tilde_a(prof, 1.0, z0, z0 * 10.0**k)
                    for k in (1, 2, 3)]
            incs = [vals[0], vals[1] - vals[0], vals[2] - vals[1]]
            return incs[2] / incs[0]

        assert decade_ratio(itlog) < 0.35      # measured 0.224
        assert decade_ratio(it_div) > 0.55     # measured 0.693


def test_iterated_log_helper():
    assert iterated_log(0, 5.0) == 5.0
    assert iterated_log(2, math.exp(math.e)) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# decay ansatz shapes


ANSATZ_BUILDERS = {
    "pure_exp": lambda p: PureExp(K=1.0, c=1.0, z0=p["exp2"].z_switch),
    "sigma1": lambda p: Sigma1Int(profile=p["alg3"], c=1.0),
    "tilde_a": lambda p: TildeA(profile=p["alg3"], c=1.0),
    "slow_maximal": lambda p: SlowMaximal(profile=p["alg3"], c=1.0),
    "profile_itself": lambda p: ProfileItself(profile=p["pow2"]),
}


@pytest.fixture(scope="module")
def ansatz_zoo(exp2, alg3, pow2):
    profs = {"exp2": exp2, "alg3": alg3, "pow2": pow2}
    return {tag: build(profs) for tag, build in ANSATZ_BUILDERS.items()}


class TestAnsatzShapes:
    @pytest.mark.parametrize("tag", list(ANSATZ_BUILDERS))
    def test_positive_and_decreasing(self, tag, ansatz_zoo):
        fn = ansatz_zoo[tag]
        zs = np.linspace(30.0, 120.0, 400)
        vals = fn.value(zs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("tag", list(ANSATZ_BUILDERS))
    def test_log_derivative_matches_difference_quotient(self, tag, ansatz_zoo):
        fn = ansatz_zoo[tag]
        zs = np.linspace(30.0, 120.0, 97)
        h = 1e-4
        # one interleaved evaluation so quadrature-backed shapes reuse the
        # same panel boundaries for z-h and z+h
        both = np.column_stack([zs - h, zs + h]).ravel()
        vals = fn.log_value(both).reshape(-1, 2)
        fd = (vals[:, 1] - vals[:, 0]) / (2 * h)
        assert np.max(np.abs(fd - fn.log_derivative(zs))) < 1e-8

    def test_pure_exp_closed_form(self):
        fn = PureExp(K=2.0, c=1.5, z0=3.0)
        assert fn.log_value(10.0) == pytest.approx(math.log(2.0) - 1.5 * 7.0, rel=1e-15)
        assert fn.log_derivative(10.0) == -1.5

    def test_sigma1_anchored_at_z0(self, alg3):
        fn = Sigma1Int(profile=alg3, c=1.0, K=3.0)
        assert fn.log_value(fn.z0) == pytest.approx(math.log(3.0), abs=1e-12)
        # below the anchor the cumulative runs backward
        assert fn.log_value(fn.z0 - 0.5) > fn.log_value(fn.z0)

    def test_sigma1_unavailable_on_plateau(self, exp2):
        with pytest.raises(AnsatzUnavailableError):
            Sigma1Int(profile=exp2, c=1.0, z0=-5.0)

    def test_tilde_a_matches_module_function(self, alg3):
        fn = TildeA(profile=alg3, c=1.0, K=2.0)
        want = 2.0 * tilde_a_quad(alg3, 1.0, alg3.z_switch, 40.0)
        assert float(fn.value(40.0)) == pytest.approx(want, rel=1e-10)

    def test_slow_maximal_z_value_limit(self, alg3):
        # z * value -> gamma - c for the algebraic tail
        fn = SlowMaximal(profile=alg3, c=1.0)
        assert 1e6 * float(fn.value(1e6)) == pytest.approx(2.0, rel=1e-12)

    def test_slow_maximal_unavailable_when_not_integrable(self, exp2, alg05):
        with pytest.raises(AnsatzUnavailableError):
            SlowMaximal(profile=exp2, c=1.0)
        with pytest.raises(AnsatzUnavailableError):
            SlowMaximal(profile=alg05, c=1.0)

    def test_profile_itself_tracks_a(self, pow2):
        fn = ProfileItself(profile=pow2)
        assert float(fn.value(50.0)) == pytest.approx(pow2.a(50.0), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_profile_itself_past_underflow_uses_exp_closed_form(self, exp2):
        # a = e^{-2z}: subnormal at z = 370, zero from z ~ 373 on
        fn = ProfileItself(profile=exp2)
        z = np.array([300.0, 370.0, 380.0, 400.0])
        assert list(fn.log_value(z)) == [-600.0, -740.0, -760.0, -800.0]
        assert list(fn.log_derivative(z)) == [-2.0] * 4
        assert fn.log_value(400.0) == -800.0
        assert fn.log_derivative(370.0) == -2.0

    @pytest.mark.filterwarnings("error")
    def test_profile_itself_underflow_without_closed_form_raises(self):
        # gamma / z is subnormal at z = 1e10
        prof = EnvironmentProfile(1.0, Algebraic(gamma=1e-300), 8.0, 4.0)
        fn = ProfileItself(profile=prof)
        for method in (fn.log_value, fn.log_derivative):
            with pytest.raises(AnsatzUnavailableError, match="z = 1e\\+10"):
                method(np.array([50.0, 1e10]))

    @pytest.mark.parametrize("tag", list(ANSATZ_BUILDERS))
    def test_float_for_a_scalar_array_for_an_array(self, tag, ansatz_zoo):
        fn = ansatz_zoo[tag]
        zs = np.linspace(30.0, 120.0, 6).reshape(2, 3)
        for method in (fn.log_value, fn.log_derivative, fn.value):
            one, many = method(float(zs[1, 2])), method(zs)
            assert isinstance(one, float)
            assert isinstance(many, np.ndarray) and many.shape == zs.shape
            assert many[1, 2] == pytest.approx(one, rel=1e-12)


TAIL_FIXTURES = ["exp2", "alg3", "pow2", "itlog"]


def _ansatz_points(p):
    # both sides of the anchor and across the blend [z_star, z_switch]
    return np.array([400.0, p.z_star - 3.0, 0.5 * (p.z_star + p.z_switch),
                     p.z_switch + 3.0, 40.0, p.z_star + 0.5])


class TestAnsatzIntegrals:
    """Sigma1Int and TildeA off the pure tail: one panel pass, no quad."""

    @pytest.mark.parametrize("fixture", TAIL_FIXTURES)
    def test_sigma1_matches_quad(self, fixture, request):
        from scipy import integrate

        p = request.getfixturevalue(fixture)
        # c = 2.2 > 2 sqrt(alpha): sigma1 is real everywhere, z0 = z_switch
        fn = Sigma1Int(profile=p, c=2.2)
        zs = _ansatz_points(p)
        want = []
        for z in zs:
            # quad on sigma1 + c, which decays, plus the exact -c (z - z0)
            lo, hi = sorted((fn.z0, float(z)))
            pts = [lo] + [b for b in (p.z_star, p.z_switch) if lo < b < hi] + [hi]
            rest = sum(integrate.quad(lambda s: float(fn._sigma1(s)) + 2.2, a, b,
                                      epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                       for a, b in zip(pts[:-1], pts[1:]))
            want.append(-2.2 * (z - fn.z0) + (rest if z > fn.z0 else -rest))
        assert np.max(np.abs(fn.log_value(zs) - np.array(want))) < 1e-10

    @pytest.mark.parametrize("fixture", TAIL_FIXTURES)
    def test_tilde_a_matches_integral_a(self, fixture, request):
        p = request.getfixturevalue(fixture)
        fn = TildeA(profile=p, c=1.0, K=2.0, z0=p.z_star)
        zs = _ansatz_points(p)
        want = [math.log(2.0) - p.integral_a(p.z_star, float(z), epsabs=1e-13,
                                             epsrel=1e-13) for z in zs]
        assert np.max(np.abs(fn.log_value(zs) - np.array(want))) < 1e-10

    @pytest.mark.parametrize("fixture", TAIL_FIXTURES)
    def test_value_does_not_depend_on_batch(self, fixture, request):
        p = request.getfixturevalue(fixture)
        zs = _ansatz_points(p)
        minimal = Sigma1Int(profile=p, c=1.0)  # defined from z0 on only
        for fn, pts in [(minimal, minimal.z0 + np.array([400.0, 1.0, 20.0, 100.0])),
                        (Sigma1Int(profile=p, c=2.2), zs),
                        (TildeA(profile=p, c=1.0, z0=p.z_star), zs),
                        (TildeA(profile=p, c=1.0), zs)]:
            alone = np.array([fn.log_value(float(z)) for z in pts])
            assert np.max(np.abs(fn.log_value(pts) - alone)) <= 1e-12

    def test_no_quad_calls(self, alg3, monkeypatch):
        calls = []
        real_quad = env.integrate.quad
        monkeypatch.setattr(env.integrate, "quad",
                            lambda *a, **k: calls.append(1) or real_quad(*a, **k))
        zs = _ansatz_points(alg3)
        Sigma1Int(profile=alg3, c=2.2).log_value(zs)
        TildeA(profile=alg3, c=1.0).log_value(zs)
        TildeA(profile=alg3, c=1.0, z0=alg3.z_star).log_value(zs)
        assert calls == []

    def test_far_point_is_cheap(self, alg3):
        import time

        fn = Sigma1Int(profile=alg3, c=1.0)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            fn.log_value(1e9)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.01


# ---------------------------------------------------------------------------
# classifier


GOLDEN_REGIMES = [
    # (fixture, c, case_abcd, case_123, inventory)
    ("exp2", 1.0, "A", "1", "unique-exponential"),
    ("exp2", 2.4, "A", "1", "none"),
    ("alg3", 1.0, "C", "2", "exponential-plus-infinitely-many-nonexponential"),
    ("alg3", 2.4, "C", "2", "infinitely-many-nonexponential-only"),
    ("alg3", 4.0, "A", "1", "none"),
    ("alg05", 1.0, "A", "1", "unique-exponential"),
    ("alg05", 3.0, "A", "1", "none"),
    ("pow2", 1.0, "D", "3", "exponential-plus-infinitely-many-nonexponential"),
    ("pow2", 2.4, "D", "3", "infinitely-many-nonexponential-only"),
    ("itlog", 1.0, "B", "2", "exponential-plus-infinitely-many-nonexponential"),
    ("itlog", 2.4, "A", "1", "none"),
]


class TestClassifier:
    @pytest.mark.parametrize("fixture,c,abcd,onetwothree,inventory", GOLDEN_REGIMES)
    def test_golden_regimes(self, fixture, c, abcd, onetwothree, inventory, request):
        p = request.getfixturevalue(fixture)
        r = classify(p, c)
        assert r.case_abcd == abcd
        assert r.case_123 == onetwothree
        assert r.inventory == inventory

    def test_critical_line_with_subcritical_r(self):
        # lead == c keeps case B, but r < c makes tilde_a non-integrable
        p = EnvironmentProfile(1.0, IteratedLog(k=1, r=0.5, lead=1.0), 15.0, 10.0)
        r = classify(p, 1.0)
        assert (r.case_abcd, r.case_123, r.inventory) == ("B", "1", "unique-exponential")

    def test_minimal_shape_by_tail_integrability(self, exp2, alg3):
        # finite int a -> plain exponential; otherwise sigma1 integral
        assert isinstance(classify(exp2, 1.0).minimal_decay, PureExp)
        assert isinstance(classify(alg3, 1.0).minimal_decay, Sigma1Int)

    def test_maximal_shape_by_case(self, alg3, pow2):
        assert isinstance(classify(alg3, 1.0).maximal_decay, SlowMaximal)
        assert isinstance(classify(pow2, 1.0).maximal_decay, ProfileItself)

    def test_no_minimal_at_or_above_threshold(self, alg3):
        r = classify(alg3, 2.0)  # c = 2 sqrt(alpha) exactly
        assert r.minimal_decay is None
        assert r.inventory == "infinitely-many-nonexponential-only"

    def test_inventory_table_over_algebraic_grid(self):
        # inventory must follow (c vs 2 sqrt(alpha)) x (gamma vs c) exactly
        for gamma in (0.3, 0.8, 1.5, 2.5, 4.0):
            for c in (0.4, 1.0, 1.7, 2.0, 2.8):
                p = EnvironmentProfile(1.0, Algebraic(gamma=gamma), 8.0 + 2 * gamma, 4.0)
                r = classify(p, c)
                has_min = c < 2.0
                has_family = gamma > c * (1 + 1e-12)
                if has_family:
                    want = ("exponential-plus-infinitely-many-nonexponential"
                            if has_min else "infinitely-many-nonexponential-only")
                else:
                    want = "unique-exponential" if has_min else "none"
                assert r.inventory == want, (gamma, c)
                assert (r.minimal_decay is not None) == has_min
                assert (r.maximal_decay is not None) == has_family

    def test_eigenvalues_in_report(self, exp2):
        r = classify(exp2, 1.0)
        assert r.lambda1 == pytest.approx(-0.75)
        assert r.lambda1_prime == pytest.approx(-0.75)

    def test_rejects_nonpositive_speed(self, alg3):
        with pytest.raises(ValueError):
            classify(alg3, 0.0)
