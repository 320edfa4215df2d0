"""Hand-built sub/super-solutions and the residual sign checker.

Every construction returns a ComparisonFunction whose residual
u'' + c u' + u (a - u) must be >= 0 (sub) or <= 0 (super) on its support;
residual_sign_check samples the support and certifies the sign with an
explicit tolerance.  These objects are the trusted side of the acceptance
checks, so the tests here lean on closed-form facts and adversarial cases
rather than on the solver.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from forcedwaves import oracles as orc
from forcedwaves.environment import EnvironmentProfile, IteratedLog
from forcedwaves.oracles import ConstructionError


def _check(fn, **kw):
    return orc.residual_sign_check(fn, **kw)


def _walk_z_M(profile, c, tail):
    """(A, M, z_M) of the slow sub-solutions by the plain walk: M doubles
    from 2.5 A/c until its root of M b(z) = 1 has a(z_M) <= c^2/6, and A
    halves while that root lies past the horizon."""
    if not tail.tilde_in_L1(c):
        raise ConstructionError("int tilde_a diverges: no slow sub-solution exists")
    z0 = profile.z_switch
    F0 = float(tail.antiderivative(z0))

    def log_b(z):
        lt = -(np.asarray(tail.antiderivative(z), dtype=float) - F0) / c
        return float(lt + np.log(tail.slow_scale(z, c)))

    def probe(Mv):
        if log_b(z0) <= -math.log(Mv):
            return None
        hi = 2.0 * z0
        while log_b(hi) > -math.log(Mv):
            hi *= 2.0
            if hi > 1e12:
                return math.inf
        zM = float(orc.brentq(lambda s: log_b(s) + math.log(Mv), z0, hi, xtol=1e-12))
        return zM if float(tail.value(zM)) <= c * c / 6.0 else None

    A = 1.0
    for _ in range(60):
        Mv = 2.5 * A / c
        for _ in range(80):
            zM = probe(Mv)
            if zM is not None:
                break
            Mv *= 2.0
        if zM is not None and zM != math.inf:
            return A, Mv, zM
        A /= 2.0
    raise ConstructionError("could not locate a usable z_M at any amplitude")


# ---------------------------------------------------------------------------
# the nine construction kinds on their home profiles


def _constructions(exp2, alg3, pow2):
    return [
        orc.cos_bump_sub(1.0, 1.0, exp2),
        orc.exp_super(1.0, 1.0, 0.5, exp2),
        orc.alpha_super(exp2, 1.0),
        orc.slow_sub(alg3, 1.0),
        orc.sub2_slow(alg3, 1.0),
        orc.g1_sub(alg3, 1.0),
        orc.alg_super(alg3, 1.0),
        orc.profile_band_sub(pow2, 1.0),
        orc.profile_band_super(pow2, 1.0),
    ]


EXPECTED_KINDS = [
    "CosBumpSub", "ExpSuper", "AlphaSuper", "SlowSub", "Sub2Slow",
    "G1Sub", "AlgSuper", "ProfileBandSub", "ProfileBandSuper",
]


class TestSignContracts:
    def test_all_kinds_pass_at_default_tolerance(self, exp2, alg3, pow2):
        fns = _constructions(exp2, alg3, pow2)
        assert [f.kind for f in fns] == EXPECTED_KINDS
        for fn in fns:
            r = _check(fn)
            assert r.passed, (fn.kind, r)
            if fn.role == "sub":
                assert r.min_residual >= -r.tolerance
            else:
                assert r.max_residual <= r.tolerance

    def test_roles(self, exp2, alg3, pow2):
        roles = {f.kind: f.role for f in _constructions(exp2, alg3, pow2)}
        assert roles == {
            "CosBumpSub": "sub", "ExpSuper": "super", "AlphaSuper": "super",
            "SlowSub": "sub", "Sub2Slow": "sub", "G1Sub": "sub",
            "AlgSuper": "super", "ProfileBandSub": "sub",
            "ProfileBandSuper": "super",
        }

    def test_checker_flags_violations(self, exp2):
        # claiming the bump is a super-solution must fail: its residual is
        # strictly positive inside the support
        fn = orc.cos_bump_sub(1.0, 1.0, exp2)
        flipped = dataclasses.replace(fn, role="super")
        r = _check(flipped)
        assert not r.passed
        assert r.max_residual > 1e-3

    def test_result_records_sample_count(self, exp2):
        r = _check(orc.alpha_super(exp2, 1.0), n_samples=321)
        assert r.n_samples == 321


class TestCosBump:
    def test_compact_support_inside_plateau(self, exp2):
        fn = orc.cos_bump_sub(1.0, 1.0, exp2)
        lo, hi = fn.support
        assert hi <= exp2.z_star
        assert np.all(fn.value(np.array([lo - 1.0, hi + 1.0])) == 0.0)
        mid = 0.5 * (lo + hi)
        assert float(fn.value(mid)) > 0.0

    def test_survives_near_threshold_speed(self, exp2):
        # at c = 1.999 the admissible amplitude is ~1e-100 but the sign
        # contract still holds
        fn = orc.cos_bump_sub(1.0, 1.999, exp2)
        assert fn.params["delta"] < 1e-50
        assert _check(fn).passed

    def test_rejects_speed_at_threshold(self, exp2):
        with pytest.raises(ConstructionError, match="2 sqrt"):
            orc.cos_bump_sub(1.0, 2.1, exp2)

    def test_derivatives_match_difference_quotients(self, exp2):
        fn = orc.cos_bump_sub(1.0, 1.0, exp2)
        lo, hi = fn.support
        zs = np.linspace(lo + 0.3, hi - 0.3, 41)
        h = 1e-6
        fd1 = (fn.value(zs + h) - fn.value(zs - h)) / (2 * h)
        fd2 = (fn.value(zs + h) - 2 * fn.value(zs) + fn.value(zs - h)) / h**2
        assert np.max(np.abs(fd1 - fn.d1(zs))) < 1e-7
        assert np.max(np.abs(fd2 - fn.d2(zs))) < 1e-3


# tail constructions no other test differentiates: (fixture, builder)
_TAIL_JETS = {
    "g1_sub-k0": ("alg3", lambda p: orc.g1_sub(p, 1.0)),
    "g1_sub-k1": ("itlog", lambda p: orc.g1_sub(p, 1.0)),
    "g1_sub-k2": ("itlog2", lambda p: orc.g1_sub(p, 1.0)),
    "alg_super-itlog": ("itlog", lambda p: orc.alg_super(p, 1.0)),
    "slow_sub-alg3": ("alg3", lambda p: orc.slow_sub(p, 1.0)),
    "slow_sub-itlog": ("itlog", lambda p: orc.slow_sub(p, 0.6)),
    "band_sub-pow2": ("pow2", lambda p: orc.profile_band_sub(p, 0.7)),
}


@pytest.mark.parametrize("name", list(_TAIL_JETS))
def test_tail_derivatives_match_difference_quotients(name, request):
    fixture, build = _TAIL_JETS[name]
    fn = build(request.getfixturevalue(fixture))
    lo = fn.support[0]
    zs = np.geomspace(1.2 * lo, 200.0 * lo, 41)
    h = 1e-4 * zs
    fd1 = (fn.value(zs + h) - fn.value(zs - h)) / (2 * h)
    fd2 = (fn.value(zs + h) - 2 * fn.value(zs) + fn.value(zs - h)) / h**2
    d1, d2 = fn.d1(zs), fn.d2(zs)
    assert np.all(np.abs(fd1 - d1) <= 1e-5 * np.abs(d1))
    assert np.all(np.abs(fd2 - d2) <= 1e-5 * np.abs(d2))


class TestExpSuper:
    def test_plateau_then_exponential(self, exp2):
        fn = orc.exp_super(1.0, 1.0, 0.5, exp2)
        zbar = fn.params["zbar"]
        assert np.all(fn.value(np.array([-50.0, zbar - 1.0])) == 1.0)
        # decay rate c - eps beyond the corner
        v1, v2 = fn.value(np.array([20.0, 24.0]))
        assert math.log(v1 / v2) / 4.0 == pytest.approx(0.5, rel=1e-10)

    def test_rejects_eps_outside_zero_c(self, exp2):
        with pytest.raises(ConstructionError):
            orc.exp_super(1.0, 1.0, 1.0, exp2)
        with pytest.raises(ConstructionError):
            orc.exp_super(1.0, 1.0, 0.0, exp2)


class TestAlphaSuper:
    def test_constant_alpha(self, exp2):
        fn = orc.alpha_super(exp2, 1.0)
        assert np.all(fn.value(np.array([-50.0, 0.0, 100.0])) == 1.0)

    def test_residual_is_a_minus_alpha(self, exp2):
        fn = orc.alpha_super(exp2, 1.0)
        zs = np.array([-10.0, 30.0])
        want = 1.0 * (exp2.a(zs) - 1.0)
        assert np.allclose(fn.residual(zs), want, atol=1e-14)


class TestSlowConstructions:
    def test_slow_sub_amplitude_scaling(self, alg3):
        # residual is O(A^2): shrinking A tightens the margin but keeps the sign
        fn = orc.slow_sub(alg3, 1.0, A=1e-8)
        z = np.geomspace(fn.support[0] * 1.01, fn.support[0] * 100.0, 2000)
        res = fn.residual(z)
        assert np.all(res >= 0.0)
        assert float(np.max(res)) < 1e-9

    def test_slow_sub_needs_integrable_tilde(self, alg05, itlog):
        with pytest.raises(ConstructionError, match="diverges"):
            orc.slow_sub(alg05, 1.0)
        # lead = 1 < c = 1.5 < r = 2: the surrogate's r = 1.75 stays above
        # c, yet neither weight is integrable below the lead
        for build in (orc.slow_sub, orc.sub2_slow):
            with pytest.raises(ConstructionError, match="diverges"):
                build(itlog, 1.5)

    def test_default_surrogate_unavailable_for_exponential(self, exp2):
        with pytest.raises(ConstructionError, match="no surrogate"):
            orc.sub2_slow(exp2, 1.0)

    def test_default_surrogate_keeps_family(self, alg3, pow2, itlog):
        surrogate = {name: orc.sub2_slow(p, 1.0).params["surrogate"]
                     for name, p in [("alg3", alg3), ("pow2", pow2), ("itlog", itlog)]}
        assert surrogate == {"alg3": {"gamma": 2.25},
                             "pow2": {"gamma": 1.0, "p": 0.5},
                             "itlog": {"k": 1, "r": 1.5, "lead": 1.0}}

    def test_slow_subs_pass_on_iterated_log_below_lead(self, itlog):
        # lead = 1 > c: B has no closed form, so this reaches the panel pass
        for fn in (orc.slow_sub(itlog, 0.6), orc.sub2_slow(itlog, 0.6)):
            res = _check(fn)
            assert res.passed, res
            assert math.isfinite(res.min_residual) and math.isfinite(res.max_residual)

    def test_residual_runs_one_slow_scale_pass(self, monkeypatch, itlog):
        # value, d1 and d2 share b = int tilde_a: one jet evaluates it once,
        # and b reuses the jet's one log tilde_a
        fn = orc.slow_sub(itlog, 0.6)
        calls, anti = [], []
        slow_scale = IteratedLog.slow_scale
        antiderivative = IteratedLog.antiderivative

        def counted(self, z, c):
            calls.append(c)
            return slow_scale(self, z, c)

        def counted_anti(self, z):
            anti.append(z)
            return antiderivative(self, z)

        monkeypatch.setattr(IteratedLog, "slow_scale", counted)
        monkeypatch.setattr(IteratedLog, "antiderivative", counted_anti)
        fn.residual(orc._sample_support(fn, 1000))
        assert len(calls) == 1 and len(anti) == 1
        calls.clear()
        anti.clear()
        assert orc.residual_sign_check(fn).passed
        assert len(calls) == 1 and len(anti) == 1

    def test_profile_band_residual_runs_one_a_pass(self, monkeypatch, pow2):
        # u = (1 - eps) a: the jet's a(z) is the reaction term's a(z)
        fn = orc.profile_band_sub(pow2, 0.7)
        calls = []
        a, a_jet = EnvironmentProfile.a, EnvironmentProfile.a_jet

        def counted_a(self, z):
            calls.append("a")
            return a(self, z)

        def counted_jet(self, z):
            calls.append("a_jet")
            return a_jet(self, z)

        monkeypatch.setattr(EnvironmentProfile, "a", counted_a)
        monkeypatch.setattr(EnvironmentProfile, "a_jet", counted_jet)
        fn.residual(orc._sample_support(fn, 1000))
        assert calls == ["a_jet"]

    def test_failing_z_M_search_probes_each_M_once(self, monkeypatch, pow2):
        # every halving of A re-walks the same M lattice; 3147 brentq solves
        # when each walk re-solved every M
        calls = []
        brentq = orc.brentq

        def counted(*args, **kwargs):
            calls.append(args)
            return brentq(*args, **kwargs)

        monkeypatch.setattr(orc, "brentq", counted)
        with pytest.raises(ConstructionError, match="any amplitude"):
            orc.slow_sub(pow2, 0.7)
        assert len(calls) <= 150

    @pytest.mark.parametrize("fixture,c,kind,params", [
        # found after five halvings of A, on M values earlier walks probed
        ("itlog", 1.0, "slow_sub",
         {"A": 0.03125, "M": 0.078125, "z_M": 614699263.0325497, "z0": 25.0}),
        ("alg3", 0.2, "slow_sub",
         {"A": 1.0, "M": 1.4757395258967641e+22, "z_M": 454.88333460986075,
          "z0": 12.0}),
        ("pow2", 0.9, "slow_sub",
         {"A": 1.0, "M": 1.6012798675095096e+18, "z_M": 220.88956417676036,
          "z0": 25.0}),
        ("pow2", 0.6, "sub2_slow",
         {"A": 1.0, "M": 9382499223688534.0, "z_M": 279.91102124804473,
          "z0": 25.0, "surrogate": {"gamma": 1.0, "p": 0.5}}),
    ])
    def test_z_M_search_params_exact(self, request, fixture, c, kind, params):
        # exact values: probing each M once must not move any bit
        fn = getattr(orc, kind)(request.getfixturevalue(fixture), c)
        assert fn.params == params

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("fixture", ["exp2", "alg3", "pow2", "itlog"])
    @pytest.mark.parametrize("kind", ["slow_sub", "sub2_slow"])
    def test_z_M_search_matches_the_lattice_walk(self, request, fixture, c, kind):
        # the search starts near 1/b(z*); it must land on the (A, M, z_M)
        # of the walk that probes every lattice point from 2.5 A/c up
        profile = request.getfixturevalue(fixture)
        try:
            tail = profile.tail if kind == "slow_sub" else orc._surrogate(profile, c)
            want = _walk_z_M(profile, c, tail)
        except ConstructionError as exc:
            with pytest.raises(ConstructionError, match=re.escape(str(exc))):
                getattr(orc, kind)(profile, c)
            return
        got = getattr(orc, kind)(profile, c).params
        assert (got["A"], got["M"], got["z_M"]) == want

    def test_g1_sub_validates_lambda_window(self, alg05):
        # gamma = 0.5 <= c: lam = (1 + gamma/c)/2 = 0.75 misses (1, gamma/c)
        with pytest.raises(ConstructionError, match="need 1 < lam < gamma/c = 0.5"):
            orc.g1_sub(alg05, 1.0)


class TestAlgSuper:
    def test_iterated_log_takes_half_power(self, itlog):
        # the constants alg_super(itlog, 1.0, q=0.5) built when q was a
        # parameter; the iterated-log tail now fixes q = 1/2 by itself
        fn = orc.alg_super(itlog, 1.0)
        assert fn.params == {"M": 0.4803270142629871, "q": 0.5, "z_start": 26.25}
        assert _check(fn).passed

    @pytest.mark.parametrize("fixture", ["pow2", "alg05"])
    def test_rejects_tails_without_a_power_bound(self, request, fixture):
        # power tails have z a -> inf; alg05 has gamma = 0.5 <= c
        with pytest.raises(ConstructionError):
            orc.alg_super(request.getfixturevalue(fixture), 1.0)


class TestBracketingPairs:
    @pytest.mark.parametrize("fixture", ["alg3", "itlog", "pow2"])
    def test_pairs_pass_and_are_ordered(self, fixture, request):
        profile = request.getfixturevalue(fixture)
        pairs = orc.bracketing_pairs(profile, 1.0)
        assert pairs
        for sub, sup in pairs:
            assert sub.role == "sub" and sup.role == "super"
            assert _check(sub).passed and _check(sup).passed
            lo = max(sub.support[0], sup.support[0])
            z = np.geomspace(max(lo * 1.001, 1.0), lo * 1e3, 500)
            assert np.all(sub.value(z) <= sup.value(z) * (1 + 1e-12))

    def test_no_pair_for_exponential_tail(self, exp2):
        with pytest.raises(ConstructionError):
            orc.bracketing_pairs(exp2, 1.0)

    def test_algebraic_pair_requires_gamma_above_c(self, alg05):
        with pytest.raises(ConstructionError, match="gamma > c"):
            orc.bracketing_pairs(alg05, 1.0)
