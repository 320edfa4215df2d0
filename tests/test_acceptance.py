"""Acceptance gate: the fourteen headline checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one
`ACCEPTANCE NN PASS/FAIL name: measured ...` line per criterion.
Each criterion states its own tolerance; the asserted bound is the
stated one, while the printed value is the actual measurement.
"""

import dataclasses
import itertools

import numpy as np

from forcedwaves import analysis as an
from forcedwaves import oracles as orc
from forcedwaves import pdesim as ps
from forcedwaves import wavesolver as ws
from forcedwaves.environment import (Algebraic, EnvironmentProfile, ExpTail,
                                     IteratedLog, Power, classify,
                                     generalized_eigenvalues)
from forcedwaves.wavesolver import (NewtonDivergenceError, NoPositiveWaveError,
                                    SolverConfig)


def report(num: int, name: str, ok: bool, measured: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {measured}")
    assert ok, f"criterion {num} ({name}): {measured}"


def test_01_eigenvalue_formula():
    rng = np.random.default_rng(12345)
    alphas = rng.uniform(0.1, 4.0, 100)
    cs = rng.uniform(-1.0, 4.0, 100)
    worst = 0.0
    for alpha, c in zip(alphas, cs):
        lam1, lam1p = generalized_eigenvalues(alpha, c)
        ref1 = -alpha + c * c / 4.0
        if c <= 0.0:
            ref1p = -alpha
        elif c < 2.0 * np.sqrt(alpha):
            ref1p = ref1
        else:
            ref1p = 0.0
        worst = max(worst, abs(lam1 - ref1), abs(lam1p - ref1p))
    report(1, "eigenvalue-formula", worst <= 1e-12,
           f"max |difference| over 100 random (alpha, c) = {worst:.3e}")


def test_02_existence_threshold(exp_continuation):
    res = exp_continuation
    solved = set(res.solved_c())
    failed = set(res.failed_c())
    low_ok = all(c in solved for c in res.c_values if c <= 1.95 + 1e-9)
    high_ok = all(c in failed for c in res.c_values if c >= 2.05 - 1e-9)
    last = max(solved) if solved else float("nan")
    first = min(failed) if failed else float("nan")
    report(2, "existence-threshold", low_ok and high_ok,
           f"{len(solved)}/{len(res.c_values)} speeds solved; last success "
           f"c = {last:g}, first failure c = {first:g} (threshold 2)")


def test_03_exponential_decay_rate(exp_wave_c1):
    mask = an.tail_window(exp_wave_c1.grid)
    rate = float(np.mean(an.local_log_derivative(exp_wave_c1.phi[mask],
                                                 exp_wave_c1.grid[mask])))
    dev = abs(rate / (-exp_wave_c1.c) - 1.0)
    report(3, "exponential-decay-rate", dev <= 0.02,
           f"mean tail log-derivative = {rate:.6f} vs -c = -1 "
           f"({100 * dev:.3f}% off)")


def test_04_exponential_wave_uniqueness(exp2):
    cfg = SolverConfig.default_for(exp2)
    grid = np.linspace(-cfg.L, cfg.L, cfg.N)
    sols = [ws.solve_wave(exp2, 1.0, "sigma1", initial_guess=u0)
            for u0 in ws.standard_starts(exp2, 1.0, grid).values()]
    spread = max(float(np.max(np.abs(a.phi - b.phi)))
                 for a, b in itertools.combinations(sols, 2))
    report(4, "exponential-wave-uniqueness", spread <= 1e-6,
           f"max-norm spread over 3 Newton starts = {spread:.3e}")


def test_05_no_slow_waves_in_thin_tail_regime(alg05):
    cfg = SolverConfig.default_for(alg05)
    grid = np.linspace(-cfg.L, cfg.L, cfg.N)
    starts = ws.standard_starts(alg05, 1.0, grid)
    attempts, honest = 0, 0
    for target in ("tilde_a", "slow_maximal"):
        for u0 in starts.values():
            attempts += 1
            try:
                ws.solve_wave(alg05, 1.0, target, cfg, initial_guess=u0)
            except (NoPositiveWaveError, NewtonDivergenceError):
                honest += 1
    report(5, "no-slow-waves-thin-tail", honest == attempts == 6,
           f"{honest}/{attempts} slow-target solves failed with a typed error")


def test_06_ordered_family(alg3_minimal, alg3_family, alg3_maximal):
    waves = [alg3_minimal, *alg3_family, alg3_maximal]
    worst = 0.0
    ok = True
    for lo, hi in itertools.combinations(waves, 2):
        res = ws.ordering_check(lo, hi)
        ok &= res.ordered and res.direction == "first<=second"
        worst = max(worst, res.max_violation)
    n_pairs = len(waves) * (len(waves) - 1) // 2
    report(6, "ordered-family", ok and worst <= 1e-8,
           f"{n_pairs}/10 pairs ordered, max violation = {worst:.3e}")


def test_07_maximal_wave_algebraic_law(alg3_maximal):
    mask = an.tail_window(alg3_maximal.grid)
    vals = alg3_maximal.grid[mask] * alg3_maximal.phi[mask]
    dev = float(np.max(np.abs(vals / 2.0 - 1.0)))
    report(7, "maximal-wave-algebraic-law", dev <= 0.10,
           f"z*phi_max in [{vals.min():.4f}, {vals.max():.4f}] vs "
           f"gamma - c = 2 ({100 * dev:.2f}% off)")


def test_08_intermediate_wave_law(alg3_family):
    member = alg3_family[1]  # K = 1
    mask = an.tail_window(member.grid)
    z = member.grid[mask]
    rates = z * an.local_log_derivative(member.phi[mask], z)
    dev = float(np.max(np.abs(rates / (-3.0) - 1.0)))
    report(8, "intermediate-wave-law", dev <= 0.05,
           f"fitted algebraic rate in [{rates.min():.4f}, {rates.max():.4f}] "
           f"vs -gamma/c = -3 ({100 * dev:.2f}% off)")


def test_09_maximal_wave_strong_degenerate(pow2, pow2_maximal):
    mask = an.tail_window(pow2_maximal.grid)
    ratio = pow2_maximal.phi[mask] / pow2.a(pow2_maximal.grid[mask])
    dev = float(np.max(np.abs(ratio - 1.0)))
    report(9, "maximal-wave-tracks-environment", dev <= 0.05,
           f"phi_max/a in [{ratio.min():.4f}, {ratio.max():.4f}] "
           f"({100 * dev:.2f}% off 1)")


def test_10_oracle_residual_suite(exp2, alg3, itlog, pow2):
    fns = [
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
    for profile in (alg3, itlog, pow2):
        for sub, sup in orc.bracketing_pairs(profile, 1.0):
            fns.extend([sub, sup])
    results = [orc.residual_sign_check(f, n_samples=10_000, tolerance=1e-9)
               for f in fns]
    n_pass = sum(r.passed for r in results)
    kinds = {f.kind for f in fns[:9]}
    report(10, "oracle-residual-suite",
           n_pass == len(fns) and len(kinds) == 9,
           f"{n_pass}/{len(fns)} sign checks pass "
           f"(9 construction kinds + 3 bracketing pairs, 10^4 samples each)")


def test_11_pde_cross_validation(exp2, alg3, pow2, exp_wave_c1, alg3_minimal,
                                 alg3_family, alg3_maximal, pow2_maximal):
    drifts = []
    for prof, wave in [(exp2, exp_wave_c1), (alg3, alg3_minimal),
                       (alg3, alg3_family[1]), (alg3, alg3_maximal),
                       (pow2, pow2_maximal)]:
        res = ps.evolve(ps.state_from_wave(wave, prof), 10.0, dt=0.01)
        drifts.append(res.drift_per_unit_time)
    steady_ok = max(drifts) <= 1e-6

    grid = exp_wave_c1.grid
    zero = ps.make_state(exp2, 1.0, grid, np.zeros_like(grid),
                         robin_sigma=exp_wave_c1.bc_right, left_value=0.0)
    v1 = ps.comparison_test(zero, ps.state_from_wave(exp_wave_c1, exp2),
                            10.0, dt=0.01)
    sub = orc.cos_bump_sub(1.0, 1.0, exp2)
    sup = orc.exp_super(1.0, 1.0, 0.5, exp2)
    lo = ps.make_state(exp2, 1.0, grid, sub.on_grid(grid),
                       left_value=float(sub.on_grid(np.array([grid[0]]))[0]))
    hi = ps.make_state(exp2, 1.0, grid, sup.on_grid(grid), left_value=1.0)
    v2 = ps.comparison_test(lo, hi, 50.0, dt=0.01)
    v3 = ps.comparison_test(ps.state_from_wave(alg3_family[0], alg3),
                            ps.state_from_wave(alg3_family[1], alg3),
                            10.0, dt=0.01)
    cmp_ok = max(v1, v2, v3) <= 1e-8
    report(11, "pde-cross-validation", steady_ok and cmp_ok,
           f"max steady drift/time = {max(drifts):.3e} over 5 waves; "
           f"comparison violations = ({v1:.1e}, {v2:.1e}, {v3:.1e})")


def test_12_weighted_kernel_closed_form(alg3):
    _, ansatz = ws.resolve_target(alg3, 1.0, "tilde_a")
    z0 = 15.0  # past the blend, where a is exactly gamma/z
    zs = np.geomspace(z0, 1000.0 * z0, 120)
    measured = np.asarray(ansatz.value(zs)) / float(ansatz.value(z0))
    expected = (zs / z0) ** (-3.0)
    rel = float(np.max(np.abs(measured / expected - 1.0)))
    report(12, "weighted-kernel-closed-form", rel <= 1e-8,
           f"max relative error over z in [z0, 1000 z0] = {rel:.3e}")


GOLDEN_TABLE = [
    # (alpha, tail, center, width, c) -> (case_abcd, case_123, inventory)
    (ExpTail(kappa=2.0), 4.0, 4.0, 1.0, "A", "1", "unique-exponential"),
    (ExpTail(kappa=2.0), 4.0, 4.0, 2.4, "A", "1", "none"),
    (Algebraic(gamma=3.0), 8.0, 4.0, 1.0, "C", "2",
     "exponential-plus-infinitely-many-nonexponential"),
    (Algebraic(gamma=3.0), 8.0, 4.0, 2.4, "C", "2",
     "infinitely-many-nonexponential-only"),
    (Algebraic(gamma=3.0), 8.0, 4.0, 4.0, "A", "1", "none"),
    (Algebraic(gamma=0.5), 8.0, 4.0, 1.0, "A", "1", "unique-exponential"),
    (Algebraic(gamma=0.5), 8.0, 4.0, 3.0, "A", "1", "none"),
    (Power(gamma=2.0, p=0.5), 15.0, 10.0, 1.0, "D", "3",
     "exponential-plus-infinitely-many-nonexponential"),
    (Power(gamma=2.0, p=0.5), 15.0, 10.0, 2.4, "D", "3",
     "infinitely-many-nonexponential-only"),
    (IteratedLog(k=1, r=2.0, lead=1.0), 15.0, 10.0, 1.0, "B", "2",
     "exponential-plus-infinitely-many-nonexponential"),
    (IteratedLog(k=1, r=2.0, lead=1.0), 15.0, 10.0, 2.4, "A", "1", "none"),
    (IteratedLog(k=1, r=0.5, lead=1.0), 15.0, 10.0, 1.0, "B", "1",
     "unique-exponential"),
]


def test_13_classifier_golden_table():
    hits = 0
    for tail, center, width, c, abcd, onetwothree, inventory in GOLDEN_TABLE:
        r = classify(EnvironmentProfile(1.0, tail, center, width), c)
        got = (r.case_abcd, r.case_123, r.inventory or "none")
        hits += got == (abcd, onetwothree, inventory)
    report(13, "classifier-golden-table", hits == len(GOLDEN_TABLE),
           f"{hits}/{len(GOLDEN_TABLE)} regime labels match")


def test_14_grid_convergence(exp2, exp_wave_c1):
    fine_cfg = dataclasses.replace(SolverConfig.default_for(exp2), N=8001)
    fine = ws.solve_wave(exp2, 1.0, "sigma1", fine_cfg)
    r_coarse = ws.continuum_residual(exp_wave_c1, exp2)
    r_fine = ws.continuum_residual(fine, exp2)
    ratio = r_coarse / r_fine
    report(14, "grid-convergence", 3.5 <= ratio <= 4.5,
           f"residual ratio under h -> h/2 = {ratio:.4f} "
           f"({r_coarse:.3e} -> {r_fine:.3e})")
