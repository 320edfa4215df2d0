"""Self-tests of the benchmark: verdicts, span arithmetic, seeding, tracing.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fwbench import checks, inputs, metrics, tracing
from fwbench.tracing import Span

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# verdicts on forged answers


@pytest.fixture(scope="module")
def exp_wave():
    from forcedwaves import wavesolver
    from fwbench.workloads import fixture_profiles
    profile = fixture_profiles()["exp2"]
    return profile, wavesolver.solve_wave(profile, 1.0, "sigma1")


def wave_problems(profile, wave, phi=None, residual_norm=None):
    phi = wave.phi if phi is None else phi
    return checks.wave_problems(
        phi, profile.a(wave.grid), wave.h, wave.c, profile.alpha,
        wave.residual_norm if residual_norm is None else residual_norm,
        wave.config.newton_tol, sigma_R=wave.bc_right)


def test_true_wave_passes(exp_wave):
    assert wave_problems(*exp_wave) == []


def test_negative_phi_is_flagged(exp_wave):
    profile, wave = exp_wave
    phi = wave.phi.copy()
    phi[-5] = -1e-9
    problems = wave_problems(profile, wave, phi=phi)
    assert any("min phi" in p for p in problems)


def test_residual_above_tolerance_is_flagged(exp_wave):
    profile, wave = exp_wave
    assert any("reported residual" in p
               for p in wave_problems(profile, wave, residual_norm=1e-6))
    # a perturbed field whose reported residual is left untouched
    phi = wave.phi * (1.0 + 1e-6)
    assert any("re-evaluated residual" in p
               for p in wave_problems(profile, wave, phi=phi))


def test_left_wall_layer_is_flagged(exp_wave):
    profile, wave = exp_wave
    phi = wave.phi.copy()
    phi[0] += 1e-3
    assert any("left-wall" in p for p in wave_problems(profile, wave, phi=phi))


def test_wave_where_none_predicted_is_flagged():
    assert checks.no_wave_problems(False)
    assert checks.no_wave_problems(True) == []


def test_typed_failure_is_correct_only_without_prediction():
    from forcedwaves.wavesolver import NoPositiveWaveError
    from fwbench.workloads import judge_exception
    exc = NoPositiveWaveError("no wave")
    assert judge_exception(exc, typed_ok=True).ok
    assert not judge_exception(exc, typed_ok=False).ok
    untyped = judge_exception(ValueError("nan"), typed_ok=True)
    assert not untyped.ok and untyped.error == "ValueError"


def test_ordering_and_bounds_are_flagged():
    lo, hi = np.array([0.1, 0.2]), np.array([0.1, 0.19])
    assert checks.ordering_problems(lo, hi, True, "first<=second")
    assert checks.ordering_problems(hi, lo, True, "first<=second") == []
    assert checks.ordering_problems(hi, lo, True, "second<=first")
    assert checks.bound_problems("drift", 2e-6, checks.DRIFT_PER_TIME_TOL)
    assert checks.bound_problems("drift", float("nan"), 1.0)
    assert checks.ratio_problems(3.0) and checks.ratio_problems(4.0) == []
    assert checks.field_bound_problems([0.0, 1.5], 0.0, 1.0)


def test_exit_codes():
    assert checks.exit_problems(1, (0,)) == ["undocumented exit 1"]
    assert checks.exit_problems(4, (0,))
    assert checks.exit_problems(2, (2,)) == []


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_covered_time_once():
    spans = [
        Span(0, "root", 0, 100, -1),
        Span(0, "a", 10, 30, 0),
        Span(0, "b", 20, 50, 0),    # overlaps a: 10..50 covers 40, not 50
        Span(0, "c", 60, 70, 0),
        Span(0, "d", 12, 18, 1),    # grandchild: only a loses it
        Span(0, "e", 90, 120, 0),   # runs past its parent: clipped to 10
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10 - 10, 14, 30, 10, 6, 30]


def test_aggregate_counts_recursion_once_inclusive():
    spans = [Span(0, "f", 0, 10, -1), Span(0, "f", 2, 6, 0),
             Span(0, "g", 3, 4, 1)]
    agg = tracing.aggregate(spans)
    assert agg["f"] == {"calls": 2, "self_ns": 6 + 3, "incl_ns": 10}
    assert agg["g"] == {"calls": 1, "self_ns": 1, "incl_ns": 1}


def test_tail_percentile_keeps_ten_samples_above():
    for n_ops, passes in ((39, 3), (17, 5), (12, 8), (28, 2)):
        q = metrics.tail_quantile(n_ops, passes)
        n = n_ops * passes
        values = sorted(range(n))
        k = values.index(metrics.nearest_rank(values, q))
        assert n - 1 - k >= 10


# ---------------------------------------------------------------------------
# seeding


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = inputs.generate(workload, 7), inputs.generate(workload, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(
        inputs.generate(workload, 8), sort_keys=True)
    assert inputs.pass_order(20, 7, 0) == inputs.pass_order(20, 7, 0)
    assert inputs.pass_order(20, 7, 0) != inputs.pass_order(20, 7, 1)


def test_seed_never_moves_boundary_speeds_or_fixtures():
    for seed in range(5):
        ops = inputs.generate("speed-sweep", seed)["ops"]
        speeds = {op["id"]: op["c"] for op in ops}
        assert speeds["speed-sweep/itlog/c1.00/minimal"] == 1.0
        assert speeds["speed-sweep/pow2/c1.00/minimal"] == 1.0
        for op in ops:
            nominal = float(op["id"].split("/c")[1].split("/")[0])
            assert abs(op["c"] - nominal) <= inputs.JITTER
        text = inputs.generate("cli-session", seed)["configs"]["itlog"]["text"]
        assert "tail.r = 2.0" in text and "tail.lead = 1.0" in text


def _small_slow_family(seed):
    from fwbench.workloads import SlowFamily
    data = inputs.generate("slow-family", seed)
    keep = ("alg3/c1.00/family", "alg3/c1.00/local-tilde_a",
            "pow2/c1.00/maximal")
    data["ops"] = [op for op in data["ops"] if op["id"].endswith(keep)]
    return SlowFamily(data, Path("unused"))


def test_same_seed_same_counts():
    tables = []
    for _ in range(2):
        runner = metrics.Runner(_small_slow_family(3), 3, tracing.Tracer())
        runner.run_pass(traced=False)
        runner.run_pass(traced=True)
        calls = {k: v["calls"] for k, v in runner.layer_table().items()}
        iters = runner.layer_metrics(0.0)["wavesolver.newton_iters"]
        tables.append((calls, iters))
        assert all(r.ok for r in (rec[2] for rec in runner.records))
    assert tables[0] == tables[1]
    assert tables[0][0]["wavesolver.solve_wave"] >= 3
    assert tables[0][1] > 0


# ---------------------------------------------------------------------------
# tracer patching


def test_tracer_restores_originals_and_reports_missing(monkeypatch):
    from forcedwaves import environment, wavesolver
    before = (wavesolver.solve_wave, environment.EnvironmentProfile.a,
              environment.integrate, wavesolver.solve_banded)
    monkeypatch.setattr(tracing, "EXTRA_FUNCTIONS", tracing.EXTRA_FUNCTIONS
                        + (("wavesolver", "removed_helper", "x.y"),))
    tr = tracing.Tracer()
    with tr.recording():
        assert wavesolver.solve_wave is not before[0]
        assert environment.integrate is not before[2]
        assert "wavesolver.removed_helper" in tr.missing
    after = (wavesolver.solve_wave, environment.EnvironmentProfile.a,
             environment.integrate, wavesolver.solve_banded)
    assert all(x is y for x, y in zip(before, after))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                        "pde-crossval", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
