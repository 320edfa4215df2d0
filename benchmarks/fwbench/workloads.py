"""Set-up and ops of the four workloads, each op paired with its verdict.

An op calls the program's public API (or `cli.main`) with generated inputs
and returns the raw answer.  Its judge turns the answer, or the exception
it raised, into an Outcome: whether it is correct, why not, and the
accuracy numbers it carries.  Expectations come from the classifier and are
worked out during set-up, so the timed phase runs only the op itself.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from forcedwaves import analysis, cli, environment, localsolve, oracles
from forcedwaves import pdesim, wavesolver
from forcedwaves.environment import (Algebraic, EnvironmentProfile, ExpTail,
                                     IteratedLog, Power)

from . import checks, inputs

TAIL_CLASSES = {"exp": ExpTail, "algebraic": Algebraic, "power": Power,
                "iterated_log": IteratedLog}
# the failures solve_wave's protocol defines; anything else is untyped
TYPED_SOLVE_ERRORS = (wavesolver.NewtonDivergenceError,
                      wavesolver.NoPositiveWaveError)


@dataclass
class Outcome:
    ok: bool
    problems: list = field(default_factory=list)
    error: Optional[str] = None  # exception class name, when one was raised
    acc: dict = field(default_factory=dict)


@dataclass
class Op:
    spec: dict
    run: Callable[[], Any]
    judge: Callable[[Any], Outcome]

    @property
    def id(self) -> str:
        return self.spec["id"]


def fixture_profiles() -> dict:
    out = {}
    for name, (kind, params, center, width) in inputs.FIXTURES.items():
        out[name] = EnvironmentProfile(inputs.ALPHA, TAIL_CLASSES[kind](**params),
                                       center, width)
    return out


def solver_config(profile, N: Optional[int]):
    base = wavesolver.SolverConfig.default_for(profile)
    return base if N is None else wavesolver.SolverConfig(L=base.L, N=N)


# ---------------------------------------------------------------------------
# accuracy records and shared judging
# ---------------------------------------------------------------------------

def _newton_iters(obj) -> int:
    if isinstance(obj, wavesolver.WaveSolution):
        return int(obj.iterations)
    hist = getattr(obj, "residual_history", None)
    return max(len(hist) - 1, 0) if hist else 0


def judge_wave(profile, wave, predicted: bool) -> tuple:
    """(problems, acc) for one returned WaveSolution."""
    problems = checks.no_wave_problems(predicted)
    cfg = wave.config or wavesolver.SolverConfig.default_for(profile)
    a = np.asarray(profile.a(wave.grid), dtype=float)
    problems += checks.wave_problems(
        wave.phi, a, wave.h, wave.c, profile.alpha, wave.residual_norm,
        cfg.newton_tol, sigma_R=wave.bc_right,
        pin_value=wave.pinned_amplitude)
    acc = {"predicted_solves": int(predicted),
           "admissible": int(predicted and not problems),
           "max_residual": float(wave.residual_norm),
           "newton_iters": _newton_iters(wave)}
    return problems, acc


def merge_acc(total: dict, acc: dict) -> dict:
    """Fold one op's accuracy record into a total: max_* keep the maximum,
    val_* the latest value, everything else is a count."""
    for k, v in acc.items():
        if k.startswith("max_"):
            total[k] = max(total.get(k, 0.0), v)
        elif k.startswith("val_"):
            total[k] = v
        else:
            total[k] = total.get(k, 0) + v
    return total


def judge_exception(exc: BaseException, typed_ok: bool,
                    predicted_solves: int = 1) -> Outcome:
    """An exception is a correct answer only when it is one of solve_wave's
    typed failures and no wave was predicted."""
    name = type(exc).__name__
    acc = {"predicted_solves": predicted_solves,
           "newton_iters": _newton_iters(exc)}
    if typed_ok and isinstance(exc, TYPED_SOLVE_ERRORS):
        return Outcome(True, error=name, acc=acc)
    kind = "typed" if isinstance(exc, TYPED_SOLVE_ERRORS) else "untyped"
    msg = str(exc).splitlines()[0][:160] if str(exc) else ""
    return Outcome(False, [f"{kind} {name}: {msg}"], error=name, acc=acc)


# ---------------------------------------------------------------------------
# workload contexts
# ---------------------------------------------------------------------------

class Workload:
    """Set-up state plus the op list of one workload for one seed."""

    name = ""
    min_passes = 1

    def __init__(self, data: dict, workdir: Path):
        self.data = data
        self.workdir = workdir
        self.profiles = fixture_profiles()
        # warm-up: scipy's lazy imports and first LAPACK calls happen here,
        # not inside the first timed op
        wavesolver.solve_wave(self.profiles["exp2"], 1.0, "sigma1")
        self.prepare()
        self.ops = [self.make_op(spec) for spec in data["ops"]]

    def prepare(self) -> None:
        """Workload-specific set-up, before the ops are built."""

    def make_op(self, spec: dict) -> Op:
        raise NotImplementedError


class SpeedSweep(Workload):
    name = "speed-sweep"
    min_passes = 3

    def make_op(self, spec):
        profile = self.profiles[spec["tail"]]
        c = spec["c"]
        cfg = solver_config(profile, spec["N"])
        if spec["kind"] == "convergence":
            return self._convergence_op(spec, profile, cfg)
        report = environment.classify(profile, c)
        predicted = report.minimal_decay is not None

        def run():
            rep = environment.classify(profile, c)
            tag = rep.minimal_decay.tag if rep.minimal_decay else "pure_exp"
            wave = wavesolver.solve_wave(profile, c, tag, cfg)
            cands = [wavesolver.resolve_target(profile, c, t)[1]
                     for t in wavesolver.TARGET_TAGS]
            ranking = analysis.fit_decay(wave, [a for a in cands if a is not None])
            verdict = analysis.inventory_verdict(profile, c, [wave], [ranking])
            return wave, verdict

        def judge(res):
            if isinstance(res, BaseException):
                return judge_exception(res, typed_ok=not predicted,
                                       predicted_solves=int(predicted))
            wave, verdict = res
            problems, acc = judge_wave(profile, wave, predicted)
            minimal = [ck for ck in verdict.checks
                       if ck["prediction"].startswith("minimal")]
            if not (minimal and minimal[0]["passed"]):
                problems.append("inventory verdict: minimal wave does not fit "
                                "the exponential family")
            acc["verdict_checks"] = len(verdict.checks)
            acc["verdict_passed"] = sum(bool(ck["passed"]) for ck in verdict.checks)
            return Outcome(not problems, problems, acc=acc)

        return Op(spec, run, judge)

    def _convergence_op(self, spec, profile, cfg):
        fine_cfg = wavesolver.SolverConfig(L=cfg.L, N=2 * cfg.N - 1)

        def run():
            coarse = wavesolver.solve_wave(profile, 1.0, "sigma1", cfg)
            fine = wavesolver.solve_wave(profile, 1.0, "sigma1", fine_cfg)
            return (coarse, fine, wavesolver.continuum_residual(coarse, profile),
                    wavesolver.continuum_residual(fine, profile))

        def judge(res):
            if isinstance(res, BaseException):
                return judge_exception(res, typed_ok=False)
            coarse, fine, r_coarse, r_fine = res
            problems, acc = [], {}
            for w in (coarse, fine):
                p, a = judge_wave(profile, w, True)
                problems += p
                merge_acc(acc, a)
            ratio = r_coarse / r_fine
            problems += checks.ratio_problems(ratio)
            acc["val_grid_convergence_ratio"] = ratio
            return Outcome(not problems, problems, acc=acc)

        return Op(spec, run, judge)


class SlowFamily(Workload):
    name = "slow-family"
    min_passes = 5

    def make_op(self, spec):
        profile = self.profiles[spec["tail"]]
        c = spec["c"]
        report = environment.classify(profile, c)
        kind = spec["kind"]
        if kind == "maximal":
            return self._maximal_op(spec, profile, c, report)
        if kind == "family":
            return self._family_op(spec, profile, c, report)
        return self._local_op(spec, profile, c)

    def _maximal_op(self, spec, profile, c, report):
        predicted = report.maximal_decay is not None
        tag = report.maximal_decay.tag if predicted else "slow_maximal"

        def run():
            return wavesolver.solve_wave(profile, c, tag)

        def judge(res):
            if isinstance(res, BaseException):
                return judge_exception(res, typed_ok=not predicted,
                                       predicted_solves=int(predicted))
            problems, acc = judge_wave(profile, res, predicted)
            return Outcome(not problems, problems, acc=acc)

        return Op(spec, run, judge)

    def _family_op(self, spec, profile, c, report):
        """minimal <= K1 <= K2 <= K3 <= maximal, every member admissible."""
        min_tag = report.minimal_decay.tag if report.minimal_decay else None
        max_tag = report.maximal_decay.tag
        Ks = spec["K"]

        def run():
            family = wavesolver.wave_family(profile, c, Ks)
            lo = [wavesolver.solve_wave(profile, c, min_tag)] if min_tag else []
            chain = lo + family + [wavesolver.solve_wave(profile, c, max_tag)]
            orderings = [wavesolver.ordering_check(a, b)
                         for a, b in zip(chain[:-1], chain[1:])]
            return chain, orderings

        def judge(res):
            if isinstance(res, BaseException):
                return judge_exception(res, typed_ok=False)
            chain, orderings = res
            problems, acc = [], {"max_ordering_violation": 0.0}
            for w in chain:
                p, a = judge_wave(profile, w, True)
                problems += p
                merge_acc(acc, a)
            for a, b, r in zip(chain[:-1], chain[1:], orderings):
                problems += checks.ordering_problems(a.phi, b.phi, r.ordered,
                                                     r.direction)
                acc["max_ordering_violation"] = max(
                    acc["max_ordering_violation"],
                    checks.ordering_violation(a.phi, b.phi))
            return Outcome(not problems, problems, acc=acc)

        return Op(spec, run, judge)

    def _local_op(self, spec, profile, c):
        ansatz = {
            "tilde_a": lambda: environment.TildeA(profile=profile, c=c, K=spec["K"]),
            "slow_maximal": lambda: environment.SlowMaximal(profile=profile, c=c),
            "profile_itself": lambda: environment.ProfileItself(profile=profile),
        }[spec["ansatz"]]()

        def run():
            sol = localsolve.integrate_backward(profile, c, ansatz,
                                                spec["z_hi"], spec["z_lo"])
            return sol, localsolve.consistency_drift(sol)

        def judge(res):
            if isinstance(res, BaseException):
                return judge_exception(res, typed_ok=False, predicted_solves=0)
            sol, drift = res
            problems = checks.consistency_problems(drift, spec["drift_bound"],
                                                   sol.psi, sol.exit_flag)
            return Outcome(not problems, problems,
                           acc={"max_consistency_drift": float(drift)})

        return Op(spec, run, judge)


class PdeCrossval(Workload):
    name = "pde-crossval"
    min_passes = 8

    def prepare(self):
        """Solve every wave the timed ops start from."""
        c, family_K = self.data["c"], self.data["family_K"]
        family = wavesolver.wave_family(self.profiles["alg3"], c, family_K)
        self.waves = {}
        for name, (tail, target, member) in self.data["waves"].items():
            profile = self.profiles[tail]
            wave = (family[member] if target == "family"
                    else wavesolver.solve_wave(profile, c, target))
            problems, _ = judge_wave(profile, wave, True)
            if problems:
                raise RuntimeError(f"set-up wave {name} is not admissible: "
                                   f"{problems}")
            self.waves[name] = (tail, wave)

    def _monitors(self, reference, alpha=None):
        mons = {"distance": pdesim.distance_monitor(reference),
                "residual": pdesim.residual_monitor()}
        if alpha is not None:
            mons["front"] = pdesim.front_position_monitor(alpha)
        return mons

    def make_op(self, spec):
        kind = spec["kind"]
        if kind == "steady":
            tail, wave = self.waves[spec["wave"]]
            profile = self.profiles[tail]
            state = pdesim.state_from_wave(wave, profile)

            def run():
                return pdesim.evolve(state, inputs.PDE_T, dt=inputs.PDE_DT,
                                     monitors=self._monitors(wave.phi),
                                     monitor_every=inputs.PDE_MONITOR_EVERY)

            def judge(res):
                if isinstance(res, BaseException):
                    return judge_exception(res, typed_ok=False, predicted_solves=0)
                drift = res.drift_per_unit_time
                problems = checks.bound_problems("drift per unit time", drift,
                                                 checks.DRIFT_PER_TIME_TOL)
                return Outcome(not problems, problems,
                               acc={"max_drift_per_time": float(drift)})

            return Op(spec, run, judge)
        if kind == "compare":
            lo, hi = self._pair(spec["pair"])

            def run():
                return pdesim.comparison_test(lo, hi, inputs.PDE_T,
                                              dt=inputs.PDE_DT)

            def judge(res):
                if isinstance(res, BaseException):
                    return judge_exception(res, typed_ok=False, predicted_solves=0)
                problems = checks.bound_problems("comparison violation", res,
                                                 checks.COMPARISON_TOL)
                return Outcome(not problems, problems,
                               acc={"max_comparison_violation": max(float(res), 0.0)})

            return Op(spec, run, judge)
        # transient: a bump evolving under the moving profile
        profile = self.profiles[spec["tail"]]
        grid = wavesolver.SolverConfig.default_for(profile).grid()
        u0 = np.minimum(spec["height"] * np.exp(-((grid - spec["center"])
                                                  / spec["width"]) ** 2),
                        profile.alpha)
        state = pdesim.make_state(profile, self.data["c"], grid, u0)

        def run():
            return pdesim.evolve(state, inputs.PDE_T, dt=inputs.PDE_DT,
                                 monitors=self._monitors(u0, profile.alpha),
                                 monitor_every=inputs.PDE_MONITOR_EVERY)

        def judge(res):
            if isinstance(res, BaseException):
                return judge_exception(res, typed_ok=False, predicted_solves=0)
            # 0 and max(alpha, max u0, left wall value) bound the flow from
            # below and above; the IMEX step preserves that box by construction
            upper = max(profile.alpha, float(np.max(u0)), state.left_value)
            problems = checks.field_bound_problems(res.state.u, 0.0, upper)
            return Outcome(not problems, problems)

        return Op(spec, run, judge)

    def _pair(self, pair: str):
        c = self.data["c"]
        if pair == "zero-wave":
            profile = self.profiles["exp2"]
            wave = self.waves["exp2"][1]
            zero = pdesim.make_state(profile, c, wave.grid,
                                     np.zeros_like(wave.grid),
                                     robin_sigma=wave.bc_right, left_value=0.0)
            return zero, pdesim.state_from_wave(wave, profile)
        if pair == "sub-super":
            profile = self.profiles["exp2"]
            grid = self.waves["exp2"][1].grid
            sub = oracles.cos_bump_sub(profile.alpha, c, profile)
            sup = oracles.exp_super(profile.alpha, c, 0.5 * c, profile)
            left = float(sub.on_grid(np.array([grid[0]]))[0])
            return (pdesim.make_state(profile, c, grid, sub.on_grid(grid),
                                      left_value=left),
                    pdesim.make_state(profile, c, grid, sup.on_grid(grid),
                                      left_value=profile.alpha))
        profile = self.profiles["alg3"]
        return (pdesim.state_from_wave(self.waves["alg3-K0"][1], profile),
                pdesim.state_from_wave(self.waves["alg3-K1"][1], profile))


class CliSession(Workload):
    name = "cli-session"
    min_passes = 2

    def prepare(self):
        """Write the generated INI files."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = {}
        for tail, conf in self.data["configs"].items():
            path = self.workdir / f"{tail}.ini"
            path.write_text(conf["text"], encoding="utf-8")
            self.config_paths[tail] = path

    def expected_exits(self, tail: str, command: str) -> tuple:
        """The exit code the classifier implies for one command."""
        profile = self.profiles[tail]
        report = environment.classify(profile, self.data["configs"][tail]["c"])
        if command == "classify":
            return (3,) if report.case_123 == "exceptional" else (0,)
        if command in ("wave", "fit"):
            return (0,) if report.minimal_decay is not None else (4,)
        if command == "family":
            return (0,) if report.case_123 in ("2", "3") else (2,)
        return (0,)

    def make_op(self, spec):
        tail, command = spec["tail"], spec["command"]
        expected = self.expected_exits(tail, command)
        out = self.workdir / f"{tail}-{command}"
        argv = [command, "--config", str(self.config_paths[tail]),
                "--out", str(out)]

        def run():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        def judge(res):
            if isinstance(res, BaseException):
                o = judge_exception(res, typed_ok=False, predicted_solves=0)
                o.acc["undocumented_exits"] = 1
                return o
            problems = checks.exit_problems(res, expected)
            acc = {"undocumented_exits": int(res not in checks.DOCUMENTED_EXITS)}
            if command == "verify-oracles" and res in (0, 5):
                rows = json.loads((out / "oracles.json").read_text())["results"]
                applicable = [r for r in rows if r["applicable"]]
                acc["sign_checks"] = len(applicable)
                acc["sign_checks_passed"] = sum(bool(r["passed"]) for r in applicable)
            if res == 0:
                manifest = json.loads((out / "manifest.json").read_text())
                absent = [f for f in manifest["outputs"] if not (out / f).is_file()]
                if absent:
                    problems.append(f"manifest lists missing outputs {absent}")
            return Outcome(not problems, problems, acc=acc)

        return Op(spec, run, judge)


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (SpeedSweep, SlowFamily, PdeCrossval, CliSession)}
