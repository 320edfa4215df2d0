"""Closed-loop passes over a workload's ops, and the metrics they yield.

End-to-end metrics come from untraced passes only.  Per-layer metrics come
from traced passes and are given per pass: counts from the first traced
pass (they repeat exactly for one seed), times as the median over traced
passes.  Accuracy numbers ride along with the verdicts and are recorded,
never gated beyond the bounds the verdicts already apply.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from collections import Counter

from . import inputs, tracing
from .workloads import Outcome, merge_acc

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ok_share": "share", "peak_rss_mb": "MB", "setup_s": "s"}

ORACLE_CONSTRUCTORS = ("cos_bump_sub", "exp_super", "alpha_super", "slow_sub",
                       "sub2_slow", "g1_sub", "alg_super", "profile_band_sub",
                       "profile_band_super")

# metric -> (unit, how it is computed); "calls"/"self"/"incl" read the
# span table of one or more span names
LAYER_SPEC = {
    "environment.profile_a.calls": ("count", ("calls", "environment.profile_a")),
    "environment.profile_a.self_ms": ("ms", ("self", "environment.profile_a")),
    "environment.slow_scale.calls": ("count", ("calls", "environment.slow_scale")),
    "environment.slow_scale.self_ms": ("ms", ("self", "environment.slow_scale")),
    "environment.slow_scale.incl_ms": ("ms", ("incl", "environment.slow_scale")),
    "environment.quad.calls": ("count", ("calls", "environment.quad")),
    "environment.quad.self_ms": ("ms", ("self", "environment.quad")),
    "environment.classify.calls": ("count", ("calls", "environment.classify")),
    "environment.classify.self_ms": ("ms", ("self", "environment.classify")),
    "environment.integration_warnings": ("count", ("acc", "integration_warnings")),
    "oracles.construct.calls": (
        "count", ("calls",) + tuple(f"oracles.{n}" for n in ORACLE_CONSTRUCTORS)),
    "oracles.construct.self_ms": (
        "ms", ("self",) + tuple(f"oracles.{n}" for n in ORACLE_CONSTRUCTORS)),
    "oracles.residual_sign_check.calls": (
        "count", ("calls", "oracles.residual_sign_check")),
    "oracles.residual_sign_check.self_ms": (
        "ms", ("self", "oracles.residual_sign_check")),
    "oracles.sign_check_pass_share": (
        "share", ("ratio", "sign_checks_passed", "sign_checks")),
    "wavesolver.solve_wave.calls": ("count", ("calls", "wavesolver.solve_wave")),
    "wavesolver.solve_wave.self_ms": ("ms", ("self", "wavesolver.solve_wave")),
    "wavesolver.standard_starts.calls": (
        "count", ("calls", "wavesolver.standard_starts")),
    "wavesolver.standard_starts.self_ms": (
        "ms", ("self", "wavesolver.standard_starts")),
    "wavesolver.standard_starts.incl_ms": (
        "ms", ("incl", "wavesolver.standard_starts")),
    "wavesolver.discrete_residual.calls": (
        "count", ("calls", "wavesolver.discrete_residual")),
    "wavesolver.discrete_residual.self_ms": (
        "ms", ("self", "wavesolver.discrete_residual")),
    "wavesolver.newton_iters": ("count", ("acc", "newton_iters")),
    "wavesolver.residual_evals_per_iter": (
        "ratio", ("per_iter", "wavesolver.discrete_residual")),
    "wavesolver.admissible_share": (
        "share", ("ratio", "admissible", "predicted_solves")),
    "wavesolver.max_residual": ("abs", ("acc", "max_residual")),
    "wavesolver.max_ordering_violation": ("abs", ("acc", "max_ordering_violation")),
    "wavesolver.grid_convergence_ratio": (
        "ratio", ("acc", "val_grid_convergence_ratio")),
    "linalg.solve_banded.calls": ("count", ("calls", "linalg.solve_banded")),
    "linalg.solve_banded.self_ms": ("ms", ("self", "linalg.solve_banded")),
    "linalg.solves_per_newton_iter": ("ratio", ("per_iter", "linalg.solve_banded")),
    "pdesim.step.calls": ("count", ("calls", "pdesim.step")),
    "pdesim.step.self_ms": ("ms", ("self", "pdesim.step")),
    "pdesim.step.us_per_call": ("us", ("per_call_us", "pdesim.step")),  # inclusive
    "pdesim.monitor.self_ms": ("ms", ("self", "pdesim.monitor")),
    "pdesim.evolve.self_ms": ("ms", ("self", "pdesim.evolve")),
    "pdesim.comparison_test.self_ms": ("ms", ("self", "pdesim.comparison_test")),
    "pdesim.max_drift_per_time": ("1/time", ("acc", "max_drift_per_time")),
    "pdesim.max_comparison_violation": ("abs", ("acc", "max_comparison_violation")),
    "localsolve.integrate_backward.calls": (
        "count", ("calls", "localsolve.integrate_backward")),
    "localsolve.integrate_backward.self_ms": (
        "ms", ("self", "localsolve.integrate_backward")),
    "localsolve.max_consistency_drift": ("abs", ("acc", "max_consistency_drift")),
    "analysis.fit_decay.calls": ("count", ("calls", "analysis.fit_decay")),
    "analysis.fit_decay.self_ms": ("ms", ("self", "analysis.fit_decay")),
    "analysis.inventory_verdict.calls": (
        "count", ("calls", "analysis.inventory_verdict")),
    "analysis.inventory_verdict.self_ms": (
        "ms", ("self", "analysis.inventory_verdict")),
    "analysis.verdict_pass_share": (
        "share", ("ratio", "verdict_passed", "verdict_checks")),
    "cli.main.calls": ("count", ("calls", "cli.main")),
    "cli.main.self_ms": ("ms", ("self", "cli.main")),
    "cli.undocumented_exit.count": ("count", ("acc", "undocumented_exits")),
    "setup.import_s": ("s", ("import",)),
    "trace.overhead_share": ("share", ("overhead",)),
    "trace.slowest_op.standard_starts_share": (
        "share", ("slowest", "wavesolver.standard_starts")),
    "trace.slowest_op.slow_scale_share": (
        "share", ("slowest", "environment.slow_scale")),
}
LAYER_UNITS = {k: unit for k, (unit, _) in LAYER_SPEC.items()}


def tail_quantile(n_ops: int, min_passes: int) -> float:
    """The highest whole percentile that leaves at least ten samples above
    it in the fewest samples a run takes (min_passes passes).  It is fixed
    per workload, so runs of different length report the same percentile."""
    n = n_ops * min_passes
    return math.floor(100.0 * (1.0 - 10.0 / n)) / 100.0 if n > 10 else 0.5


def nearest_rank(sorted_values: list, q: float) -> float:
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def reindex(spans: list, start: int, end: int) -> list:
    """spans[start:end] with parent indices relative to `start`."""
    return [s._replace(parent=s.parent - start if s.parent >= start else -1)
            for s in spans[start:end]]


class Runner:
    def __init__(self, workload, seed: int, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.records = []        # (op index, latency s, Outcome, traced)
        self.pass_times = {False: [], True: []}
        self.pass_acc = []       # (traced, merged acc of the pass)
        self.traced_slices = []  # span index range of each traced pass
        self.passes = 0

    @property
    def untraced_passes(self) -> int:
        return len(self.pass_times[False])

    def run_pass(self, traced: bool) -> None:
        ops = self.wl.ops
        order = inputs.pass_order(len(ops), self.seed, self.passes)
        self.passes += 1
        tr = self.tracer if traced else None
        sink = [0] if traced else None
        acc: dict = {}
        first_span = len(tr.spans) if tr else 0
        t_pass = time.perf_counter()
        with (tr.recording() if tr else contextlib.nullcontext()), \
                tracing.counting_warnings("IntegrationWarning", sink):
            for i in order:
                op = ops[i]
                root = (tr.span(f"op:{op.spec['kind']}", i) if tr
                        else contextlib.nullcontext())
                with root:
                    t0 = time.perf_counter()
                    try:
                        res = op.run()
                    except Exception as exc:  # one bad op never ends the run
                        res = exc
                    latency = time.perf_counter() - t0
                with (tr.paused() if tr else contextlib.nullcontext()):
                    try:
                        outcome = op.judge(res)
                    except Exception as exc:
                        outcome = Outcome(False, [f"answer could not be judged: "
                                                  f"{type(exc).__name__}: {exc}"],
                                          error=type(exc).__name__)
                merge_acc(acc, outcome.acc)
                self.records.append((i, latency, outcome, traced))
        self.pass_times[traced].append(time.perf_counter() - t_pass)
        if traced:
            acc["integration_warnings"] = sink[0]
            self.traced_slices.append((first_span, len(tr.spans)))
        self.pass_acc.append((traced, acc))

    # -- end to end -----------------------------------------------------------

    def summary(self, known: dict) -> dict:
        ops = self.wl.ops
        attempted = len(self.records)
        failed = sum(not o.ok for _, _, o, _ in self.records)
        op_ms = {}
        for i, t, _, traced in self.records:
            if not traced:
                op_ms.setdefault(ops[i].id, []).append(1e3 * t)
        lat = sorted(t for v in op_ms.values() for t in v)
        q = tail_quantile(len(ops), self.wl.min_passes)
        failures = {}
        for i, _, o, _ in self.records:
            if o.ok:
                continue
            op_id = ops[i].id
            f = failures.setdefault(op_id, {
                "op": op_id, "error": o.error, "problems": o.problems,
                "known": op_id in known,
                "defect": known.get(op_id, {}).get("defect"), "count": 0})
            f["count"] += 1
        errors = Counter()
        for f in failures.values():
            errors[f["error"] or "wrong answer"] += f["count"]
        return {
            "attempted": attempted, "failed": failed,
            "ok_share": (attempted - failed) / attempted,
            "ops_per_s": len(lat) / sum(self.pass_times[False]),
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": nearest_rank(lat, q),
            "tail_percentile": 100.0 * q, "latency_samples": len(lat),
            "ops_per_pass": len(ops),
            "pass_seconds": self.pass_times,
            "failures": sorted(failures.values(), key=lambda f: f["op"]),
            "failures_by_type": dict(errors),
            "unexplained": sum(not f["known"] for f in failures.values()),
            "op_ms": dict(sorted(op_ms.items())),
        }

    # -- per layer ------------------------------------------------------------

    def _pass_tables(self) -> list:
        spans = self.tracer.spans
        return [tracing.aggregate(reindex(spans, a, b))
                for a, b in self.traced_slices]

    def layer_table(self) -> dict:
        """Every span name: calls in the first traced pass, median self and
        inclusive ms per traced pass."""
        tables = self._pass_tables()
        names = sorted(set().union(*tables)) if tables else []
        out = {}
        for name in names:
            recs = [t.get(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
                    for t in tables]
            out[name] = {
                "calls": recs[0]["calls"],
                "calls_repeat": len({r["calls"] for r in recs}) == 1,
                "self_ms": statistics.median(r["self_ns"] for r in recs) / 1e6,
                "incl_ms": statistics.median(r["incl_ns"] for r in recs) / 1e6,
            }
        return out

    def _slowest_op_shares(self) -> dict:
        """Inclusive share of each span name in the slowest op of the first
        traced pass."""
        a, b = self.traced_slices[0]
        spans = self.tracer.spans
        roots = [i for i in range(a, b) if spans[i].parent == -1]
        slow = max(roots, key=lambda i: spans[i].end - spans[i].start)
        end = next((i for i in roots if i > slow), b)
        dur = spans[slow].end - spans[slow].start
        table = tracing.aggregate(reindex(spans, slow, end))
        return {name: rec["incl_ns"] / dur for name, rec in table.items()}

    def layer_metrics(self, import_s: float) -> dict:
        tables = self._pass_tables()
        first_acc = next(acc for traced, acc in self.pass_acc if traced)
        all_acc: dict = {}
        for _, acc in self.pass_acc:
            merge_acc(all_acc, {k: v for k, v in acc.items()
                                if k.startswith(("max_", "val_"))})
        iters = first_acc.get("newton_iters", 0)
        shares = self._slowest_op_shares()
        untraced = statistics.median(self.pass_times[False])
        traced = statistics.median(self.pass_times[True])

        def span_sum(table, names, key):
            return sum(table.get(n, {}).get(key, 0) for n in names)

        out = {}
        for metric, (_, (how, *names)) in LAYER_SPEC.items():
            if how == "calls":
                v = span_sum(tables[0], names, "calls")
            elif how in ("self", "incl"):
                key = "self_ns" if how == "self" else "incl_ns"
                v = statistics.median(span_sum(t, names, key) for t in tables) / 1e6
            elif how == "per_call_us":
                calls = span_sum(tables[0], names, "calls")
                ns = statistics.median(span_sum(t, names, "incl_ns") for t in tables)
                v = ns / 1e3 / calls if calls else 0.0
            elif how == "per_iter":
                v = span_sum(tables[0], names, "calls") / iters if iters else 0.0
            elif how == "acc":
                src = all_acc if names[0].startswith(("max_", "val_")) else first_acc
                v = src.get(names[0], 0)
            elif how == "ratio":
                den = first_acc.get(names[1], 0)
                v = first_acc.get(names[0], 0) / den if den else 0.0
            elif how == "import":
                v = import_s
            elif how == "overhead":
                v = 1.0 - untraced / traced
            else:  # slowest
                v = shares.get(names[0], 0.0)
            out[metric] = v
        return out
