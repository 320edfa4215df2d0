"""Config-driven command-line front end.

Commands: classify, wave, family, simulate, fit, verify-oracles, sweep.
Experiments are described by an INI file ('#' comments, UTF-8); unknown
sections or keys are rejected before any computation starts.  Data files
(CSV/JSON/SVG) carry no timestamps, so identical configs produce
byte-identical outputs; run metadata goes to a separate manifest.json.
Every CSV file, here and in the library's to_csv methods, is written by
forcedwaves.tables.write_csv.

Exit codes: 0 success, 2 config error (no output directory is created),
3 exceptional classification, 4 solver failure, 5 check failure.  Exits 4
and 5 write failure.json, whose "kind" is the error class's `kind`; only a
Newton failure adds residual_history.csv.  manifest.json lists the files.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .environment import (_TAIL_KINDS, Algebraic, AnsatzUnavailableError,
                          EnvironmentProfile, IteratedLog, Power, classify)
from . import analysis, oracles, pdesim, wavesolver
from .tables import write_csv
from .wavesolver import (NewtonDivergenceError, NoPositiveWaveError,
                         SolverConfig, TARGET_TAGS)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXCEPTIONAL = 3
EXIT_SOLVER = 4
EXIT_CHECK = 5


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# section -> key -> python type ('floats'/'strs' are comma lists)
_SCHEMA = {
    "profile": {
        "alpha": float, "center": float, "width": float, "tail.kind": str,
        "tail.kappa": float, "tail.amplitude": float, "tail.gamma": float,
        "tail.p": float, "tail.k": int, "tail.r": float, "tail.lead": float,
    },
    "speed": {"c": float, "c.start": float, "c.stop": float, "c.steps": int},
    "solver": {
        "L": float, "N": int, "newton_tol": float, "newton_max_iter": int,
        "max_halvings": int, "target": str, "K": "floats",
    },
    "simulation": {
        "T": float, "dt": float, "initial": str, "monitor_every": int,
        "bump.center": float, "bump.width": float, "bump.height": float,
    },
    "fit": {"window_fraction": float, "candidates": "strs"},
    "output": {"directory": str},
}


def _convert(section: str, key: str, raw: str):
    spec = _SCHEMA[section][key]
    try:
        if spec == "floats":
            return tuple(float(t) for t in raw.split(",") if t.strip())
        if spec == "strs":
            return tuple(t.strip() for t in raw.split(",") if t.strip())
        return spec(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid "
            f"{getattr(spec, '__name__', spec)}") from None


def load_config(path) -> dict:
    """Parse + validate the INI file into {section: {key: value}}."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cp = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (K, L, N, T)
    try:
        with open(p, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from None

    out: dict = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        out[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            out[section][key] = _convert(section, key, raw)
    return out


def _require(cfg: dict, section: str, key: str):
    if section not in cfg:
        raise ConfigError(f"missing required section [{section}]")
    try:
        return cfg[section][key]
    except KeyError:
        raise ConfigError(f"missing required key {key!r} in section "
                          f"[{section}]") from None


def build_profile(cfg: dict) -> EnvironmentProfile:
    alpha = _require(cfg, "profile", "alpha")
    center = _require(cfg, "profile", "center")
    width = _require(cfg, "profile", "width")
    kind = _require(cfg, "profile", "tail.kind")
    if kind not in _TAIL_KINDS:
        raise ConfigError(f"tail.kind = {kind!r}; expected one of "
                          f"{sorted(_TAIL_KINDS)}")
    tail_cls = _TAIL_KINDS[kind]
    names = {f.name for f in dataclasses.fields(tail_cls)}
    params = {}
    for key, val in cfg["profile"].items():
        if not key.startswith("tail.") or key == "tail.kind":
            continue
        name = key[len("tail."):]
        if name not in names:
            raise ConfigError(
                f"key {key!r} does not belong to tail.kind = {kind!r}")
        params[name] = val
    try:
        return EnvironmentProfile(alpha, tail_cls(**params), center, width)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid profile: {exc}") from None


_POSITIVE = (("speed", "c"), ("speed", "c.start"), ("speed", "c.stop"),
             ("simulation", "T"), ("simulation", "dt"),
             ("simulation", "monitor_every"))


def _check_positive(cfg: dict) -> None:
    """Speeds, T, dt and monitor_every, where given, must be positive."""
    for section, key in _POSITIVE:
        if not cfg.get(section, {}).get(key, 1) > 0:
            raise ConfigError(f"[{section}] {key} must be positive")


def get_speed(cfg: dict) -> float:
    return _require(cfg, "speed", "c")


def get_speed_range(cfg: dict) -> np.ndarray:
    start = _require(cfg, "speed", "c.start")
    stop = _require(cfg, "speed", "c.stop")
    steps = _require(cfg, "speed", "c.steps")
    if steps < 0:
        raise ConfigError("c.steps must be >= 0")
    return np.linspace(start, stop, steps)


def build_solver_config(cfg: dict, profile: EnvironmentProfile) -> SolverConfig:
    sec = cfg.get("solver", {})
    kw = {k: sec[k] for k in ("L", "N", "newton_tol", "newton_max_iter",
                              "max_halvings") if k in sec}
    try:
        return dataclasses.replace(SolverConfig.default_for(profile), **kw)
    except ValueError as exc:
        raise ConfigError(f"invalid [solver] section: {exc}") from None


def resolve_cli_target(cfg: dict, profile: EnvironmentProfile, c: float) -> str:
    """[solver] target, defaulting to the classifier's minimal-decay tag."""
    tag = cfg.get("solver", {}).get("target")
    if tag is not None:
        if tag not in TARGET_TAGS:
            raise ConfigError(f"[solver] target = {tag!r}; expected one of "
                              f"{TARGET_TAGS}")
        return tag
    report = classify(profile, c)
    if report.minimal_decay is not None:
        return report.minimal_decay.tag
    return "pure_exp"


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _outdir(args, cfg: dict) -> Path:
    name = args.out or cfg.get("output", {}).get("directory", "out")
    d = Path(name)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               allow_nan=True, default=str) + "\n",
                    encoding="utf-8")


def _write_manifest(outdir: Path, args, outputs: Sequence[str]) -> None:
    _write_json(outdir / "manifest.json", {
        "command": args.command,
        "config": str(args.config),
        "svg": bool(args.svg),
        "outputs": sorted(outputs),
    })


# ---------------------------------------------------------------------------
# svg line plots (no plotting dependency)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 800, 600
_MARGIN = {"l": 72, "r": 24, "t": 42, "b": 54}
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def svg_line_plot(path, curves, *, title: str, xlabel: str, ylabel: str,
                  logy: bool = False) -> None:
    """Fixed 800x600 multi-curve line plot; curves = [(label, x, y), ...]."""
    pl, pr = _MARGIN["l"], _SVG_W - _MARGIN["r"]
    pt, pb = _MARGIN["t"], _SVG_H - _MARGIN["b"]

    xs, ys = [], []
    clean = []
    for label, x, y in curves:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logy:
            keep &= y > 0.0
        clean.append((label, x, y, keep))
        xs.append(x[keep])
        ys.append(np.log10(y[keep]) if logy else y[keep])
    allx = np.concatenate([v for v in xs if v.size]) if any(v.size for v in xs) \
        else np.array([0.0, 1.0])
    ally = np.concatenate([v for v in ys if v.size]) if any(v.size for v in ys) \
        else np.array([0.0, 1.0])
    x0, x1 = float(allx.min()), float(allx.max())
    y0, y1 = float(ally.min()), float(ally.max())
    if x1 <= x0:
        x0, x1 = x0 - 1.0, x0 + 1.0
    if y1 <= y0:
        y0, y1 = y0 - 1.0, y0 + 1.0
    padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def X(v):
        return pl + (v - x0) / (x1 - x0) * (pr - pl)

    def Y(v):
        return pb - (v - y0) / (y1 - y0) * (pb - pt)

    e = []
    e.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="monospace" '
             f'font-size="13">')
    e.append(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>')
    e.append(f'<text x="{(pl + pr) / 2:.1f}" y="24" text-anchor="middle" '
             f'font-size="16">{title}</text>')

    if logy:
        lo_d, hi_d = math.floor(y0), math.ceil(y1)
        span = max(1, hi_d - lo_d)
        stride = max(1, int(math.ceil(span / 7)))
        ytick = [float(d) for d in range(int(lo_d), int(hi_d) + 1, stride)
                 if y0 <= d <= y1] or [y0, y1]
        ylab = [f"1e{int(d):d}" if float(d).is_integer() else f"{10**d:.3g}"
                for d in ytick]
    else:
        ytick = _ticks(y0, y1)
        ylab = [f"{t:.4g}" for t in ytick]
    for t, lab in zip(ytick, ylab):
        yy = Y(t)
        e.append(f'<line x1="{pl}" y1="{yy:.2f}" x2="{pr}" y2="{yy:.2f}" '
                 f'stroke="#dddddd"/>')
        e.append(f'<text x="{pl - 8}" y="{yy + 4:.2f}" '
                 f'text-anchor="end">{lab}</text>')
    for t in _ticks(x0, x1):
        xx = X(t)
        e.append(f'<line x1="{xx:.2f}" y1="{pt}" x2="{xx:.2f}" y2="{pb}" '
                 f'stroke="#eeeeee"/>')
        e.append(f'<text x="{xx:.2f}" y="{pb + 20}" '
                 f'text-anchor="middle">{t:.4g}</text>')
    e.append(f'<rect x="{pl}" y="{pt}" width="{pr - pl}" '
             f'height="{pb - pt}" fill="none" stroke="black"/>')
    e.append(f'<text x="{(pl + pr) / 2:.1f}" y="{_SVG_H - 12}" '
             f'text-anchor="middle">{xlabel}</text>')
    e.append(f'<text x="20" y="{(pt + pb) / 2:.1f}" text-anchor="middle" '
             f'transform="rotate(-90 20 {(pt + pb) / 2:.1f})">{ylabel}</text>')

    for i, (label, x, y, keep) in enumerate(clean):
        color = _COLORS[i % len(_COLORS)]
        pts = []
        segs = []
        for xi, yi, ok in zip(x, y, keep):
            if not ok:
                if len(pts) > 1:
                    segs.append(pts)
                pts = []
                continue
            yv = math.log10(yi) if logy else yi
            pts.append(f"{X(xi):.2f},{Y(yv):.2f}")
        if len(pts) > 1:
            segs.append(pts)
        for seg in segs:
            e.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = pt + 18 + 18 * i
        e.append(f'<line x1="{pr - 150}" y1="{ly - 4}" x2="{pr - 120}" '
                 f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        e.append(f'<text x="{pr - 112}" y="{ly}">{label}</text>')
    e.append("</svg>")
    Path(path).write_text("\n".join(e) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(args, cfg: dict) -> tuple[int, list]:
    profile = build_profile(cfg)
    c = get_speed(cfg)
    report = classify(profile, c)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, default=str)
    print(text)
    outdir = _outdir(args, cfg)
    (outdir / "classify.json").write_text(text + "\n", encoding="utf-8")
    code = EXIT_EXCEPTIONAL if report.case_123 == "exceptional" else EXIT_OK
    return code, ["classify.json"]


def cmd_wave(args, cfg: dict) -> tuple[int, list]:
    profile = build_profile(cfg)
    c = get_speed(cfg)
    solver_cfg = build_solver_config(cfg, profile)
    target = resolve_cli_target(cfg, profile, c)
    outdir = _outdir(args, cfg)
    wave = wavesolver.solve_wave(profile, c, target, solver_cfg)
    wave.to_csv(outdir / "wave.csv")
    side = wave.sidecar_dict()
    side["profile"] = profile.params_dict()
    _write_json(outdir / "wave.json", side)
    outputs = ["wave.csv", "wave.json"]
    if args.svg:
        a_vals = np.asarray(profile.a(wave.grid), dtype=float)
        svg_line_plot(outdir / "wave_profile.svg",
                      [("phi", wave.grid, wave.phi), ("a", wave.grid, a_vals)],
                      title=f"forced wave, c = {c:g}", xlabel="z",
                      ylabel="phi")
        right = wave.grid >= 0.0
        svg_line_plot(outdir / "wave_tail.svg",
                      [("phi", wave.grid[right], wave.phi[right]),
                       ("a", wave.grid[right], a_vals[right])],
                      title=f"tail decay, c = {c:g}", xlabel="z",
                      ylabel="phi (log)", logy=True)
        outputs += ["wave_profile.svg", "wave_tail.svg"]
    print(f"wave solved: c = {c:g}, target = {wave.decay_tag}, "
          f"residual = {wave.residual_norm:.3e}, files in {outdir}")
    return EXIT_OK, outputs


def cmd_family(args, cfg: dict) -> tuple[int, list]:
    profile = build_profile(cfg)
    c = get_speed(cfg)
    solver_cfg = build_solver_config(cfg, profile)
    K_values = cfg.get("solver", {}).get("K")
    if not K_values:
        raise ConfigError("missing required key 'K' in section [solver]")
    outdir = _outdir(args, cfg)
    try:
        waves = wavesolver.wave_family(profile, c, K_values, solver_cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    outputs = []
    members = []
    Ks = sorted(float(k) for k in K_values)
    for K, wave in zip(Ks, waves):
        name = f"family_K{K:g}.csv"
        wave.to_csv(outdir / name)
        outputs.append(name)
        members.append({"K": K, **wave.sidecar_dict()})
    orderings = []
    for lo, hi in zip(waves[:-1], waves[1:]):
        res = wavesolver.ordering_check(lo, hi)
        orderings.append({"ordered": res.ordered,
                          "max_violation": res.max_violation,
                          "direction": res.direction})
    _write_json(outdir / "family.json",
                {"c": c, "members": members, "orderings": orderings,
                 "profile": profile.params_dict()})
    outputs.append("family.json")
    if args.svg:
        right = waves[0].grid >= 0.0
        svg_line_plot(outdir / "family_tail.svg",
                      [(f"K = {K:g}", w.grid[right], w.phi[right])
                       for K, w in zip(Ks, waves)],
                      title=f"slow family tails, c = {c:g}", xlabel="z",
                      ylabel="phi (log)", logy=True)
        outputs.append("family_tail.svg")
    ok = all(o["ordered"] for o in orderings)
    print(f"family of {len(waves)} solved; pairwise ordered: {ok}")
    return (EXIT_OK if ok else EXIT_CHECK), outputs


def _initial_field(cfg: dict, profile: EnvironmentProfile, grid: np.ndarray):
    sec = cfg.get("simulation", {})
    kind = sec.get("initial", "alpha")
    if kind == "alpha":
        return np.full_like(grid, profile.alpha)
    if kind == "bump":
        center = sec.get("bump.center", profile.z_star)
        width = sec.get("bump.width", 5.0)
        height = sec.get("bump.height", 0.5 * profile.alpha)
        if width <= 0 or height <= 0:
            raise ConfigError("bump.width and bump.height must be positive")
        u0 = height * np.exp(-((grid - center) / width) ** 2)
        return np.minimum(u0, profile.alpha)
    raise ConfigError(
        f"[simulation] initial = {kind!r}; expected wave, alpha or bump")


def cmd_simulate(args, cfg: dict) -> tuple[int, list]:
    profile = build_profile(cfg)
    c = get_speed(cfg)
    sec = cfg.get("simulation", {})
    T = _require(cfg, "simulation", "T")
    solver_cfg = build_solver_config(cfg, profile)
    outdir = _outdir(args, cfg)

    if sec.get("initial", "alpha") == "wave":
        target = resolve_cli_target(cfg, profile, c)
        wave = wavesolver.solve_wave(profile, c, target, solver_cfg)
        state = pdesim.state_from_wave(wave, profile)
    else:
        grid = solver_cfg.grid()
        u0 = _initial_field(cfg, profile, grid)
        state = pdesim.make_state(profile, c, grid, u0)

    monitors = {
        "distance_to_initial": pdesim.distance_monitor(state.u),
        "steady_residual": pdesim.residual_monitor(),
        "front_position": pdesim.front_position_monitor(profile.alpha),
    }
    result = pdesim.evolve(state, T, dt=sec.get("dt"), monitors=monitors,
                           monitor_every=sec.get("monitor_every"))
    state.snapshot_to_csv(outdir / "state_initial.csv")
    result.state.snapshot_to_csv(outdir / "state_final.csv")
    result.monitors_to_csv(outdir / "monitors.csv")
    _write_json(outdir / "simulate.json", {
        "c": c, "T": T, "dt": sec.get("dt"),
        "steps_taken": result.steps_taken,
        "t_final": result.state.t,
        "drift_per_unit_time": result.drift_per_unit_time,
        "final_distance_to_initial": result.series["distance_to_initial"][-1],
        "final_steady_residual": result.series["steady_residual"][-1],
        "final_front_position": result.series["front_position"][-1],
    })
    outputs = ["state_initial.csv", "state_final.csv", "monitors.csv",
               "simulate.json"]
    if args.svg:
        svg_line_plot(outdir / "simulate_states.svg",
                      [("initial", state.grid, state.u),
                       ("final", result.state.grid, result.state.u)],
                      title=f"u at t = 0 and t = {result.state.t:g}",
                      xlabel="z", ylabel="u")
        outputs.append("simulate_states.svg")
    print(f"evolved to t = {result.state.t:g} in {result.steps_taken} steps; "
          f"drift/time = {result.drift_per_unit_time:.3e}")
    return EXIT_OK, outputs


def _candidate_ansatz(profile, c, tags) -> list:
    cands = []
    for tag in tags:
        _, ansatz = wavesolver.resolve_target(profile, c, tag)
        if ansatz is not None:
            cands.append(ansatz)
    return cands


def cmd_fit(args, cfg: dict) -> tuple[int, list]:
    profile = build_profile(cfg)
    c = get_speed(cfg)
    solver_cfg = build_solver_config(cfg, profile)
    target = resolve_cli_target(cfg, profile, c)
    fsec = cfg.get("fit", {})
    tags = fsec.get("candidates", TARGET_TAGS)
    for tag in tags:
        if tag not in TARGET_TAGS:
            raise ConfigError(f"[fit] candidates: unknown tag {tag!r}")
    wfrac = fsec.get("window_fraction", 0.2)
    if not 0.0 < wfrac < 1.0:
        raise ConfigError("[fit] window_fraction must lie in (0, 1)")
    outdir = _outdir(args, cfg)
    wave = wavesolver.solve_wave(profile, c, target, solver_cfg)
    cands = _candidate_ansatz(profile, c, tags)
    if not cands:
        raise ConfigError(f"no fit candidate among {tags} is defined for "
                          "this profile and speed")
    ranking = analysis.fit_decay(wave, cands, window_fraction=wfrac)
    ranking.to_csv(outdir / "fit.csv")
    (outdir / "fit.json").write_text(ranking.to_json() + "\n",
                                     encoding="utf-8")
    w = ranking.winner
    flag = " (ambiguous)" if ranking.ambiguous else ""
    print(f"winner: {w.tag}{flag}, K = {w.amplitude:.6g}, "
          f"rms log error = {w.rms_log_error:.3e}")
    return EXIT_OK, ["fit.csv", "fit.json"]


def _oracle_suite(profile: EnvironmentProfile, c: float) -> list[dict]:
    """Construct every comparison function applicable to (profile, c)."""
    tail = profile.tail
    builders = [
        ("cos_bump_sub", lambda: oracles.cos_bump_sub(profile.alpha, c, profile)),
        ("exp_super", lambda: oracles.exp_super(profile.alpha, c, 0.5 * c, profile)),
        ("alpha_super", lambda: oracles.alpha_super(profile, c)),
        ("slow_sub", lambda: oracles.slow_sub(profile, c)),
        ("sub2_slow", lambda: oracles.sub2_slow(
            profile, c, oracles.default_surrogate(profile, c))),
    ]
    if isinstance(tail, Algebraic) and tail.gamma > c:
        lam = 0.5 * (1.0 + tail.gamma / c)
        builders.append(("g1_sub", lambda: oracles.g1_sub(profile, c, lam, k=0)))
        builders.append(("alg_super", lambda: oracles.alg_super(profile, c)))
    if isinstance(tail, IteratedLog):
        lam = 0.5 * (1.0 + tail.r / c)
        builders.append(("g1_sub", lambda: oracles.g1_sub(
            profile, c, lam, k=tail.k)))
        builders.append(("alg_super", lambda: oracles.alg_super(profile, c)))
    if isinstance(tail, Power):
        builders.append(("band_sub", lambda: oracles.profile_band_sub(profile, c)))
        builders.append(("band_super", lambda: oracles.profile_band_super(profile, c)))

    rows = []
    for name, make in builders:
        try:
            fn = make()
        except (oracles.ConstructionError, ValueError) as exc:
            rows.append({"construction": name, "applicable": False,
                         "note": str(exc)})
            continue
        rep = oracles.residual_sign_check(fn, n_samples=10_000,
                                          tolerance=1e-9)
        rows.append({"construction": name, "applicable": True,
                     "kind": rep.kind, "role": rep.role,
                     "passed": rep.passed,
                     "min_residual": rep.min_residual,
                     "max_residual": rep.max_residual, "note": ""})
    return rows


def cmd_verify_oracles(args, cfg: dict) -> tuple[int, list]:
    profile = build_profile(cfg)
    c = get_speed(cfg)
    outdir = _outdir(args, cfg)
    rows = _oracle_suite(profile, c)
    header = ["construction", "applicable", "kind", "role", "passed",
              "min_residual", "max_residual", "note"]
    write_csv(outdir / "oracles.csv", header,
              [[r.get(k, "") for r in rows] for k in header])
    _write_json(outdir / "oracles.json", {"c": c, "results": rows,
                                          "profile": profile.params_dict()})
    n_app = sum(r["applicable"] for r in rows)
    n_pass = sum(r.get("passed", False) for r in rows)
    for r in rows:
        status = ("pass" if r.get("passed") else
                  "FAIL" if r["applicable"] else "n/a ")
        print(f"  {status}  {r['construction']}")
    print(f"{n_pass}/{n_app} applicable constructions pass")
    code = EXIT_OK if n_pass == n_app else EXIT_CHECK
    return code, ["oracles.csv", "oracles.json"]


def _sweep_point(cfg, profile, c, solver_cfg, fit_tags) -> dict:
    """One (profile, c) solve as a sweep row; cells it lacks stay empty."""
    report = classify(profile, c)
    row = {"c": c, "inventory": report.inventory or "",
           "case_123": report.case_123}
    target = resolve_cli_target(cfg, profile, c)
    try:
        wave = wavesolver.solve_wave(profile, c, target, solver_cfg)
    except (NoPositiveWaveError, NewtonDivergenceError) as exc:
        return {**row, "status": exc.kind}
    row.update(status="solved", residual_norm=wave.residual_norm,
               iterations=wave.iterations, phi_max=float(np.max(wave.phi)),
               phi_right=float(wave.phi[-1]))
    try:
        cands = _candidate_ansatz(profile, c, fit_tags)
        ranking = analysis.fit_decay(wave, cands)
        verdict = analysis.inventory_verdict(profile, c, [wave], [ranking])
        row["winner"] = ranking.winner.tag
        row["winner_rms"] = ranking.winner.rms_log_error
        minimal = [ck for ck in verdict.checks
                   if ck["prediction"].startswith("minimal")]
        row["minimal_fit_ok"] = minimal[0]["passed"] if minimal else ""
    except (analysis.FitWindowError, ValueError):
        pass  # no usable fit: the fit cells stay empty
    return row


def cmd_sweep(args, cfg: dict) -> tuple[int, list]:
    profile = build_profile(cfg)
    cs = get_speed_range(cfg)
    solver_cfg = build_solver_config(cfg, profile)
    outdir = _outdir(args, cfg)
    fit_tags = cfg.get("fit", {}).get("candidates", TARGET_TAGS)

    rows = [_sweep_point(cfg, profile, float(c), solver_cfg, fit_tags)
            for c in cs]
    header = ["c", "status", "inventory", "case_123", "residual_norm",
              "iterations", "phi_max", "phi_right", "winner", "winner_rms",
              "minimal_fit_ok"]
    write_csv(outdir / "sweep.csv", header,
              [[r.get(k, "") for r in rows] for k in header])

    solved = [r["c"] for r in rows if r["status"] == "solved"]
    failed = [r["c"] for r in rows if r["status"] != "solved"]
    boundary = None
    if solved and failed and max(solved) < min(failed):
        boundary = [max(solved), min(failed)]
    summary = {
        "n_points": len(rows), "n_solved": len(solved),
        "n_failed": len(failed),
        "last_solved_c": max(solved) if solved else None,
        "first_failed_c": min(failed) if failed else None,
        "existence_boundary_bracket": boundary,
    }
    _write_json(outdir / "sweep.json", summary)
    outputs = ["sweep.csv", "sweep.json"]
    if args.svg and solved:
        amp = [r["phi_max"] for r in rows if r["status"] == "solved"]
        svg_line_plot(outdir / "sweep.svg",
                      [("max phi", np.array(solved), np.array(amp))],
                      title="wave amplitude over the speed range",
                      xlabel="c", ylabel="max phi")
        outputs.append("sweep.svg")
    if boundary:
        print(f"sweep: {len(solved)}/{len(rows)} solved; existence boundary "
              f"in [{boundary[0]:g}, {boundary[1]:g}]")
    else:
        print(f"sweep: {len(solved)}/{len(rows)} solved")
    return EXIT_OK, outputs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "classify": cmd_classify,
    "wave": cmd_wave,
    "family": cmd_family,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "verify-oracles": cmd_verify_oracles,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forcedwaves",
        description="forced-wave laboratory: solve, simulate, classify, fit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="INI experiment file")
    common.add_argument("--out", default=None,
                        help="output directory (default from [output])")
    common.add_argument("--svg", action="store_true",
                        help="also write SVG line plots")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


# typed error -> (exit code, stderr lead, whether the failure is tied to the
# run's speed c); failure.json's "kind" is the error class's own `kind`
_FAILURES = {
    NewtonDivergenceError: (EXIT_SOLVER, "solver failure", True),
    NoPositiveWaveError: (EXIT_SOLVER, "solver failure", True),
    AnsatzUnavailableError: (EXIT_SOLVER, "solver failure", True),
    pdesim.StepRejectedError: (EXIT_SOLVER, "time step rejected", False),
    analysis.FitWindowError: (EXIT_CHECK, "fit rejected", False),
}


def _report_failure(args, cfg: dict, exc: Exception) -> tuple[int, list]:
    """Write failure.json for a typed error, plus residual_history.csv when
    the error carries a Newton residual history; return the exit code and
    the files written."""
    code, lead, at_c = next(v for cls, v in _FAILURES.items()
                            if isinstance(exc, cls))
    # a sweep spans a speed range, so its failure names no single c
    c = cfg["speed"]["c"] if at_c and args.command != "sweep" else None
    where = "" if c is None else f" at c = {c:g}"
    print(f"{lead}{where}: {exc}", file=sys.stderr)
    outdir = _outdir(args, cfg)
    record = {"kind": exc.kind, "message": str(exc)}
    if c is not None:
        record["c"] = c
    if isinstance(exc, pdesim.StepRejectedError):
        record["suggested_dt"] = exc.suggested_dt
    _write_json(outdir / "failure.json", record)
    outputs = ["failure.json"]
    hist = getattr(exc, "residual_history", None)
    if hist is not None:
        write_csv(outdir / "residual_history.csv",
                  ["iteration", "max_residual"],
                  [range(len(hist)), [float(r) for r in hist]])
        outputs.append("residual_history.csv")
    return code, outputs


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _check_positive(cfg)
        code, outputs = _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except tuple(_FAILURES) as exc:
        code, outputs = _report_failure(args, cfg, exc)
    _write_manifest(_outdir(args, cfg), args, outputs)
    return code


if __name__ == "__main__":
    sys.exit(main())
