"""Config-driven command-line front end.

Commands: classify, wave, family, simulate, fit, verify-oracles, sweep; the
options --config, --out and --svg may come before or after the command.
Experiments are described by an INI file ('#' comments, UTF-8).  Each value
is checked once, against _SCHEMA, when the file is parsed: unknown sections
or keys are rejected, every number must be finite, a key with a range
(speeds, T, dt, monitor_every, c.steps, bump.width/height, window_fraction,
L > 0, N >= 1001, each K > 0) must lie in it, a list key (K, candidates)
must name at least one value and a key with named values (tail.kind,
target, initial, candidates) must name one of them, whatever the command.
The Run then builds the profile, the solver config and the target once,
for every command.  family rejects K values whose member files would share
a name before any solve.  Data
files (CSV/JSON/SVG) carry no timestamps, so identical configs produce
byte-identical outputs on one numpy build and one set of CPU features; run
metadata goes to a separate manifest.json.  This
module alone decides the fields and columns of every output file: the
library returns data, the record builders and file writers below turn it
into JSON objects and CSV files, each written by forcedwaves.tables.write_csv.

Exit codes: 0 success, 2 usage or config error (no output directory is
created; an unknown command or a missing --config exits from argparse before
any config is read; an output directory that cannot be created, such as an
--out naming a file, is a config error too), 3 exceptional classification,
4 solver failure, 5 check failure.  Exits 4 and 5 caused by a typed error
write failure.json, whose "kind" is the error class's `kind`; only a Newton
failure adds residual_history.csv.  Every file is written through a Run,
which records its name: manifest.json lists exactly the files the run wrote.
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

from .environment import (TAIL_KINDS, TARGET_TAGS, AnsatzUnavailableError,
                          EnvironmentProfile, classify, minimal_tag,
                          resolve_target)
from . import analysis, oracles, pdesim, wavesolver
from .tables import write_csv
from .wavesolver import (NewtonDivergenceError, NoPositiveWaveError,
                         SolverConfig)

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

# value checks, (test, message): "[section] key <message>" when it fails
_GT0 = (lambda v: v > 0, "must be positive")
_GE0 = (lambda v: v >= 0, "must be >= 0")
_IN01 = (lambda v: 0 < v < 1, "must lie in (0, 1)")


def _one_of(names) -> tuple:
    """The check that a value is one of names; _convert formats {v!r} in
    its message with the value that fails."""
    return (lambda v: v in names, "{v!r} is not one of " + ", ".join(names))


_INITIAL_FIELDS = ("wave", "alpha", "bump")  # [simulation] initial

# section -> key -> python type ('floats'/'strs' are comma lists), or
# (type, value check), a list's check applying to each of its values;
# tail.<name> for every field of every tail family
_SCHEMA = {
    "profile": {
        "alpha": float, "center": float, "width": float,
        "tail.kind": (str, _one_of(sorted(TAIL_KINDS))),
        **{f"tail.{f.name}": int if f.type == "int" else float
           for cls in TAIL_KINDS.values() for f in dataclasses.fields(cls)},
    },
    "speed": {"c": (float, _GT0), "c.start": (float, _GT0),
              "c.stop": (float, _GT0), "c.steps": (int, _GE0)},
    # N's bound repeats SolverConfig's own check, the library's guard
    "solver": {"L": (float, _GT0), "N": (int, (lambda v: v >= 1001,
                                                "must be >= 1001")),
               "target": (str, _one_of(TARGET_TAGS)), "K": ("floats", _GT0)},
    "simulation": {
        "T": (float, _GT0), "dt": (float, _GT0),
        "initial": (str, _one_of(_INITIAL_FIELDS)),
        "monitor_every": (int, _GT0), "bump.center": float,
        "bump.width": (float, _GT0), "bump.height": (float, _GT0),
    },
    "fit": {"window_fraction": (float, _IN01),
            "candidates": ("strs", _one_of(TARGET_TAGS))},
    "output": {"directory": str},
}


def _convert(section: str, key: str, raw: str):
    """One INI value as its schema type; every float must be finite, a list
    must name at least one value, and every value must pass its key's
    check."""
    spec = _SCHEMA[section][key]
    spec, check = spec if isinstance(spec, tuple) else (spec, None)
    if spec is str:
        vals = [raw]
    elif spec == "strs":
        vals = [t.strip() for t in raw.split(",") if t.strip()]
    else:
        try:
            vals = ([float(t) for t in raw.split(",") if t.strip()]
                    if spec == "floats" else [spec(raw)])
        except ValueError:
            raise ConfigError(
                f"[{section}] {key} = {raw!r} is not a valid "
                f"{getattr(spec, '__name__', spec)}") from None
        # an int is finite, and past 1e308 too large for math.isfinite
        if spec is not int and not all(map(math.isfinite, vals)):
            raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    if not vals:
        raise ConfigError(f"[{section}] {key} must name at least one value")
    for v in vals if check else ():
        if not check[0](v):
            raise ConfigError(f"[{section}] {key} {check[1].format(v=v)}")
    return tuple(vals) if spec in ("floats", "strs") else vals[0]


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
    tail_cls = TAIL_KINDS[kind]
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


# ---------------------------------------------------------------------------
# the run: config and output files
# ---------------------------------------------------------------------------

class Run:
    """One CLI run: its arguments, the parsed config, what every command
    solves with and the output directory, which is created on the first
    write.  Every file is written through path, json or svg, which record
    its name for manifest.json.

    profile is the [profile] section's; solver is SolverConfig.default_for
    it with [solver] L and N replaced; target is [solver] target, else at
    every speed the tail family's exponential law (minimal_tag)."""

    def __init__(self, args, cfg: dict):
        self.args, self.cfg = args, cfg
        self.dir = Path(args.out or cfg.get("output", {}).get("directory", "out"))
        self.outputs: set[str] = set()
        self.profile = build_profile(cfg)
        sec = cfg.get("solver", {})
        self.solver = dataclasses.replace(
            SolverConfig.default_for(self.profile),
            **{k: sec[k] for k in ("L", "N") if k in sec})
        self.target = sec.get("target", minimal_tag(self.profile))

    def path(self, name: str) -> Path:
        """Where to write the output file name, recorded as written."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out names an existing file
            raise ConfigError(f"cannot create output directory {self.dir}: "
                              f"{exc.strerror}") from None
        self.outputs.add(name)
        return self.dir / name

    def json(self, name: str, obj) -> str:
        """Write obj as sorted, indented JSON; return the text."""
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=True,
                          default=str)
        self.path(name).write_text(text + "\n", encoding="utf-8")
        return text

    def svg(self, name: str, curves, **labels) -> None:
        svg_line_plot(self.path(name), curves, **labels)


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

    # each curve's kept points (finite, and y > 0 on a log axis) with the
    # plotted y, and the kept positions where a dropped point starts a run
    clean = []
    for label, x, y in curves:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logy:
            keep &= y > 0.0
        idx = np.flatnonzero(keep)
        cuts = np.flatnonzero(np.diff(idx) > 1) + 1
        clean.append((label, x[idx], np.log10(y[idx]) if logy else y[idx],
                      cuts))
    xs = [v for _, v, _, _ in clean if v.size]
    ys = [v for _, _, v, _ in clean if v.size]
    allx = np.concatenate(xs) if xs else np.array([0.0, 1.0])
    ally = np.concatenate(ys) if ys else np.array([0.0, 1.0])
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

    for i, (label, x, y, cuts) in enumerate(clean):
        color = _COLORS[i % len(_COLORS)]
        for sx, sy in zip(np.split(X(x), cuts), np.split(Y(y), cuts)):
            if sx.size < 2:
                continue  # a run of one point draws nothing
            pts = " ".join(f"{a:.2f},{b:.2f}"
                           for a, b in zip(sx.tolist(), sy.tolist()))
            e.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = pt + 18 + 18 * i
        e.append(f'<line x1="{pr - 150}" y1="{ly - 4}" x2="{pr - 120}" '
                 f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        e.append(f'<text x="{pr - 112}" y="{ly}">{label}</text>')
    e.append("</svg>")
    Path(path).write_text("\n".join(e) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output records
# ---------------------------------------------------------------------------

def _profile_record(profile: EnvironmentProfile) -> dict:
    return {"alpha": profile.alpha, "tail_kind": profile.tail.kind,
            "tail_params": dataclasses.asdict(profile.tail),
            "transition_center": profile.transition_center,
            "transition_width": profile.transition_width,
            "z_star": profile.z_star, "z_switch": profile.z_switch}


def _law_record(law) -> Optional[dict]:
    """A decay law's tag and every dataclass field except the profile."""
    if law is None:
        return None
    return {"tag": law.tag, **{f.name: getattr(law, f.name)
                               for f in dataclasses.fields(law)
                               if f.name != "profile"}}


def _wave_record(wave: wavesolver.WaveSolution) -> dict:
    """The sidecar of one wave's CSV file."""
    return {"c": wave.c, "L": float(wave.grid[-1]), "N": int(len(wave.grid)),
            "residual_norm": wave.residual_norm, "decay_tag": wave.decay_tag,
            "bc_right": wave.bc_right,
            "pinned_amplitude": wave.pinned_amplitude,
            "iterations": wave.iterations}


def _write_wave_csv(path, wave: wavesolver.WaveSolution) -> None:
    write_csv(path, ["z", "phi"], [wave.grid, wave.phi])


def _write_state_csv(path, state: pdesim.SimulationState) -> None:
    """Long-format (t, z, u) rows with t formatted once."""
    write_csv(path, ["t", "z", "u"], [float(state.t), state.grid, state.u])


def _write_monitors_csv(path, result: pdesim.EvolveResult) -> None:
    """Long-format (t, metric, value) rows with the metrics by name."""
    names = sorted(result.series)
    write_csv(path, ["t", "metric", "value"],
              [[t for _ in names for t in result.times],
               [name for name in names for _ in result.times],
               [v for name in names for v in result.series[name]]])


def _write_fit_csv(path, ranking: analysis.FitRanking) -> None:
    fits = ranking.fits
    write_csv(path, ["candidate", "K", "rms_log_error", "rate_error"],
              [[f.tag for f in fits], [f.amplitude for f in fits],
               [f.rms_log_error for f in fits],
               [f.local_rate_error for f in fits]])


def _ranking_record(ranking: analysis.FitRanking) -> dict:
    return {"ambiguous": ranking.ambiguous, "fits": [
        {"candidate": f.tag, "window": [f.window[0], f.window[1]],
         "amplitude": f.amplitude, "rms_log_error": f.rms_log_error,
         "local_rate_error": f.local_rate_error, "n_points": f.n_points}
        for f in ranking.fits]}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(run: Run) -> int:
    report = classify(run.profile, _require(run.cfg, "speed", "c"))
    # flat profile_* keys here, where the other JSON files nest a "profile"
    # object: either layout change is a change of the output files
    print(run.json("classify.json", {
        "c": report.c, "case_abcd": report.case_abcd,
        "case_123": report.case_123, "lambda1": report.lambda1,
        "lambda1_prime": report.lambda1_prime, "inventory": report.inventory,
        "minimal_decay": _law_record(report.minimal_decay),
        "maximal_decay": _law_record(report.maximal_decay),
        **{f"profile_{k}": v
           for k, v in _profile_record(report.profile).items()}}))
    return EXIT_EXCEPTIONAL if report.case_123 == "exceptional" else EXIT_OK


def cmd_wave(run: Run) -> int:
    profile, c = run.profile, _require(run.cfg, "speed", "c")
    wave = wavesolver.solve_wave(profile, c, run.target, run.solver)
    _write_wave_csv(run.path("wave.csv"), wave)
    run.json("wave.json", {**_wave_record(wave),
                           "profile": _profile_record(profile)})
    if run.args.svg:
        a_vals = np.asarray(profile.a(wave.grid), dtype=float)
        run.svg("wave_profile.svg",
                [("phi", wave.grid, wave.phi), ("a", wave.grid, a_vals)],
                title=f"forced wave, c = {c:g}", xlabel="z", ylabel="phi")
        right = wave.grid >= 0.0
        run.svg("wave_tail.svg",
                [("phi", wave.grid[right], wave.phi[right]),
                 ("a", wave.grid[right], a_vals[right])],
                title=f"tail decay, c = {c:g}", xlabel="z",
                ylabel="phi (log)", logy=True)
    print(f"wave solved: c = {c:g}, target = {wave.decay_tag}, "
          f"residual = {wave.residual_norm:.3e}, files in {run.dir}")
    return EXIT_OK


def _member_file(K: float) -> str:
    return f"family_K{K:g}.csv"


def cmd_family(run: Run) -> int:
    profile, c = run.profile, _require(run.cfg, "speed", "c")
    K_values = _require(run.cfg, "solver", "K")
    names = {}
    for K in K_values:
        name = _member_file(K)
        if name in names:
            raise ConfigError(f"[solver] K = {names[name]!r} and {K!r} both "
                              f"name the member file {name}")
        names[name] = K
    try:
        waves = wavesolver.wave_family(profile, c, K_values, run.solver)
    except AnsatzUnavailableError:
        raise  # a solver failure (exit 4), not a config error
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    members = []
    Ks = sorted(float(k) for k in K_values)
    for K, wave in zip(Ks, waves):
        _write_wave_csv(run.path(_member_file(K)), wave)
        members.append({"K": K, **_wave_record(wave)})
    orderings = [dataclasses.asdict(wavesolver.ordering_check(lo, hi))
                 for lo, hi in zip(waves[:-1], waves[1:])]
    run.json("family.json", {"c": c, "members": members,
                             "orderings": orderings,
                             "profile": _profile_record(profile)})
    if run.args.svg:
        right = waves[0].grid >= 0.0
        run.svg("family_tail.svg",
                [(f"K = {K:g}", w.grid[right], w.phi[right])
                 for K, w in zip(Ks, waves)],
                title=f"slow family tails, c = {c:g}", xlabel="z",
                ylabel="phi (log)", logy=True)
    ok = all(o["ordered"] for o in orderings)
    print(f"family of {len(waves)} solved; pairwise ordered: {ok}")
    return EXIT_OK if ok else EXIT_CHECK


def _initial_field(cfg: dict, profile: EnvironmentProfile, grid: np.ndarray):
    """The [simulation] initial field alpha or bump on grid.  The bump's
    node 0 holds a(-L), the Dirichlet value every step writes there, so the
    monitors see the bump move and not the wall jump."""
    sec = cfg.get("simulation", {})
    if sec.get("initial", "alpha") == "alpha":
        return np.full_like(grid, profile.alpha)
    center = sec.get("bump.center", profile.z_star)
    width = sec.get("bump.width", 5.0)
    height = sec.get("bump.height", 0.5 * profile.alpha)
    u0 = np.minimum(height * np.exp(-((grid - center) / width) ** 2),
                    profile.alpha)
    u0[0] = profile.a(grid[0])
    return u0


def cmd_simulate(run: Run) -> int:
    profile, c = run.profile, _require(run.cfg, "speed", "c")
    sec = run.cfg.get("simulation", {})
    T = _require(run.cfg, "simulation", "T")

    if sec.get("initial", "alpha") == "wave":
        wave = wavesolver.solve_wave(profile, c, run.target, run.solver)
        state = pdesim.state_from_wave(wave, profile)
    else:
        grid = run.solver.grid()
        u0 = _initial_field(run.cfg, profile, grid)
        state = pdesim.make_state(profile, c, grid, u0)

    monitors = {
        "distance_to_initial": pdesim.distance_monitor(state.u),
        "steady_residual": pdesim.residual_monitor(),
        "front_position": pdesim.front_position_monitor(profile.alpha),
    }
    result = pdesim.evolve(state, T, dt=sec.get("dt"), monitors=monitors,
                           monitor_every=sec.get("monitor_every"))
    _write_state_csv(run.path("state_initial.csv"), state)
    _write_state_csv(run.path("state_final.csv"), result.state)
    _write_monitors_csv(run.path("monitors.csv"), result)
    run.json("simulate.json", {
        "c": c, "T": T, "dt": sec.get("dt"),
        "steps_taken": result.steps_taken,
        "t_final": result.state.t,
        "drift_per_unit_time": result.drift_per_unit_time,
        "final_distance_to_initial": result.series["distance_to_initial"][-1],
        "final_steady_residual": result.series["steady_residual"][-1],
        "final_front_position": result.series["front_position"][-1],
    })
    if run.args.svg:
        run.svg("simulate_states.svg",
                [("initial", state.grid, state.u),
                 ("final", result.state.grid, result.state.u)],
                title=f"u at t = 0 and t = {result.state.t:g}",
                xlabel="z", ylabel="u")
    print(f"evolved to t = {result.state.t:g} in {result.steps_taken} steps; "
          f"drift/time = {result.drift_per_unit_time:.3e}")
    return EXIT_OK


def _candidate_ansatz(profile, c, tags) -> list:
    cands = []
    for tag in tags:
        _, ansatz = resolve_target(profile, c, tag)
        if ansatz is not None:
            cands.append(ansatz)
    return cands


def _fit_options(cfg: dict) -> tuple[tuple, float]:
    """The [fit] (candidates, window_fraction) of fit and sweep."""
    fsec = cfg.get("fit", {})
    return (fsec.get("candidates", TARGET_TAGS),
            fsec.get("window_fraction", 0.2))


def cmd_fit(run: Run) -> int:
    profile, c = run.profile, _require(run.cfg, "speed", "c")
    tags, wfrac = _fit_options(run.cfg)
    cands = _candidate_ansatz(profile, c, tags)
    if not cands:
        raise ConfigError(f"no fit candidate among {tags} is defined for "
                          "this profile and speed")
    wave = wavesolver.solve_wave(profile, c, run.target, run.solver)
    ranking = analysis.fit_decay(wave, cands, window_fraction=wfrac)
    _write_fit_csv(run.path("fit.csv"), ranking)
    run.json("fit.json", _ranking_record(ranking))
    w = ranking.winner
    flag = " (ambiguous)" if ranking.ambiguous else ""
    print(f"winner: {w.tag}{flag}, K = {w.amplitude:.6g}, "
          f"rms log error = {w.rms_log_error:.3e}")
    return EXIT_OK


def cmd_verify_oracles(run: Run) -> int:
    profile, c = run.profile, _require(run.cfg, "speed", "c")
    rows = []
    for name, make in oracles.comparison_suite(profile, c):
        try:
            fn = make()
        except (oracles.ConstructionError, ValueError) as exc:
            rows.append({"construction": name, "applicable": False,
                         "note": str(exc)})
            continue
        rep = oracles.residual_sign_check(fn)
        rows.append({"construction": name, "applicable": True,
                     "kind": rep.kind, "role": rep.role,
                     "passed": rep.passed,
                     "min_residual": rep.min_residual,
                     "max_residual": rep.max_residual, "note": ""})
    header = ["construction", "applicable", "kind", "role", "passed",
              "min_residual", "max_residual", "note"]
    write_csv(run.path("oracles.csv"), header,
              [[r.get(k, "") for r in rows] for k in header])
    run.json("oracles.json", {"c": c, "results": rows,
                              "profile": _profile_record(profile)})
    n_app = sum(r["applicable"] for r in rows)
    n_pass = sum(r.get("passed", False) for r in rows)
    for r in rows:
        status = ("pass" if r.get("passed") else
                  "FAIL" if r["applicable"] else "n/a ")
        print(f"  {status}  {r['construction']}")
    print(f"{n_pass}/{n_app} applicable constructions pass")
    return EXIT_OK if n_pass == n_app else EXIT_CHECK


def _sweep_point(profile, outcome, fit_tags, wfrac) -> dict:
    """A march outcome (WaveSolution or FailureRecord) as a sweep row; cells
    it lacks stay empty."""
    c = outcome.c
    report = classify(profile, c)
    row = {"c": c, "inventory": report.inventory or "",
           "case_123": report.case_123}
    if not isinstance(outcome, wavesolver.WaveSolution):
        return {**row, "status": outcome.kind}
    wave = outcome
    row.update(status="solved", residual_norm=wave.residual_norm,
               iterations=wave.iterations, phi_max=float(np.max(wave.phi)),
               phi_right=float(wave.phi[-1]))
    try:
        cands = _candidate_ansatz(profile, c, fit_tags)
        ranking = analysis.fit_decay(wave, cands, window_fraction=wfrac)
        verdict = analysis.inventory_verdict(profile, c, [wave], [ranking])
        row["winner"] = ranking.winner.tag
        row["winner_rms"] = ranking.winner.rms_log_error
        minimal = [ck for ck in verdict.checks
                   if ck["prediction"].startswith("minimal")]
        row["minimal_fit_ok"] = minimal[0]["passed"] if minimal else ""
    except (analysis.FitWindowError, ValueError):
        pass  # no usable fit: the fit cells stay empty
    return row


def cmd_sweep(run: Run) -> int:
    cfg, profile = run.cfg, run.profile
    start = _require(cfg, "speed", "c.start")
    stop = _require(cfg, "speed", "c.stop")
    steps = _require(cfg, "speed", "c.steps")
    fit_tags, wfrac = _fit_options(cfg)

    res = wavesolver.continuation_in_c(profile, start, stop, steps,
                                       run.target, run.solver)
    # both lists keep the march order, which is ascending or descending in c
    outcomes = sorted(res.solutions + res.failures, key=lambda o: o.c,
                      reverse=start > stop)
    rows = [_sweep_point(profile, o, fit_tags, wfrac) for o in outcomes]
    header = ["c", "status", "inventory", "case_123", "residual_norm",
              "iterations", "phi_max", "phi_right", "winner", "winner_rms",
              "minimal_fit_ok"]
    write_csv(run.path("sweep.csv"), header,
              [[r.get(k, "") for r in rows] for k in header])

    solved, failed = res.solved_c(), res.failed_c()
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
    run.json("sweep.json", summary)
    if run.args.svg and solved:
        amp = [r["phi_max"] for r in rows if r["status"] == "solved"]
        run.svg("sweep.svg", [("max phi", np.array(solved), np.array(amp))],
                title="wave amplitude over the speed range",
                xlabel="c", ylabel="max phi")
    if boundary:
        print(f"sweep: {len(solved)}/{len(rows)} solved; existence boundary "
              f"in [{boundary[0]:g}, {boundary[1]:g}]")
    else:
        print(f"sweep: {len(solved)}/{len(rows)} solved")
    return EXIT_OK


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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="INI experiment file")
    parser.add_argument("--out", default=None,
                        help="output directory (default from [output])")
    parser.add_argument("--svg", action="store_true",
                        help="also write SVG line plots")
    return parser


# typed error -> (exit code, stderr lead, whether the failure is tied to the
# run's speed c; a sweep's failure is at one of its own speeds, never at
# [speed] c); failure.json's "kind" is the error class's own `kind`
_FAILURES = {
    NewtonDivergenceError: (EXIT_SOLVER, "solver failure", True),
    NoPositiveWaveError: (EXIT_SOLVER, "solver failure", True),
    AnsatzUnavailableError: (EXIT_SOLVER, "solver failure", True),
    pdesim.StepRejectedError: (EXIT_SOLVER, "time step rejected", False),
    analysis.FitWindowError: (EXIT_CHECK, "fit rejected", False),
}


def _report_failure(run: Run, exc: Exception) -> int:
    """Write failure.json for a typed error, plus residual_history.csv when
    the error carries a Newton residual history; return the exit code."""
    code, lead, at_c = next(v for cls, v in _FAILURES.items()
                            if isinstance(exc, cls))
    at_c = at_c and run.args.command != "sweep"
    c = run.cfg["speed"].get("c") if at_c else None
    where = "" if c is None else f" at c = {c:g}"
    print(f"{lead}{where}: {exc}", file=sys.stderr)
    record = {"kind": exc.kind, "message": str(exc)}
    if c is not None:
        record["c"] = c
    if isinstance(exc, pdesim.StepRejectedError):
        record["suggested_dt"] = exc.suggested_dt
    run.json("failure.json", record)
    hist = getattr(exc, "residual_history", None)
    if hist is not None:
        write_csv(run.path("residual_history.csv"),
                  ["iteration", "max_residual"],
                  [range(len(hist)), [float(r) for r in hist]])
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = Run(args, load_config(args.config))
        try:
            code = _COMMANDS[args.command](run)
        except tuple(_FAILURES) as exc:
            code = _report_failure(run, exc)
        run.json("manifest.json", {
            "command": args.command, "config": args.config, "svg": args.svg,
            "outputs": sorted(run.outputs)})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
