"""Golden run of the forcedwaves CLI and acceptance gate: exit codes,
data-file hashes and the ACCEPTANCE lines.

Runs the commands classify, wave, fit, family, sweep, simulate (initial =
wave, bump and alpha, plus the bump at dt = 0.3, where every step runs the
exact dt check) and verify-oracles, plus two runs that must fail
(simulate with a step too large for the stability limit, fit with a window
too short) and one wave run per target tag set through [solver] target
(typed failures included), on five configs, and one simulate run of the
bump on the algebraic config at c = 4, whose IMEX step takes the pivoted
LU, and one classify run on the exp config with [solver] N = 10, which
every command rejects when the file is read; the configs are the README
exp.ini, an algebraic gamma = 3
profile, a power-tail profile at c = 0.7, and critical iterated-log profiles
with k = 1 and k = 2 at c = 1, and writes golden.json with each run's exit
code and the sha256 of every file it wrote except manifest.json (the only
file that carries timings and versions).  Every run of wave, family, sweep
and simulate passes --svg, so the SVG plots are hashed with the data files.  It also runs the
tests/test_acceptance.py beside SRC with -s and stores pytest's exit code
and the ACCEPTANCE lines it prints, which carry each criterion's measured
numbers.
A refactor that must not change results is checked by running this on the
code before and after it and comparing the two.

Byte-identical holds only for one numpy build on one set of CPU features:
numpy dispatches exp, log, power, expm1 and log1p to SIMD kernels chosen at
run time, and these round differently with and without AVX-512 (sqrt and
tanh do not).  With NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR"
the exp wave run writes a different wave.csv.  So golden.json records
numpy's version and its "SIMD Extensions" (which follow that variable), and
--compare prints one note line when both records carry them and they
differ; the note is not a difference and leaves the exit code alone.

    python tools/golden_run.py OUT [--src SRC]
    python tools/golden_run.py --compare A B

OUT is a new directory; each run's files stay under OUT/<run>.  SRC is the
source tree to import forcedwaves from (default: src next to this script).
--compare takes two golden.json files (or their directories), lists the
runs, files and ACCEPTANCE lines that differ and exits 1 if any do; lines
are matched by criterion number, so a criterion that printed no line is
named alone.  For a differing CSV file that both directories still hold,
it also prints max |A - B| per numeric column, with the max relative
difference beside each nonzero one, and, when every cell parses equal, the
first line whose text differs.  For a differing JSON file that both
directories hold, it prints the dotted keys whose values differ, A -> B.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIGS = {
    "exp": """
[profile]
alpha = 1.0
center = 4.0
width = 4.0
tail.kind = exp
tail.kappa = 2.0

[speed]
c = 1.0
c.start = 0.2
c.stop = 2.4
c.steps = 45

[solver]
L = 60
N = 4001
K = 0.5, 1.0, 2.0
""",
    "alg3": """
[profile]
alpha = 1.0
center = 8.0
width = 4.0
tail.kind = algebraic
tail.gamma = 3.0

[speed]
c = 1.0
c.start = 0.5
c.stop = 2.4
c.steps = 8

[solver]
L = 200
N = 8001
K = 0.5, 1.0, 2.0
""",
    # case 3 below c = 0.8; the sweep starts at 1.2, clear of the power-tail
    # sigma1 crash at low c
    "pow2": """
[profile]
alpha = 1.0
center = 15.0
width = 10.0
tail.kind = power
tail.gamma = 2.0
tail.p = 0.5

[speed]
c = 0.7
c.start = 1.2
c.stop = 2.4
c.steps = 4

[solver]
target = profile_itself
K = 0.5, 1.0, 2.0
""",
    # critical iterated-log tail (lead = c = 1, r = 2 > c): the only config
    # whose verify-oracles run builds the g1_sub k >= 1 and alg_super
    # q = 1/2 pair
    "itlog": """
[profile]
alpha = 1.0
center = 8.0
width = 4.0
tail.kind = iterated_log
tail.k = 1
tail.r = 2.0
tail.lead = 1.0

[speed]
c = 1.0
c.start = 0.6
c.stop = 1.4
c.steps = 5

[solver]
K = 0.005, 0.01
""",
    # two-fold iterated-log tail at c = lead = 1: the only config whose
    # verify-oracles run builds g1_sub with k >= 2
    "itlog2": """
[profile]
alpha = 1.0
center = 30.0
width = 4.0
tail.kind = iterated_log
tail.k = 2
tail.r = 2.8
tail.lead = 1.0

[speed]
c = 1.0
c.start = 0.6
c.stop = 1.4
c.steps = 5

[solver]
K = 0.005, 0.01
""",
}

SIMULATION = "\n[simulation]\nT = 1.0\ninitial = {}\n"

# (run suffix, command, INI text appended to the config)
COMMANDS = (
    ("classify", "classify", ""),
    ("wave", "wave", ""),
    ("fit", "fit", ""),
    ("family", "family", ""),
    ("sweep", "sweep", ""),
    ("simulate-wave", "simulate", SIMULATION.format("wave")),
    ("simulate-bump", "simulate", SIMULATION.format("bump")),
    ("simulate-alpha", "simulate", SIMULATION.format("alpha")),
    # dt = 0.3 on the height-1/2 bump: dt (max|a| + 2 max|u|) = 0.6 > 1/2,
    # so the step takes the exact bound check and still passes it
    ("simulate-bump-dt", "simulate",
     "\n[simulation]\nT = 2.0\ndt = 0.3\ninitial = bump\n"),
    ("verify-oracles", "verify-oracles", ""),
    # failure runs: failure.json kinds step_rejected and fit_window
    ("simulate-step-rejected", "simulate",
     "\n[simulation]\nT = 5.0\ndt = 1.0\n"),
    ("fit-window", "fit", "\n[fit]\nwindow_fraction = 0.01\n"),
)

# (config, run suffix, command, key, its value, INI text appended): runs on
# one config only, with one key's value replaced
ONE_CONFIG_RUNS = (
    # on L = 200, N = 8001 the LDL^T scale of I - dt A would span past
    # 2**1000 at c = 4, so every step takes frame.factor's pivoted LU
    ("alg3", "simulate-bump-c4", "simulate", "c", "4.0",
     SIMULATION.format("bump")),
    # fewer nodes than SolverConfig allows: exit 2 when the file is read,
    # also from classify, which builds no grid
    ("exp", "classify-N10", "classify", "N", "10", ""),
)


SVG_COMMANDS = ("wave", "family", "sweep", "simulate")

# environment.TARGET_TAGS; the tool imports nothing from the tree it records
TARGET_TAGS = ("pure_exp", "sigma1", "tilde_a", "slow_maximal", "profile_itself")


def config_runs(text: str):
    """(run suffix, command, INI text) of every run on one config: COMMANDS,
    then a wave run per target tag with the config's own target replaced."""
    for suffix, command, extra in COMMANDS:
        yield suffix, command, text + extra
    untargeted = re.sub(r"^target = .*\n", "", text, flags=re.M)
    for tag in TARGET_TAGS:
        yield (f"wave-{tag}", "wave",
               untargeted.replace("[solver]\n", f"[solver]\ntarget = {tag}\n"))


def one_config_runs(name: str, text: str):
    """(run suffix, command, INI text) of config name's ONE_CONFIG_RUNS."""
    for cfg_name, suffix, command, key, value, extra in ONE_CONFIG_RUNS:
        if cfg_name == name:
            yield suffix, command, re.sub(rf"^{re.escape(key)} = .*$",
                                          f"{key} = {value}", text,
                                          flags=re.M) + extra


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_all(out: Path, src: Path) -> dict:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    runs = {}
    for cfg_name, text in CONFIGS.items():
        for suffix, command, ini_text in (*config_runs(text),
                                          *one_config_runs(cfg_name, text)):
            name = f"{cfg_name}-{suffix}"
            rundir = out / name
            rundir.mkdir()
            ini = out / f"{name}.ini"
            ini.write_text(ini_text, encoding="utf-8")
            svg = ["--svg"] if command in SVG_COMMANDS else []
            proc = subprocess.run(
                [sys.executable, "-m", "forcedwaves.cli", command, *svg,
                 "--config", str(ini), "--out", str(rundir)],
                env=env, capture_output=True, text=True)
            files = {p.name: sha256(p) for p in sorted(rundir.iterdir())
                     if p.is_file() and p.name != "manifest.json"}
            runs[name] = {"exit": proc.returncode, "files": files}
            print(f"{name}: exit {proc.returncode}, {len(files)} files",
                  flush=True)
    return runs


def acceptance_lines(src: Path) -> tuple[int, list[str]]:
    """pytest's exit code and the ACCEPTANCE lines that the
    tests/test_acceptance.py beside src prints against src, so a record of
    another checkout runs that checkout's own tests."""
    checkout = src.resolve().parent
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         str(checkout / "tests" / "test_acceptance.py")],
        env=env, cwd=checkout, capture_output=True, text=True)
    # -s interleaves pytest's progress dots with the printed lines
    lines = re.findall(r"ACCEPTANCE \d+ .*", proc.stdout)
    print(f"acceptance: exit {proc.returncode}, {len(lines)} lines", flush=True)
    return proc.returncode, lines


def column_deltas(fa: Path, fb: Path) -> str:
    """max |A - B| per numeric column of two CSV files, row by row, and
    beside a nonzero one the max relative |A - B| / max(|A|, |B|).  When
    every cell parses equal, also the first line whose text differs, with
    its number and both texts (1e+16 against 10000000000000000, say)."""
    la, lb = (f.read_bytes().decode("utf-8").splitlines(keepends=True)
              for f in (fa, fb))
    ra, rb = list(csv.reader(la)), list(csv.reader(lb))
    if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        return "header or row count differs"
    out, worst = [], 0.0
    for j, name in enumerate(ra[0]):
        deltas, rels = [], []
        for x, y in zip(ra[1:], rb[1:]):
            try:
                u, v = float(x[j]), float(y[j])
            except ValueError:
                continue  # text or empty cells are covered by the hash
            deltas.append(abs(u - v))
            rels.append(deltas[-1] / max(abs(u), abs(v)) if deltas[-1] else 0.0)
        if deltas:
            # an absolute 3e-292 can be a relative 1e-5
            rel = f" (rel {max(rels):.3g})" if max(deltas) else ""
            out.append(f"{name} {max(deltas):.3g}{rel}")
            worst = max(worst, max(deltas))
    text = "max |delta| " + ", ".join(out)
    if worst == 0.0:
        first = next(((i, x, y) for i, (x, y) in enumerate(zip(la, lb), 1)
                      if x != y), None)
        if first is not None:
            text += "; line {}: {!r} != {!r}".format(*first)
    return text


def _flatten(value, key=""):
    """{dotted key: leaf} of a JSON value; list items are keyed by index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {key: value}
    out = {}
    for k, v in items:
        out.update(_flatten(v, f"{key}.{k}" if key else str(k)))
    return out or {key: value}


def key_deltas(fa: Path, fb: Path) -> str:
    """The dotted keys whose values differ between two JSON files, each as
    key A -> B (results.3.passed false -> true, say), in the order of A's
    keys, then B's own; a key that one file lacks reads (absent) there."""
    ja, jb = (_flatten(json.loads(f.read_text(encoding="utf-8"))) for f in (fa, fb))

    def show(j, k):
        return json.dumps(j[k]) if k in j else "(absent)"

    keys = list(ja) + [k for k in jb if k not in ja]
    return ", ".join(f"{k} {show(ja, k)} -> {show(jb, k)}" for k in keys
                     if show(ja, k) != show(jb, k))


def numpy_build() -> dict:
    """numpy's version and the SIMD extensions it dispatches to in this
    environment, as golden.json records them."""
    import numpy as np

    return {"numpy_version": np.__version__,
            "simd_extensions": np.show_config(mode="dicts")["SIMD Extensions"]}


def build_note(a: dict, b: dict):
    """One line when both records name their numpy build and the builds
    differ, else None: the data files may then differ in their last bits."""
    keys = ("numpy_version", "simd_extensions")
    if (any(k not in r for r in (a, b) for k in keys)
            or all(a[k] == b[k] for k in keys)):
        return None

    def name(r):
        found = ",".join(r["simd_extensions"].get("found", [])) or "baseline"
        return f"numpy {r['numpy_version']} on {found}"
    return (f"note: A ran {name(a)}, B ran {name(b)}; exp, log and power may "
            "round differently, so data files may differ in their last bits")


def compare(a: dict, b: dict, dir_a: Path, dir_b: Path) -> list[str]:
    """Differing ACCEPTANCE lines, runs and files of two golden.json records
    whose run files are under dir_a and dir_b.  A differing CSV that both
    directories hold also gets max |A - B| per numeric column, and a
    differing JSON file the dotted keys whose values differ."""
    diffs = []
    if a.get("acceptance_exit") != b.get("acceptance_exit"):
        diffs.append(f"acceptance: exit {a.get('acceptance_exit')} != "
                     f"{b.get('acceptance_exit')}")
    # "ACCEPTANCE NN ..." keyed by NN
    la, lb = ({line.split()[1]: line for line in r.get("acceptance", [])}
              for r in (a, b))
    for num in sorted(set(la) | set(lb)):
        if num not in la or num not in lb:
            diffs.append(f"ACCEPTANCE {num}: only in {'A' if num in la else 'B'}")
        elif la[num] != lb[num]:
            diffs.append(f"acceptance: {la[num]!r} != {lb[num]!r}")
    a, b = a["runs"], b["runs"]
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            diffs.append(f"{name}: only in {'A' if name in a else 'B'}")
            continue
        ra, rb = a[name], b[name]
        if ra["exit"] != rb["exit"]:
            diffs.append(f"{name}: exit {ra['exit']} != {rb['exit']}")
        for f in sorted(set(ra["files"]) | set(rb["files"])):
            if ra["files"].get(f) == rb["files"].get(f):
                continue
            fa, fb = dir_a / name / f, dir_b / name / f
            if f.endswith(".csv") and fa.is_file() and fb.is_file():
                diffs.append(f"{name}/{f}: {column_deltas(fa, fb)}")
            elif f.endswith(".json") and fa.is_file() and fb.is_file():
                diffs.append(f"{name}/{f}: {key_deltas(fa, fb)}")
            else:
                diffs.append(f"{name}/{f}")
    return diffs


def load(path: str) -> tuple[dict, Path]:
    """A golden.json record and the directory holding its run files."""
    p = Path(path)
    if p.is_dir():
        p = p / "golden.json"
    return json.loads(p.read_text(encoding="utf-8")), p.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="new output directory")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree holding the forcedwaves package")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two golden.json files")
    args = parser.parse_args(argv)
    if args.compare:
        (a, dir_a), (b, dir_b) = map(load, args.compare)
        diffs = compare(a, b, dir_a, dir_b)
        note = build_note(a, b)
        if note:
            print(note)
        for d in diffs:
            print(d)
        print(f"{len(diffs)} difference(s)")
        return 1 if diffs else 0
    if not args.out:
        parser.error("give OUT or --compare A B")
    out = Path(args.out)
    runs = run_all(out, Path(args.src))
    code, lines = acceptance_lines(Path(args.src))
    (out / "golden.json").write_text(
        json.dumps({"runs": runs, "acceptance": lines,
                    "acceptance_exit": code, **numpy_build()}, indent=2,
                   sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
