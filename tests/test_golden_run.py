"""tools/golden_run.py: --compare matches ACCEPTANCE lines by number,
gives each differing CSV column's relative difference beside the absolute
one and names the first differing line of a CSV whose cells parse equal, the
ACCEPTANCE lines come from the tests beside --src, every target tag gets a
wave run, the plotting commands run with --svg, two records of different
numpy builds get one note line that is not a difference, and the N = 10
run pins the parse-time check of [solver] N."""

import importlib.util
import json
import re
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from forcedwaves.environment import TARGET_TAGS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_run.py"
_spec = importlib.util.spec_from_file_location("golden_run", TOOL)
golden_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_run)


def test_missing_acceptance_line_is_the_only_difference(tmp_path):
    lines = [f"ACCEPTANCE {n:02d} PASS criterion-{n}: measured {n}"
             for n in range(1, 15)]
    a = {"runs": {}, "acceptance": lines, "acceptance_exit": 0}
    b = dict(a, acceptance=[ln for ln in lines if not ln.startswith("ACCEPTANCE 10 ")])
    assert golden_run.compare(a, b, tmp_path, tmp_path) == ["ACCEPTANCE 10: only in A"]


def test_equal_cells_name_the_first_differing_line(tmp_path):
    # the same numbers in other text: max |delta| alone reads 0
    for side, cell in (("a", "1e+16"), ("b", "10000000000000000")):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "wave.csv").write_text(
            f"z,phi\r\n0,1\r\n1,{cell}\r\n", encoding="utf-8", newline="")
    a = {"runs": {"run": {"exit": 0, "files": {"wave.csv": "sha-a"}}}}
    b = {"runs": {"run": {"exit": 0, "files": {"wave.csv": "sha-b"}}}}
    assert golden_run.compare(a, b, tmp_path / "a", tmp_path / "b") == [
        "run/wave.csv: max |delta| z 0, phi 0; "
        "line 3: '1,1e+16\\r\\n' != '1,10000000000000000\\r\\n'"]


def test_column_deltas_give_the_relative_difference(tmp_path):
    # an absolute 3e-292 in a field that decays to 1e-287 is a relative 3e-5
    for side, cell in (("a", "1e-287"), ("b", "1.00003e-287")):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "state.csv").write_text(
            f"z,u\r\n0,0.5\r\n1,{cell}\r\n", encoding="utf-8", newline="")
    a = {"runs": {"run": {"exit": 0, "files": {"state.csv": "sha-a"}}}}
    b = {"runs": {"run": {"exit": 0, "files": {"state.csv": "sha-b"}}}}
    assert golden_run.compare(a, b, tmp_path / "a", tmp_path / "b") == [
        "run/state.csv: max |delta| z 0, u 3e-292 (rel 3e-05)"]


def test_a_different_numpy_build_is_a_note_not_a_difference(tmp_path, capsys):
    # without AVX-512 dispatch np.exp rounds differently, so the data files
    # of one tree can differ between the two records
    avx512 = {"baseline": ["X86_V2"],
              "found": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
    v3 = {"baseline": ["X86_V2"], "found": ["X86_V3"],
          "not found": ["X86_V4", "AVX512_ICL", "AVX512_SPR"]}
    old = {"runs": {}, "acceptance": [], "acceptance_exit": 0}
    records = {"a": avx512, "b": v3, "c": avx512, "old": None}
    for side, simd in records.items():
        (tmp_path / side).mkdir()
        rec = old if simd is None else dict(old, numpy_version="2.4.6",
                                             simd_extensions=simd)
        (tmp_path / side / "golden.json").write_text(json.dumps(rec))

    def compare(x, y):
        code = golden_run.main(["--compare", str(tmp_path / x), str(tmp_path / y)])
        return code, capsys.readouterr().out.splitlines()

    code, lines = compare("a", "b")
    assert code == 0 and lines == [
        "note: A ran numpy 2.4.6 on X86_V3,X86_V4,AVX512_ICL,AVX512_SPR, "
        "B ran numpy 2.4.6 on X86_V3; exp, log and power may round "
        "differently, so data files may differ in their last bits",
        "0 difference(s)"]
    # the same build, or a record from before the fields, gives no note
    assert compare("a", "c") == (0, ["0 difference(s)"])
    assert compare("a", "old") == (0, ["0 difference(s)"])


def test_the_record_names_the_numpy_build():
    build = golden_run.numpy_build()
    assert build["numpy_version"] == np.__version__
    assert "baseline" in build["simd_extensions"]


def test_acceptance_runs_the_tests_beside_src(tmp_path, monkeypatch):
    # a record of another checkout must run that checkout's tests, not the
    # ones next to the tool
    src = tmp_path / "checkout" / "src"
    src.mkdir(parents=True)
    seen = {}

    def fake_run(argv, env, cwd, **kwargs):
        seen.update(argv=argv, env=env, cwd=cwd)
        return subprocess.CompletedProcess(
            argv, 0, stdout="ACCEPTANCE 01 PASS x\n", stderr="")

    monkeypatch.setattr(golden_run.subprocess, "run", fake_run)
    assert golden_run.acceptance_lines(src) == (0, ["ACCEPTANCE 01 PASS x"])
    checkout = src.resolve().parent
    assert seen["argv"][-1] == str(checkout / "tests" / "test_acceptance.py")
    assert seen["cwd"] == checkout
    assert seen["env"]["PYTHONPATH"] == str(src.resolve())


def test_one_wave_run_per_target_tag():
    assert golden_run.TARGET_TAGS == TARGET_TAGS
    for text in golden_run.CONFIGS.values():
        runs = {suffix: ini for suffix, _, ini in golden_run.config_runs(text)}
        for tag in TARGET_TAGS:
            assert re.findall(r"^target = (.*)$", runs[f"wave-{tag}"],
                              re.M) == [tag]


def test_plotting_commands_run_with_svg_and_hash_the_plots(tmp_path,
                                                           monkeypatch):
    # wave, family, sweep and simulate write SVG plots only under --svg;
    # each plot then counts as a data file of the run
    plotting = {"wave", "family", "sweep", "simulate"}
    seen = {}

    def fake_run(argv, env, **kwargs):
        command, out = argv[3], Path(argv[argv.index("--out") + 1])
        seen[out.name] = (command, "--svg" in argv)
        if "--svg" in argv:
            (out / "plot.svg").write_text("<svg/>\n", encoding="utf-8")
        (out / "manifest.json").write_text("{}\n", encoding="utf-8")
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(golden_run, "CONFIGS",
                        {"exp": golden_run.CONFIGS["exp"]})
    monkeypatch.setattr(golden_run.subprocess, "run", fake_run)
    runs = golden_run.run_all(tmp_path / "golden", tmp_path / "src")
    assert set(runs) == set(seen)
    assert {command for command, _ in seen.values()} >= plotting
    for name, (command, svg) in seen.items():
        assert svg == (command in plotting)
        assert sorted(runs[name]["files"]) == (["plot.svg"] if svg else [])


def _first_step_solves(monkeypatch, tmp_path, ini_text):
    """The LAPACK solves of the first IMEX step of a simulate run's config."""
    from forcedwaves import cli, frame, pdesim

    ini = tmp_path / "run.ini"
    ini.write_text(ini_text, encoding="utf-8")
    cfg = cli.load_config(ini)
    run = cli.Run(SimpleNamespace(out=str(tmp_path / "out")), cfg)
    grid = run.solver.grid()
    state = pdesim.make_state(run.profile, cfg["speed"]["c"], grid,
                              cli._initial_field(cfg, run.profile, grid))
    calls = []
    for name in ("dpttrs", "dgttrs"):
        def counted(*args, _real=getattr(frame, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(frame, name, counted)
    pdesim.step(state, pdesim.default_dt(state))
    return calls


def test_the_c4_run_takes_the_pivoted_lu(monkeypatch, tmp_path):
    # the one golden run whose IMEX step takes frame.factor's LU; the same
    # bump at the config's own c = 1 takes the symmetric solve
    runs = {suffix: (command, ini) for suffix, command, ini
            in golden_run.one_config_runs("alg3", golden_run.CONFIGS["alg3"])}
    command, ini = runs["simulate-bump-c4"]
    assert command == "simulate"
    assert re.findall(r"^c = (.*)$", ini, re.M) == ["4.0"]
    assert _first_step_solves(monkeypatch, tmp_path, ini) == ["dgttrs"]
    at_c1 = dict((s, i) for s, _, i in golden_run.config_runs(
        golden_run.CONFIGS["alg3"]))["simulate-bump"]
    assert _first_step_solves(monkeypatch, tmp_path, at_c1) == ["dpttrs"]
    assert [suffix for name, text in golden_run.CONFIGS.items()
            for suffix, command, _ in golden_run.one_config_runs(name, text)
            if command == "simulate"] == ["simulate-bump-c4"]


def test_the_N10_run_exits_2_when_the_file_is_read(tmp_path, capsys):
    # classify builds no grid, and used to exit 0 and write classify.json
    from forcedwaves import cli

    runs = {suffix: (command, ini) for suffix, command, ini
            in golden_run.one_config_runs("exp", golden_run.CONFIGS["exp"])}
    command, ini = runs["classify-N10"]
    assert command == "classify"
    assert re.findall(r"^N = (.*)$", ini, re.M) == ["10"]
    (tmp_path / "run.ini").write_text(ini, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(tmp_path / "run.ini"),
                     "--out", str(out)]) == 2
    assert "[solver] N must be >= 1001" in capsys.readouterr().err
    assert not out.exists()
