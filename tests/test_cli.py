"""End-to-end CLI checks: config validation, exit codes, artifact layout."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from forcedwaves import analysis, cli, pdesim, wavesolver
from forcedwaves.environment import (TARGET_TAGS, AnsatzUnavailableError,
                                     minimal_tag, resolve_target)
from forcedwaves.wavesolver import NoPositiveWaveError

EXP_INI = """\
[profile]
alpha = 1.0
center = 4.0
width = 4.0
tail.kind = exp
tail.kappa = 2.0

[speed]
c = 1.0

[solver]
L = 40
N = 2001
"""

ALG_INI = """\
[profile]
alpha = 1.0
center = 8.0
width = 4.0
tail.kind = algebraic
tail.gamma = 3.0

[speed]
c = 1.0
"""

# power tail a = 2 z^{-1/2}: case 3 at c = 0.7, and sigma1 is complex on the
# tail for c below about 0.8
POW2_INI = """\
[profile]
alpha = 1.0
center = 15.0
width = 10.0
tail.kind = power
tail.gamma = 2.0
tail.p = 0.5

[speed]
c = 0.7

[solver]
target = profile_itself
K = 0.5, 1.0, 2.0
"""


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


def cfg_file(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def run(cmd, config, out, *extra):
    return cli.main([cmd, "--config", str(config), "--out", str(out), *extra])


@pytest.fixture()
def records(monkeypatch):
    """The object behind each JSON file a run writes, by file name; Run.json
    writes non-JSON values through str, so JSON-readiness is checked here."""
    seen = {}
    real = cli.Run.json

    def spy(self, name, obj):
        seen[name] = obj
        return real(self, name, obj)

    monkeypatch.setattr(cli.Run, "json", spy)
    return seen


@pytest.fixture()
def solved(monkeypatch):
    """Every wave the run's solve_wave calls return, in order."""
    waves = []
    real = wavesolver.solve_wave

    def spy(*args, **kwargs):
        waves.append(real(*args, **kwargs))
        return waves[-1]

    monkeypatch.setattr(wavesolver, "solve_wave", spy)
    return waves


def json_ready(obj) -> bool:
    return json.loads(json.dumps(obj)) == obj


class TestConfigValidation:
    def test_missing_file(self, tmp_path, outdir, capsys):
        rc = run("classify", tmp_path / "nope.ini", outdir)
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI + "\n[turbo]\nknob = 3\n")
        assert run("classify", cfg, outdir) == 2
        assert "unknown section [turbo]" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.replace("c = 1.0", "c = 1.0\nwarp = 9"))
        assert run("classify", cfg, outdir) == 2
        assert "unknown key 'warp'" in capsys.readouterr().err
        # the Newton tolerance, iteration cap and halvings are constants
        cfg = cfg_file(tmp_path, EXP_INI + "max_halvings = 10\n")
        assert run("classify", cfg, outdir) == 2
        assert "unknown key 'max_halvings'" in capsys.readouterr().err

    def test_bad_type(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.replace("alpha = 1.0", "alpha = tall"))
        assert run("classify", cfg, outdir) == 2
        err = capsys.readouterr().err
        assert "[profile] alpha" in err and "'tall'" in err

    def test_missing_required_key(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.replace("alpha = 1.0\n", ""))
        assert run("classify", cfg, outdir) == 2
        assert "missing required key 'alpha'" in capsys.readouterr().err

    def test_missing_speed_section(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.split("[speed]")[0])
        assert run("classify", cfg, outdir) == 2
        assert "missing required section [speed]" in capsys.readouterr().err

    def test_foreign_tail_key(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path,
                       EXP_INI.replace("tail.kappa = 2.0",
                                       "tail.kappa = 2.0\ntail.gamma = 3.0"))
        assert run("classify", cfg, outdir) == 2
        assert "does not belong to tail.kind = 'exp'" in capsys.readouterr().err

    def test_unknown_tail_kind(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.replace("tail.kind = exp",
                                                 "tail.kind = banana"))
        assert run("classify", cfg, outdir) == 2
        assert "tail.kind" in capsys.readouterr().err

    def test_invalid_profile_values(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.replace("tail.kappa = 2.0",
                                                 "tail.kappa = -1.0"))
        assert run("classify", cfg, outdir) == 2
        assert "invalid profile" in capsys.readouterr().err

    def test_bad_solver_section(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.replace("N = 2001", "N = 10"))
        assert run("wave", cfg, outdir) == 2
        assert "[solver] N must be >= 1001" in capsys.readouterr().err

    def test_bad_target(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI + "target = warp_drive\n")
        assert run("wave", cfg, outdir) == 2
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize("command, speed, simulation, key", [
        ("classify", "c = 0.0", "", "[speed] c"),
        ("classify", "c = -1.0", "", "[speed] c"),
        ("wave", "c = 0.0", "", "[speed] c"),
        ("wave", "c = -1.0", "", "[speed] c"),
        ("fit", "c = 0.0", "", "[speed] c"),
        ("fit", "c = -1.0", "", "[speed] c"),
        ("verify-oracles", "c = 0.0", "", "[speed] c"),
        ("sweep", "c.start = -0.5\nc.stop = 1.0\nc.steps = 3", "", "[speed] c.start"),
        ("simulate", "c = -1.0", "T = 1.0", "[speed] c"),
        ("simulate", "c = 1.0", "T = 1.0\ndt = 0", "[simulation] dt"),
        ("simulate", "c = 1.0", "T = 1.0\ndt = -0.1", "[simulation] dt"),
        ("simulate", "c = 1.0", "T = 1.0\nmonitor_every = 0", "[simulation] monitor_every"),
    ], ids=["classify-c0", "classify-cneg", "wave-c0", "wave-cneg", "fit-c0",
            "fit-cneg", "verify-oracles-c0", "sweep-cstart", "simulate-cneg",
            "simulate-dt0", "simulate-dtneg", "simulate-monitor0"])
    def test_nonpositive_values_exit_2(self, tmp_path, outdir, capsys, command,
                                       speed, simulation, key):
        ini = EXP_INI.replace("c = 1.0", speed)
        if simulation:
            ini += f"\n[simulation]\n{simulation}\n"
        assert run(command, cfg_file(tmp_path, ini), outdir) == 2
        assert f"{key} must be positive" in capsys.readouterr().err
        assert not outdir.exists()

    # rejected before any solve and before the output directory exists: the
    # family and fit cases only after the command has built what the check
    # reads, the unknown initial when the file is parsed
    @pytest.mark.parametrize("command, ini", [
        ("family", ALG_INI.replace("gamma = 3.0", "gamma = 0.5")
         + "\n[solver]\nK = 0.5, 1.0\n"),
        ("simulate", EXP_INI + "\n[simulation]\nT = 1.0\ninitial = bogus\n"),
        ("fit", EXP_INI + "\n[fit]\ncandidates = slow_maximal\n"),
    ], ids=["family-case-1", "simulate-initial", "fit-candidates"])
    def test_late_config_errors_leave_no_directory(self, tmp_path, outdir,
                                                   capsys, monkeypatch,
                                                   command, ini):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the config was rejected")

        monkeypatch.setattr(wavesolver, "solve_wave", no_solve)
        assert run(command, cfg_file(tmp_path, ini), outdir) == 2
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    # checked against _SCHEMA at parse time, so a command that never reads
    # the key rejects it too; classify and verify-oracles used to exit 0
    @pytest.mark.parametrize("command", ["classify", "verify-oracles"])
    @pytest.mark.parametrize("old, new, message", [
        ("tail.kind = exp", "tail.kind = warp", "[profile] tail.kind 'warp'"),
        ("N = 2001", "N = 2001\ntarget = warp_drive",
         "[solver] target 'warp_drive'"),
        ("N = 2001", "N = 2001\n\n[simulation]\ninitial = vortex",
         "[simulation] initial 'vortex'"),
        ("N = 2001", "N = 2001\n\n[fit]\ncandidates = pure_exp, banana",
         "[fit] candidates 'banana'"),
    ], ids=["tail-kind", "target", "initial", "candidates"])
    def test_unknown_names_exit_2_whatever_the_command(
            self, tmp_path, outdir, capsys, command, old, new, message):
        assert old in EXP_INI
        cfg = cfg_file(tmp_path, EXP_INI.replace(old, new))
        assert run(command, cfg, outdir) == 2
        assert f"{message} is not one of" in capsys.readouterr().err
        assert not outdir.exists()

    # each used to exit 1 (an OverflowError in evolve's monitor_every
    # default, a ValueError from the IMEX step, brentq's NaN error), exit 4
    # ("residual became non-finite") or, with monitor_every set, never return
    @pytest.mark.parametrize("command, ini", [
        ("simulate", EXP_INI + "\n[simulation]\nT = inf\n"),
        ("simulate", EXP_INI + "\n[simulation]\nT = inf\nmonitor_every = 5\n"),
        ("simulate", EXP_INI + "\n[simulation]\nT = 1.0\ninitial = bump\n"
         "bump.height = inf\n"),
        ("simulate", EXP_INI + "\n[simulation]\nT = 1.0\ninitial = bump\n"
         "bump.center = nan\n"),
        ("classify", EXP_INI.replace("center = 4.0", "center = nan")),
        ("wave", EXP_INI.replace("alpha = 1.0", "alpha = nan")),
        ("wave", EXP_INI.replace("L = 40", "L = inf")),
        ("family", ALG_INI + "\n[solver]\nK = 0.5, nan\n"),
    ], ids=["simulate-T-inf", "simulate-T-inf-monitor", "bump-height-inf",
            "bump-center-nan", "profile-center-nan", "alpha-nan",
            "solver-L-inf", "family-K-nan"])
    def test_non_finite_values_exit_2(self, tmp_path, outdir, capsys,
                                      monkeypatch, command, ini):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolved before the config was rejected")

        monkeypatch.setattr(pdesim, "evolve", no_evolve)
        assert run(command, cfg_file(tmp_path, ini), outdir) == 2
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    # checked when the file is read, whatever the command and [simulation]
    # initial; classify and verify-oracles, which neither build a grid nor
    # read K or candidates, used to exit 0 on the [solver] and [fit] values
    @pytest.mark.parametrize("command, line, message", [
        pytest.param("classify", "[speed]\nc.steps = -1",
                     "[speed] c.steps must be >= 0", id="c-steps"),
        pytest.param("classify", "[simulation]\nbump.width = 0",
                     "[simulation] bump.width must be positive",
                     id="bump-width"),
        pytest.param("classify", "[simulation]\nbump.height = -0.5",
                     "[simulation] bump.height must be positive",
                     id="bump-height"),
        pytest.param("classify", "[fit]\nwindow_fraction = 0",
                     "[fit] window_fraction must lie in (0, 1)",
                     id="window-fraction"),
        *(pytest.param(command, line, message, id=f"{name}-{command}")
          for name, line, message in [
              ("L-negative", "[solver]\nL = -60", "[solver] L must be positive"),
              ("N-10", "[solver]\nN = 10", "[solver] N must be >= 1001"),
              ("K-negative", "[solver]\nK = -1.0", "[solver] K must be positive"),
              ("K-empty", "[solver]\nK =",
               "[solver] K must name at least one value"),
              ("candidates-empty", "[fit]\ncandidates =",
               "[fit] candidates must name at least one value")]
          for command in ("classify", "verify-oracles")),
    ])
    def test_ranges_are_checked_on_read(self, tmp_path, outdir, capsys,
                                        command, line, message):
        section, setting = line.split("\n")
        # a key EXP_INI sets is replaced, not repeated
        key = setting.split("=")[0].strip()
        ini = re.sub(rf"^{re.escape(key)} = .*\n", "", EXP_INI, flags=re.M)
        ini = (ini.replace(section, line) if section in ini
               else ini + f"\n{line}\n")
        assert run(command, cfg_file(tmp_path, ini), outdir) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not outdir.exists()

    # mkdir used to raise FileExistsError outside main's handlers (exit 1);
    # the simulate case fails a step first, so its first write is failure.json
    @pytest.mark.parametrize("command, ini, via", [
        ("classify", EXP_INI, "--out"),
        ("classify", EXP_INI, "[output]"),
        ("simulate", EXP_INI + "\n[simulation]\ninitial = alpha\nT = 5.0\n"
         "dt = 1.0\n", "--out"),
    ])
    def test_output_path_naming_a_file_exits_2(self, tmp_path, capsys,
                                               command, ini, via):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        if via == "--out":
            code = run(command, cfg_file(tmp_path, ini), afile)
        else:
            ini += f"\n[output]\ndirectory = {afile}\n"
            code = cli.main([command, "--config", str(cfg_file(tmp_path, ini))])
        assert code == 2
        assert ("config error: cannot create output directory"
                in capsys.readouterr().err)
        assert afile.read_text() == "kept"


class TestParser:
    @pytest.mark.parametrize("command", ["classify", "wave"])
    def test_options_before_the_command(self, tmp_path, capsys, command):
        cfg = str(cfg_file(tmp_path, EXP_INI))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([command, "--config", cfg, "--out", str(a)]) == \
            cli.main(["--config", cfg, "--out", str(b), command]) == 0
        capsys.readouterr()
        manifests = [json.loads((d / "manifest.json").read_text())
                     for d in (a, b)]
        assert manifests[0] == manifests[1]
        for name in manifests[0]["outputs"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_command(self, tmp_path, capsys):
        cfg = str(cfg_file(tmp_path, EXP_INI))
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--config", cfg])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert ("{classify,wave,family,simulate,fit,verify-oracles,sweep}"
                in capsys.readouterr().out)


class TestClassify:
    def test_classify_writes_report(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI)
        assert run("classify", cfg, outdir) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inventory"] == "unique-exponential"
        on_disk = json.loads((outdir / "classify.json").read_text())
        assert on_disk == payload
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["outputs"] == ["classify.json"]
        assert manifest["command"] == "classify"

    def test_empty_inventory_is_still_success(self, tmp_path, outdir, capsys):
        ini = ALG_INI.replace("tail.gamma = 3.0", "tail.gamma = 0.5")
        ini = ini.replace("c = 1.0", "c = 3.0")
        cfg = cfg_file(tmp_path, ini)
        assert run("classify", cfg, outdir) == 0
        assert json.loads(capsys.readouterr().out)["inventory"] == "none"

    def test_exceptional_case_exit_code(self, tmp_path, outdir, monkeypatch):
        real = cli.classify

        def odd(profile, c):
            return dataclasses.replace(real(profile, c),
                                       case_123="exceptional", inventory=None)

        monkeypatch.setattr(cli, "classify", odd)
        cfg = cfg_file(tmp_path, EXP_INI)
        assert run("classify", cfg, outdir) == 3

    def test_report_is_json_ready(self, tmp_path, outdir, capsys, records):
        cfg = cfg_file(tmp_path, ALG_INI)
        assert run("classify", cfg, outdir) == 0
        capsys.readouterr()
        d = records["classify.json"]
        assert json_ready(d)
        assert d["minimal_decay"]["tag"] == "sigma1"
        assert d["maximal_decay"]["tag"] == "slow_maximal"
        assert d["profile_tail_params"] == {"gamma": 3.0}

    @pytest.mark.parametrize("tag", TARGET_TAGS)
    @pytest.mark.parametrize("fixture", ["alg3", "pow2"])
    def test_law_record_is_json_ready(self, request, fixture, tag):
        # every decay law class, on the profiles where all five are defined
        law = resolve_target(request.getfixturevalue(fixture), 1.0, tag)[1]
        d = cli._law_record(law)
        assert json_ready(d)
        assert d["tag"] == tag and "profile" not in d
        assert set(d) == {"tag"} | {f.name for f in dataclasses.fields(law)
                                    if f.name != "profile"}

    def test_output_dir_from_config(self, tmp_path, capsys):
        dest = tmp_path / "cfg_dest"
        ini = EXP_INI + f"\n[output]\ndirectory = {dest}\n"
        cfg = cfg_file(tmp_path, ini)
        assert cli.main(["classify", "--config", str(cfg)]) == 0
        assert (dest / "classify.json").is_file()
        capsys.readouterr()


class TestWave:
    def test_solves_and_writes(self, tmp_path, outdir, capsys, records,
                               solved):
        cfg = cfg_file(tmp_path, EXP_INI + "target = sigma1\n")
        assert run("wave", cfg, outdir) == 0
        assert "wave solved" in capsys.readouterr().out
        [wave] = solved
        data = (outdir / "wave.csv").read_bytes()
        assert data.startswith(b"z,phi\r\n") and data.endswith(b"\r\n")
        lines = data.decode().split("\r\n")[:-1]
        assert len(lines) == 2002 == len(wave.grid) + 1
        # every cell reads back as the exact float it was written from
        cells = [line.split(",") for line in lines[1:]]
        assert all(float(z) == v for (z, _), v in zip(cells, wave.grid))
        assert all(float(p) == v for (_, p), v in zip(cells, wave.phi))
        assert json_ready(records["wave.json"])
        side = json.loads((outdir / "wave.json").read_text())
        assert side["c"] == 1.0
        assert side["profile"]["tail_kind"] == "exp"
        assert side["decay_tag"] == "sigma1"
        assert side["residual_norm"] == wave.residual_norm < 1e-9

    def test_failure_protocol(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI.replace("c = 1.0", "c = 2.2"))
        assert run("wave", cfg, outdir) == 4
        assert "solver failure" in capsys.readouterr().err
        fail = json.loads((outdir / "failure.json").read_text())
        assert fail["kind"] in ("no_positive_wave", "divergence")
        assert fail["c"] == 2.2
        hist = (outdir / "residual_history.csv").read_text().splitlines()
        assert hist[0] == "iteration,max_residual"
        assert not (outdir / "wave.csv").exists()

    def test_svg_outputs_parse(self, tmp_path, outdir):
        cfg = cfg_file(tmp_path, EXP_INI)
        assert run("wave", cfg, outdir, "--svg") == 0
        for name in ("wave_profile.svg", "wave_tail.svg"):
            root = ET.fromstring((outdir / name).read_text())
            assert root.tag.endswith("svg")
            assert any(ch.tag.endswith("polyline") for ch in root.iter())

    def test_byte_determinism(self, tmp_path):
        cfg = cfg_file(tmp_path, EXP_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("wave", cfg, a) == 0
        assert run("wave", cfg, b) == 0
        assert (a / "wave.csv").read_bytes() == (b / "wave.csv").read_bytes()
        assert (a / "wave.json").read_bytes() == (b / "wave.json").read_bytes()


class TestFamily:
    def test_family_artifacts(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, ALG_INI + "\n[solver]\nK = 1.0, 0.5\n")
        assert run("family", cfg, outdir) == 0
        assert "pairwise ordered: True" in capsys.readouterr().out
        fam = json.loads((outdir / "family.json").read_text())
        assert [m["K"] for m in fam["members"]] == [0.5, 1.0]  # sorted
        assert all(o["ordered"] for o in fam["orderings"])
        assert (outdir / "family_K0.5.csv").is_file()
        assert (outdir / "family_K1.csv").is_file()

    # {K:g} names both 0.5 and 0.5000001 family_K0.5.csv, so the second
    # member's file used to overwrite the first
    @pytest.mark.parametrize("K", ["0.5, 0.5000001", "0.5, 0.5", "1, 2, 1.0"])
    def test_colliding_member_files_exit_2(self, tmp_path, outdir, capsys,
                                           monkeypatch, K):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the config was rejected")

        monkeypatch.setattr(wavesolver, "solve_wave", no_solve)
        cfg = cfg_file(tmp_path, ALG_INI + f"\n[solver]\nK = {K}\n")
        assert run("family", cfg, outdir) == 2
        assert "both name the member file" in capsys.readouterr().err
        assert not outdir.exists()

    def test_family_needs_K(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, ALG_INI)
        assert run("family", cfg, outdir) == 2
        assert "missing required section [solver]" in capsys.readouterr().err

    def test_family_rejected_outside_slow_regimes(self, tmp_path, outdir,
                                                  capsys):
        cfg = cfg_file(tmp_path, EXP_INI + "K = 1.0\n")
        assert run("family", cfg, outdir) == 2
        assert "case 2 or 3" in capsys.readouterr().err


class TestSimulate:
    def test_wave_initial_is_steady(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[simulation]\ninitial = wave\nT = 1.0\ndt = 0.01\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("simulate", cfg, outdir) == 0
        capsys.readouterr()
        meta = json.loads((outdir / "simulate.json").read_text())
        assert meta["steps_taken"] == 100
        assert float(meta["drift_per_unit_time"]) < 1e-10
        for name in ("state_initial.csv", "state_final.csv"):
            rows = (outdir / name).read_text().splitlines()
            assert rows[0] == "t,z,u"
            assert len(rows) == 2001 + 1
        # long format: each metric's rows in one block, metrics by name,
        # every block on the same times
        mon = [r.split(",") for r in
               (outdir / "monitors.csv").read_text().splitlines()]
        assert mon[0] == ["t", "metric", "value"]
        names = sorted({"distance_to_initial", "steady_residual",
                        "front_position"})
        n = (len(mon) - 1) // len(names)
        assert n > 1 and len(mon) == 1 + n * len(names)
        assert [r[1] for r in mon[1:]] == [m for m in names for _ in range(n)]
        times = [r[0] for r in mon[1:]]
        assert times == times[:n] * len(names)

    def test_bump_initial(self, tmp_path, outdir, capsys):
        ini = (EXP_INI + "\n[simulation]\ninitial = bump\nT = 0.5\n"
               "bump.height = 0.4\nbump.width = 3.0\n")
        cfg = cfg_file(tmp_path, ini)
        assert run("simulate", cfg, outdir) == 0
        assert "evolved to t = 0.5" in capsys.readouterr().out

    # node 0 of the bump used to be ~0 while every step writes a(-L) = 1
    # there, so final_distance_to_initial read exactly 1.0 (and the drift
    # 1/T): the wall jump, not the bump's motion
    def test_bump_starts_at_the_wall_value(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[simulation]\ninitial = bump\nT = 1.0\n"
        assert run("simulate", cfg_file(tmp_path, ini), outdir) == 0
        capsys.readouterr()
        first = [(outdir / name).read_text().splitlines()[1].split(",")[2]
                 for name in ("state_initial.csv", "state_final.csv")]
        assert first[0] == first[1]
        meta = json.loads((outdir / "simulate.json").read_text())
        assert 0 < meta["final_distance_to_initial"] < 1

    def test_step_rejection_exit_code(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[simulation]\ninitial = alpha\nT = 5.0\ndt = 1.0\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("simulate", cfg, outdir) == 4
        assert "time step rejected" in capsys.readouterr().err
        fail = json.loads((outdir / "failure.json").read_text())
        assert fail["kind"] == "step_rejected"
        assert fail["suggested_dt"] == pytest.approx(0.45, rel=1e-9)

    def test_T_required_and_positive(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI + "\n[simulation]\ninitial = alpha\n")
        assert run("simulate", cfg, outdir) == 2
        assert "missing required key 'T'" in capsys.readouterr().err
        cfg2 = cfg_file(tmp_path, EXP_INI + "\n[simulation]\nT = -1.0\n",
                        name="neg.ini")
        assert run("simulate", cfg2, outdir) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_unknown_initial(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[simulation]\nT = 1.0\ninitial = vortex\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("simulate", cfg, outdir) == 2
        assert ("[simulation] initial 'vortex' is not one of wave, alpha, bump"
                in capsys.readouterr().err)

    def test_svg(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[simulation]\ninitial = wave\nT = 0.2\ndt = 0.01\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("simulate", cfg, outdir, "--svg") == 0
        capsys.readouterr()
        ET.fromstring((outdir / "simulate_states.svg").read_text())


class TestFit:
    def test_fit_reports_ambiguous_exponential(self, tmp_path, outdir, capsys,
                                               records):
        ini = EXP_INI + "\n[fit]\ncandidates = pure_exp, sigma1, tilde_a\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("fit", cfg, outdir) == 0
        out = capsys.readouterr().out
        assert "winner: pure_exp" in out and "(ambiguous)" in out
        assert json_ready(records["fit.json"])
        fit = json.loads((outdir / "fit.json").read_text())
        assert fit == records["fit.json"]
        assert fit["ambiguous"] is True
        assert fit["fits"][0]["candidate"] == "pure_exp"
        rows = (outdir / "fit.csv").read_text().strip().splitlines()
        assert rows[0] == "candidate,K,rms_log_error,rate_error"
        assert len(rows) == 4

    def test_unknown_candidate(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI + "\n[fit]\ncandidates = banana\n")
        assert run("fit", cfg, outdir) == 2
        assert "[fit] candidates 'banana' is not one of" in capsys.readouterr().err

    def test_window_fraction_range(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI + "\n[fit]\nwindow_fraction = 1.5\n")
        assert run("fit", cfg, outdir) == 2
        assert "window_fraction" in capsys.readouterr().err

    def test_unusable_window_is_check_failure(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[fit]\nwindow_fraction = 0.01\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("fit", cfg, outdir) == 5
        assert "fit rejected" in capsys.readouterr().err
        fail = json.loads((outdir / "failure.json").read_text())
        assert fail["kind"] == "fit_window"

    def test_pow2_fit_skips_complex_sigma1(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, POW2_INI)
        assert run("fit", cfg, outdir) == 0
        capsys.readouterr()
        tags = [f["candidate"] for f in
                json.loads((outdir / "fit.json").read_text())["fits"]]
        assert tags and "sigma1" not in tags


class TestVerifyOracles:
    def test_full_pass_on_algebraic(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, ALG_INI)
        assert run("verify-oracles", cfg, outdir) == 0
        out = capsys.readouterr().out
        assert "7/7 applicable constructions pass" in out
        rows = (outdir / "oracles.csv").read_text().splitlines()
        assert rows[0].startswith("construction,applicable,kind,role,passed")
        payload = json.loads((outdir / "oracles.json").read_text())
        assert all(r["passed"] for r in payload["results"] if r["applicable"])

    def test_inapplicable_rows_are_reported(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI)
        assert run("verify-oracles", cfg, outdir) == 0
        capsys.readouterr()
        payload = json.loads((outdir / "oracles.json").read_text())
        notes = {r["construction"]: r for r in payload["results"]}
        assert notes["slow_sub"]["applicable"] is False
        assert "diverges" in notes["slow_sub"]["note"]
        assert notes["sub2_slow"]["applicable"] is False


POW2_LOW = POW2_INI.replace("target = profile_itself\n", "")
POW2_TINY = POW2_LOW.replace("c = 0.7", "c = 0.002")


class TestSweep:
    SWEEP_INI = (EXP_INI.replace("c = 1.0",
                                 "c.start = 1.9\nc.stop = 2.0\nc.steps = 3")
                 + "\n[fit]\ncandidates = pure_exp, sigma1\n")

    def test_boundary_bracket(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, self.SWEEP_INI)
        assert run("sweep", cfg, outdir) == 0
        assert "existence boundary" in capsys.readouterr().out
        summary = json.loads((outdir / "sweep.json").read_text())
        assert summary["n_points"] == 3
        assert summary["first_failed_c"] == 2.0
        lo, hi = summary["existence_boundary_bracket"]
        assert lo < hi == 2.0
        rows = (outdir / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("c,status,inventory,case_123")
        assert len(rows) == 4
        first = rows[1].split(",")
        assert first[0] == "1.8999999999999999" and first[1] == "solved"

    # [fit] is validated as fit validates it, before the march starts
    @pytest.mark.parametrize("fit", ["candidates = bogus",
                                     "window_fraction = 1.5"],
                             ids=["candidates", "window_fraction"])
    def test_bad_fit_section_exits_2(self, tmp_path, outdir, capsys,
                                     monkeypatch, fit):
        def no_march(*args, **kwargs):
            raise AssertionError("solved before the config was rejected")

        monkeypatch.setattr(wavesolver, "continuation_in_c", no_march)
        ini = EXP_INI.replace("c = 1.0",
                              "c.start = 1.0\nc.stop = 1.2\nc.steps = 2")
        cfg = cfg_file(tmp_path, ini + f"\n[fit]\n{fit}\n")
        assert run("sweep", cfg, outdir) == 2
        assert "config error: [fit]" in capsys.readouterr().err
        assert not outdir.exists()

    def test_empty_range(self, tmp_path, outdir, capsys):
        ini = self.SWEEP_INI.replace("c.steps = 3", "c.steps = 0")
        cfg = cfg_file(tmp_path, ini)
        assert run("sweep", cfg, outdir) == 0
        assert "0/0 solved" in capsys.readouterr().out
        rows = (outdir / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only
        assert json.loads((outdir / "sweep.json").read_text())["n_points"] == 0

    # ROADMAP 3b: the minimal wave's branch point lies past L at the low
    # speeds, so sigma1 is unavailable there; the row records it and the
    # sweep goes on
    @pytest.mark.parametrize("ini,statuses", [
        (ALG_INI.replace("c = 1.0", "c.start = 0.2\nc.stop = 2.4\nc.steps = 3"),
         ["ansatz_unavailable", "solved", "no_positive_wave"]),
        (POW2_LOW.replace("c = 0.7", "c.start = 0.5\nc.stop = 0.6\nc.steps = 2"),
         ["ansatz_unavailable", "ansatz_unavailable"]),
    ], ids=["alg3-from-0.2", "pow2-sweep"])
    def test_ansatz_unavailable_is_a_row_status(self, tmp_path, outdir, capsys,
                                                ini, statuses):
        cfg = cfg_file(tmp_path, ini)
        assert run("sweep", cfg, outdir) == 0
        capsys.readouterr()
        rows = (outdir / "sweep.csv").read_text().strip().splitlines()
        assert [r.split(",")[1] for r in rows[1:]] == statuses
        summary = json.loads((outdir / "sweep.json").read_text())
        assert summary["n_points"] == len(statuses)
        assert summary["n_solved"] == statuses.count("solved")
        written = sorted(p.name for p in outdir.iterdir()
                         if p.name != "manifest.json")
        assert written == ["sweep.csv", "sweep.json"]
        assert json.loads((outdir / "manifest.json").read_text())["outputs"] \
            == written


class TestManifest:
    """On success, with --svg and on a typed failure, manifest.json lists
    exactly the files the run wrote."""

    INI = (EXP_INI.replace("c = 1.0",
                           "c = 1.0\nc.start = 1.0\nc.stop = 1.2\nc.steps = 2")
           + "\n[simulation]\nT = 0.1\ndt = 0.01\ninitial = bump\n")

    @pytest.mark.parametrize("mode", ["success", "svg", "failure"])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_outputs_are_the_files_written(self, tmp_path, outdir, capsys,
                                           monkeypatch, command, mode):
        ini = (ALG_INI + "\n[solver]\nK = 0.5, 1.0\n" if command == "family"
               else self.INI)
        if mode == "failure":
            def diverge(run):
                raise wavesolver.NewtonDivergenceError(
                    "stub", residual_history=[1.0, 0.5])

            monkeypatch.setitem(cli._COMMANDS, command, diverge)
        extra = ["--svg"] if mode == "svg" else []
        code = run(command, cfg_file(tmp_path, ini), outdir, *extra)
        capsys.readouterr()
        assert code == (4 if mode == "failure" else 0)
        written = sorted(p.name for p in outdir.iterdir()
                         if p.name != "manifest.json")
        assert json.loads((outdir / "manifest.json").read_text())["outputs"] \
            == written
        svgs = [name for name in written if name.endswith(".svg")]
        assert bool(svgs) == (mode == "svg" and command in
                              ("wave", "family", "simulate", "sweep"))
        if mode == "failure":
            assert written == ["failure.json", "residual_history.csv"]


def test_svg_line_plot_splits_at_dropped_points(tmp_path):
    x = np.arange(10.0)
    y = np.array([1.0, 2.0, np.nan, 3.0, -1.0, 4.0, 5.0, 6.0, 0.0, 7.0])

    def polylines(**kw):
        path = tmp_path / "plot.svg"
        cli.svg_line_plot(path, [("y", x, y)], title="t", xlabel="x",
                          ylabel="y", **kw)
        return [[tuple(map(float, pt.split(","))) for pt in el.get("points").split()]
                for el in ET.fromstring(path.read_text()).iter()
                if el.tag.endswith("polyline")]

    # the NaN splits the curve: x = 0, 1 and x = 3..9
    assert [len(p) for p in polylines()] == [2, 7]
    # a log axis also drops y <= 0: x = 0, 1 and x = 5, 6, 7 stay, and the
    # one-point runs x = 3 and x = 9 draw nothing
    runs = polylines(logy=True)
    assert [len(p) for p in runs] == [2, 3]
    step = runs[0][1][0] - runs[0][0][0]
    assert runs[1][0][0] - runs[0][0][0] == pytest.approx(5 * step, abs=0.02)


class TestFailureContract:
    """Exits 4 and 5: failure.json carries the raised error class's kind,
    and manifest.json lists exactly the files the run wrote."""

    @pytest.mark.parametrize("command,ini,error,code,c", [
        ("wave", EXP_INI.replace("c = 1.0", "c = 2.2"),
         NoPositiveWaveError, 4, 2.2),
        ("simulate", EXP_INI + "\n[simulation]\nT = 5.0\ndt = 1.0\n",
         pdesim.StepRejectedError, 4, None),
        ("fit", EXP_INI + "\n[fit]\nwindow_fraction = 0.01\n",
         analysis.FitWindowError, 5, None),
        ("family", POW2_INI, wavesolver.NewtonDivergenceError, 4, 0.7),
        ("wave", POW2_LOW.replace("c = 0.7", "c = 0.5"),
         AnsatzUnavailableError, 4, 0.5),
        # at c = 0.002 a(z) never drops below c^2/4: no sigma1 ansatz at all
        ("wave", POW2_TINY, AnsatzUnavailableError, 4, 0.002),
        ("fit", POW2_TINY, AnsatzUnavailableError, 4, 0.002),
        ("family", POW2_TINY.replace("K = 0.5, 1.0, 2.0", "K = 0.5, 1.0"),
         AnsatzUnavailableError, 4, 0.002),
        ("sweep", POW2_TINY.replace("c = 0.002",
                                    "c.start = 0.002\nc.stop = 0.7\nc.steps = 2"),
         AnsatzUnavailableError, 4, None),
        # the sweep fails at c.start = 0.002, not at the config's c = 1.0
        ("sweep", POW2_TINY.replace(
            "c = 0.002", "c = 1.0\nc.start = 0.002\nc.stop = 0.7\nc.steps = 2"),
         AnsatzUnavailableError, 4, None),
    ], ids=["wave", "step", "fit-window", "pow2-family", "pow2-wave-sigma1",
            "pow2-wave-no-sigma1", "pow2-fit-no-sigma1", "pow2-family-no-sigma1",
            "pow2-sweep-no-sigma1", "pow2-sweep-with-c-no-sigma1"])
    def test_failure_json_and_manifest(self, tmp_path, outdir, capsys,
                                       command, ini, error, code, c):
        cfg = cfg_file(tmp_path, ini)
        assert run(command, cfg, outdir) == code
        assert capsys.readouterr().err
        fail = json.loads((outdir / "failure.json").read_text())
        assert fail["kind"] == error.kind
        assert fail.get("c") == c
        written = sorted(p.name for p in outdir.iterdir()
                         if p.name != "manifest.json")
        assert json.loads((outdir / "manifest.json").read_text())["outputs"] \
            == written
        newton = error in (NoPositiveWaveError,
                           wavesolver.NewtonDivergenceError)
        assert ("residual_history.csv" in written) == newton

    def test_continuation_records_the_same_kind(self, exp2):
        c = 2.2
        res = wavesolver.continuation_in_c(
            exp2, c, c, 1, minimal_tag(exp2),
            wavesolver.SolverConfig(L=40.0, N=2001))
        assert [f.kind for f in res.failures] == [NoPositiveWaveError.kind]


def test_console_script(tmp_path):
    # the installed script, else the module's __main__ entry from this tree
    argv, env = ["forcedwaves"], None
    if shutil.which("forcedwaves") is None:
        argv = [sys.executable, "-m", "forcedwaves.cli"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    cfg = cfg_file(tmp_path, EXP_INI)
    out = tmp_path / "out"
    proc = subprocess.run(
        argv + ["classify", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["inventory"] == "unique-exponential"
