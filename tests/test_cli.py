"""End-to-end CLI checks: config validation, exit codes, artifact layout."""

import dataclasses
import json
import shutil
import subprocess
import xml.etree.ElementTree as ET

import pytest

from forcedwaves import analysis, cli, pdesim, wavesolver
from forcedwaves.environment import AnsatzUnavailableError
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
        assert "invalid [solver]" in capsys.readouterr().err

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

    def test_output_dir_from_config(self, tmp_path, capsys):
        dest = tmp_path / "cfg_dest"
        ini = EXP_INI + f"\n[output]\ndirectory = {dest}\n"
        cfg = cfg_file(tmp_path, ini)
        assert cli.main(["classify", "--config", str(cfg)]) == 0
        assert (dest / "classify.json").is_file()
        capsys.readouterr()


class TestWave:
    def test_solves_and_writes(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI)
        assert run("wave", cfg, outdir) == 0
        assert "wave solved" in capsys.readouterr().out
        rows = (outdir / "wave.csv").read_text().strip().splitlines()
        assert rows[0] == "z,phi"
        assert len(rows) == 2002
        side = json.loads((outdir / "wave.json").read_text())
        assert side["c"] == 1.0
        assert side["profile"]["tail_kind"] == "exp"
        assert float(side["residual_norm"]) < 1e-9

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

    def test_family_needs_K(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, ALG_INI)
        assert run("family", cfg, outdir) == 2
        assert "missing required key 'K'" in capsys.readouterr().err

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
            assert (outdir / name).read_text().splitlines()[0] == "t,z,u"
        mon = (outdir / "monitors.csv").read_text().splitlines()
        assert mon[0] == "t,metric,value"
        metrics = {r.split(",")[1] for r in mon[1:]}
        assert metrics == {"distance_to_initial", "steady_residual",
                           "front_position"}

    def test_bump_initial(self, tmp_path, outdir, capsys):
        ini = (EXP_INI + "\n[simulation]\ninitial = bump\nT = 0.5\n"
               "bump.height = 0.4\nbump.width = 3.0\n")
        cfg = cfg_file(tmp_path, ini)
        assert run("simulate", cfg, outdir) == 0
        assert "evolved to t = 0.5" in capsys.readouterr().out

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
        assert "expected wave, alpha or bump" in capsys.readouterr().err

    def test_svg(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[simulation]\ninitial = wave\nT = 0.2\ndt = 0.01\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("simulate", cfg, outdir, "--svg") == 0
        capsys.readouterr()
        ET.fromstring((outdir / "simulate_states.svg").read_text())


class TestFit:
    def test_fit_reports_ambiguous_exponential(self, tmp_path, outdir, capsys):
        ini = EXP_INI + "\n[fit]\ncandidates = pure_exp, sigma1\n"
        cfg = cfg_file(tmp_path, ini)
        assert run("fit", cfg, outdir) == 0
        out = capsys.readouterr().out
        assert "winner: pure_exp" in out and "(ambiguous)" in out
        fit = json.loads((outdir / "fit.json").read_text())
        assert fit["ambiguous"] is True
        assert (outdir / "fit.csv").read_text().splitlines()[0] == \
            "candidate,K,rms_log_error,rate_error"

    def test_unknown_candidate(self, tmp_path, outdir, capsys):
        cfg = cfg_file(tmp_path, EXP_INI + "\n[fit]\ncandidates = banana\n")
        assert run("fit", cfg, outdir) == 2
        assert "unknown tag 'banana'" in capsys.readouterr().err

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

    def test_empty_range(self, tmp_path, outdir, capsys):
        ini = self.SWEEP_INI.replace("c.steps = 3", "c.steps = 0")
        cfg = cfg_file(tmp_path, ini)
        assert run("sweep", cfg, outdir) == 0
        assert "0/0 solved" in capsys.readouterr().out
        rows = (outdir / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only
        assert json.loads((outdir / "sweep.json").read_text())["n_points"] == 0


POW2_LOW = POW2_INI.replace("target = profile_itself\n", "")


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
        ("sweep", POW2_LOW.replace("c = 0.7", "c.start = 0.5\nc.stop = 0.6\n"
                                   "c.steps = 2"),
         AnsatzUnavailableError, 4, None),
    ], ids=["wave", "step", "fit-window", "pow2-family", "pow2-wave-sigma1",
            "pow2-sweep"])
    def test_failure_json_and_manifest(self, tmp_path, outdir, capsys,
                                       command, ini, error, code, c):
        cfg = cfg_file(tmp_path, ini)
        assert run(command, cfg, outdir) == code
        assert capsys.readouterr().err
        fail = json.loads((outdir / "failure.json").read_text())
        assert fail["kind"] == error.kind
        assert fail.get("c") == c  # a sweep has no single speed
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
            exp2, c, c, 1, cli.resolve_cli_target({}, exp2, c),
            wavesolver.SolverConfig(L=40.0, N=2001))
        assert [f.kind for f in res.failures] == [NoPositiveWaveError.kind]


@pytest.mark.skipif(shutil.which("forcedwaves") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    cfg = cfg_file(tmp_path, EXP_INI)
    out = tmp_path / "out"
    proc = subprocess.run(
        ["forcedwaves", "classify", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["inventory"] == "unique-exponential"
