"""End-to-end CLI runs: artifacts, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import nsab
from nsab.basis import BasisCache
from nsab.cli import main
from nsab.config import parse_config
from nsab.field import random_field

SMALL = """
model.alpha = 0.2
model.beta = 0.1
model.gamma = -1.0
model.ell = 0.01
resolution.N1 = 4
resolution.N2 = 4
resolution.P = 10
covering.n_circle = 8
covering.n_magnitude = 3
eigs.count = 12
time.dt = 0.02
time.T = 0.1
output.cadence = 1
u0.amplitude = 0.05
u0.decay = 1.5
sweep.levels = 2
convergence.p_values = 8,12
"""


@pytest.fixture()
def cfgfile(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(SMALL)
    return p


def test_verify_adn_run(cfgfile, tmp_path):
    out = tmp_path / "adn"
    assert main(["verify-adn", "--config", str(cfgfile), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["ellipticity"]["pass"]
    assert all(c["pass"] for c in rep["covering"])
    assert len(rep["covering"]) == 11
    assert rep["all_pass"]
    man = json.loads((out / "manifest.json").read_text())
    assert man["exit_code"] == 0 and "timestamp" in man


def test_verify_adn_large_eta_subspace_angle(tmp_path):
    """Seed 35 samples |eta| ~ 480, where the companion entries reach
    |eta|^4 ~ 5e10: the scaled stable-subspace angle stays far below 1e-8."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_with({"covering.seed": "35", "covering.n_circle": "2",
                                 "covering.n_magnitude": "1"}))
    out = tmp_path / "adn"
    assert main(["verify-adn", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    etas = [np.hypot(*map(float, k.split(","))) for k in rep["subspace_angles"]]
    assert max(etas) > 400
    assert rep["all_pass"] and max(rep["subspace_angles"].values()) <= 1e-12


@pytest.mark.parametrize("kind", ["evolve", "solve", "convergence"])
def test_manifest_records_setup_time_and_peak_memory(cfgfile, tmp_path, kind):
    out = tmp_path / kind
    assert main([kind, "--config", str(cfgfile), "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    setup, total = man["timings"]["setup_s"], man["timings"]["total_s"]
    assert np.isfinite(setup) and np.isfinite(total) and 0.0 < setup <= total
    assert np.isfinite(man["peak_rss_mb"]) and man["peak_rss_mb"] > 0.0


def test_eigs_run_nondecreasing(cfgfile, tmp_path):
    out = tmp_path / "eigs"
    assert main(["eigs", "--config", str(cfgfile), "--out", str(out)]) == 0
    rows = (out / "eigs.csv").read_text().strip().splitlines()
    assert rows[0].startswith("n,lambda")
    lams = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(lams) == 12
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
    g = json.loads((out / "garding.json").read_text())
    assert "gamma0_min" in g and "norm_definition" in g


def test_evolve_and_rerun_byte_identical(cfgfile, tmp_path):
    out1 = tmp_path / "e1"
    out2 = tmp_path / "e2"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out1)]) == 0
    # rerun from the canonical echo in the manifest
    man = json.loads((out1 / "manifest.json").read_text())
    echo = tmp_path / "echo.cfg"
    echo.write_text(man["config"])
    assert main(["evolve", "--config", str(echo), "--out", str(out2)]) == 0
    assert (out1 / "timeseries.csv").read_bytes() == \
        (out2 / "timeseries.csv").read_bytes()
    assert (out1 / "final.snap").read_bytes() == (out2 / "final.snap").read_bytes()


def test_evolve_nan_injection_watchdog_exit(cfgfile, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(SMALL + "debug.inject_nan_step = 2\n")
    out = tmp_path / "nan"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 4
    wd = json.loads((out / "watchdog.json").read_text())
    assert wd["reason"] == "nan"


def _run_cli(*args):
    """`python -m nsab.cli *args` with RuntimeWarnings turned into errors."""
    env = dict(os.environ, PYTHONPATH=str(Path(nsab.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nsab.cli", *args],
        capture_output=True, text=True, env=env, timeout=120)


def _evolve_in_subprocess(tmp_path, config):
    """Exit code and stderr lines of an evolve run in a fresh interpreter."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    proc = _run_cli("evolve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stderr.strip().splitlines()


def test_watchdog_exit_4_prints_one_line(tmp_path):
    code, lines = _evolve_in_subprocess(
        tmp_path, SMALL + "debug.inject_nan_step = 2\n")
    assert code == 4
    assert len(lines) == 1
    assert "watchdog" in lines[0] and "nan" in lines[0] and "t = 0.04" in lines[0]


def test_watchdog_overflow_prints_one_line(tmp_path):
    # a blow-up that overflows the watchdog norms (h4_proxy = inf) must not
    # leak numpy's overflow warnings onto stderr
    code, lines = _evolve_in_subprocess(tmp_path, """
model.alpha = 0.2
model.beta = 0.1
model.gamma = -1.0
model.ell = 0.01
resolution.N1 = 8
resolution.N2 = 8
resolution.P = 16
scheme.name = euler
time.dt = 0.05
time.T = 1
u0.amplitude = 500
watchdog.ceiling = 1e300
""")
    assert code == 4
    assert len(lines) == 1
    assert "watchdog" in lines[0] and "h4_growth" in lines[0]


@pytest.mark.parametrize("subcommand, overrides", [
    pytest.param("probe-uniqueness", {"resolution.P": "8", "scheme.name": "cnab2",
                                      "probe.delta2": "1e300"}, id="probe-delta2-1e300"),
    pytest.param("evolve", {"u0.amplitude": "1e300"}, id="evolve-amplitude-1e300"),
])
def test_first_step_overflow_prints_one_line(tmp_path, subcommand, overrides):
    # the first step overflows the nonlinear term and the grid transforms:
    # the watchdog reports the non-finite field, numpy prints no warning
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_with(overrides))
    proc = _run_cli(subcommand, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 4
    assert len(lines) == 1 and "watchdog" in lines[0] and "nan" in lines[0]


def test_probe_watchdog_exit_4_prints_one_line(tmp_path):
    # evolve on this config stops at t = 0.06 (h4_growth); the probe's base
    # run blows up the same way and must stop there too, before overflow
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
model.alpha = 0.2
model.beta = 0.1
model.gamma = 0.0
model.ell = 0.01
resolution.N1 = 8
resolution.N2 = 8
resolution.P = 16
scheme.name = cnab2
time.dt = 0.02
time.T = 0.5
u0.amplitude = 1e4
""")
    out = tmp_path / "out"
    proc = _run_cli("probe-uniqueness", "--config", str(cfg), "--out", str(out))
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 4
    assert len(lines) == 1
    assert "watchdog" in lines[0] and "h4_growth" in lines[0] and "t = 0.06" in lines[0]
    wd = json.loads((out / "watchdog.json").read_text())
    assert wd["reason"] == "h4_growth" and wd["time"] == pytest.approx(0.06)
    assert not (out / "probe.json").exists()
    # two full steps of three trajectories, then the base step that fired
    assert json.loads((out / "manifest.json").read_text())["timings"]["steps"] == 7
    assert len((out / "probe.csv").read_text().strip().splitlines()) == 1 + 3
    assert json.loads((out / "manifest.json").read_text())["exit_code"] == 4


@pytest.mark.parametrize("kind", ["evolve", "solve", "probe-uniqueness", "eigs"])
def test_mean_only_resolution_runs(tmp_path, kind):
    # at N1 = N2 = 2 no representative mode is stored, only the mean rows,
    # whose P - 1 = 9 eigenpairs are the whole discrete spectrum
    cfg = tmp_path / "n2.cfg"
    cfg.write_text(_config_with({"resolution.N1": "2", "resolution.N2": "2",
                                 "eigs.count": "9"}))
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("overrides, count, available", [
    pytest.param({"resolution.N1": "2", "resolution.N2": "2"}, 12, 9, id="mean-only"),
    pytest.param({"resolution.P": "8", "eigs.count": "100000"}, 100000, 43, id="N4-P8"),
])
def test_eigs_count_above_the_spectrum_exits_2(tmp_path, overrides, count, available):
    """A count the discrete spectrum cannot fill is a configuration error,
    not a short eigs.csv."""
    cfg = tmp_path / "many.cfg"
    cfg.write_text(_config_with(overrides))
    out = tmp_path / "out"
    proc = _run_cli("eigs", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert f"eigs.count = {count} exceeds the {available} eigenpairs" in lines[0]
    assert not (out / "eigs.csv").exists()


def test_sweep_builds_one_basis(cfgfile, tmp_path, monkeypatch):
    """The sweep's levels share the one BasisCache built in its setup stage."""
    built = []
    init = BasisCache.__init__
    monkeypatch.setattr(BasisCache, "__init__",
                        lambda self, *a: (built.append(a), init(self, *a))[1])
    assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1


def test_solve_and_convergence(cfgfile, tmp_path):
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 0
    rep = json.loads((out / "residuals.json").read_text())
    assert rep["solve_residual_rel"] < 1e-9
    assert rep["dirichlet_residual"] < 1e-12
    outc = tmp_path / "conv"
    assert main(["convergence", "--config", str(cfgfile), "--out", str(outc)]) == 0
    lines = (outc / "convergence.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    h2 = [float(r.split(",")[1]) for r in lines[1:]]
    assert h2[1] < h2[0]


def test_sweep_and_probe(cfgfile, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    outp = tmp_path / "pr"
    assert main(["probe-uniqueness", "--config", str(cfgfile),
                 "--out", str(outp)]) == 0
    rep = json.loads((outp / "probe.json").read_text())
    assert rep["relative_difference"] < 0.01


def test_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.alpha = 0.1\nmodel.beta = 0.2\n")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # ell = 2 beta^2 puts the wall coefficient at the exactly singular value
    # k = 2/H; a generic forcing then has data along the kernel -> exit 3
    cfg = tmp_path / "singular.cfg"
    cfg.write_text("model.ell = 0.02\nresolution.N1 = 4\nresolution.N2 = 4\n"
                   "resolution.P = 10\nforcing.id = random_solenoidal\n")
    out = tmp_path / "sing"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "consistency"


def test_seed_override_changes_data(cfgfile, tmp_path):
    outa = tmp_path / "sa"
    outb = tmp_path / "sb"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(outa),
                 "--seed", "1"]) == 0
    assert main(["evolve", "--config", str(cfgfile), "--out", str(outb),
                 "--seed", "2"]) == 0
    assert (outa / "timeseries.csv").read_text() != \
        (outb / "timeseries.csv").read_text()


def test_seed_override_derives_a_seed_per_key(cfgfile, tmp_path):
    """--seed N gives the four catalog keys distinct seeds, so the probe's
    perturbation is not u0's own direction, as one seed for both made it."""
    out = tmp_path / "p"
    assert main(["probe-uniqueness", "--config", str(cfgfile), "--out", str(out),
                 "--seed", "5"]) == 0
    seeds = json.loads((out / "manifest.json").read_text())["seed"]
    assert len(set(seeds.values())) == 4
    cfg = parse_config(SMALL, kind_override="probe-uniqueness")
    u0, pert = (random_field(cfg.geometry, cfg.resolution, seed=seeds[key], decay=1.5)
                for key in ("u0", "probe"))
    assert abs(u0.dot(pert)) < 0.9 * u0.norm_l2() * pert.norm_l2()


def test_out_dir_env_override(cfgfile, tmp_path, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv("NSAB_OUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["eigs", "--config", str(cfgfile)]) == 0
    assert (target / "eigs.csv").exists()


def _config_with(overrides):
    keep = [ln for ln in SMALL.strip().splitlines()
            if ln.partition("=")[0].strip() not in overrides]
    return "\n".join(keep + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


@pytest.mark.parametrize("subcommand, overrides, out_under_file", [
    pytest.param("evolve", {"model.alpha": "nan"}, False, id="alpha-nan"),
    pytest.param("evolve", {"geometry.H": "inf"}, False, id="H-inf"),
    pytest.param("evolve", {"time.dt": "-1"}, False, id="dt-negative"),
    pytest.param("evolve", {"time.T": "nan"}, False, id="T-nan"),
    pytest.param("evolve", {"output.cadence": "0"}, False, id="cadence-0"),
    pytest.param("evolve", {"watchdog.ceiling": "nan"}, False, id="ceiling-nan"),
    pytest.param("evolve", {"eigs.count": "-3"}, False, id="eigs-count-negative"),
    pytest.param("evolve", {"convergence.p_values": "4,8"}, False, id="convergence-P-below-6"),
    pytest.param("evolve", {"u0.id": "bogus"}, False, id="u0-id-unknown"),
    pytest.param("evolve", {"time.T": "0.1", "time.dt": "0.03"}, False, id="T-not-multiple"),
    pytest.param("evolve", {"time.T": "0.1", "time.dt": "0.2"}, False, id="dt-above-T"),
    pytest.param("evolve", {}, True, id="out-under-file"),
    # the manufactured mode (1, 1) is not stored at N = 2
    pytest.param("convergence", {"resolution.N1": "2", "resolution.N2": "2"},
                 False, id="convergence-N-2"),
    pytest.param("solve", {"resolution.N1": "2", "forcing.id": "manufactured"},
                 False, id="solve-manufactured-N1-2"),
    # no nonzero mode is stored at N1 = N2 = 2 for u0.id = single_mode
    pytest.param("evolve", {"resolution.N1": "2", "resolution.N2": "2",
                            "u0.id": "single_mode"}, False, id="single-mode-N-2"),
    # found by tests/test_config_fuzz.py
    pytest.param("evolve", {"u0.seed": "-1"}, False, id="seed-negative"),
    pytest.param("evolve", {"model.beta": "1e-300"}, False, id="beta-squared-underflows"),
    pytest.param("probe-uniqueness", {"probe.delta1": "1e-300"}, False,
                 id="probe-delta-below-roundoff"),
    # far out of range, the lengths overflowed the block forms (numpy
    # warnings and exit 3 for L1, an OverflowError traceback for H)
    pytest.param("solve", {"geometry.L1": "1e-300"}, False, id="L1-tiny"),
    pytest.param("eigs", {"geometry.H": "1e-100"}, False, id="H-tiny"),
    # the padded grid is fixed by the 3/2 rule
    pytest.param("evolve", {"resolution.padding": "2"}, False, id="padding-retired"),
    # the line says what the value should be, not which Python function parses it
    pytest.param("convergence", {"convergence.p_values": "[10, 12]"}, False,
                 id="p-values-unparsable"),
    # the drawn field's norm overflows: it used to be left unscaled, with a
    # NaN first row in timeseries.csv and the watchdog blamed (exit 4)
    pytest.param("evolve", {"u0.decay": "-50"}, False, id="u0-decay-overflows"),
    pytest.param("probe-uniqueness", {"u0.id": "zero", "u0.decay": "-50"}, False,
                 id="probe-perturbation-decay-overflows"),
])
def test_bad_input_exits_2_without_traceback(tmp_path, subcommand, overrides,
                                            out_under_file):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config_with(overrides))
    out = tmp_path / "out"
    if out_under_file:
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        out = blocker / "out"
    proc = _run_cli(subcommand, "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    if "resolution.N1" in overrides:  # the line names the resolution
        assert "N1 = 2, N2 = " in proc.stderr
    if "resolution.padding" in overrides:  # the line names the fixed rule
        assert "M >= 3N/2" in proc.stderr
    if overrides.get("convergence.p_values") == "[10, 12]":
        assert "as a comma-separated list of integers" in proc.stderr
        assert "_parse" not in proc.stderr
    if "u0.decay" in overrides:  # the line names the decay
        assert "decay = -50.0" in proc.stderr


def test_overflowing_forcing_exits_3_in_one_line(tmp_path):
    # finite but near the float64 limit: the solve's norms overflow, which
    # must stop the run before residuals.json reports NaN diagnostics
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(_config_with({"forcing.amplitude": "1e300"}))
    out = tmp_path / "out"
    proc = _run_cli("solve", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "overflow" in proc.stderr
    assert not (out / "residuals.json").exists()
    assert json.loads((out / "error.json").read_text())["type"] == "numerical"


def test_eigs_overflow_exits_3_in_one_line(tmp_path):
    """k = 1e302 is admissible, but the eigenpair residuals overflow: the run
    stops with exit 3 instead of writing inf residuals."""
    cfg = tmp_path / "huge_k.cfg"
    cfg.write_text(_config_with({"model.gamma": "1.0", "model.ell": "1e300",
                                 "resolution.P": "8"}))
    out = tmp_path / "out"
    proc = _run_cli("eigs", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "overflow" in lines[0]
    assert not (out / "eigs.csv").exists()
    assert json.loads((out / "error.json").read_text())["type"] == "numerical"


@pytest.mark.parametrize("overrides, kind", [
    pytest.param({"forcing.amplitude": "1e300"}, "numerical", id="overflow"),
    # k = 2/H, the singular wall coefficient of test_numerical_failure_exit_code
    pytest.param({"model.ell": "0.02", "forcing.id": "random_solenoidal"},
                 "consistency", id="singular-wall"),
])
def test_failed_run_writes_manifest(tmp_path, overrides, kind):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(_config_with(overrides))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    assert json.loads((out / "error.json").read_text())["type"] == kind
    man = json.loads((out / "manifest.json").read_text())
    assert man["exit_code"] == 3 and man["experiment"] == "solve"
    timings = man["timings"]
    assert "setup" in timings["stages"] and timings["setup_s"] > 0.0
    assert sum(st["s"] for st in timings["stages"].values()) <= timings["total_s"]
    assert man["peak_rss_mb"] > 0.0


@pytest.mark.parametrize("args", [["--bogus"], ["--serial"], ["--seed", "x"],
                                  ["--seed", "-1"]],
                         ids=["unknown-flag", "retired-serial", "bad-seed", "negative-seed"])
def test_usage_error_exits_2_in_one_line(cfgfile, tmp_path, args):
    argv = ["evolve", "--config", str(cfgfile), "--out", str(tmp_path / "o"), *args]
    proc = _run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("nsab: usage error: ")
    assert main(argv) == 2


@pytest.mark.parametrize("kind, stages", [
    ("solve", {"setup", "solve", "pressure", "bc_audit", "errors", "write"}),
    ("eigs", {"setup", "eigenpairs", "garding", "write"}),
    ("evolve", {"setup", "integrate", "write"}),
    ("probe-uniqueness", {"setup", "integrate", "write"}),
    ("verify-adn", {"ellipticity", "covering", "angles", "elimination", "write"}),
    ("convergence", {"setup", "solve", "pressure", "errors", "bc_audit", "write"}),
    ("sweep", {"setup", "integrate", "write"}),
])
def test_manifest_records_stage_times(tmp_path, kind, stages):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_with({"forcing.id": "manufactured"}))
    out = tmp_path / kind
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    if kind == "solve":  # errors absolute and relative to the exact norm
        errs = json.loads((out / "residuals.json").read_text())["manufactured_errors"]
        assert {"L2", "H1", "H2", "L2_rel", "H1_rel", "H2_rel", "pressure_L2"} == set(errs)
    man = json.loads((out / "manifest.json").read_text())
    timings = man["timings"]
    assert set(timings["stages"]) == stages
    assert all(st["calls"] >= 1 and st["s"] >= 0.0 for st in timings["stages"].values())
    assert sum(st["s"] for st in timings["stages"].values()) <= timings["total_s"]
    # verify-adn builds no operator set, so it has no setup stage
    assert timings["setup_s"] == timings["stages"].get("setup", {"s": 0.0})["s"]
    assert man["cpu_count"] == os.cpu_count()
    assert man["libraries"]["numpy"] == np.__version__
    assert set(man["libraries"]) == {"numpy", "scipy"}


@pytest.mark.parametrize("kind, steps", [("evolve", 5), ("probe-uniqueness", 15)])
def test_manifest_records_steps_and_page_faults(cfgfile, tmp_path, kind, steps):
    """dt 0.02 to T 0.1 is 5 steps per trajectory; the probe steps three."""
    out = tmp_path / kind
    assert main([kind, "--config", str(cfgfile), "--out", str(out)]) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert timings["steps"] == steps
    assert timings["steps_per_s"] == pytest.approx(
        steps / timings["stages"]["integrate"]["s"], rel=1e-12)
    faults = [st["minor_faults"] for st in timings["stages"].values()]
    assert all(isinstance(f, int) and f >= 0 for f in faults)


def test_manifest_without_time_steps_has_no_step_fields(cfgfile, tmp_path):
    out = tmp_path / "eigs"
    assert main(["eigs", "--config", str(cfgfile), "--out", str(out)]) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert "steps" not in timings and "steps_per_s" not in timings
    assert all("minor_faults" in st for st in timings["stages"].values())


def test_cli_import_does_not_load_scipy_linalg():
    env = dict(os.environ, PYTHONPATH=str(Path(nsab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nsab.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_symbol_checks_unloaded():
    """Only verify-adn reads nsab.adn, only solve, convergence and eigs the
    stationary and spectral modules; each experiment imports them when it
    runs.  Library versions are read without importlib.metadata."""
    unused = ["nsab.adn", "nsab.stationary", "nsab.manufactured", "nsab.spectral",
              "importlib.metadata"]
    env = dict(os.environ, PYTHONPATH=str(Path(nsab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); import nsab.cli; "
         f"print(sorted(set({unused!r}) & (set(sys.modules) - before)))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["evolve", "verify-adn"])
def test_manifest_records_the_libraries_the_run_loaded(cfgfile, tmp_path, kind):
    """In a fresh process (this one has scipy loaded) only verify-adn loads
    scipy, so only its manifest carries scipy's version."""
    out = tmp_path / kind
    proc = _run_cli(kind, "--config", str(cfgfile), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    libraries = json.loads((out / "manifest.json").read_text())["libraries"]
    scipy_version = scipy.__version__ if kind == "verify-adn" else None
    assert libraries == {"numpy": np.__version__, "scipy": scipy_version}
