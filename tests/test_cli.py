"""End-to-end CLI runs: artifacts, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsab
from nsab.cli import main

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


@pytest.mark.parametrize("overrides, out_under_file", [
    pytest.param({"model.alpha": "nan"}, False, id="alpha-nan"),
    pytest.param({"geometry.H": "inf"}, False, id="H-inf"),
    pytest.param({"time.dt": "-1"}, False, id="dt-negative"),
    pytest.param({"time.T": "nan"}, False, id="T-nan"),
    pytest.param({"output.cadence": "0"}, False, id="cadence-0"),
    pytest.param({"watchdog.ceiling": "nan"}, False, id="ceiling-nan"),
    pytest.param({"eigs.count": "-3"}, False, id="eigs-count-negative"),
    pytest.param({"convergence.p_values": "4,8"}, False, id="convergence-P-below-6"),
    pytest.param({"u0.id": "bogus"}, False, id="u0-id-unknown"),
    pytest.param({"time.T": "0.1", "time.dt": "0.03"}, False, id="T-not-multiple"),
    pytest.param({"time.T": "0.1", "time.dt": "0.2"}, False, id="dt-above-T"),
    pytest.param({}, True, id="out-under-file"),
])
def test_bad_input_exits_2_without_traceback(tmp_path, overrides, out_under_file):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config_with(overrides))
    out = tmp_path / "out"
    if out_under_file:
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        out = blocker / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(nsab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "nsab.cli", "evolve", "--config", str(cfg),
         "--out", str(out)], capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
