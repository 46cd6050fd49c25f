"""Fuzzed configs: every input runs or exits with a documented code.

Configs start from a tiny valid run (N <= 4, P <= 8, T <= 2 dt) and
replace some keys of the schema with well-typed, out-of-range or malformed
values, or set a retired key.  The contract: exit code 0, 2 (config), 3
(numerical) or 4 (watchdog), and 2 for a retired key; no traceback and at
most one line on stderr; an ``evolve`` that exits 0 ends exactly at T.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nsab.cli import main
from nsab.config import EXPERIMENTS, _SCHEMA

# a numpy warning raised by a fuzzed input is a failure, not captured noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BASE = {
    "model.alpha": "0.2", "model.beta": "0.1", "model.gamma": "-1.0",
    "model.ell": "0.01", "resolution.N1": "4", "resolution.N2": "4",
    "resolution.P": "8", "covering.n_circle": "2", "covering.n_magnitude": "1",
    "eigs.count": "4", "output.cadence": "1", "sweep.levels": "1",
    "convergence.p_values": "6,8",
}

BAD_FLOATS = ["nan", "inf", "-inf", "-1.0", "0.0", "1e-300", "1e300", "-1e-300"]
BAD_INTS = ["-1", "0", "-7", "3", "5"]
MALFORMED = ["", "abc", "1.5.2", "0x10", "1e", "--1", "1,2", "[1]", "a=b", "None"]
# keys of earlier schemas: any value exits 2
RETIRED = ["resolution.padding"]

# in-range values, kept tiny: the cost of a run must not depend on the draw
VALID = {
    "model.alpha": st.floats(0.11, 1.0), "model.beta": st.floats(0.01, 0.1),
    "model.gamma": st.floats(-1.0, 1.0), "model.ell": st.floats(1e-4, 0.1),
    "geometry.L1": st.floats(0.5, 10.0), "geometry.L2": st.floats(0.5, 10.0),
    "geometry.H": st.floats(0.5, 3.0),
    "resolution.N1": st.sampled_from([2, 4]), "resolution.N2": st.sampled_from([2, 4]),
    "resolution.P": st.integers(6, 8), "resolution.Q": st.sampled_from([0, 13, 16]),
    "experiment.kind": st.sampled_from(("",) + EXPERIMENTS),
    "forcing.id": st.sampled_from(["manufactured", "random_solenoidal", "zero"]),
    "forcing.amplitude": st.floats(0.0, 2.0), "forcing.seed": st.integers(0, 2**31),
    "u0.id": st.sampled_from(["zero", "random", "single_mode"]),
    "u0.amplitude": st.floats(0.0, 0.5), "u0.decay": st.floats(0.0, 3.0),
    "u0.seed": st.integers(0, 2**31),
    "output.cadence": st.integers(1, 3),
    "scheme.name": st.sampled_from(["euler", "cnab2"]),
    "watchdog.ceiling": st.floats(1e-3, 1e6), "sweep.levels": st.integers(1, 2),
    "probe.delta1": st.floats(1e-8, 1e-2), "probe.delta2": st.floats(1e-8, 1e-2),
    "probe.seed": st.integers(0, 2**31),
    "covering.n_circle": st.integers(0, 3), "covering.n_magnitude": st.integers(0, 2),
    "covering.seed": st.integers(0, 2**31), "eigs.count": st.integers(1, 30),
    "convergence.p_values": st.lists(st.integers(6, 8), min_size=1, max_size=2).map(
        lambda ps: ",".join(map(str, ps))),
    "debug.inject_nan_step": st.integers(-2, 3),
}
# time.dt and time.T are drawn together below, so that a valid run takes at
# most two steps
FUZZED = sorted(set(_SCHEMA) - {"time.dt", "time.T"})
assert set(VALID) == set(FUZZED)


def _bad(key, dt):
    if key in RETIRED:
        return st.sampled_from(["2", "3"] + MALFORMED)
    caster = _SCHEMA[key][0]
    if key in ("time.dt", "time.T"):
        # no tiny dt or huge T: those are valid runs of ~1e300 steps
        return st.sampled_from(["0.0", "-0.02", "nan", "inf", "-inf",
                                repr(1.5 * dt)] + MALFORMED)
    if caster is float:
        return st.sampled_from(BAD_FLOATS + MALFORMED)
    if caster is int:
        return st.sampled_from(BAD_INTS + MALFORMED + ["1.5", "2**40"])
    return st.sampled_from(MALFORMED + ["bogus", "0,-4", "6,,8"])


@st.composite
def configs(draw):
    """{key: value text}: valid values for up to four keys,
    then, in about half the draws, one key set to an out-of-range or
    malformed value, and in about one draw of eight a retired key."""
    values = dict(BASE)
    for key in draw(st.lists(st.sampled_from(FUZZED), max_size=4, unique=True)):
        values[key] = str(draw(VALID[key]))
    dt = draw(st.floats(0.005, 0.05))
    values["time.dt"] = repr(dt)
    values["time.T"] = repr(draw(st.sampled_from([1, 2])) * dt)
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(_SCHEMA))))
    if bad is not None:
        values[bad] = draw(_bad(bad, dt))
    retired = draw(st.sampled_from([None] * 7 + RETIRED))
    if retired is not None:
        values[retired] = draw(_bad(retired, dt))
    return values


# derandomized, so that every run draws the same configs
@pytest.mark.parametrize("subcommand", EXPERIMENTS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=configs())
def test_fuzzed_config_exits_with_documented_code(subcommand, values):
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3, 4), text
        if any(key in values for key in RETIRED):
            assert code == 2, text
        assert "Traceback" not in err.getvalue(), text
        assert len(err.getvalue().strip().splitlines()) <= (1 if code else 0), \
            (text, err.getvalue())
        if subcommand == "evolve" and code == 0:
            last = (out / "timeseries.csv").read_text().strip().splitlines()[-1]
            T = float(values["time.T"])
            assert math.isfinite(T) and float(last.split(",")[0]) == T, text
