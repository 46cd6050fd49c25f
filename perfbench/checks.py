"""Output checks for one nsab operation, tolerant of reordered arithmetic.

A check returns a list of messages, empty when the outputs are right.  The
checks read nsab's files directly (snapshot format, CSV, JSON) rather than
through the package, so a change to the package cannot weaken them.

Galerkin vectors are compared with a stored reference through a Gaussian
sketch y = G c with ``SKETCH_ROWS`` rows.  For any difference d,
|G d|^2 / (m |d|^2) is chi-squared with m degrees of freedom over m, which
for m = 32 stays within [0.3, 2.5] except with probability below 1e-4, so a
relative tolerance on the sketch is a relative tolerance on the vector up
to that factor; the reference stores the full vector norm as well.
"""

import csv
import hashlib
import json
import math
import struct

import numpy as np

SKETCH_ROWS = 32
SKETCH_SEED = 20251
SKETCH_CHUNK = 4096
GALERKIN_RTOL = 1e-12
PROBE_REL_DIFF_MAX = 1e-2
T_TOL = 1e-12
# manufactured_errors.H2 measured 1.20e-8 / 1.30e-8 / 3.49e-8 at P = 24 / 32
# / 40; P = 48 had no successful solve when these bounds were set.
H2_BOUND = {24: 1e-7, 32: 1e-7, 40: 3e-7, 48: 1e-6}

SNAPSHOT_MAGIC = b"NSABSNP1"
SNAPSHOT_HEADER = 64


def config_key(config_text):
    return hashlib.sha256(config_text.encode()).hexdigest()


def snapshot_vector(path):
    """The float64 payload of an nsab snapshot (psi re/im, phi re/im, mean)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not an nsab snapshot")
    _, meta_len = struct.unpack("<IQ", data[8:20])
    return np.frombuffer(data[SNAPSHOT_HEADER + meta_len:], dtype="<f8")


def sketch(vec):
    """(norm, G @ vec) with G a fixed Gaussian matrix, built in chunks."""
    vec = np.asarray(vec, dtype=float)
    rng = np.random.default_rng(SKETCH_SEED)
    y = np.zeros(SKETCH_ROWS)
    for start in range(0, vec.size, SKETCH_CHUNK):
        part = vec[start:start + SKETCH_CHUNK]
        y += rng.standard_normal((SKETCH_ROWS, part.size)) @ part
    return float(np.linalg.norm(vec)), y


def compare_to_reference(vec, ref, rtol=GALERKIN_RTOL):
    norm, y = sketch(vec)
    y_ref = np.asarray(ref["sketch"])
    problems = []
    if abs(norm - ref["norm"]) > rtol * ref["norm"]:
        problems.append(f"norm {norm!r} differs from reference {ref['norm']!r}")
    dev = float(np.linalg.norm(y - y_ref))
    if not dev <= rtol * float(np.linalg.norm(y_ref)):
        problems.append(f"sketch deviates from reference by {dev:.3e} "
                        f"(relative {dev / np.linalg.norm(y_ref):.3e})")
    return problems


def float_columns(path, names):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {n: np.array([float(r[header.index(n)]) for r in rows]) for n in names}


class Session:
    """State shared by the checks of one run: first outputs per config."""

    def __init__(self, reference):
        self.reference = reference
        self.first_snapshot = {}
        self.first_h3 = {}


def check(op, code, out, session):
    """Messages for everything wrong with one operation's outputs."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return _CHECKS[op.kind](op, out, session)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _reference_problems(op, vec, session):
    ref = session.reference.get(config_key(op.config))
    return [] if ref is None else compare_to_reference(vec, ref)


def _check_evolve(op, out, session):
    problems = []
    cols = float_columns(out / "timeseries.csv",
                         ["t", "E_Lambda", "a_uu", "grad_sq", "H1", "H3",
                          "H5", "dE_balance"])
    t = cols["t"]
    # dE_balance is NaN by definition on the initial row
    for name, col in cols.items():
        vals = col[1:] if name == "dE_balance" else col
        if not np.all(np.isfinite(vals)):
            problems.append(f"timeseries.csv column {name} is not finite")
    if abs(t[-1] - op.param("T")) > T_TOL:
        problems.append(f"last t = {t[-1]!r}, expected {op.param('T')!r}")
    snap = (out / "final.snap").read_bytes()
    digest = hashlib.sha256(snap).hexdigest()
    first = session.first_snapshot.setdefault(op.config, digest)
    if digest != first:
        problems.append("final.snap differs from the first run of this config")
    problems += _reference_problems(op, snapshot_vector(out / "final.snap"),
                                    session)
    return problems


def _check_probe(op, out, session):
    problems = []
    with open(out / "probe.json") as fh:
        rel = json.load(fh)["relative_difference"]
    if not (isinstance(rel, float) and rel <= PROBE_REL_DIFF_MAX):
        problems.append(f"relative_difference {rel!r} > {PROBE_REL_DIFF_MAX}")
    cols = float_columns(out / "probe.csv", ["t", "h3_integral"])
    h3 = cols["h3_integral"]
    if not np.all(np.isfinite(h3)):
        return problems + ["h3_integral is not finite"]
    if abs(cols["t"][-1] - op.param("T")) > T_TOL:
        problems.append(f"last t = {cols['t'][-1]!r}, expected {op.param('T')!r}")
    first = session.first_h3.setdefault(op.config, h3)
    scale = float(np.max(np.abs(first)))
    if first.shape != h3.shape or np.max(np.abs(h3 - first)) > GALERKIN_RTOL * scale:
        problems.append("h3_integral differs from the first run of this config")
    return problems + _reference_problems(op, h3, session)


def _check_solve(op, out, session):
    problems = []
    with open(out / "residuals.json") as fh:
        rep = json.load(fh)
    if rep["kernel_dim"] != 0:
        problems.append(f"kernel_dim = {rep['kernel_dim']}, expected 0")
    if op.param("forcing") == "manufactured":
        h2 = rep["manufactured_errors"]["H2"]
        bound = H2_BOUND[op.param("P")]
        if not (isinstance(h2, float) and h2 <= bound):
            problems.append(f"manufactured H2 error {h2!r} above {bound:g}")
    return problems + _reference_problems(
        op, snapshot_vector(out / "solution.snap"), session)


def _check_eigs(op, out, session):
    cols = float_columns(out / "eigs.csv", ["lambda", "residual"])
    lam = cols["lambda"]
    problems = []
    if lam.size != op.param("count"):
        problems.append(f"eigs.csv has {lam.size} rows, expected {op.param('count')}")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(cols["residual"]))):
        problems.append("eigs.csv has non-finite values")
    elif np.any(np.diff(lam) < 0):
        problems.append("eigenvalues are not sorted")
    with open(out / "garding.json") as fh:
        g = json.load(fh)
    # nsab writes non-finite floats as strings such as "inf"
    if not (isinstance(g["gamma0_min"], float) and math.isfinite(g["gamma0_min"])):
        problems.append(f"garding gamma0_min = {g['gamma0_min']!r}")
    return problems


_CHECKS = {"evolve": _check_evolve, "probe-uniqueness": _check_probe,
           "solve": _check_solve, "eigs": _check_eigs}
