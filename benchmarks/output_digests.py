"""sha256 digests of the data files of a fixed set of nsab runs.

Runs each config of a set in a fresh process (one BLAS thread) in a
temporary directory and prints, per run, its exit code and one sha256 per
data file it wrote (``manifest.json``, which holds timings and a timestamp,
excluded).  Two checkouts that print the same lines wrote byte-identical
outputs, so a change meant to keep the arithmetic is checked by diffing
the output of this script on the parent and on the change:

    python benchmarks/output_digests.py > change.txt
    python benchmarks/output_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

A change meant to move some outputs declares how far they moved with
``--diff``: every config is also run on a second source tree, and for each
data file whose digest differs the script prints, per numeric JSON key and
per CSV column, the largest relative change |this - other| / |other| (list
items and rows share their key or column; non-numeric values are only said
to differ, other files only to differ):

    python benchmarks/output_digests.py --diff ../parent/src

The ``full`` set (default) holds the 12 stationary-n16 benchmark operations
(manufactured and random-forcing solves and ``eigs`` at N16, P 24-48), a
solve and an ``eigs`` on an odd geometry, ``convergence``, ``verify-adn`` at
two gamma, short ``evolve``, ``probe-uniqueness`` and ``sweep`` runs, and
the configs of the benchmark's two trajectory workloads (evolve at N16/P32,
Euler, T 0.2, cadence 5; the cnab2 probe at N8/P16, T 0.5, amplitude 0.3).
The ``small`` set keeps one of each kind at the smallest sizes, a solve
with zero forcing and one at k = 2/H with manufactured forcing (the
stationary solve diagonalizes a block only for its data or for a failed
kernel certificate: these two runs take the certificate's two paths), a probe
and an evolve stopped by their watchdog (``debug.inject_nan_step = 2``,
exit 4), an evolve whose watchdog fires on blow-up at step 3, off its
cadence of 4 (exit 4: its last report's balance reads the K_grad norm of
step 2, computed only then), and the odd-geometry ``eigs`` at gamma = 1,
k = 5, whose c0(0) is negative: the only run whose Garding search goes
past the first grid shift.  Digests depend on the BLAS library and the
CPU, so compare runs on one machine.  Exits 1 when a run's exit code is not
the expected one (the P48 solves exit 3: their spurious kernel is a known
open defect; the runs stopped by their watchdog exit 4).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODEL = ("model.alpha = 0.2", "model.beta = 0.1", "model.gamma = -1.0",
         "model.ell = 0.01")
ODD = ("geometry.L2 = 1.7", "geometry.H = 1.3")


def _res(n1, n2, p):
    return (f"resolution.N1 = {n1}", f"resolution.N2 = {n2}", f"resolution.P = {p}")


def _stationary(P):
    res = _res(16, 16, P)
    code = 3 if P == 48 else 0
    return [(f"solve-manufactured-p{P}", "solve", res + ("forcing.id = manufactured",), code),
            (f"solve-random-p{P}", "solve",
             res + ("forcing.id = random_solenoidal", "forcing.seed = 11"), code),
            (f"eigs-p{P}", "eigs", res + ("eigs.count = 20",), 0)]


def _trajectory(n1, n2, p, scheme, T, amplitude=0.2):
    return _res(n1, n2, p) + (f"scheme.name = {scheme}", "time.dt = 0.02",
                              f"time.T = {T}", f"u0.amplitude = {amplitude}", "u0.seed = 3")


#: (name, subcommand, config lines on top of MODEL, expected exit code)
SMALL = [
    *_stationary(24),
    # no block has data: each one's kernel certificate clears it
    ("solve-zero-p24", "solve", _res(16, 16, 24) + ("forcing.id = zero",), 0),
    # k = ell / beta^2 = 2/H: the mean block is singular, the manufactured
    # forcing has no mean data, and the failed certificate diagonalizes it
    ("solve-kernel-mean", "solve", _res(16, 16, 24) + (
        "model.ell = 0.02", "forcing.id = manufactured"), 0),
    ("solve-odd", "solve", ODD + _res(6, 8, 16) + ("forcing.seed = 5",), 0),
    ("convergence", "convergence", _res(8, 8, 12) + ("convergence.p_values = 12,16,20",), 0),
    ("verify-adn", "verify-adn", (), 0),
    ("evolve-odd-cnab2", "evolve", ODD + _trajectory(8, 12, 16, "cnab2", 0.1), 0),
    ("probe", "probe-uniqueness", _trajectory(8, 8, 16, "cnab2", 0.1) + ("probe.seed = 4",), 0),
    # the probe's watchdog path: NaN in the base run after step 2
    ("probe-nan", "probe-uniqueness", _trajectory(8, 8, 16, "cnab2", 0.1) + (
        "probe.seed = 4", "debug.inject_nan_step = 2"), 4),
    # evolve's watchdog paths: NaN after step 2; a blow-up at step 3, off
    # the cadence, whose balance reads step 2's K_grad norm computed late
    ("evolve-nan", "evolve", _trajectory(8, 8, 16, "cnab2", 0.1) + (
        "debug.inject_nan_step = 2",), 4),
    ("evolve-blowup", "evolve", _trajectory(8, 8, 16, "cnab2", 0.2, amplitude=1e4) + (
        "output.cadence = 4",), 4),
    ("sweep", "sweep", _trajectory(4, 4, 12, "euler", 0.1) + ("sweep.levels = 3",), 0),
    ("eigs-odd-gamma1", "eigs", ODD + _res(8, 6, 16) + (
        "model.gamma = 1.0", "model.ell = 0.05", "eigs.count = 12"), 0),
]
FULL = SMALL + [
    *_stationary(32), *_stationary(40), *_stationary(48),
    ("verify-adn-gamma0.5", "verify-adn", ("model.gamma = 0.5",), 0),
    ("evolve-n16p32", "evolve", _trajectory(16, 16, 32, "euler", 0.2) + (
        "output.cadence = 5",), 0),
    ("probe-n8p16", "probe-uniqueness", _trajectory(8, 8, 16, "cnab2", 0.5, amplitude=0.3), 0),
]
SETS = {"small": SMALL, "full": FULL}


def config_text(lines):
    # a later line of MODEL's keys overrides it, so drop the earlier one
    keys = {ln.partition("=")[0].strip() for ln in lines}
    base = [ln for ln in MODEL if ln.partition("=")[0].strip() not in keys]
    return "\n".join([*base, *lines]) + "\n"


def run_one(src, name, kind, lines, work):
    """Exit code and {file: sha256} of one nsab run in a fresh process; its
    outputs stay in ``work / name``."""
    cfg, out = work / f"{name}.cfg", work / name
    work.mkdir(exist_ok=True)
    cfg.write_text(config_text(lines))
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(THREADS, "1"))
    proc = subprocess.run([sys.executable, "-m", "nsab.cli", kind, "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir()) if f.name != "manifest.json"}
    return proc.returncode, digests


def _leaves(value, key=""):
    """(key, scalar) pairs of a JSON value; list items share their list's key."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, key + "[]")
    else:
        yield key, value


def columns(path):
    """{JSON key or CSV column: its values} of a data file; None for a file
    of another kind."""
    if path.suffix == ".json":
        cols = {}
        for k, v in _leaves(json.loads(path.read_text())):
            cols.setdefault(k, []).append(v)
        return cols
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        return {h: [r[j] for r in rows] for j, h in enumerate(header)}
    return None


def _number(v):
    try:
        return None if isinstance(v, bool) else float(v)
    except (TypeError, ValueError):
        return None


def largest_changes(old, new):
    """{key: largest |new - old| / |old| over its values, or a note} for
    the keys of two ``columns`` maps whose values differ."""
    changes = {}
    for key in dict.fromkeys([*old, *new]):
        a, b = old.get(key, []), new.get(key, [])
        if len(a) != len(b):
            changes[key] = f"{len(a)} -> {len(b)} values"
            continue
        worst = 0.0
        for x, y in zip(a, b):
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                if x != y:
                    worst = "non-numeric values differ"
                    break
            elif fx != fy and not (math.isnan(fx) and math.isnan(fy)):
                worst = max(worst, abs(fy - fx) / abs(fx) if fx else math.inf)
        if worst:
            changes[key] = worst
    return changes


def diff_lines(name, ours, theirs, work, other):
    """Lines naming each data file of run ``name`` whose digest differs
    between the runs in ``work`` and ``other``, with ``largest_changes``."""
    lines = []
    for fname in dict.fromkeys([*theirs, *ours]):
        if ours.get(fname) == theirs.get(fname):
            continue
        lines.append(f"  differs: {name}/{fname}")
        if fname not in ours or fname not in theirs:
            lines.append("    written by one tree only")
            continue
        new, old = columns(work / name / fname), columns(other / name / fname)
        if new is None:
            lines.append("    not JSON or CSV")
            continue
        for key, change in largest_changes(old, new).items():
            lines.append(f"    {key}: " + (f"{change:.2g}" if isinstance(change, float)
                                            else change))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", choices=SETS, default="full")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the source tree to run (default: this checkout's src)")
    ap.add_argument("--diff", type=Path, metavar="SRC",
                    help="also run this source tree and print the relative changes "
                         "of every data file whose digest differs")
    args = ap.parse_args(argv)
    unexpected = []
    with tempfile.TemporaryDirectory() as tmp:
        work, other = Path(tmp) / "src", Path(tmp) / "diff"
        for name, kind, lines, expected in SETS[args.set]:
            code, digests = run_one(args.src.resolve(), name, kind, lines, work)
            print(f"{name}: {kind} exit {code}", flush=True)
            for fname, digest in digests.items():
                print(f"  {digest}  {name}/{fname}", flush=True)
            if code != expected:
                unexpected.append(f"{name} exited {code}, expected {expected}")
            if args.diff:
                code_d, theirs = run_one(args.diff.resolve(), name, kind, lines, other)
                if code_d != code:
                    print(f"  exit {code_d} with --diff", flush=True)
                for line in diff_lines(name, digests, theirs, work, other):
                    print(line, flush=True)
    for line in unexpected:
        print(f"output_digests: {line}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
