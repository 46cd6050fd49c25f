"""Stage seconds, step rate and peak memory of ``nsab`` runs by size.

Runs each case ``REPEATS`` times in a fresh process with one BLAS thread,
round-robin over the selected cases (repeat r of every case before repeat
r + 1, so a burst of load on a shared host hits one repeat of each case
rather than every repeat of one), and writes, per case, the medians of the
manifest's stage seconds (the stages
of ``STAGES``), ``timings.steps_per_s`` (time-stepping runs),
``peak_rss_mb`` and ``process_s``, the wall time of the whole process
(interpreter start-up and imports included), to a file at the repository
root:

* ``BENCH_setup.json``: ``nsab evolve`` (Euler, dt 0.02, T 0.1: five steps)
  at N16/P32, N32/P48 and N64/P64, and ``n16p32-warm``: one process runs
  the N16/P32 evolve twice and the case records the second run's manifest,
  a run that finds the layout, grid tables and workspaces the first one
  left and builds its own plans, basis and operator sets (its
  ``process_s`` covers both runs);
* ``BENCH_probe.json``: ``nsab probe-uniqueness`` (cnab2, dt 0.02, T 0.5,
  u0 amplitude 0.3: the config of the probe-n8p16 benchmark workload) at
  N8/P16 and N16/P32, three trajectories per time step;
* ``BENCH_stationary.json``: ``nsab eigs`` (20 eigenpairs and the Garding
  constants) at N16, P 24/32/48/64, and ``nsab solve`` with manufactured
  and with random solenoidal forcing at N16, P 24/32/40 (from P48 up the
  solve still exits 3), the configs of the stationary-n16 benchmark
  workload.  The ``errors`` stage exists for the manufactured solves only.

Raw seconds record the host's speed as much as the code's: on a shared
host the same tree's medians drift by tens of percent between runs.  So
every run is followed by samples of perfbench's nsab-independent kernel
(``perfbench/calibration.py``, imported as is), and each case also records
``speed_factor``, the median of ``REFERENCE_S`` over the kernel seconds
timed after its runs (above 1: a host faster than the one the reference
was measured on), and ``calibrated``, the medians of its runs' stage and
process seconds each scaled by the factor of its own run: seconds at the
reference host's speed, comparable across runs and hosts.

``machine`` records the numpy installed for this interpreter, the one
library a run's manifest names (no nsab run loads scipy).  A ``--cases``
subset rewrites only its own rows of a file and keeps the others.  The
files hold no timestamps, so reruns on one machine differ only by timing
noise.

    python benchmarks/bench_setup.py                  # all cases, 5 runs each
    python benchmarks/bench_setup.py --cases n16p32,probe-n8p16 --out-dir /tmp

Exits 1 if any nsab run fails.  N64/P64 peaks near 425 MB.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import calibration  # noqa: E402  (perfbench's kernel, read only)

REPEATS = 5
#: calibration kernel samples after each run, at least: one sample reads
#: the host's speed at one instant, and on a shared host it drifts within
#: seconds (with one sample a case's calibrated medians spread up to 11%
#: over three runs, with three up to 8%)
MIN_KERNEL_SAMPLES = 3
MODEL = """model.alpha = 0.2
model.beta = 0.1
model.gamma = -1.0
model.ell = 0.01
resolution.N1 = {N}
resolution.N2 = {N}
resolution.P = {P}
u0.id = random
u0.seed = 1
"""
EVOLVE = "scheme.name = euler\ntime.dt = 0.02\ntime.T = 0.1\nu0.amplitude = 0.2\n"
PROBE = "scheme.name = cnab2\ntime.dt = 0.02\ntime.T = 0.5\nu0.amplitude = 0.3\nprobe.seed = 2\n"
RANDOM_FORCING = "forcing.id = random_solenoidal\nforcing.seed = 11\n"
#: output file -> (description, case name -> (subcommand, config lines on
#: top of MODEL, N, P, runs in the process, the last one recorded)); N1 =
#: N2 = N on the default 2 pi x 2 pi x 1 box
BENCHES = {
    "BENCH_setup.json": (
        "nsab evolve, Euler, dt 0.02, T 0.1, u0 amplitude 0.2, seed 1",
        {**{f"n{N}p{P}": ("evolve", EVOLVE, N, P, 1)
            for N, P in ((16, 32), (32, 48), (64, 64))},
         "n16p32-warm": ("evolve", EVOLVE, 16, 32, 2)}),
    "BENCH_probe.json": (
        "nsab probe-uniqueness, cnab2, dt 0.02, T 0.5, u0 amplitude 0.3, seeds 1 and 2",
        {f"probe-n{N}p{P}": ("probe-uniqueness", PROBE, N, P, 1)
         for N, P in ((8, 16), (16, 32))}),
    "BENCH_stationary.json": (
        "nsab eigs (eigs.count 20) and nsab solve (forcing.id manufactured, and "
        "random_solenoidal with forcing.seed 11) at N16",
        {**{f"eigs-n16p{P}": ("eigs", "eigs.count = 20\n", 16, P, 1)
            for P in (24, 32, 48, 64)},
         **{f"solve-n16p{P}": ("solve", "forcing.id = manufactured\n", 16, P, 1)
            for P in (24, 32, 40)},
         **{f"solve-random-n16p{P}": ("solve", RANDOM_FORCING, 16, P, 1) for P in (24, 32, 40)}}),
}
#: subcommand -> the manifest stages whose seconds are recorded, where the
#: run has them
STAGES = {"evolve": ("setup", "integrate"), "probe-uniqueness": ("setup", "integrate"),
          "eigs": ("setup", "eigenpairs", "garding"), "solve": ("setup", "solve", "pressure", "errors")}
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the program of a case's process: ``nsab`` (argv after n) run n times into
#: one output directory, so the manifest left is the last run's; exits with
#: the worst code
REPEAT = "import sys; from nsab.cli import main; sys.exit(max(main(sys.argv[2:]) " \
         "for _ in range(int(sys.argv[1]))))"


def run_once(kind, config, work, runs):
    """The manifest of the last of runs ``nsab kind`` runs in one fresh
    process, the process's wall seconds and the median seconds of the
    calibration kernel samples taken right after it."""
    cfg, out = work / "run.cfg", work / "out"
    cfg.write_text(config)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(THREADS, "1"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", REPEAT, str(runs), kind, "--config",
                           str(cfg), "--out", str(out)], env=env, capture_output=True, text=True)
    process_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"nsab {kind} exited {proc.returncode}: {proc.stderr.strip()}")
    kernel_s = calibration.sample(max(MIN_KERNEL_SAMPLES, calibration.samples_after(process_s)))
    return json.loads((out / "manifest.json").read_text()), process_s, kernel_s


def summarize(kind, N, P, runs):
    """The medians of a case's (manifest, process seconds, kernel seconds)
    runs, raw and calibrated."""
    runs, process_s, kernel_s = zip(*runs)
    timings = [r["timings"] for r in runs]
    seconds = {**{f"{s}_s": [t["stages"][s]["s"] for t in timings]
                  for s in STAGES[kind] if s in timings[0]["stages"]},
               "process_s": process_s}
    result = {"N": N, "P": P, "repeats": REPEATS,
              **{name: statistics.median(raw) for name, raw in seconds.items()},
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
              "speed_factor": statistics.median(calibration.REFERENCE_S / k for k in kernel_s),
              "calibrated": {name: statistics.median(map(calibration.calibrated, raw, kernel_s))
                             for name, raw in seconds.items()}}
    if "steps" in timings[0]:
        result.update(steps_per_s=statistics.median(t["steps_per_s"] for t in timings),
                      steps=timings[0]["steps"])
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = {name: case for *_, cases in BENCHES.values() for name, case in cases.items()}
    ap.add_argument("--cases", default=",".join(spec),
                    help=f"comma-separated subset of {', '.join(spec)}")
    ap.add_argument("--out-dir", type=Path, default=ROOT,
                    help="directory of the BENCH_*.json files written")
    args = ap.parse_args(argv)
    names = [c for c in args.cases.split(",") if c]
    unknown = sorted(set(names) - set(spec))
    if unknown:
        ap.error(f"unknown cases {unknown}")
    runs = {name: [] for name in names}
    try:
        for _ in range(REPEATS):
            for name in runs:
                kind, lines, N, P, count = spec[name]
                with tempfile.TemporaryDirectory() as tmp:
                    runs[name].append(run_once(kind, MODEL.format(N=N, P=P) + lines, Path(tmp),
                                               count))
    except RuntimeError as exc:
        print(f"bench_setup: {exc}", file=sys.stderr)
        return 1
    for fname, (command, cases) in BENCHES.items():
        results = {}
        for name in (n for n in runs if n in cases):
            kind, _, N, P, _ = cases[name]
            results[name] = summarize(kind, N, P, runs[name])
            print(name, json.dumps(results[name]), flush=True)
        if not results:
            continue
        path = args.out_dir / fname
        kept = json.loads(path.read_text())["cases"] if path.exists() else {}
        report = {
            "command": command,
            "statistic": "median over round-robin repeats of fresh processes",
            "blas_threads": 1,
            "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                        "numpy": importlib.metadata.version("numpy")},
            "cases": {name: results.get(name, kept.get(name)) for name in cases
                      if name in results or name in kept},
        }
        path.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
