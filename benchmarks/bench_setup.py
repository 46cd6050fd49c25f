"""Stage seconds, step rate and peak memory of ``nsab`` runs by size.

Runs each case ``REPEATS`` times in a fresh process with one BLAS thread and
writes, per case, the medians of the manifest's stage seconds (the stages
of ``STAGES``), ``timings.steps_per_s`` (time-stepping runs),
``peak_rss_mb`` and ``process_s``, the wall time of the whole
``python -m nsab.cli`` process (interpreter start-up and imports included),
to a file at the repository root:

* ``BENCH_setup.json``: ``nsab evolve`` (Euler, dt 0.02, T 0.1: five steps)
  at N16/P32, N32/P48 and N64/P64;
* ``BENCH_probe.json``: ``nsab probe-uniqueness`` (cnab2, dt 0.02, T 0.5,
  u0 amplitude 0.3: the config of the probe-n8p16 benchmark workload) at
  N8/P16 and N16/P32, three trajectories per time step;
* ``BENCH_stationary.json``: ``nsab eigs`` (20 eigenpairs and the Garding
  constants) at N16, P 24/32/48/64, and ``nsab solve`` with manufactured
  and with random solenoidal forcing at N16, P 24/32/40 (from P48 up the
  solve still exits 3), the configs of the stationary-n16 benchmark
  workload.  The ``errors`` stage exists for the manufactured solves only.

``machine`` records the numpy and scipy installed for this interpreter; a
run's manifest names scipy only when the run loaded it.  The files hold no
timestamps, so reruns on one machine differ only by timing noise.

    python benchmarks/bench_setup.py                  # all cases, 3 runs each
    python benchmarks/bench_setup.py --cases n16p32,probe-n8p16 --out-dir /tmp

Exits 1 if any nsab run fails.  N64/P64 peaks near 420 MB.
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
REPEATS = 3
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
#: top of MODEL, N, P)); N1 = N2 = N on the default 2 pi x 2 pi x 1 box
BENCHES = {
    "BENCH_setup.json": (
        "nsab evolve, Euler, dt 0.02, T 0.1, u0 amplitude 0.2, seed 1",
        {f"n{N}p{P}": ("evolve", EVOLVE, N, P) for N, P in ((16, 32), (32, 48), (64, 64))}),
    "BENCH_probe.json": (
        "nsab probe-uniqueness, cnab2, dt 0.02, T 0.5, u0 amplitude 0.3, seeds 1 and 2",
        {f"probe-n{N}p{P}": ("probe-uniqueness", PROBE, N, P) for N, P in ((8, 16), (16, 32))}),
    "BENCH_stationary.json": (
        "nsab eigs (eigs.count 20) and nsab solve (forcing.id manufactured, and "
        "random_solenoidal with forcing.seed 11) at N16",
        {**{f"eigs-n16p{P}": ("eigs", "eigs.count = 20\n", 16, P) for P in (24, 32, 48, 64)},
         **{f"solve-n16p{P}": ("solve", "forcing.id = manufactured\n", 16, P)
            for P in (24, 32, 40)},
         **{f"solve-random-n16p{P}": ("solve", RANDOM_FORCING, 16, P) for P in (24, 32, 40)}}),
}
#: subcommand -> the manifest stages whose seconds are recorded, where the
#: run has them
STAGES = {"evolve": ("setup", "integrate"), "probe-uniqueness": ("setup", "integrate"),
          "eigs": ("setup", "eigenpairs", "garding"), "solve": ("setup", "solve", "pressure", "errors")}
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(kind, config, work):
    """The manifest of one ``nsab kind`` run in a fresh process, and the
    process's wall seconds."""
    cfg, out = work / "run.cfg", work / "out"
    cfg.write_text(config)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(THREADS, "1"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nsab.cli", kind, "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    process_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"nsab {kind} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads((out / "manifest.json").read_text()), process_s


def measure(kind, lines, N, P):
    runs, process_s = [], []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            manifest, seconds = run_once(kind, MODEL.format(N=N, P=P) + lines, Path(tmp))
        runs.append(manifest)
        process_s.append(seconds)
    timings = [r["timings"] for r in runs]
    result = {"N": N, "P": P, "repeats": REPEATS,
              **{f"{s}_s": statistics.median(t["stages"][s]["s"] for t in timings)
                 for s in STAGES[kind] if s in timings[0]["stages"]},
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
              "process_s": statistics.median(process_s)}
    if "steps" in timings[0]:
        result.update(steps_per_s=statistics.median(t["steps_per_s"] for t in timings),
                      steps=timings[0]["steps"])
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    every = [name for *_, cases in BENCHES.values() for name in cases]
    ap.add_argument("--cases", default=",".join(every),
                    help=f"comma-separated subset of {', '.join(every)}")
    ap.add_argument("--out-dir", type=Path, default=ROOT,
                    help="directory of the BENCH_*.json files written")
    args = ap.parse_args(argv)
    names = [c for c in args.cases.split(",") if c]
    unknown = sorted(set(names) - set(every))
    if unknown:
        ap.error(f"unknown cases {unknown}")
    for fname, (command, cases) in BENCHES.items():
        results = {}
        try:
            for name in (n for n in names if n in cases):
                results[name] = measure(*cases[name])
                print(name, json.dumps(results[name]), flush=True)
        except RuntimeError as exc:
            print(f"bench_setup: {exc}", file=sys.stderr)
            return 1
        if not results:
            continue
        report = {
            "command": command,
            "statistic": "median over repeats of fresh processes",
            "blas_threads": 1,
            "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                        **{lib: importlib.metadata.version(lib) for lib in ("numpy", "scipy")}},
            "cases": results,
        }
        (args.out_dir / fname).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
