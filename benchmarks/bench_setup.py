"""Set-up, integration time and peak memory of ``nsab evolve`` by size.

Runs ``nsab evolve`` (Euler, dt 0.02, T 0.1: five steps) at N16/P32,
N32/P48 and N64/P64 with one BLAS thread, each ``REPEATS`` times in a
fresh process, and writes the medians of the manifest's ``setup`` and
``integrate`` stage seconds and of ``peak_rss_mb`` to ``BENCH_setup.json``
at the repository root.  The file holds no timestamps, so reruns on one
machine differ only by timing noise.

    python benchmarks/bench_setup.py                  # all sizes, 3 runs each
    python benchmarks/bench_setup.py --cases n16p32 --out /tmp/bench.json

Exits 1 if any nsab run fails.  N64/P64 peaks near 1.2 GB.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: case name -> (N, P); N1 = N2 = N on the default 2 pi x 2 pi x 1 box
CASES = {"n16p32": (16, 32), "n32p48": (32, 48), "n64p64": (64, 64)}
REPEATS = 3
CONFIG = """model.alpha = 0.2
model.beta = 0.1
model.gamma = -1.0
model.ell = 0.01
resolution.N1 = {N}
resolution.N2 = {N}
resolution.P = {P}
scheme.name = euler
time.dt = 0.02
time.T = 0.1
u0.id = random
u0.amplitude = 0.2
u0.seed = 1
"""
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(N, P, work):
    """The manifest of one ``nsab evolve`` run in a fresh process."""
    cfg, out = work / "run.cfg", work / "out"
    cfg.write_text(CONFIG.format(N=N, P=P))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(THREADS, "1"))
    proc = subprocess.run([sys.executable, "-m", "nsab.cli", "evolve", "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"nsab evolve N{N}/P{P} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads((out / "manifest.json").read_text())


def measure(N, P):
    runs = []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(run_once(N, P, Path(tmp)))
    stages = [r["timings"]["stages"] for r in runs]
    return {
        "N": N, "P": P, "repeats": REPEATS,
        "setup_s": statistics.median(s["setup"]["s"] for s in stages),
        "integrate_s": statistics.median(s["integrate"]["s"] for s in stages),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "steps": runs[0]["timings"]["steps"],
    }, runs[0]["libraries"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", default=",".join(CASES),
                    help=f"comma-separated subset of {', '.join(CASES)}")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_setup.json")
    args = ap.parse_args(argv)
    names = [c for c in args.cases.split(",") if c]
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        ap.error(f"unknown cases {unknown}")
    results, libraries = {}, {}
    try:
        for name in names:
            results[name], libraries = measure(*CASES[name])
            print(name, json.dumps(results[name]), flush=True)
    except RuntimeError as exc:
        print(f"bench_setup: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": "nsab evolve, Euler, dt 0.02, T 0.1, u0 amplitude 0.2, seed 1",
        "statistic": "median over repeats of fresh processes",
        "blas_threads": 1,
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    **libraries},
        "cases": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
