"""nsab benchmark: one command that runs a workload, checks it, prints metrics.

    python3 perfbench/run.py --workload evolve-n16p32 --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports nsab from the checkout's
``src``.  The steps:

1. ``setup_s``: ``SETUP_REPS`` fresh processes each time the import of
   ``nsab.cli`` plus the parse of the workload's first config; the median
   of the calibrated times is reported.
2. A workload process (``worker.py``) with OPENBLAS_NUM_THREADS,
   OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 drives ``nsab.cli.main`` in a
   closed loop, one operation at a time, for ``--seconds``, and checks every
   operation's outputs.
3. With ``--trace 0`` the end-to-end metrics are printed, times in
   calibrated seconds (``calibration.py``: raw seconds scaled by the speed
   of a fixed kernel timed next to each operation); with ``--trace 1``
   the per-layer metrics of a traced run (see ``layers.py``), and the spans
   are written to ``.perfbench_work/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails
when its exit code is not 0 or an output check fails; ``correct`` is false
only when an operation exited 0 with wrong outputs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrated
from layers import METRICS
from stats import median, supported_tail
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
# every run must end within 180 s; leave room for reading results
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
         "op_latency_s.p50": "s", "op_latency_s.p90": "s",
         "peak_rss_mb": "MB", "ops_ok_ratio": "ratio"}


def pinned_env():
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("NSAB_OUT_DIR", None)
    return env


def measure_setup(config_path, kind, env, timeout):
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                          str(config_path), kind],
                         env=env, capture_output=True, text=True,
                         timeout=timeout, check=True)
    raw, kernel_s = (float(x) for x in out.stdout.split())
    return calibrated(raw, kernel_s)


def run_worker(plan_path, result_path, env, timeout):
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(plan_path), str(result_path)],
                            env=env, stdout=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nsab" / "cli.py").is_file():
        print(f"perfbench: no nsab sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = pinned_env()
    try:
        first = workload.ops_for_pass(args.seed, 0)[0]
        cfg = work / "setup.cfg"
        cfg.write_text(first.config)
        setup = [measure_setup(cfg, first.kind, env,
                               max(deadline - time.monotonic(), 1.0))
                 for _ in range(SETUP_REPS)]
        plan = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "src": str(ROOT / "src"), "work": str(work),
                "trace_file": str(ROOT / ".perfbench_work" /
                                  f"trace-{args.workload}-seed{args.seed}.json")}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        result_path = work / "result.json"
        code = run_worker(plan_path, result_path, env,
                          max(deadline - time.monotonic(), 1.0))
        if code != 0:
            print(f"perfbench: workload process exited {code}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: timed out: {exc}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: set-up probe failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_line = ", ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"perfbench: {args.workload} seed {args.seed} for {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"environment: {env_line}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for line in result["failures"]:
        print(f"  failed: {line}")
    if args.trace:
        metrics = {m.name: {"value": result["metrics"][m.name], "unit": m.unit}
                   for m in METRICS}
        for name in result["absent"]:
            print(f"layer absent: {name} (its wrapped function no longer exists)")
        print(f"spans written to {plan['trace_file']}")
    else:
        n = result["latency_samples"]
        tail = supported_tail(n)
        print(f"latency samples: {n}; highest percentile with 10 samples beyond "
              f"it: {'none, p90 is read from a small sample' if tail is None else tail}")
        raw = result["raw"]
        print(f"uncalibrated wall_s: {raw['raw_wall_s']:.6g} s; median machine "
              f"speed factor {raw['speed_factor']:.4g}")
        values = dict(result["metrics"], setup_s=median(setup))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
