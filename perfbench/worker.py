"""Workload process: one client driving ``nsab.cli.main`` in a closed loop.

    python3 perfbench/worker.py <plan.json> <result.json>

``run.py`` starts this process with the thread settings pinned and the
checkout's ``src`` on PYTHONPATH.  It runs the workload's warm-up
operations, then whole passes of the workload, one operation at a time,
until the plan's seconds are used up.  Each operation is timed around the
``main`` call alone and calibrated with kernel samples taken next to it
(``calibration.py``); its outputs are checked afterwards and deleted.

With tracing on, passes alternate between untraced and traced, starting
untraced, so the difference of their median pass times is the tracing
overhead; the per-layer metrics come from the traced passes alone.
"""

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import calibration
from checks import Session, check
from layers import METRICS, TARGETS
from stats import median, percentile
from tracing import SpanStats, Tracer
from workloads import WORKLOADS


class Runner:
    def __init__(self, cli, work, session):
        self.cli = cli
        self.work = work
        self.session = session
        self.count = 0
        self.kernel_s = None  # calibration kernel time after the last operation

    def warm(self, op):
        """Run an operation untimed and unchecked, to load its code paths."""
        out = self.work / "warm-up"
        cfg = self.work / "warm-up.cfg"
        cfg.write_text(op.config)
        self.cli.main([op.kind, "--config", str(cfg), "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)
        cfg.unlink()

    def run(self, op, tracer=None):
        n = self.count
        self.count += 1
        if self.kernel_s is None:
            self.kernel_s = calibration.sample()
        cfg = self.work / f"op{n}.cfg"
        out = self.work / f"op{n}"
        cfg.write_text(op.config)
        if tracer is not None:
            tracer.op = n
        argv = [op.kind, "--config", str(cfg), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit):
            # a traceback is a failed operation; the loop goes on
            traceback.print_exc()
            code = "exception"
        latency = time.perf_counter() - t0
        after = calibration.sample(calibration.samples_after(latency))
        kernel_s = 0.5 * (self.kernel_s + after)
        self.kernel_s = after
        problems = check(op, code, out, self.session)
        shutil.rmtree(out, ignore_errors=True)
        cfg.unlink()
        return {"op": n, "label": op.label, "code": code, "latency": latency,
                "calibrated": calibration.calibrated(latency, kernel_s),
                "speed": calibration.REFERENCE_S / kernel_s, "problems": problems}


def run_pass(runner, workload, seed, rep, tracer=None):
    return [runner.run(op, tracer) for op in workload.ops_for_pass(seed, rep)]


def summarize(ops):
    """Attempted and failed counts, correctness, and failures by label."""
    failed = [o for o in ops if o["problems"]]
    kinds = Counter(f"{o['label']}: {'; '.join(o['problems'])}" for o in failed)
    return {
        "attempted": len(ops),
        "failed": len(failed),
        # an operation that exits 0 but fails a check produced a wrong answer
        "correct": not any(o["code"] == 0 for o in failed),
        "failures": [f"{k} (x{n})" for k, n in kinds.items()],
    }


def pass_seconds(passes, key="calibrated"):
    """Time of one pass: the sum over operations of each one's median time.

    Medians per operation filter the short slowdowns of a shared machine
    better than the median of whole-pass sums.
    """
    by_label = defaultdict(list)
    for o in (o for p in passes for o in p):
        by_label[o["label"]].append(o[key])
    return sum(median(v) for v in by_label.values())


def end_to_end(passes):
    """End-to-end metrics in calibrated seconds (see calibration.py)."""
    ops = [o for p in passes for o in p]
    ok = [o["calibrated"] for o in ops if not o["problems"]]
    wall = pass_seconds(passes)
    return {
        "wall_s": wall,
        "ops_per_s": len(ok) / len(passes) / wall,
        "op_latency_s.p50": percentile(ok, 50),
        "op_latency_s.p90": percentile(ok, 90),
        "ops_ok_ratio": len(ok) / len(ops),
    }


def raw_times(passes):
    """Uncalibrated pass time and the machine speed seen, for the log."""
    ops = [o for p in passes for o in p]
    return {"raw_wall_s": pass_seconds(passes, "latency"),
            "speed_factor": median([o["speed"] for o in ops])}


def per_layer(tracer, traced, untraced, attempted, failed):
    stats = SpanStats(tracer, [o["op"] for p in traced for o in p])
    run = {"attempted": attempted, "failed": failed,
           "untraced_pass_s": pass_seconds(untraced),
           "traced_pass_s": pass_seconds(traced)}
    values, absent = {}, []
    for m in METRICS:
        if any(s in tracer.absent for s in m.spans):
            absent.append(m.name)
            values[m.name] = 0.0
        else:
            values[m.name] = float(m.value(stats, run))
    return values, absent


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    import nsab
    import nsab.cli
    import numpy
    import scipy

    src = Path(plan["src"]).resolve()
    if src not in Path(nsab.__file__).resolve().parents:
        raise SystemExit(f"nsab imported from {nsab.__file__}, not from {src}")
    workload = WORKLOADS[plan["workload"]]
    seed, seconds, trace = plan["seed"], plan["seconds"], plan["trace"]
    work = Path(plan["work"])
    reference = json.loads(Path(__file__).with_name("reference.json").read_text())
    runner = Runner(nsab.cli, work, Session(reference))

    for op in workload.warmup:
        runner.warm(op)
    calibration.sample()

    tracer = Tracer() if trace else None
    passes, traced = [], []
    t0 = last = time.perf_counter()
    # start a pass only while it would end less than half a pass past the
    # window, so a run lasts its seconds give or take half a pass
    while len(passes) < 1 + trace or (
            time.perf_counter() + 0.5 * (time.perf_counter() - last) < t0 + seconds):
        last = time.perf_counter()
        on = trace and len(passes) % 2 == 1
        if on:
            tracer.install(TARGETS)
        passes.append(run_pass(runner, workload, seed, len(passes),
                               tracer if on else None))
        traced.append(on)
        if on:
            tracer.uninstall()

    ops = [o for p in passes for o in p]
    result = summarize(ops)
    result.update({
        "latency_samples": len(ops) - result["failed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
        },
    })
    if trace:
        result["metrics"], result["absent"] = per_layer(
            tracer, [p for p, on in zip(passes, traced) if on],
            [p for p, on in zip(passes, traced) if not on],
            result["attempted"], result["failed"])
        Path(plan["trace_file"]).write_text(json.dumps(tracer.dump()))
    else:
        result["metrics"] = end_to_end(passes)
        result["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
        result["raw"] = raw_times(passes)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
