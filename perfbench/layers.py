"""The traced layers of nsab and the per-layer metrics derived from them.

``TARGETS`` lists the public functions the traced run wraps, one span name
each.  ``METRICS`` lists the per-layer metrics with the end-to-end metric
and workload each one should move (``moves``), written down before any
optimisation is measured against them.

Suffixes: ``.ms`` median milliseconds per call, ``.self_ms`` median self
time per call (the span minus its traced children), ``.ms.p50``/``.ms.p90``
percentiles per call, ``.s`` busy seconds per operation, ``.self_s`` self
seconds per operation, ``.calls`` calls per operation.  An operation is one
nsab CLI invocation.
"""

import os
import weakref
from dataclasses import dataclass

from stats import median, percentile
from tracing import Target

TRAJ = "evolve-n16p32, probe-n8p16"
STAT = "stationary-n16"
ALL = "evolve-n16p32, probe-n8p16, stationary-n16"


def _reconstruct_bytes():
    def hook(tracer, args, kwargs, result):
        tracer.count("field.reconstruct.out_bytes",
                     sum(a.nbytes for a in result.values()))
    return hook


def _snapshot_bytes():
    def hook(tracer, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.count("snapshots.write_snapshot.bytes", os.path.getsize(path))
    return hook


def _blocks_built():
    # a block is built the first time a cache is asked for its |k| key
    seen = weakref.WeakKeyDictionary()

    def hook(tracer, args, kwargs, result):
        cache, k1, k2 = args[:3]
        keys = seen.setdefault(cache, set())
        key = (abs(k1), abs(k2))
        if key not in keys:
            keys.add(key)
            tracer.count("basis.blocks_built")
    return hook


TARGETS = (
    Target("nsab.cli", "main", "cli.main"),
    Target("nsab.cli", "run", "cli.run"),
    Target("nsab.basis", "BasisCache.__init__", "basis.BasisCache.init"),
    Target("nsab.basis", "BasisCache.block", "basis.BasisCache.block",
           _blocks_built),
    Target("nsab._accel", "legendre_table", "_accel.legendre_table"),
    Target("nsab._accel", "convective_product", "_accel.convective_product"),
    Target("nsab.field", "reconstruct", "field.reconstruct", _reconstruct_bytes),
    Target("nsab.field", "random_field", "field.random_field"),
    Target("nsab.operators", "assemble_mode", "operators.assemble_mode"),
    Target("nsab.operators", "OperatorSet.form_inner", "operators.form_inner"),
    Target("nsab.operators", "OperatorSet.block_eig", "operators.block_eig"),
    Target("nsab.operators", "OperatorSet.a_scale_norms",
           "operators.a_scale_norms"),
    Target("nsab.evolution", "nonlinear_term", "evolution.nonlinear_term"),
    Target("nsab.evolution", "IMEXStepper.__init__", "evolution.IMEXStepper.init"),
    Target("nsab.evolution", "IMEXStepper.step", "evolution.IMEXStepper.step"),
    Target("nsab.evolution", "energy_report", "evolution.energy_report"),
    Target("nsab.evolution", "run_evolution", "evolution.run_evolution"),
    Target("nsab.evolution", "uniqueness_probe", "evolution.uniqueness_probe"),
    Target("nsab.stationary", "ModalForcing.dual", "stationary.ModalForcing.dual"),
    Target("nsab.stationary", "forcing_from_field", "stationary.forcing_from_field"),
    Target("nsab.stationary", "solve_stationary", "stationary.solve_stationary"),
    Target("nsab.stationary", "recover_pressure", "stationary.recover_pressure"),
    Target("nsab.stationary", "strong_bc_residual", "stationary.strong_bc_residual"),
    Target("nsab.stationary", "wall_dual", "stationary.wall_dual"),
    Target("nsab.manufactured", "ManufacturedCase.forcing",
           "manufactured.ManufacturedCase.forcing"),
    Target("nsab.manufactured", "ManufacturedCase.errors",
           "manufactured.ManufacturedCase.errors"),
    Target("nsab.spectral", "eigenpairs_A", "spectral.eigenpairs_A"),
    Target("nsab.spectral", "garding_constants", "spectral.garding_constants"),
    Target("nsab.snapshots", "write_snapshot", "snapshots.write_snapshot",
           _snapshot_bytes),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    spans: tuple      # span names read; the metric is absent if any is
    value: object     # (SpanStats, run) -> float
    moves: str        # end-to-end metric and workload it should move


def per_call_ms(name, span, moves, q=None, self_time=False):
    def value(st, run):
        xs = st.self_times(span) if self_time else st.durations(span)
        return 1e3 * (median(xs) if q is None else percentile(xs, q))
    return Metric(name, "ms", "lower", (span,), value, moves)


def per_op_s(name, spans, moves, self_time=False):
    def value(st, run):
        if self_time:
            return sum(sum(st.self_times(s)) for s in spans) / st.n_ops
        return st.busy(spans) / st.n_ops
    return Metric(name, "s", "lower", spans, value, moves)


def per_op_calls(name, span, moves):
    return Metric(name, "count", "lower", (span,),
                  lambda st, run: st.calls(span) / st.n_ops, moves)


def _per_call(counter, span, scale):
    def value(st, run):
        calls = st.calls(span)
        return scale * st.tracer.counters[counter] / calls if calls else 0.0
    return value


STEP = "evolution.IMEXStepper.step"

METRICS = (
    per_call_ms("field.reconstruct.ms", "field.reconstruct",
                f"ops_per_s, op_latency_s.* on {TRAJ}"),
    Metric("field.reconstruct.out_mb", "MB", "lower", ("field.reconstruct",),
           _per_call("field.reconstruct.out_bytes", "field.reconstruct", 1e-6),
           f"peak_rss_mb, ops_per_s on {TRAJ} (bytes computed from array sizes)"),
    per_call_ms("evolution.nonlinear_term.self_ms", "evolution.nonlinear_term",
                f"ops_per_s on {TRAJ}", self_time=True),
    per_call_ms("_accel.convective_product.ms", "_accel.convective_product",
                f"ops_per_s on {TRAJ}"),
    per_call_ms("_accel.legendre_table.ms", "_accel.legendre_table",
                f"setup work inside ops_per_s on {ALL}"),
    per_call_ms("evolution.IMEXStepper.step.ms.p50", STEP,
                f"ops_per_s, op_latency_s.p50 on {TRAJ}", q=50),
    per_call_ms("evolution.IMEXStepper.step.ms.p90", STEP,
                f"op_latency_s.p90 on {TRAJ}", q=90),
    per_op_calls("evolution.IMEXStepper.step.calls", STEP,
                 "wall_s, ops_per_s on probe-n8p16"),
    per_call_ms("evolution.IMEXStepper.step.self_ms", STEP,
                "ops_per_s on probe-n8p16 mostly, evolve-n16p32", self_time=True),
    per_op_s("evolution.IMEXStepper.init.s", ("evolution.IMEXStepper.init",),
             "wall_s on evolve-n16p32"),
    per_call_ms("operators.a_scale_norms.ms", "operators.a_scale_norms",
                f"ops_per_s on {TRAJ}"),
    per_op_calls("operators.a_scale_norms.calls", "operators.a_scale_norms",
                 f"ops_per_s on {TRAJ}"),
    per_op_s("operators.form_inner.s", ("operators.form_inner",),
             f"ops_per_s on {TRAJ}, mostly probe-n8p16"),
    per_call_ms("evolution.energy_report.ms", "evolution.energy_report",
                "ops_per_s on evolve-n16p32 (probe-n8p16 does not call it)"),
    per_op_s("basis.BasisCache.s", ("basis.BasisCache.init",
                                    "basis.BasisCache.block"),
             f"ops_per_s on {STAT}"),
    Metric("basis.blocks_built", "count", "lower", ("basis.BasisCache.block",),
           lambda st, run: st.tracer.counters["basis.blocks_built"] / st.n_ops,
           f"ops_per_s on {STAT}"),
    per_op_s("operators.assemble_mode.s", ("operators.assemble_mode",),
             f"ops_per_s on {STAT}"),
    per_op_calls("operators.assemble_mode.calls", "operators.assemble_mode",
                 f"ops_per_s on {STAT}"),
    per_op_s("operators.block_eig.s", ("operators.block_eig",),
             f"ops_per_s on {STAT}"),
    per_op_s("stationary.recover_pressure.s", ("stationary.recover_pressure",),
             f"ops_per_s, op_latency_s.* on {STAT}"),
    per_op_s("stationary.solve_stationary.s", ("stationary.solve_stationary",),
             f"ops_per_s, op_latency_s.* on {STAT}"),
    per_op_s("stationary.ModalForcing.dual.s", ("stationary.ModalForcing.dual",),
             f"ops_per_s, op_latency_s.* on {STAT}"),
    per_op_s("stationary.forcing_from_field.s", ("stationary.forcing_from_field",),
             f"ops_per_s, op_latency_s.* on {STAT}"),
    per_op_s("stationary.strong_bc_residual.s", ("stationary.strong_bc_residual",),
             f"ops_per_s, op_latency_s.* on {STAT}"),
    per_op_s("spectral.eigenpairs_A.s", ("spectral.eigenpairs_A",),
             f"ops_per_s on {STAT}"),
    per_op_s("spectral.garding_constants.s", ("spectral.garding_constants",),
             f"ops_per_s on {STAT}"),
    per_op_s("snapshots.write_snapshot.s", ("snapshots.write_snapshot",),
             f"wall_s on {ALL} (I/O guard)"),
    Metric("snapshots.write_snapshot.bytes", "bytes", "lower",
           ("snapshots.write_snapshot",),
           lambda st, run: (st.tracer.counters["snapshots.write_snapshot.bytes"]
                            / st.n_ops),
           f"wall_s on {ALL} (I/O guard)"),
    per_op_s("cli.run.self_s", ("cli.run",), f"wall_s on {ALL}", self_time=True),
    Metric("evolution.steps_per_s", "1/s", "higher", (STEP, "cli.main"),
           lambda st, run: st.calls(STEP) / max(sum(st.durations("cli.main")), 1e-9),
           f"trajectory steps per traced second; ops_per_s on {TRAJ}"),
    Metric("cli.main.failed_ratio", "ratio", "lower", (),
           lambda st, run: run["failed"] / run["attempted"],
           f"ops_ok_ratio on {ALL}"),
    Metric("trace.overhead_s", "s", "lower", (),
           lambda st, run: run["traced_pass_s"] - run["untraced_pass_s"],
           "traced wall_s minus untraced wall_s (calibrated, per pass)"),
)
