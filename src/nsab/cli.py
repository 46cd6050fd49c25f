"""Command-line orchestration: experiments, manifests, CSV/JSON artifacts.

    nsab <subcommand> --config <path> [--out <dir>] [--seed N]

Subcommands: verify-adn, solve, eigs, evolve, sweep, probe-uniqueness,
convergence.  Exit codes: 0 success, 2 configuration error (including an
output directory that cannot be written), 3 numerical failure, 4
watchdog/blow-up event; every non-zero exit prints one line on stderr, a
malformed command line (exit 2) included.  The output directory defaults to
``nsab_out``; the environment variable ``NSAB_OUT_DIR`` overrides it when
--out is absent.  Execution is always deterministic and serial.  ``--seed N``
replaces the four catalog seeds by distinct ones, ``SeedSequence(N).generate_state(4)``.

Importing this module loads numpy and the time-stepping modules only;
verify-adn loads nsab.adn and scipy, solve and convergence nsab.stationary and
nsab.manufactured, and eigs nsab.spectral, each when it runs.  Every run writes
``manifest.json`` (config echo, package version, seed, timings, peak resident
memory, CPU count, timestamp, exit code, and ``libraries``: numpy's version and
scipy's, null unless the process loaded scipy), a run the experiment ends with exit
2 or 3 included.  ``timings.stages`` holds seconds, calls and minor page faults
(``minor_faults``, the ``ru_minflt`` delta) per stage of the experiment
(``setup``, then e.g. ``solve``, ``pressure``, ``bc_audit``, ``errors``,
``write`` for ``solve``); the stages do not overlap, so they sum to at most
``total_s``.  ``timings.setup_s`` is the ``setup`` stage: building the
experiment's operator sets, or the basis of ``sweep`` (which builds its
per-level sets in ``integrate``).  ``evolve`` and ``probe-uniqueness`` also
record ``timings.steps``, the IMEX steps taken over all trajectories (three per
time step for the probe's base run and two members, stepped as one stacked
state), and ``timings.steps_per_s``, those steps per second of the
``integrate`` stage, where floating-point overflow prints no warning (the
watchdog reports the non-finite field).  Data files carry no timestamps so
reruns from the echoed config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisCache
from .config import ConfigError, EXPERIMENTS, parse_config
from .evolution import run_evolution, uniqueness_probe, vanishing_sweep
from .field import analyze, random_field, synthesize, zero_field
from .operators import OperatorSet
from .params import ParameterError, Resolution
from .snapshots import write_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_WATCHDOG = 4


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fail(message):
    print(f"nsab: {message}", file=sys.stderr)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class StageTimer:
    """Seconds, calls and minor page faults summed per named stage:
    ``with stage("solve"):``.  ``steps`` is set by experiments that
    integrate in time."""

    def __init__(self):
        self.stages = {}
        self.steps = None

    @contextmanager
    def __call__(self, name):
        t, faults = time.perf_counter(), _minor_faults()
        try:
            yield
        finally:
            entry = self.stages.setdefault(name, {"s": 0.0, "calls": 0, "minor_faults": 0})
            entry["s"] += time.perf_counter() - t
            entry["calls"] += 1
            entry["minor_faults"] += _minor_faults() - faults

    def timings(self, total_s):
        """The manifest's ``timings`` record."""
        out = {"total_s": total_s,
               "setup_s": self.stages.get("setup", {"s": 0.0})["s"],
               "stages": self.stages}
        if self.steps is not None:
            out["steps"] = self.steps
            out["steps_per_s"] = self.steps / max(self.stages["integrate"]["s"], 1e-300)
        return out


def _initial_field(cfg, layout):
    kind = cfg["u0.id"]
    if kind == "zero":
        return zero_field(cfg.geometry, cfg.resolution)
    if kind == "random":
        return random_field(cfg.geometry, cfg.resolution, seed=cfg["u0.seed"],
                            amplitude=cfg["u0.amplitude"], decay=cfg["u0.decay"])
    if kind == "single_mode":
        if not layout.reps:
            res = cfg.resolution
            raise ConfigError(f"u0.id = single_mode needs a nonzero mode, and N1 = "
                              f"{res.N1}, N2 = {res.N2} store none")
        f = zero_field(cfg.geometry, cfg.resolution)
        f.psi[layout.row[layout.reps[0]], 0] = cfg["u0.amplitude"]
        return f
    raise ConfigError(f"unknown u0.id {kind!r}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_verify_adn(cfg, out, operators, stage):
    # imported here, as no other subcommand reads the symbol checks
    from .adn import (check_covering, check_ellipticity, eliminate_boundary_system,
                      ns_alpha_beta_system, stable_subspace_angle, MOMENTUM_ONLY)
    with stage("ellipticity"):
        ell_rep = check_ellipticity(ns_alpha_beta_system(gamma=cfg.params.gamma))
    rng = np.random.default_rng(cfg["covering.seed"])
    etas = []
    for th in rng.uniform(0.0, 2 * np.pi, cfg["covering.n_circle"]):
        etas.append((np.cos(th), np.sin(th)))
    for _ in range(cfg["covering.n_magnitude"]):
        th = rng.uniform(0.0, 2 * np.pi)
        r = 10.0 ** rng.uniform(-3, 3)
        etas.append((r * np.cos(th), r * np.sin(th)))
    with stage("covering"):
        reps = [check_covering(eta, gamma=cfg.params.gamma) for eta in etas]
    covering = [{"eta": list(rep.eta), "det_modulus": abs(rep.det),
                 "kernel_dim": rep.kernel_dim, "pass": rep.passed} for rep in reps]
    with stage("angles"):
        angles = {f"{eta[0]:.6g},{eta[1]:.6g}": stable_subspace_angle(eta)
                  for eta in etas[:8] + [(1.0, 0.0), (0.0, 1.0)]}
    with stage("elimination"):
        elim = eliminate_boundary_system((1, 0), variant=MOMENTUM_ONLY)
    failed = [name for name, ok in (
        ("ellipticity", ell_rep.passed),
        ("covering", all(c["pass"] for c in covering)),
        ("stable subspace angles", max(angles.values()) <= 1e-8),
        ("classical elimination", elim.kernel_trivial)) if not ok]
    with stage("write"):
        write_json(out / "report.json", {
            "ellipticity": {"pass": ell_rep.passed, "method": ell_rep.method,
                            "determinant": str(ell_rep.determinant),
                            "sos_exponent": ell_rep.sos_exponent},
            "covering": covering,
            "subspace_angles": angles,
            "classical_elimination": {
                "a3_over_a0": str(elim.a3_over_a0),
                "reduced_rows_classical": elim.reduced_rows_classical,
                "b_forced_zero": elim.b_forced_zero,
                "a_and_a0_forced_zero": elim.a_and_a0_forced_zero,
                "kernel_trivial": elim.kernel_trivial},
            "all_pass": not failed,
        })
    if failed:
        _fail(f"verify-adn check failed: {', '.join(failed)} (see report.json)")
        return EXIT_NUMERICAL
    return EXIT_OK


# data near the float64 limit overflows the solve, the spectrum or their
# norms: stop with exit 3 rather than report NaN or inf diagnostics
@np.errstate(over="raise", invalid="raise")
def _exp_solve(cfg, out, operators, stage):
    from .manufactured import default_case
    from .stationary import recover_pressure, solve_stationary, strong_bc_residual
    ops = operators()
    fid = cfg["forcing.id"]
    pressure_info = {}
    with stage("solve"):
        if fid == "manufactured":
            case = default_case(cfg.geometry)
            rhs = case.rhs(ops, cfg.params)
            forcing = case.forcing(ops)
        elif fid == "random_solenoidal":
            f = random_field(cfg.geometry, cfg.resolution, seed=cfg["forcing.seed"],
                             amplitude=cfg["forcing.amplitude"])
            forcing = synthesize(f, ops.cache)["u"]
            rhs = analyze(*forcing, ops.cache)
        elif fid == "zero":
            forcing = None
            rhs = zero_field(cfg.geometry, cfg.resolution)
        else:
            raise ConfigError(f"unknown forcing.id {fid!r}")
        u, rep = solve_stationary(ops, rhs)
    press = None
    if forcing is not None:
        with stage("pressure"):
            press, prep = recover_pressure(u, forcing, ops)
        pressure_info = {"gradient_defect": prep.gradient_defect,
                         "curl_residual": prep.curl_residual}
    with stage("bc_audit"):
        bc = strong_bc_residual(u, cfg.params, ops)
    report = {
        "kernel_dim": rep.kernel_dim,
        "kernel_violation": rep.max_kernel_violation,
        "solve_residual_rel": rep.residual / max(rep.rhs_norm, 1e-300),
        "dirichlet_residual": bc.dirichlet_res,
        "wall_eddy_residual": bc.wall_eddy_res,
        "solution_l2": u.norm_l2(),
        **pressure_info,
    }
    if fid == "manufactured":
        with stage("errors"):
            report["manufactured_errors"] = case.errors(u, press, ops)
    with stage("write"):
        write_snapshot(out / "solution.snap", u, cfg.params)
        write_json(out / "residuals.json", report)
    return EXIT_OK


@np.errstate(over="raise", invalid="raise")
def _exp_eigs(cfg, out, operators, stage):
    from .spectral import eigenpairs_A, garding_constants
    ops = operators()
    with stage("eigenpairs"):
        pairs = eigenpairs_A(ops, cfg["eigs.count"])
    if len(pairs) < cfg["eigs.count"]:
        raise ConfigError(f"eigs.count = {cfg['eigs.count']} exceeds the "
                          f"{len(pairs)} eigenpairs of the discrete spectrum")
    with stage("garding"):
        g = garding_constants(ops)
    rows = [(n, p.lam, p.mode[0], p.mode[1], p.block, p.multiplicity, p.residual)
            for n, p in enumerate(pairs, start=1)]
    with stage("write"):
        write_csv(out / "eigs.csv",
                  ["n", "lambda", "k1", "k2", "block", "multiplicity", "residual"],
                  rows)
        write_json(out / "garding.json", {
            "grid": list(g.grid),
            "c0": {repr(k): v for k, v in g.c0.items()},
            "gamma0_min": g.gamma0_min,
            "gamma0_refined": g.gamma0_refined,
            "c0_at_min": g.c0_at_min,
            "norm_definition": g.norm_definition,
        })
    return EXIT_OK


_TS_HEADER = ["t", "E_Lambda", "a_uu", "grad_sq", "H1", "H3", "H5", "dE_balance"]


def _exp_evolve(cfg, out, operators, stage):
    ops = operators()
    with stage("integrate"), np.errstate(over="ignore", invalid="ignore"):
        u0 = _initial_field(cfg, ops.layout)
        inject = cfg["debug.inject_nan_step"] or None
        result = run_evolution(ops, u0, cfg["time.dt"], cfg["time.T"],
                               scheme=cfg["scheme.name"], cadence=cfg["output.cadence"],
                               watchdog_ceiling=cfg["watchdog.ceiling"],
                               inject_nan_step=inject)
    stage.steps = result.steps
    rows = [(r.t, r.E_lambda, r.a_uu, r.grad_sq, r.H1, r.H3, r.H5, r.dE_balance)
            for r in result.reports]
    with stage("write"):
        write_csv(out / "timeseries.csv", _TS_HEADER, rows)
        if result.watchdog is None:
            write_snapshot(out / "final.snap", result.final.field, cfg.params)
            return EXIT_OK
        return _watchdog_exit(out, result.watchdog)


def _watchdog_exit(out, event):
    """Write watchdog.json for a run the watchdog stopped; exit 4."""
    write_json(out / "watchdog.json", asdict(event))
    _fail(f"watchdog stopped the run at t = {event.time!r}: {event.reason}")
    return EXIT_WATCHDOG


def _exp_sweep(cfg, out, operators, stage):
    with stage("setup"):
        cache = BasisCache(cfg.geometry, cfg.resolution)
    with stage("integrate"), np.errstate(over="ignore", invalid="ignore"):
        u0 = _initial_field(cfg, cache.layout)
        rows = vanishing_sweep(cfg.params, cache, u0, cfg["sweep.levels"], cfg["time.T"],
                               cfg["time.dt"], scheme=cfg["scheme.name"])
    with stage("write"):
        write_csv(out / "sweep.csv",
                  ["n", "alpha", "beta", "sup_l2", "int_h1_sq", "alpha_sup_grad",
                   "beta2_int_h2_sq", "watchdog"],
                  [(n, r.alpha, r.beta, r.sup_l2, r.int_h1_sq, r.alpha_sup_grad,
                    r.beta2_int_h2_sq, r.watchdog.reason if r.watchdog else "none")
                   for n, r in enumerate(rows)])
    for n, r in enumerate(rows):
        if r.watchdog:
            _fail(f"sweep level {n} (alpha = {r.alpha!r}, beta = {r.beta!r}): "
                  f"watchdog at t = {r.watchdog.time!r}: {r.watchdog.reason}")
            return EXIT_NUMERICAL
    return EXIT_OK


def _exp_probe(cfg, out, operators, stage):
    ops = operators()
    d1, d2 = cfg["probe.delta1"], cfg["probe.delta2"]
    with stage("integrate"), np.errstate(over="ignore", invalid="ignore"):
        u0 = _initial_field(cfg, ops.layout)
        pert = random_field(cfg.geometry, cfg.resolution, seed=cfg["probe.seed"],
                            amplitude=1.0, decay=cfg["u0.decay"])
        p1, p2 = uniqueness_probe(ops, u0, pert, (d1, d2), cfg["time.T"],
                                  cfg["time.dt"], scheme=cfg["scheme.name"],
                                  watchdog_ceiling=cfg["watchdog.ceiling"])
    stage.steps = p1.steps
    mask = p1.times >= 0.25 * cfg["time.T"]
    with np.errstate(divide="ignore", invalid="ignore"):
        cfit = np.nanmax(np.where(mask, np.log(np.maximum(p1.growth, 1e-300))
                                  / np.maximum(p1.h3_integral, 1e-300), -np.inf))
    rel = abs(p1.growth[-1] - p2.growth[-1]) / max(abs(p1.growth[-1]), 1e-300)
    with stage("write"):
        write_csv(out / "probe.csv",
                  ["t", "growth_delta1", "growth_delta2", "h3_integral"],
                  list(zip(p1.times, p1.growth, p2.growth, p1.h3_integral)))
        if p1.watchdog is not None:
            return _watchdog_exit(out, p1.watchdog)
        write_json(out / "probe.json", {
            "delta1": d1, "delta2": d2,
            "growth_final_delta1": float(p1.growth[-1]),
            "growth_final_delta2": float(p2.growth[-1]),
            "relative_difference": float(rel),
            "gronwall_rate_fit": float(cfit),
        })
    return EXIT_OK


def _exp_convergence(cfg, out, operators, stage):
    from .manufactured import default_case
    from .stationary import recover_pressure, solve_stationary, strong_bc_residual
    rows = []
    for P in cfg["convergence.p_values"]:
        res = Resolution(cfg.resolution.N1, cfg.resolution.N2, P)
        ops = operators(res)
        case = default_case(cfg.geometry)
        with stage("solve"):
            u, rep = solve_stationary(ops, case.rhs(ops, cfg.params))
            # natural-condition recovery on a plain smooth solve (no correction)
            f = random_field(cfg.geometry, res, seed=cfg["forcing.seed"],
                             amplitude=1.0, decay=1.0)
            uf, _ = solve_stationary(ops, analyze(*synthesize(f, ops.cache)["u"], ops.cache))
        with stage("pressure"):
            press, prep = recover_pressure(u, case.forcing(ops), ops)
        with stage("errors"):
            errs = case.errors(u, press, ops)
        with stage("bc_audit"):
            bc = strong_bc_residual(uf, cfg.params, ops)
        rows.append((P, errs["H2_rel"], errs["pressure_L2"],
                     prep.gradient_defect, prep.curl_residual,
                     bc.wall_eddy_res))
    with stage("write"):
        write_csv(out / "convergence.csv",
                  ["P", "h2_err_rel", "pressure_err", "gradient_defect",
                   "curl_residual", "wall_eddy_residual_plain"], rows)
    return EXIT_OK


_RUNNERS = {
    "verify-adn": _exp_verify_adn,
    "solve": _exp_solve,
    "eigs": _exp_eigs,
    "evolve": _exp_evolve,
    "sweep": _exp_sweep,
    "probe-uniqueness": _exp_probe,
    "convergence": _exp_convergence,
}


#: exceptions that end an experiment with exit 2 or 3 (:func:`_failure`)
_RUN_FAILURES = (ConfigError, ParameterError, np.linalg.LinAlgError,
                 RuntimeError, FloatingPointError)


def _failure(exc, out):
    """(exit code, stderr line) of an experiment that raised; a numerical
    failure also leaves error.json."""
    if isinstance(exc, (ConfigError, ParameterError)):
        # a catalog id the experiment does not know, or a resolution too
        # coarse for the manufactured mode
        return EXIT_CONFIG, f"config error: {exc}"
    # a ConsistencyError comes only from a run that loaded nsab.stationary
    if isinstance(exc, getattr(sys.modules.get("nsab.stationary"), "ConsistencyError", ())):
        write_json(out / "error.json", {"error": str(exc), "type": "consistency"})
        return EXIT_NUMERICAL, str(exc)
    write_json(out / "error.json", {"error": str(exc), "type": "numerical"})
    return EXIT_NUMERICAL, f"numerical failure: {exc}"


def run(cfg, out_dir):
    """Dispatch one experiment; returns the process exit code.  The
    manifest is written whether the experiment returns or fails."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = StageTimer()

    def operators(resolution=cfg.resolution):
        # the experiment's OperatorSets; their build time is the setup stage
        with stage("setup"):
            return OperatorSet(cfg.params, cfg.geometry, resolution)

    t0 = time.perf_counter()
    message = None
    try:
        code = _RUNNERS[cfg.kind](cfg, out, operators, stage)
    except _RUN_FAILURES as exc:
        code, message = _failure(exc, out)
    elapsed = time.perf_counter() - t0
    write_json(out / "manifest.json", {
        "config": cfg.canonical_text(),
        "experiment": cfg.kind,
        "version": __version__,
        "seed": {"u0": cfg["u0.seed"], "forcing": cfg["forcing.seed"],
                 "covering": cfg["covering.seed"], "probe": cfg["probe.seed"]},
        "timings": stage.timings(elapsed),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the libraries this process loaded: in a fresh one, scipy only for verify-adn
        "libraries": {"numpy": np.__version__,
                      "scipy": getattr(sys.modules.get("scipy"), "__version__", None)},
        "cpu_count": os.cpu_count(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "exit_code": code,
    })
    if message is not None:
        _fail(message)
    return code


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print the usage block first: keep it to one line
        raise _UsageError(message)


def main(argv=None):
    ap = _ArgumentParser(
        prog="nsab",
        description="spectral laboratory for the two-length-scale "
                    "wall-eddy channel model")
    ap.add_argument("subcommand", choices=EXPERIMENTS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--seed", type=int, default=None,
                    help="derive every catalog seed from this one")
    try:
        args = ap.parse_args(argv)
        if args.seed is not None and args.seed < 0:
            ap.error(f"--seed must be nonnegative, got {args.seed}")
    except _UsageError as exc:
        _fail(f"usage error: {' '.join(str(exc).split())} (see nsab --help)")
        return EXIT_CONFIG

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
        return EXIT_CONFIG
    try:
        cfg = parse_config(text, kind_override=args.subcommand)
    except ConfigError as exc:
        _fail(f"config error: {exc}")
        return EXIT_CONFIG
    if args.seed is not None:  # distinct seeds: with one for all, the probe perturbs along u0
        keys = ("u0.seed", "forcing.seed", "covering.seed", "probe.seed")
        cfg.values.update(zip(keys, np.random.SeedSequence(args.seed).generate_state(4).tolist()))

    out_dir = args.out or os.environ.get("NSAB_OUT_DIR") or "nsab_out"
    try:
        return run(cfg, out_dir)
    except OSError as exc:
        _fail(f"cannot write output directory {out_dir!r}: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
