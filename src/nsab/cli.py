"""Command-line orchestration: experiments, manifests, CSV/JSON artifacts.

    nsab <subcommand> --config <path> [--out <dir>] [--serial] [--seed N]

Subcommands: verify-adn, solve, eigs, evolve, sweep, probe-uniqueness,
convergence.  Exit codes: 0 success, 2 configuration error (including an
output directory that cannot be written), 3 numerical failure, 4
watchdog/blow-up event.  The output directory defaults to ``nsab_out``;
the environment variable ``NSAB_OUT_DIR`` overrides it when --out is
absent.  Execution is always deterministic and serial; --serial does
nothing and is still accepted so existing command lines parse.

Every run writes ``manifest.json`` (config echo, package version, seed,
timings, timestamp); data files carry no timestamps so reruns from the
echoed config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .adn import (check_covering, check_ellipticity, eliminate_boundary_system,
                  ns_alpha_beta_system, stable_subspace_angle, MOMENTUM_ONLY)
from .config import ConfigError, EXPERIMENTS, parse_config
from .evolution import run_evolution, uniqueness_probe, vanishing_sweep
from .field import mirror, random_field, zero_field
from .manufactured import default_case
from .operators import OperatorSet
from .spectral import eigenpairs_A, garding_constants
from .snapshots import write_snapshot
from .stationary import (ConsistencyError, forcing_from_field, recover_pressure,
                         solve_stationary, strong_bc_residual)

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


def _initial_field(cfg, ops):
    kind = cfg["u0.id"]
    if kind == "zero":
        return zero_field(cfg.geometry, cfg.resolution)
    if kind == "random":
        return random_field(cfg.geometry, cfg.resolution, seed=cfg["u0.seed"],
                            amplitude=cfg["u0.amplitude"], decay=cfg["u0.decay"])
    if kind == "single_mode":
        f = zero_field(cfg.geometry, cfg.resolution)
        i1, i2, _, _ = ops.layout.reps[0]
        f.psi[i1, i2, 0] = cfg["u0.amplitude"]
        return mirror(f)
    raise ConfigError(f"unknown u0.id {kind!r}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_verify_adn(cfg, out):
    system = ns_alpha_beta_system(gamma=cfg.params.gamma)
    ell_rep = check_ellipticity(system)
    rng = np.random.default_rng(cfg["covering.seed"])
    etas = []
    for th in rng.uniform(0.0, 2 * np.pi, cfg["covering.n_circle"]):
        etas.append((np.cos(th), np.sin(th)))
    for _ in range(cfg["covering.n_magnitude"]):
        th = rng.uniform(0.0, 2 * np.pi)
        r = 10.0 ** rng.uniform(-3, 3)
        etas.append((r * np.cos(th), r * np.sin(th)))
    covering = []
    for eta in etas:
        rep = check_covering(eta, gamma=cfg.params.gamma)
        covering.append({"eta": list(rep.eta), "det_modulus": abs(rep.det),
                         "kernel_dim": rep.kernel_dim, "pass": rep.passed})
    angles = {}
    for eta in etas[:8] + [(1.0, 0.0), (0.0, 1.0)]:
        angles[f"{eta[0]:.6g},{eta[1]:.6g}"] = stable_subspace_angle(eta)
    elim = eliminate_boundary_system((1, 0), variant=MOMENTUM_ONLY)
    all_pass = (ell_rep.passed and all(c["pass"] for c in covering)
                and max(angles.values()) <= 1e-8 and elim.kernel_trivial)
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
        "all_pass": all_pass,
    })
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def _exp_solve(cfg, out):
    ops = OperatorSet(cfg.params, cfg.geometry, cfg.resolution)
    fid = cfg["forcing.id"]
    pressure_info = {}
    if fid == "manufactured":
        case = default_case(cfg.geometry)
        rhs = case.rhs(ops, cfg.params)
        forcing = case.forcing(ops)
    elif fid == "random_solenoidal":
        f = random_field(cfg.geometry, cfg.resolution, seed=cfg["forcing.seed"],
                         amplitude=cfg["forcing.amplitude"])
        forcing = forcing_from_field(f, ops)
        rhs = forcing.dual(ops)
    elif fid == "zero":
        forcing = None
        rhs = zero_field(cfg.geometry, cfg.resolution)
    else:
        raise ConfigError(f"unknown forcing.id {fid!r}")
    u, rep = solve_stationary(ops, rhs)
    press = None
    if forcing is not None:
        press, prep = recover_pressure(u, forcing, ops)
        pressure_info = {"gradient_defect": prep.gradient_defect,
                         "curl_residual": prep.curl_residual}
    bc = strong_bc_residual(u, cfg.params, ops)
    write_snapshot(out / "solution.snap", u, cfg.params)
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
        report["manufactured_errors"] = case.errors(u, press, ops)
    write_json(out / "residuals.json", report)
    return EXIT_OK


def _exp_eigs(cfg, out):
    ops = OperatorSet(cfg.params, cfg.geometry, cfg.resolution)
    pairs = eigenpairs_A(ops, cfg["eigs.count"])
    rows = [(n, p.lam, p.mode[0], p.mode[1], p.block, p.multiplicity, p.residual)
            for n, p in enumerate(pairs, start=1)]
    write_csv(out / "eigs.csv",
              ["n", "lambda", "k1", "k2", "block", "multiplicity", "residual"],
              rows)
    g = garding_constants(ops)
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


def _exp_evolve(cfg, out):
    ops = OperatorSet(cfg.params, cfg.geometry, cfg.resolution)
    u0 = _initial_field(cfg, ops)
    inject = cfg["debug.inject_nan_step"] or None
    result = run_evolution(ops, u0, cfg["time.dt"], cfg["time.T"],
                           scheme=cfg["scheme.name"], cadence=cfg["output.cadence"],
                           watchdog_ceiling=cfg["watchdog.ceiling"],
                           inject_nan_step=inject)
    rows = [(r.t, r.E_lambda, r.a_uu, r.grad_sq, r.H1, r.H3, r.H5, r.dE_balance)
            for r in result.reports]
    write_csv(out / "timeseries.csv", _TS_HEADER, rows)
    if result.watchdog is None:
        write_snapshot(out / "final.snap", result.final.field, cfg.params)
        return EXIT_OK
    write_json(out / "watchdog.json", {
        "time": result.watchdog.time,
        "reason": result.watchdog.reason,
        "h4_proxy": result.watchdog.h4_proxy,
        "ceiling": result.watchdog.ceiling,
    })
    return EXIT_WATCHDOG


def _exp_sweep(cfg, out):
    ops = OperatorSet(cfg.params, cfg.geometry, cfg.resolution)
    u0 = _initial_field(cfg, ops)
    rows = vanishing_sweep(cfg.params, cfg.geometry, cfg.resolution, u0,
                           cfg["sweep.levels"], cfg["time.T"], cfg["time.dt"],
                           scheme=cfg["scheme.name"])
    write_csv(out / "sweep.csv",
              ["n", "alpha", "beta", "sup_l2", "int_h1_sq", "alpha_sup_grad",
               "beta2_int_h2_sq", "watchdog"],
              [(n, r.alpha, r.beta, r.sup_l2, r.int_h1_sq, r.alpha_sup_grad,
                r.beta2_int_h2_sq, r.watchdog.reason if r.watchdog else "none")
               for n, r in enumerate(rows)])
    if any(r.watchdog for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _exp_probe(cfg, out):
    ops = OperatorSet(cfg.params, cfg.geometry, cfg.resolution)
    u0 = _initial_field(cfg, ops)
    pert = random_field(cfg.geometry, cfg.resolution, seed=cfg["probe.seed"],
                        amplitude=1.0, decay=cfg["u0.decay"])
    d1, d2 = cfg["probe.delta1"], cfg["probe.delta2"]
    p1 = uniqueness_probe(ops, u0, pert, d1, cfg["time.T"], cfg["time.dt"],
                          scheme=cfg["scheme.name"])
    p2 = uniqueness_probe(ops, u0, pert, d2, cfg["time.T"], cfg["time.dt"],
                          scheme=cfg["scheme.name"])
    write_csv(out / "probe.csv",
              ["t", "growth_delta1", "growth_delta2", "h3_integral"],
              list(zip(p1.times, p1.growth, p2.growth, p1.h3_integral)))
    mask = p1.times >= 0.25 * cfg["time.T"]
    with np.errstate(divide="ignore", invalid="ignore"):
        cfit = np.nanmax(np.where(mask, np.log(np.maximum(p1.growth, 1e-300))
                                  / np.maximum(p1.h3_integral, 1e-300), -np.inf))
    rel = abs(p1.growth[-1] - p2.growth[-1]) / max(abs(p1.growth[-1]), 1e-300)
    write_json(out / "probe.json", {
        "delta1": d1, "delta2": d2,
        "growth_final_delta1": float(p1.growth[-1]),
        "growth_final_delta2": float(p2.growth[-1]),
        "relative_difference": float(rel),
        "gronwall_rate_fit": float(cfit),
    })
    return EXIT_OK


def _exp_convergence(cfg, out):
    rows = []
    from .params import Resolution as Res
    for P in cfg["convergence.p_values"]:
        res = Res(cfg.resolution.N1, cfg.resolution.N2, P)
        ops = OperatorSet(cfg.params, cfg.geometry, res)
        case = default_case(cfg.geometry)
        u, rep = solve_stationary(ops, case.rhs(ops, cfg.params))
        press, prep = recover_pressure(u, case.forcing(ops), ops)
        errs = case.errors(u, press, ops)
        ref = case.errors(zero_field(cfg.geometry, res), None, ops)
        # natural-condition recovery on a plain smooth solve (no correction)
        f = random_field(cfg.geometry, res, seed=cfg["forcing.seed"],
                         amplitude=1.0, decay=1.0)
        uf, _ = solve_stationary(ops, forcing_from_field(f, ops).dual(ops))
        bc = strong_bc_residual(uf, cfg.params, ops)
        rows.append((P, errs["H2"] / ref["H2"], errs["pressure_L2"],
                     prep.gradient_defect, prep.curl_residual,
                     bc.wall_eddy_res))
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


def run(cfg, out_dir):
    """Dispatch one experiment; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    code = _RUNNERS[cfg.kind](cfg, out)
    elapsed = time.perf_counter() - t0
    write_json(out / "manifest.json", {
        "config": cfg.canonical_text(),
        "experiment": cfg.kind,
        "version": __version__,
        "seed": {"u0": cfg["u0.seed"], "forcing": cfg["forcing.seed"],
                 "covering": cfg["covering.seed"], "probe": cfg["probe.seed"]},
        "serial": True,
        "timings": {"total_s": elapsed},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "exit_code": code,
    })
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="nsab",
        description="spectral laboratory for the two-length-scale "
                    "wall-eddy channel model")
    ap.add_argument("subcommand", choices=EXPERIMENTS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--serial", action="store_true",
                    help="no effect: execution is always serial")
    ap.add_argument("--seed", type=int, default=None,
                    help="override every catalog seed")
    args = ap.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"nsab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text, kind_override=args.subcommand)
    except ConfigError as exc:
        print(f"nsab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        for key in ("u0.seed", "forcing.seed", "covering.seed", "probe.seed"):
            cfg.values[key] = args.seed

    out_dir = args.out or os.environ.get("NSAB_OUT_DIR") or "nsab_out"
    try:
        return run(cfg, out_dir)
    except ConfigError as exc:  # a catalog id the experiment does not know
        print(f"nsab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"nsab: cannot write output directory {out_dir!r}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except ConsistencyError as exc:
        write_json(Path(out_dir) / "error.json",
                   {"error": str(exc), "type": "consistency"})
        print(f"nsab: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_json(Path(out_dir) / "error.json",
                   {"error": str(exc), "type": "numerical"})
        print(f"nsab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
