"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
Each criterion pins its tolerance here; regression baselines (frozen
eigenvalue, envelope rate, boundary determinants) are recorded next to the
assertions that use them.
"""

import time

import numpy as np
import pytest

from nsab.adn import (DIVERGENCE_FREE, MOMENTUM_ONLY, check_covering,
                      check_ellipticity, eliminate_boundary_system,
                      ns_alpha_beta_system, stable_subspace_angle,
                      symbol_determinant)
from nsab.basis import BasisCache
from nsab.evolution import (EvolutionState, IMEXStepper,
                            linear_propagator_exact, nonlinear_term,
                            run_evolution, uniqueness_probe, vanishing_sweep)
from nsab.field import random_field, zero_field
from nsab.manufactured import default_case
from nsab.operators import OperatorSet
from nsab.params import ChannelGeometry, Resolution, derive_params
from nsab.polynomial import GaussQ, norm_sq_poly
from nsab.spectral import eigenpairs_A, garding_constants
from nsab.stationary import recover_pressure, solve_stationary, strong_bc_residual

from conftest import distinct_blocks, eigenpair_field, params_with_k, velocity_dual
from fractions import Fraction

GEO = ChannelGeometry()  # 2pi x 2pi x 1


def _report(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_exact_ellipticity():
    t0 = time.perf_counter()
    det = symbol_determinant(ns_alpha_beta_system())
    exact = det == norm_sq_poly() ** 5            # zero tolerance
    rep = check_ellipticity(ns_alpha_beta_system())
    dt = time.perf_counter() - t0
    _report(1, "symbol determinant equals |xi|^10 exactly",
            exact and rep.passed and dt < 1.0, f"runtime {dt:.3f}s")


# -- 2 -----------------------------------------------------------------------

def test_criterion_02_covering_condition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for th in rng.uniform(0, 2 * np.pi, 100):
        ok &= check_covering((np.cos(th), np.sin(th))).passed
    for _ in range(20):
        r = 10.0 ** rng.uniform(-3, 3)
        th = rng.uniform(0, 2 * np.pi)
        ok &= check_covering((r * np.cos(th), r * np.sin(th))).passed
    worst = 0.0
    for th in rng.uniform(0, 2 * np.pi, 15):
        worst = max(worst, stable_subspace_angle((np.cos(th), np.sin(th))))
    worst = max(worst, stable_subspace_angle((1.0, 0.0)))
    dt = time.perf_counter() - t0
    _report(2, "covering holds for 120 frequencies; jets agree to 1e-8",
            ok and worst <= 1e-8 and dt < 10.0,
            f"max angle {worst:.2e}, runtime {dt:.2f}s")


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_classical_elimination_exact():
    ok = True
    for eta in ((1, 0), (0, 1)):
        rec = eliminate_boundary_system(eta, variant=MOMENTUM_ONLY)
        ok &= rec.a3_over_a0 == GaussQ.of(Fraction(1, 4))   # a3 = a0/(4|eta|^3)
        ok &= rec.reduced_rows_classical                    # 2|eta| b_j + i eta_j b3
        ok &= rec.b_forced_zero and rec.a_and_a0_forced_zero
        ok &= rec.kernel_trivial
    _report(3, "exact elimination reproduces a3 = a0/(4|eta|^3), b = 0, "
               "then a = a0 = 0", ok)


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_form_symmetry_grid():
    t0 = time.perf_counter()
    res = Resolution(N1=8, N2=8, P=24)
    worst = 0.0
    for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for k in (0.0, 5.0):
            ops = OperatorSet(params_with_k(gamma, k), GEO, res)
            for blk in distinct_blocks(ops):
                m = blk.K_a
                worst = max(worst, np.abs(m - m.T).max() / np.abs(m).max())
    dt = time.perf_counter() - t0
    _report(4, "K_a symmetric to 1e-12 over the gamma x k grid",
            worst <= 1e-12 and dt < 30.0,
            f"worst {worst:.2e}, runtime {dt:.1f}s")


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_gamma_minus_one_identity():
    from conftest import mode_velocity_profiles, pair_bases, pair_forms, random_block_coeffs
    from nsab.basis import BasisCache, gauss_legendre
    res = Resolution(N1=4, N2=4, P=16)
    cache = BasisCache(GEO, res)
    ops = OperatorSet(params_with_k(-1.0, 0.0), GEO, res, cache)
    z2, w2 = gauss_legendre(3 * res.Q, GEO.H)
    worst = 0.0
    modes = [(1, 0), (1, 1), (2, -1), (3, 2)]
    for seed in range(20):
        k1, k2 = modes[seed % 4]
        ct, cp = random_block_coeffs(cache, k1, k2, 900 + seed)
        bt, bp = pair_forms(ops, k1, k2)
        a_val = 2.0 * (np.vdot(ct, bt.K_a @ ct).real + np.vdot(cp, bp.K_a @ cp).real)
        prof = mode_velocity_profiles(cache, k1, k2, ct, cp, z2, dmax=2)
        m = pair_bases(cache, k1, k2)[0]
        lap = prof[2] - m * prof[0]
        lap_sq = 2.0 * GEO.area * float(np.sum(w2 * np.abs(lap) ** 2))
        worst = max(worst, abs(a_val - lap_sq) / lap_sq)
    _report(5, "gamma = -1, k = 0: a(u,u) equals ||Lap u||^2 to 1e-12",
            worst <= 1e-12, f"worst {worst:.2e}")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_discrete_garding():
    t0 = time.perf_counter()
    ok = True
    details = []
    for gamma in (-1.0, 0.0, 1.0):
        for k in (0.0, 1.0, 5.0):
            vals = {}
            g24 = None
            for P in (24, 32):
                ops = OperatorSet(params_with_k(gamma, k), GEO,
                                  Resolution(N1=4, N2=4, P=P))
                g = garding_constants(ops)
                ok &= np.isfinite(g.gamma0_min) and g.c0_at_min > 0.0
                if P == 24:
                    g24 = g
                    vals[24] = g.c0_at_min
                else:
                    vals[32] = g.c0[g24.gamma0_min]  # same shift, refined P
            drift = abs(vals[32] - vals[24]) / abs(vals[24])
            ok &= drift <= 0.05
            details.append(f"g={gamma} k={k}: c0={vals[24]:.4g} d={drift:.1e}")
    dt = time.perf_counter() - t0
    _report(6, "coercivity constant positive on the shift grid, stable "
               "to 5% under P refinement", ok and dt < 300.0,
            f"runtime {dt:.0f}s")


# -- 7 -----------------------------------------------------------------------

LAMBDA1_BASELINE = 53.7845436624   # gamma=0, k=1, 2pi x 2pi x 1, N=8^2, P>=24


def test_criterion_07_eigen_structure():
    par = params_with_k(0.0, 1.0)
    lam1 = {}
    for P in (24, 32):
        ops = OperatorSet(par, GEO, Resolution(N1=8, N2=8, P=P))
        lam1[P] = eigenpairs_A(ops, 1)[0].lam
    ops = OperatorSet(par, GEO, Resolution(N1=8, N2=8, P=24))
    pairs = eigenpairs_A(ops, 20)
    lams = [p.lam for p in pairs]
    ok = all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
    fields = [eigenpair_field(ops, p) for p in pairs[:8]]
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            val = fi.dot(fj)
            ok &= abs(val - (1.0 if i == j else 0.0)) <= 1e-10 or \
                abs(pairs[i].lam - pairs[j].lam) <= 1e-8 * (1 + abs(lams[i]))
    g = garding_constants(ops)
    ok &= lams[0] > -g.gamma0_refined
    conv = abs(lam1[32] - lam1[24]) / abs(lam1[24])
    ok &= conv <= 1e-6
    ok &= abs(lam1[24] - LAMBDA1_BASELINE) <= 1e-6 * LAMBDA1_BASELINE
    _report(7, "20 lowest eigenvalues ordered/orthonormal; lambda1 "
               "converged and matches baseline", ok,
            f"lambda1 = {lam1[24]:.10g}, P-drift {conv:.1e}")


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_stationary_convergence():
    t0 = time.perf_counter()
    par = derive_params(0.2, 0.1, 0.0, 0.05)
    case = default_case(GEO)
    h2 = {}
    prs = {}
    wall = {}
    for P in (8, 16, 24, 32):
        res = Resolution(N1=4, N2=4, P=P)
        ops = OperatorSet(par, GEO, res)
        u, _ = solve_stationary(ops, case.rhs(ops, par))
        press, _ = recover_pressure(u, case.forcing(ops), ops)
        errs = case.errors(u, press, ops)
        ref = case.errors(zero_field(GEO, res), None, ops)
        h2[P] = errs["H2"] / ref["H2"]
        prs[P] = errs["pressure_L2"] / max(ref["L2"], 1.0)
        f = random_field(GEO, res, seed=3, amplitude=1.0, decay=1.0)
        uf, _ = solve_stationary(ops, velocity_dual(f, ops))
        wall[P] = strong_bc_residual(uf, par, ops).wall_eddy_res
    ok = True
    for a, b in ((8, 16), (16, 24), (24, 32)):
        ok &= (h2[b] <= h2[a] / 10.0) or (h2[b] <= 1e-10)
        ok &= (prs[b] <= prs[a] / 10.0) or (prs[b] <= 1e-6)
    ok &= h2[32] <= 1e-10
    ok &= wall[16] < wall[8] and wall[32] < wall[16] / 10.0
    dt = time.perf_counter() - t0
    _report(8, "manufactured H2/pressure errors drop 10x per P step to "
               "plateau; traction residual decays", ok and dt < 300.0,
            f"H2 {h2[8]:.1e}->{h2[32]:.1e}, runtime {dt:.0f}s")


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_nonlinear_skew_symmetry():
    res = Resolution(N1=4, N2=4, P=12)
    ops = OperatorSet(derive_params(0.2, 0.1, -1.0, 0.01), GEO, res)
    worst = 0.0
    for seed in range(20):
        u = random_field(GEO, res, seed=1000 + seed, amplitude=1.0)
        N = nonlinear_term(u, ops)
        h1 = np.sqrt(ops.form_inner("M", u, u) + ops.form_inner("K_grad", u, u))
        worst = max(worst, abs(N.dot(u)) / max(h1**3, 1e-30))
    _report(9, "projected convection is skew: <B(Lu,u),u> <= 1e-11 x scale",
            worst <= 1e-11, f"worst {worst:.2e}")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_propagator_orders():
    par = derive_params(0.2, 0.1, -1.0, 0.01)
    res = Resolution(N1=4, N2=4, P=12)
    ops = OperatorSet(par, GEO, res)
    u0 = random_field(GEO, res, seed=5, amplitude=0.5, decay=2.0)
    T = 0.2
    uT = linear_propagator_exact(u0, T, ops)
    dts = [1e-2, 5e-3, 2.5e-3]
    slopes = {}
    for scheme in ("euler", "cnab2"):
        errs = []
        for dt in dts:
            st = EvolutionState(0.0, u0.copy())
            stepper = IMEXStepper(ops, dt, scheme, nonlinear=False)
            for _ in range(int(round(T / dt))):
                st = stepper.step(st)
            errs.append((st.field - uT).norm_l2())
        slopes[scheme] = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = abs(slopes["euler"] - 1.0) <= 0.1 and abs(slopes["cnab2"] - 2.0) <= 0.1
    _report(10, "IMEX orders vs exact propagator: 1.0 and 2.0 within 0.1",
            ok, f"euler {slopes['euler']:.3f}, cn {slopes['cnab2']:.3f}")


# -- 11 ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_energy_balance():
    t0 = time.perf_counter()
    par = derive_params(0.2, 0.1, -1.0, 0.01)   # gamma = -1, k = 1
    res = Resolution(N1=16, N2=16, P=32)
    ops = OperatorSet(par, GEO, res)
    # flow-prepare the state with a short fine-step burn-in: the O(dt)
    # balance law holds along trajectories, not across the initial layer
    # of arbitrary data
    seed_field = random_field(GEO, res, seed=12, amplitude=1.0, decay=1.5)
    burn = run_evolution(ops, seed_field, 0.0025, 0.1, scheme="euler",
                         cadence=100)
    u0 = burn.final.field
    series = {}
    mono = {}
    for dt in (0.02, 0.01):
        r = run_evolution(ops, u0, dt, 10.0, scheme="euler", cadence=1)
        assert r.watchdog is None
        E = [rep.E_lambda for rep in r.reports]
        mono[dt] = all(b <= a + 1e-14 for a, b in zip(E, E[1:]))
        series[dt] = np.array([rep.dE_balance for rep in r.reports[1:]])
    ratio = series[0.02].max() / series[0.01].max()
    # one fitted constant bounds the residual at ALL reported times of both
    # runs: C from the coarse run with the +-20% halving slack
    C = 1.25 * series[0.02].max() / 0.02
    all_times = all(np.all(series[dt] <= C * dt) for dt in (0.02, 0.01))
    ok = mono[0.02] and mono[0.01] and 1.6 <= ratio <= 2.4 and all_times
    dt_run = time.perf_counter() - t0
    _report(11, "discrete energy balance O(dt), halving with dt; "
                "E_Lambda monotone", ok and dt_run < 600.0,
            f"ratio {ratio:.2f}, runtime {dt_run:.0f}s")


# -- 12 ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_12_global_boundedness():
    par = derive_params(0.2, 0.1, -1.0, 0.01)
    res = Resolution(N1=8, N2=8, P=16)
    ops = OperatorSet(par, GEO, res)
    u0 = random_field(GEO, res, seed=12, amplitude=1.0, decay=1.0)
    r = run_evolution(ops, u0, 0.02, 50.0, scheme="cnab2", cadence=25)
    ts = np.array([rep.t for rep in r.reports])
    h3 = np.array([rep.H3 for rep in r.reports])
    first = h3[ts <= 25.0].max()
    last = h3[ts > 25.0].max()
    ok = (r.watchdog is None) and (last <= 3.0 * first) and np.all(np.isfinite(h3))
    _report(12, "T=50 trajectory stays regular: late H3 below 3x running max",
            ok, f"first-half max {first:.3g}, last-half max {last:.3g}")


# -- 13 ----------------------------------------------------------------------

GRONWALL_RATE_BASELINE = -1.5   # fitted log-growth/int-H3 rate, with margin


def test_criterion_13_uniqueness_probe():
    par = derive_params(0.2, 0.1, -1.0, 0.01)
    res = Resolution(N1=8, N2=8, P=12)
    ops = OperatorSet(par, GEO, res)
    u0 = random_field(GEO, res, seed=2, amplitude=0.3, decay=1.0)
    pert = random_field(GEO, res, seed=77, amplitude=1.0, decay=1.0)
    p8, p6 = uniqueness_probe(ops, u0, pert, (1e-8, 1e-6), 2.0, 0.01)
    rel = abs(p8.growth[-1] - p6.growth[-1]) / abs(p8.growth[-1])
    mask = p8.times > 0
    rate = np.max(np.log(np.maximum(p8.growth[mask], 1e-300))
                  / np.maximum(p8.h3_integral[mask], 1e-300))
    ok = rel <= 0.01 and np.all(np.isfinite(p8.growth)) \
        and rate <= GRONWALL_RATE_BASELINE
    _report(13, "perturbation growth linear in delta (1%) and inside the "
                "fitted envelope", ok,
            f"rel {rel:.1e}, rate {rate:.2f} <= {GRONWALL_RATE_BASELINE}")


# -- 14 ----------------------------------------------------------------------

def test_criterion_14_vanishing_sweep():
    par = derive_params(0.2, 0.1, 0.0, 0.01)
    res = Resolution(N1=4, N2=4, P=12)
    u0 = random_field(GEO, res, seed=3, amplitude=0.2, decay=1.0)
    rows = vanishing_sweep(par, BasisCache(GEO, res), u0, 6, T=1.0, dt=0.01)  # 5 halvings
    ok = all(r.watchdog is None for r in rows)
    l2s = [r.sup_l2 for r in rows]
    h1s = [r.int_h1_sq for r in rows]
    # uniform bounds: filtered initial energy dominates sup-in-time L2 for
    # every level, and the H1 dissipation integral stays within a fixed
    # multiple of the coarsest level
    E0 = 0.5 * u0.norm_l2() ** 2
    for row in rows:
        ok &= row.sup_l2 <= np.sqrt(2 * E0 * (1 + row.alpha**2)) * (1 + 1e-6)
    ok &= max(h1s) <= 10.0 * h1s[0]
    ok &= max(l2s) <= l2s[0] * (1 + 1e-6)
    _report(14, "halving (alpha, beta) five times keeps sup L2 and "
                "int ||u||_H1^2 uniformly bounded", ok,
            f"sup L2 {max(l2s):.4g}, int H1^2 range "
            f"[{min(h1s):.3g}, {max(h1s):.3g}]")
