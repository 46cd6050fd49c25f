"""Time integration of the filtered evolution system and its monitors.

The semidiscrete system, tested against the solenoidal basis, reads

    M_L du/dt + (beta^2 K_a + K_grad) u + N(u) = 0,

where M_L is the filter form (I + alpha^2 grad-form), K_a the stationary
form, K_grad the viscous form and N(u) the Galerkin projection of
(grad v) u + (grad u)^T v with v = (1 - alpha^2 Lap) u applied per mode to
the potentials.  The projection realizes the divergence-free (Leray)
projection; its skew symmetry <N(u), u> = 0 holds to quadrature exactness
for any v because the trial fields vanish on the walls.

Steppers treat the stiff fourth-order linear part implicitly and N
explicitly: backward-Euler/forward-Euler, or Crank-Nicolson with
Adams-Bashforth-2 (first step seeded with the initial slope).  The linear
flow also has an exact spectral propagator through the factorization
u(t) = L^{-1/2} e^{-tD} L^{1/2} u0 (+ Duhamel term), which serves as the
order oracle for the steppers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .field import mirror, project_velocity, reconstruct, zero_field
from .operators import OperatorSet
from .params import derive_params
from .spectral import SpectralFactors


class PaddingError(ValueError):
    pass


@dataclass
class EvolutionState:
    time: float
    field: object
    history: object = None  # previous nonlinear dual (multistep schemes)


@dataclass
class EnergyReport:
    t: float
    E_lambda: float
    a_uu: float
    grad_sq: float
    H1: float
    H3: float
    H5: float
    dE_balance: float


@dataclass
class WatchdogEvent:
    time: float
    reason: str       # "h4_growth" or "nan"
    h4_proxy: float
    ceiling: float


# ---------------------------------------------------------------------------
# nonlinear term
# ---------------------------------------------------------------------------

def _check_padding(resolution):
    need1 = (3 * resolution.N1) // 2
    need2 = (3 * resolution.N2) // 2
    M1, M2 = resolution.padded_shape
    if M1 < need1 or M2 < need2:
        raise PaddingError(
            f"padded grid {M1}x{M2} insufficient for dealiased quadratic "
            f"products: need at least {need1}x{need2}")


def nonlinear_term(u, ops):
    """Galerkin projection of (grad v) u + (grad u)^T v, v the filtered field.

    Returns dual coefficients in the orthonormal basis (same container as
    fields).  Quadratic tangential interactions are exact on the padded
    grid; wall-normal triple products are exact by the Q >= (3P+1)/2 rule.
    """
    res = u.resolution
    _check_padding(res)
    rec = reconstruct(u, ops.cache, want=("u", "grad_u", "v", "grad_v"),
                      alpha=ops.params.alpha)
    # F_i = (grad v)_{ij} u_j + (grad u)_{ji} v_j, with (grad u)_{ij} = d_j u_i
    F = (np.einsum("ij...,j...->i...", rec["grad_v"], rec["u"])
         + np.einsum("ji...,j...->i...", rec["grad_u"], rec["v"]))
    return project_velocity(F, u.geometry, res, ops.cache)


# ---------------------------------------------------------------------------
# exact linear propagator
# ---------------------------------------------------------------------------

def linear_propagator_exact(u0, t, ops, factors=None, forcing=None,
                            panels=8, nodes=8):
    """Spectral solution of M_L du/dt + S u = f via the symmetrized factors.

    factors selects the stiff operator S: SpectralFactors with
    include_gradient=True for the evolution system's linear part, False for
    the bare beta^2-weighted stationary form.  forcing, if given, maps a
    time to dual coefficients; the Duhamel integral uses composite
    Gauss-Legendre quadrature with the given panel/node counts.
    """
    if factors is None:
        factors = SpectralFactors(ops, include_gradient=True)
    out = zero_field(u0.geometry, u0.resolution)
    for slot, blk, c in ops.field_blocks(u0):
        out.coeffs(slot)[:] = factors.propagate_block(blk, t, c)
    if forcing is not None and t > 0:
        x, wq = np.polynomial.legendre.leggauss(nodes)
        # panels graded geometrically toward tau = t, where the semigroup
        # kernel is sharply peaked for the stiff blocks
        edges = np.concatenate([[0.0], t - t * 0.5 ** np.arange(1, panels),
                                [t]])
        for a, b in zip(edges[:-1], edges[1:]):
            taus = 0.5 * (b - a) * (x + 1.0) + a
            ws = 0.5 * (b - a) * wq
            for tau, wgt in zip(taus, ws):
                g = forcing(tau)
                for slot, blk, c in ops.field_blocks(g):
                    fb = factors.block(blk)
                    val = wgt * (fb.inv_sqrt_lambda
                                 @ factors.semigroup_apply(blk, t - tau,
                                                           fb.inv_sqrt_lambda @ c))
                    out.coeffs(slot)[:] += val
    return mirror(out)


# ---------------------------------------------------------------------------
# IMEX steppers
# ---------------------------------------------------------------------------

class IMEXStepper:
    """Implicit linear part, explicit nonlinearity.

    scheme="euler": backward Euler / forward Euler (first order);
    scheme="cnab2": Crank-Nicolson / Adams-Bashforth 2 (second order,
    first step seeded with the initial nonlinear slope).
    nonlinear=False freezes N to 0 (linear order studies).
    """

    def __init__(self, ops, dt, scheme="euler", nonlinear=True):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scheme not in ("euler", "cnab2"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.ops = ops
        self.dt = dt
        self.scheme = scheme
        self.nonlinear = nonlinear
        self._lu = {}
        self._minus = {}
        b2 = ops.params.beta**2

        for blk in ops.distinct_blocks():
            S = b2 * blk.K_a + blk.K_grad
            if scheme == "euler":
                A = blk.M_lambda + dt * S
            else:
                A = blk.M_lambda + 0.5 * dt * S
                self._minus[id(blk)] = blk.M_lambda - 0.5 * dt * S
            self._lu[id(blk)] = sla.lu_factor(A)

    def step(self, state):
        ops = self.ops
        dt = self.dt
        u = state.field
        N = nonlinear_term(u, ops) if self.nonlinear else zero_field(u.geometry, u.resolution)
        if self.scheme == "cnab2":
            Nprev = state.history if state.history is not None else N
        out = zero_field(u.geometry, u.resolution)
        for slot, blk, c in ops.field_blocks(u):
            lu = self._lu[id(blk)]
            n_now = N.coeffs(slot)
            if self.scheme == "euler":
                rhs = blk.M_lambda @ c - dt * n_now
            else:
                n_old = Nprev.coeffs(slot)
                rhs = self._minus[id(blk)] @ c - dt * (1.5 * n_now - 0.5 * n_old)
            out.coeffs(slot)[:] = _lu_solve_c(lu, rhs)
        return EvolutionState(state.time + dt, mirror(out),
                              N if self.scheme == "cnab2" else None)


def _lu_solve_c(lu, rhs):
    if np.iscomplexobj(rhs):
        return (sla.lu_solve(lu, rhs.real.astype(float))
                + 1j * sla.lu_solve(lu, rhs.imag.astype(float)))
    return sla.lu_solve(lu, rhs)


# ---------------------------------------------------------------------------
# trajectories, energy monitors, watchdog
# ---------------------------------------------------------------------------

def energy_report(ops, state, prev=None, dt=None, snorm=None):
    u = state.field
    E = 0.5 * ops.form_energy("M_lambda", u)
    a_uu = ops.form_energy("K_a", u)
    grad = ops.form_energy("K_grad", u)
    l2sq = ops.form_energy("M", u)
    sn = snorm if snorm is not None else ops.a_scale_norms(u)
    bal = np.nan
    if prev is not None and dt:
        E0 = 0.5 * ops.form_energy("M_lambda", prev.field)
        bal = abs((E - E0) / dt + ops.params.beta**2 * a_uu + grad)
    return EnergyReport(state.time, E, a_uu, grad,
                        float(np.sqrt(max(l2sq, 0.0) + max(grad, 0.0))),
                        sn["A_half"], sn["A1_lambda"], bal)


@dataclass
class EvolutionResult:
    reports: list
    final: EvolutionState
    watchdog: object = None


def run_evolution(ops, u0, dt, T, scheme="euler", cadence=1,
                  watchdog_ceiling=1e6, nonlinear=True, inject_nan_step=None):
    """Integrate to T or until the blow-up watchdog fires.

    The watchdog monitors the fourth-order proxy ||(A + shift) u|| against
    ceiling times its initial value and also trips on non-finite
    coefficients; its firing is a structured outcome, not an exception.
    """
    stepper = IMEXStepper(ops, dt, scheme, nonlinear)
    state = EvolutionState(0.0, u0.copy(), None)
    sn0 = ops.a_scale_norms(u0)
    h4_0 = max(sn0["A1"], 1e-300)
    reports = [energy_report(ops, state, snorm=sn0)]
    nsteps = int(round(T / dt))
    for n in range(1, nsteps + 1):
        prev = state
        state = stepper.step(state)
        if inject_nan_step is not None and n == inject_nan_step:
            state.field.psi[:] = np.nan
        bad = not (np.all(np.isfinite(state.field.psi))
                   and np.all(np.isfinite(state.field.phi))
                   and np.all(np.isfinite(state.field.mean)))
        if bad:
            return EvolutionResult(reports, state,
                                   WatchdogEvent(state.time, "nan", np.inf,
                                                 watchdog_ceiling * h4_0))
        sn = ops.a_scale_norms(state.field)
        if sn["A1"] > watchdog_ceiling * h4_0:
            reports.append(energy_report(ops, state, prev, dt, sn))
            return EvolutionResult(reports, state,
                                   WatchdogEvent(state.time, "h4_growth",
                                                 sn["A1"], watchdog_ceiling * h4_0))
        if n % cadence == 0 or n == nsteps:
            reports.append(energy_report(ops, state, prev, dt, sn))
    return EvolutionResult(reports, state, None)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass
class UniquenessProbe:
    times: np.ndarray
    growth: np.ndarray        # ||w(t)||_H1 / ||w(0)||_H1
    h3_integral: np.ndarray   # int_0^t H3-proxy of the base run
    delta: float


def _h1_norm(ops, f):
    return float(np.sqrt(max(ops.form_energy("M", f) + ops.form_energy("K_grad", f), 0.0)))


def uniqueness_probe(ops, u0, perturbation, delta, T, dt, scheme="cnab2"):
    """Paired-trajectory separation growth in the H1 norm.

    perturbation is a unit-shape field; the perturbed run starts from
    u0 + delta * perturbation.  delta = 0 reproduces the base trajectory
    bit for bit (growth identically 1).
    """
    stepper = IMEXStepper(ops, dt, scheme)
    base = EvolutionState(0.0, u0.copy(), None)
    pert = EvolutionState(0.0, u0 + delta * perturbation, None)
    w0 = _h1_norm(ops, pert.field - base.field)
    if delta == 0.0:
        w0 = 1.0
    nsteps = int(round(T / dt))
    times = [0.0]
    growth = [1.0]
    h3 = [0.0]
    h3_prev = ops.a_scale_norms(u0)["A_half"]
    acc = 0.0
    for n in range(nsteps):
        base = stepper.step(base)
        pert = stepper.step(pert)
        h3_now = ops.a_scale_norms(base.field)["A_half"]
        acc += 0.5 * dt * (h3_prev + h3_now)
        h3_prev = h3_now
        times.append(base.time)
        wn = _h1_norm(ops, pert.field - base.field)
        growth.append(wn / w0 if delta != 0.0 else 1.0)
        h3.append(acc)
    return UniquenessProbe(np.array(times), np.array(growth), np.array(h3), delta)


@dataclass
class SweepRow:
    alpha: float
    beta: float
    sup_l2: float
    int_h1_sq: float
    alpha_sup_grad: float
    beta2_int_h2_sq: float
    watchdog: object = None


def vanishing_sweep(base_params, geometry, resolution, u0, levels, T, dt,
                    scheme="euler", cache=None, keep_wall_coupling=True):
    """Energy records along a sequence of halved regularization lengths.

    keep_wall_coupling=True scales ell with beta^2 so the wall condition
    coefficient k = ell/beta^2 (the quantity the boundary condition actually
    involves) stays fixed along the sweep; this is the regime in which the
    first energy level dissipates uniformly in (alpha, beta).
    """
    rows = []
    for n in range(levels):
        al = base_params.alpha * 0.5**n
        be = base_params.beta * 0.5**n
        ell = base_params.k * be**2 if keep_wall_coupling else base_params.ell
        par = derive_params(al, be, base_params.gamma, ell)
        ops = OperatorSet(par, geometry, resolution, cache)
        result = run_evolution(ops, u0, dt, T, scheme=scheme,
                               cadence=max(1, int(round(T / dt)) // 50))
        sup_l2 = 0.0
        int_h1 = 0.0
        sup_grad = 0.0
        prev_t = None
        prev_h1 = None
        for rep in result.reports:
            l2 = np.sqrt(max(rep.H1**2 - rep.grad_sq, 0.0))
            sup_l2 = max(sup_l2, l2)
            sup_grad = max(sup_grad, np.sqrt(max(rep.grad_sq, 0.0)))
            h1_sq = rep.H1**2
            if prev_t is not None:
                int_h1 += 0.5 * (rep.t - prev_t) * (prev_h1 + h1_sq)
            prev_t, prev_h1 = rep.t, h1_sq
        int_h2 = _h2_dissipation(ops, result, dt)
        rows.append(SweepRow(al, be, sup_l2, int_h1, al * sup_grad,
                             be**2 * int_h2, result.watchdog))
    return rows


def _h2_dissipation(ops, result, dt):
    # trapezoid of the H2-proxy square reconstructed from stored reports:
    # ||u||_H2^2 ~ L2^2 + grad^2 + bilap^2; bilap^2 = a_uu - wall term is not
    # recoverable from reports alone, so use the conservative assembled pieces
    acc = 0.0
    prev = None
    for rep in result.reports:
        l2sq = max(rep.H1**2 - rep.grad_sq, 0.0)
        h2sq = l2sq + rep.grad_sq + max(rep.a_uu, 0.0)
        if prev is not None:
            acc += 0.5 * (rep.t - prev[0]) * (prev[1] + h2sq)
        prev = (rep.t, h2sq)
    return acc
