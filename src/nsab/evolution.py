"""Time integration of the filtered evolution system and its monitors.

The semidiscrete system, tested against the solenoidal basis, reads

    M_L du/dt + (beta^2 K_a + K_grad) u + N(u) = 0,

where M_L is the filter form (I + alpha^2 grad-form), K_a the stationary
form, K_grad the viscous form and N(u) the Galerkin projection of
(grad v) u + (grad u)^T v with v = (1 - alpha^2 Lap) u applied per mode to
the potentials, evaluated in rotational form as the projection of
(curl v) x u (the remainder grad(u . v) projects to zero).  The projection
realizes the divergence-free (Leray) projection; skew symmetry
<N(u), u> = 0 holds pointwise, as (curl v) x u is orthogonal to u.

Steppers treat the stiff fourth-order linear part S = beta^2 K_a + K_grad
implicitly and N explicitly: backward-Euler/forward-Euler (theta = 1), or
Crank-Nicolson with Adams-Bashforth-2 (theta = 1/2, first step seeded with
the initial slope).  A step solves A u' = (M_L - (1 - theta) dt S) u - dt G
with A = M_L + theta dt S and G the explicit term.  As M_L - (1 - theta) dt S
= M_L / theta - (1/theta - 1) A, it is applied as u' = P u / theta -
(1/theta - 1) u - dt Q G through per-row stacks of the propagators
P = A^{-1} M_L and Q = A^{-1}, formed with one LU per distinct block; this
keeps the cancellation in M_L - dt S / 2 out of the step.  The linear
flow also has an exact spectral propagator through the factorization
u(t) = L^{-1/2} e^{-tD} L^{1/2} u0 (+ Duhamel term), which serves as the
order oracle for the steppers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisCache
from .field import (SolenoidalField, layout_for, project_velocity, reconstruct, rowmul,
                    zero_field)
from .operators import OperatorSet
from .params import ParameterError, derive_params, step_count
from .spectral import spectral_factors


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

def nonlinear_term(u, ops):
    """Galerkin projection of (grad v) u + (grad u)^T v, v the filtered field.

    Evaluated in rotational form, (grad v) u + (grad u)^T v =
    (curl v) x u + grad(u . v): the gradient part drops out of the
    projection because the solenoidal test fields vanish on the walls
    (<grad q, w> = -<q, div w> = 0) and the quadrature is exact for these
    products.  Quadratic tangential interactions are exact on the 3/2-rule
    padded grid; wall-normal triple products are exact by the
    Q >= (3P+1)/2 rule.  Returns dual coefficients (same container as
    fields) that own their arrays; the grid arrays in between are the
    padded grid's reused workspace (:class:`nsab.field.GridWorkspace`).
    """
    want = ("u", "curl_v")
    work = layout_for(u.resolution).grid.workspace(want, u.resolution.Q)
    rec = reconstruct(u, ops.cache, want=want, alpha=ops.params.alpha, work=work)
    w, v = rec["curl_v"], rec["u"]
    prod, tmp = work.prod, work.scratch
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(w[j], v[k], out=prod[i])
        np.multiply(w[k], v[j], out=tmp)
        np.subtract(prod[i], tmp, out=prod[i])
    return project_velocity(prod, u.geometry, u.resolution, ops.cache, work)


# ---------------------------------------------------------------------------
# exact linear propagator
# ---------------------------------------------------------------------------

def linear_propagator_exact(u0, t, ops, forcing=None, panels=8, nodes=8):
    """Spectral solution of M_L du/dt + S u = f via the symmetrized factors,
    S = beta^2 K_a + K_grad the evolution system's linear part.

    forcing, if given, maps a time to dual coefficients; the Duhamel
    integral uses composite Gauss-Legendre quadrature with the given
    panel/node counts.
    """
    def parts(b):
        fb = spectral_factors(b, ops.params.beta, include_gradient=True)
        return (fb.sqrt_lambda, fb.inv_sqrt_lambda, fb.d_eigvals,
                np.swapaxes(fb.d_eigvecs, 1, 2))

    stacks = list(ops.row_stacks(parts))

    def semigroup(tau, c, lam, VT):
        # e^{-tau D} applied to every row of c
        return rowmul(VT.transpose(0, 2, 1), np.exp(-tau * lam) * rowmul(VT, c))

    out = [rowmul(isq, semigroup(t, rowmul(sq, c), lam, VT))
           for c, (sq, isq, lam, VT) in zip(u0.potentials(), stacks)]
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
                for acc, c, (_, isq, lam, VT) in zip(out, forcing(tau).potentials(),
                                                     stacks):
                    acc += wgt * rowmul(isq, semigroup(t - tau, rowmul(isq, c), lam, VT))
    return SolenoidalField(u0.geometry, u0.resolution, *out)


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
        theta = 1.0 if scheme == "euler" else 0.5
        self._inv_theta = 1.0 / theta
        b2 = ops.params.beta**2

        def propagators(blk):
            A = blk.M_lambda + theta * dt * (b2 * blk.K_a + blk.K_grad)
            eye = np.broadcast_to(np.eye(blk.n), A.shape)
            PQ = np.linalg.solve(A, np.concatenate([blk.M_lambda, eye], axis=-1))
            return PQ[..., :blk.n], PQ[..., blk.n:]

        self._props = list(ops.row_stacks(propagators))

    def step(self, state):
        ops = self.ops
        dt = self.dt
        u = state.field
        N = nonlinear_term(u, ops) if self.nonlinear else zero_field(u.geometry, u.resolution)
        G = N
        if self.scheme == "cnab2":
            Nprev = state.history if state.history is not None else N
            G = N * 1.5 - Nprev * 0.5
        a = self._inv_theta
        out = [rowmul(P, c) * a - (a - 1.0) * c - dt * rowmul(Q, g)
               for (P, Q), c, g in zip(self._props, u.potentials(), G.potentials())]
        return EvolutionState(state.time + dt,
                              SolenoidalField(u.geometry, u.resolution, *out),
                              N if self.scheme == "cnab2" else None)


# ---------------------------------------------------------------------------
# trajectories, energy monitors, watchdog
# ---------------------------------------------------------------------------

def energy_report(ops, state, prev=None, dt=None, snorm=None, prev_E=None):
    # M = I in the orthonormal bases, so ||u||^2 = u.dot(u) and
    # E_L = <M_L u, u> / 2 = (||u||^2 + alpha^2 <K_grad u, u>) / 2;
    # prev_E, when given, is E_L of prev (from its own report)
    u = state.field
    a2 = ops.params.alpha**2
    l2sq = u.dot(u)
    a_uu = ops.form_energy("K_a", u)
    grad = ops.form_energy("K_grad", u)
    E = 0.5 * (l2sq + a2 * grad)
    sn = snorm if snorm is not None else ops.a_scale_norms(u)
    bal = np.nan
    if prev is not None and dt:
        f0 = prev.field
        E0 = prev_E if prev_E is not None else \
            0.5 * (f0.dot(f0) + a2 * ops.form_energy("K_grad", f0))
        bal = abs((E - E0) / dt + ops.params.beta**2 * a_uu + grad)
    return EnergyReport(state.time, E, a_uu, grad,
                        float(np.sqrt(max(l2sq, 0.0) + max(grad, 0.0))),
                        sn["A_half"], sn["A1_lambda"], bal)


@dataclass
class EvolutionResult:
    reports: list
    final: EvolutionState
    watchdog: object = None
    steps: int = 0  # steps taken, fewer than T / dt when the watchdog fires


def _watchdog_event(state, ceiling, snorm=None):
    """The watchdog event of state, or None: non-finite coefficients, or
    the fourth-order proxy A1 of snorm (its :meth:`a_scale_norms`, when
    given) above ceiling."""
    if not all(np.all(np.isfinite(c)) for c in state.field.potentials()):
        return WatchdogEvent(state.time, "nan", np.inf, ceiling)
    if snorm is not None and snorm["A1"] > ceiling:
        return WatchdogEvent(state.time, "h4_growth", snorm["A1"], ceiling)
    return None


def run_evolution(ops, u0, dt, T, scheme="euler", cadence=1,
                  watchdog_ceiling=1e6, inject_nan_step=None):
    """Integrate to T or until the blow-up watchdog fires.

    T must be a whole number of steps dt (ValueError otherwise), so a run
    that is not stopped by the watchdog ends exactly at T.

    The watchdog monitors the fourth-order proxy ||(A + shift) u|| against
    ceiling times its initial value and also trips on non-finite
    coefficients; its firing is a structured outcome, not an exception.
    """
    nsteps = step_count(T, dt)
    stepper = IMEXStepper(ops, dt, scheme)
    state = EvolutionState(0.0, u0.copy(), None)
    sn0 = ops.a_scale_norms(u0)
    ceiling = watchdog_ceiling * max(sn0["A1"], 1e-300)
    reports = [energy_report(ops, state, snorm=sn0)]
    last = reports[0]  # the report of state, if it has one
    for n in range(1, nsteps + 1):
        prev, prev_E = state, last.E_lambda if last else None
        state, last = stepper.step(state), None
        if inject_nan_step is not None and n == inject_nan_step:
            state.field.psi[:] = np.nan
        event = _watchdog_event(state, ceiling)
        if event is None:
            sn = ops.a_scale_norms(state.field)
            event = _watchdog_event(state, ceiling, sn)
            if event is not None or n % cadence == 0 or n == nsteps:
                last = energy_report(ops, state, prev, dt, sn, prev_E)
                reports.append(last)
        if event is not None:
            return EvolutionResult(reports, state, event, n)
    return EvolutionResult(reports, state, None, nsteps)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass
class UniquenessProbe:
    times: np.ndarray
    growth: np.ndarray        # ||w(t)||_H1 / ||w(0)||_H1
    h3_integral: np.ndarray   # int_0^t H3-proxy of the base run
    delta: float
    watchdog: object = None   # the event that stopped the probe early


def _h1_norm(ops, f):
    return float(np.sqrt(max(f.dot(f) + ops.form_energy("K_grad", f), 0.0)))


def uniqueness_probe(ops, u0, perturbation, deltas, T, dt, scheme="cnab2",
                     watchdog_ceiling=1e6):
    """Paired-trajectory separation growth in the H1 norm, one probe per delta.

    perturbation is a unit-shape field; the member for delta starts from
    u0 + delta * perturbation and is compared with the base trajectory from
    u0, which is integrated once and shared.  Each member equals a
    single-delta run bit for bit; delta = 0 reproduces the base trajectory
    (growth identically 1).  The watchdog of :func:`run_evolution` checks
    the base run and the members' finite coefficients; when it fires the
    probes end with the last step before it and carry the event.
    """
    nsteps = step_count(T, dt)
    stepper = IMEXStepper(ops, dt, scheme)
    base = EvolutionState(0.0, u0.copy(), None)
    perts = [EvolutionState(0.0, u0 + d * perturbation, None) for d in deltas]
    w0 = [_h1_norm(ops, p.field - base.field) if d != 0.0 else 1.0
          for d, p in zip(deltas, perts)]
    if 0.0 in w0:
        raise ParameterError("a probe delta is too small to change u0 in floating point")
    times = [0.0]
    growth = [[1.0] for _ in deltas]
    h3 = [0.0]
    sn0 = ops.a_scale_norms(u0)
    ceiling = watchdog_ceiling * max(sn0["A1"], 1e-300)
    h3_prev = sn0["A_half"]
    acc = 0.0
    for n in range(nsteps):
        base = stepper.step(base)
        sn = ops.a_scale_norms(base.field)
        event = _watchdog_event(base, ceiling, sn)
        if event is None:
            perts = [stepper.step(p) for p in perts]
            event = next(filter(None, (_watchdog_event(p, ceiling) for p in perts)), None)
        if event is not None:
            break
        h3_now = sn["A_half"]
        acc += 0.5 * dt * (h3_prev + h3_now)
        h3_prev = h3_now
        times.append(base.time)
        h3.append(acc)
        for j, d in enumerate(deltas):
            wn = _h1_norm(ops, perts[j].field - base.field)
            growth[j].append(wn / w0[j] if d != 0.0 else 1.0)
    return [UniquenessProbe(np.array(times), np.array(g), np.array(h3), d, event)
            for d, g in zip(deltas, growth)]


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
                    scheme="euler"):
    """Energy records along a sequence of halved regularization lengths.

    ell is scaled with beta^2 so the wall condition coefficient
    k = ell/beta^2 (the quantity the boundary condition actually involves)
    stays fixed along the sweep; this is the regime in which the first
    energy level dissipates uniformly in (alpha, beta).  The basis does not
    depend on the parameters, so one cache serves every level.
    """
    cadence = max(1, step_count(T, dt) // 50)
    cache = BasisCache(geometry, resolution)
    rows = []
    for n in range(levels):
        al = base_params.alpha * 0.5**n
        be = base_params.beta * 0.5**n
        par = derive_params(al, be, base_params.gamma, base_params.k * be**2)
        ops = OperatorSet(par, geometry, resolution, cache)
        result = run_evolution(ops, u0, dt, T, scheme=scheme, cadence=cadence)
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
