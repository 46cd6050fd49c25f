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
(1/theta - 1) u - dt Q G through per-block stacks of the propagators
P = A^{-1} M_L and Q = A^{-1}, formed with one LU per distinct block and
applied by :meth:`nsab.field.SolenoidalField.apply`; this keeps the
cancellation in M_L - dt S / 2 out of the step.  The linear
flow also has an exact spectral propagator through the factorization
u(t) = L^{-1/2} e^{-tD} L^{1/2} u0 (+ Duhamel term), which serves as the
order oracle for the steppers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SolenoidalField, project_velocity, reconstruct, zero_field
from .operators import OperatorSet, _root
from .params import ParameterError, derive_params, step_count


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
    A stacked u gives the stacked duals, each member's bitwise equal to
    its own call.
    """
    want = ("u", "curl_v")
    work = ops.layout.grid.workspace(want, u.resolution.Q, u.mean.shape[:-2])
    rec = reconstruct(u, ops.cache, want=want, alpha=ops.params.alpha, work=work)
    w, v, prod = ([a[..., i, :, :, :] for i in range(3)]
                  for a in (rec["curl_v"], rec["u"], work.prod))
    tmp = work.scratch
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(w[j], v[k], out=prod[i])
        np.multiply(w[k], v[j], out=tmp)
        np.subtract(prod[i], tmp, out=prod[i])
    return project_velocity(work.prod, ops.cache, work)


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
    from .spectral import spectral_factors  # imported here: no stepper needs it
    factors = [spectral_factors(b, ops.params.beta, include_gradient=True) for b in ops.blocks]

    def flow(tau, f, right):
        # L^{-1/2} e^{-tau D} right, per block, applied to f
        return f.apply([fb.inv_sqrt_lambda
                        @ (fb.d_eigvecs * np.exp(-tau * fb.d_eigvals)[:, None, :])
                        @ np.swapaxes(fb.d_eigvecs, 1, 2) @ right(fb) for fb in factors])

    out = flow(t, u0, lambda fb: fb.sqrt_lambda)
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
                out = out + flow(t - tau, forcing(tau), lambda fb: fb.inv_sqrt_lambda) * wgt
    return out


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
            # C order, so the step's gemms do not depend on the layout solve returns
            return np.ascontiguousarray(PQ[..., :blk.n]), np.ascontiguousarray(PQ[..., blk.n:])

        self._P, self._Q = zip(*map(propagators, ops.blocks))

    def step(self, state):
        dt, u, a = self.dt, state.field, self._inv_theta
        N = nonlinear_term(u, self.ops) if self.nonlinear else zero_field(u.geometry, u.resolution)
        G = N
        if self.scheme == "cnab2":
            Nprev = state.history if state.history is not None else N
            G = N * 1.5 - Nprev * 0.5
        return EvolutionState(state.time + dt,
                              u.apply(self._P) * a - u * (a - 1.0) - G.apply(self._Q) * dt,
                              N if self.scheme == "cnab2" else None)


# ---------------------------------------------------------------------------
# trajectories, energy monitors, watchdog
# ---------------------------------------------------------------------------

def energy_report(ops, state, prev=None, dt=None, snorm=None, prev_snorm=None):
    """The report of state from its a_scale_norms snorm (None: computed), and
    of prev (prev_snorm) for the balance; their K_grad products run here."""
    sn = snorm if snorm is not None else ops.a_scale_norms(state.field)
    E, a_uu, grad = _energy(ops, sn), sn["a_uu"], sn["grad_sq"]
    bal = np.nan
    if prev is not None and dt:
        E0 = _energy(ops, prev_snorm if prev_snorm is not None else ops.a_scale_norms(prev.field))
        bal = abs((E - E0) / dt + ops.params.beta**2 * a_uu + grad)
    return EnergyReport(state.time, E, a_uu, grad,
                        float(np.sqrt(max(sn["l2_sq"], 0.0) + max(grad, 0.0))),
                        sn["A_half"], sn["A1_lambda"], bal)


def _energy(ops, sn):
    """E_L = <M_L u, u> / 2 = (||u||^2 + alpha^2 <K_grad u, u>) / 2 (M = I)."""
    return 0.5 * (sn["l2_sq"] + ops.params.alpha**2 * sn["grad_sq"])


@dataclass
class EvolutionResult:
    reports: list
    final: EvolutionState
    watchdog: object = None
    steps: int = 0  # steps taken, fewer than T / dt when the watchdog fires


def _nonfinite_event(time, field, ceiling, norms):
    """The watchdog event of non-finite coefficients of field, or None; only
    non-finite norms of field, as any such coefficient gives, have it scanned."""
    if np.isfinite(norms).all() or all(np.isfinite(c).all() for c in field.potentials()):
        return None
    return WatchdogEvent(time, "nan", np.inf, ceiling)


def _watchdog(ops, time, field, ceiling):
    """(event, norms): the event of non-finite coefficients and no norms, else
    the event of the proxy A1 above ceiling, or None, and the norms."""
    sn = ops.a_scale_norms(field)
    event = _nonfinite_event(time, field, ceiling, sn["l2_sq"])
    if event is not None:
        return event, None
    return (WatchdogEvent(time, "h4_growth", sn["A1"], ceiling)
            if sn["A1"] > ceiling else None), sn


def run_evolution(ops, u0, dt, T, scheme="euler", cadence=1,
                  watchdog_ceiling=1e6, inject_nan_step=None):
    """Integrate to T or until the blow-up watchdog fires.

    T must be a whole number of steps dt (ValueError otherwise), so a run
    that is not stopped by the watchdog ends exactly at T.

    The watchdog monitors the fourth-order proxy ||(A + shift) u|| against
    ceiling times its initial value and also trips on non-finite
    coefficients; its firing is a structured outcome, not an exception.
    Every step computes the proxy's K_a norms only; the K_grad products run
    at report steps (every cadence-th, the last and a watchdog step).
    """
    nsteps = step_count(T, dt)
    stepper = IMEXStepper(ops, dt, scheme)
    state = EvolutionState(0.0, u0.copy(), None)
    sn = ops.a_scale_norms(u0)
    ceiling = watchdog_ceiling * max(sn["A1"], 1e-300)
    reports = [energy_report(ops, state, snorm=sn)]
    for n in range(1, nsteps + 1):
        prev, prev_sn, state = state, sn, stepper.step(state)
        if inject_nan_step is not None and n == inject_nan_step:
            state.field.psi[:] = np.nan
        event, sn = _watchdog(ops, state.time, state.field, ceiling)
        if sn is not None and (event is not None or n % cadence == 0 or n == nsteps):
            reports.append(energy_report(ops, state, prev, dt, sn, prev_sn))
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
    steps: int = 0            # steps taken by the base run and all members


def _h1_norms(ops, w):
    """H1 norm of each member w[j] of a stacked field, from one stacked K_grad
    product; bitwise sqrt(w[j].dot(w[j]) + ops.form_inner("K_grad", w[j], w[j])),
    and inf where that square overflowed, as the watchdog norms read it."""
    gw = w.apply([blk.K_grad for blk in ops.blocks])
    return [float(_root(w[j].dot(w[j]) + gw[j].dot(w[j]))) for j in range(len(w.mean))]


def uniqueness_probe(ops, u0, perturbation, deltas, T, dt, scheme="cnab2",
                     watchdog_ceiling=1e6):
    """Paired-trajectory separation growth in the H1 norm, one probe per delta.

    perturbation is a unit-shape field; the member for delta starts from
    u0 + delta * perturbation and is compared with the base trajectory from
    u0, which is integrated once and shared: one stacked state holds the
    base run (member 0) and the members.  Each member equals a single-delta
    run bit for bit; delta = 0 reproduces the base trajectory (growth
    identically 1).  The watchdog of :func:`run_evolution` checks the base
    run, then the members' finite coefficients; when it fires the probes
    end with the last step before it and carry the event.  A step computes the
    base run's K_a norms and the members' H1 norms, nothing else.
    """
    nsteps = step_count(T, dt)
    stepper = IMEXStepper(ops, dt, scheme)
    state = EvolutionState(0.0, SolenoidalField.stack(
        [u0] + [u0 + d * perturbation for d in deltas]))
    w0 = [w if d != 0.0 else 1.0
          for d, w in zip(deltas, _h1_norms(ops, state.field[1:] - u0))]
    if 0.0 in w0:
        raise ParameterError("a probe delta is too small to change u0 in floating point")
    times, h3, growth = [0.0], [0.0], [[1.0] for _ in deltas]
    sn = ops.a_scale_norms(u0)
    ceiling = watchdog_ceiling * max(sn["A1"], 1e-300)
    acc, taken = 0.0, 0
    for n in range(nsteps):
        # the members are counted only for a step that passed the base's checks
        state, taken, h3_prev = stepper.step(state), taken + 1, sn["A_half"]
        base = state.field[0]
        event, sn = _watchdog(ops, state.time, base, ceiling)
        if event is None:
            taken += len(deltas)
            h1 = _h1_norms(ops, state.field[1:] - base)
            event = _nonfinite_event(state.time, state.field[1:], ceiling, h1)
        if event is not None:
            break
        acc += 0.5 * dt * (h3_prev + sn["A_half"])
        times.append(state.time)
        h3.append(acc)
        for j, (d, wn) in enumerate(zip(deltas, h1)):
            growth[j].append(wn / w0[j] if d != 0.0 else 1.0)
    return [UniquenessProbe(np.array(times), np.array(g), np.array(h3), d, event, taken)
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


def vanishing_sweep(base_params, cache, u0, levels, T, dt, scheme="euler"):
    """Energy records along a sequence of halved regularization lengths.

    ell is scaled with beta^2 so the wall condition coefficient
    k = ell/beta^2 (the quantity the boundary condition actually involves)
    stays fixed along the sweep; this is the regime in which the first
    energy level dissipates uniformly in (alpha, beta).  The basis does not
    depend on the parameters, so one cache serves every level.
    """
    cadence = max(1, step_count(T, dt) // 50)
    rows = []
    for n in range(levels):
        al = base_params.alpha * 0.5**n
        be = base_params.beta * 0.5**n
        par = derive_params(al, be, base_params.gamma, base_params.k * be**2)
        ops = OperatorSet(par, cache.geometry, cache.resolution, cache)
        result = run_evolution(ops, u0, dt, T, scheme=scheme, cadence=cadence)
        # sup of L2 and grad, trapezoids of the H1 square and of the
        # H2-proxy square L2^2 + grad^2 + a_uu (bilap^2 = a_uu - wall term
        # is not recoverable from the reports: the conservative pieces)
        sup_l2 = sup_grad = int_h1 = int_h2 = 0.0
        prev = None
        for rep in result.reports:
            l2sq = max(rep.H1**2 - rep.grad_sq, 0.0)
            sup_l2 = max(sup_l2, np.sqrt(l2sq))
            sup_grad = max(sup_grad, np.sqrt(max(rep.grad_sq, 0.0)))
            h1_sq, h2_sq = rep.H1**2, l2sq + rep.grad_sq + max(rep.a_uu, 0.0)
            if prev is not None:
                int_h1 += 0.5 * (rep.t - prev[0]) * (prev[1] + h1_sq)
                int_h2 += 0.5 * (rep.t - prev[0]) * (prev[2] + h2_sq)
            prev = (rep.t, h1_sq, h2_sq)
        rows.append(SweepRow(al, be, sup_l2, int_h1, al * sup_grad,
                             be**2 * int_h2, result.watchdog))
    return rows
