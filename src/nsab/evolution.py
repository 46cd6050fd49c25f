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
with A = M_L + theta dt S and G = N or 1.5 N - 0.5 N_prev.  As M_L - (1 -
theta) dt S = M_L / theta - (1/theta - 1) A, u' = E u - dt Q G with Q = A^{-1}
and E = Q M_L / theta - (1/theta - 1) I, free of the cancellation in M_L -
dt S / 2: per potential one per-block stack [E | -dt Q] or [E | -1.5 dt Q |
0.5 dt Q] (E alone without N), applied to the rows [u | N | N_prev] side by
side by one block product.  The linear flow also has an exact spectral
propagator through the factorization u(t) = L^{-1/2} e^{-tD} L^{1/2} u0
(+ Duhamel term), which serves as the order oracle for the steppers.

The step is planned once per run (the plan/execute split of FFTW, Frigo
and Johnson 2005): the stepper is built over the run's initial field or
member stack and owns the run's state, the rows [u | N | N_prev] and their
products with its stacks, so a step is a fixed list of numpy calls with its
arithmetic that of the one-off functions, bit for bit.
:meth:`IMEXStepper.step` advances the rows in place - N moves to N_prev,
the nonlinear term's duals are copied from the grid workspace into N, the
product writes u' into ``out`` and u' goes back into u - and builds no
field or state.  The operator set keeps the nonlinear term's calls over the
padded grid's workspace (:class:`NonlinearPlan`) and the monitors' K_a and
K_grad products (:meth:`nsab.operators.OperatorSet.products`) with the
arrays of their sums, planned per member shape too.  The uniqueness probe
reads every step's norms from ``out``; an evolve run keeps one copy of
``out`` per step, whose K_grad norm the next report's balance reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .field import (BlockProduct, GridWorkspace, SolenoidalField, plan_analysis, plan_synthesis,
                    reconstruct, run)
from .operators import OperatorSet, _root
from .params import ParameterError, derive_params, step_count


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
    fields) that own their arrays; the arrays in between are the padded
    grid's reused workspace (:class:`nsab.field.GridWorkspace`), and the
    calls that fill them are planned once per run and member shape
    (:class:`NonlinearPlan`, kept by ops).  A stacked u gives the stacked
    duals, each member's bitwise equal to its own call.
    """
    duals = NonlinearPlan.of(ops, u.mean.shape[:-2])(u)
    return SolenoidalField(u.geometry, u.resolution, *(d.copy() for d in duals))


class NonlinearPlan:
    """The calls of :func:`nonlinear_term` for the run of ops and fields
    with member axes lead, planned once over the padded grid's workspace
    (the plan/execute split of FFTW, Frigo and Johnson 2005): each a numpy
    call of the one-off functions, every view bound to the workspace arrays
    and to the run's basis tables, stacks and mixing matrices.
    :meth:`reconstruct` copies a field's potentials into the workspace and
    synthesizes its grids; ``backward`` forms (curl v) x u into ``prod`` and
    projects it onto the duals."""

    @staticmethod
    def of(ops, lead):
        """The plan of ops for member axes lead, built on first use."""
        return ops.plan(("nonlinear", lead), lambda: NonlinearPlan(ops, lead))

    def __init__(self, ops, lead):
        cache, grid = ops.cache, ops.layout.grid
        work = grid.workspace(ops.resolution, lead)
        # no reference to ops, which keeps the plan: a cycle would hold a
        # finished run's arrays until the garbage collector runs
        self.cache, self.alpha = cache, ops.params.alpha
        self.fields = (work.psi, work.phi, work.mean)
        synthesis, (rows, mean) = plan_synthesis(self.fields, cache, work.want, ops.params.alpha,
                                                 work)
        to_grid, U = grid.plan_to_grid(rows, mean, work)
        self.forward, self.grid = synthesis + to_grid, {
            name: U[..., 3 * i:3 * i + 3, :, :, :] for i, name in enumerate(work.want)}
        w, v, prod = ([a[..., i, :, :, :] for i in range(3)]
                      for a in (self.grid["curl_v"], self.grid["u"], work.prod))
        self.backward = []
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            self.backward += [partial(np.multiply, w[j], v[k], out=prod[i]),
                              partial(np.multiply, w[k], v[j], out=work.scratch),
                              partial(np.subtract, prod[i], work.scratch, out=prod[i])]
        from_grid, (rows, mean) = grid.plan_from_grid(work.prod, work)
        analysis, self.duals = plan_analysis(rows, mean, cache, work)
        self.backward += from_grid + analysis

    def __call__(self, u):
        """The (psi, phi, mean) duals of the nonlinear term of u: views of
        the workspace, overwritten by the plan's next call."""
        reconstruct(u, self.cache, GridWorkspace.want, self.alpha, self)
        return run(self.backward, self.duals)

    def reconstruct(self, f):
        """The grids of the workspace's quantities of f, as
        :func:`nsab.field.reconstruct` returns them: views of the workspace."""
        for x, c in zip(self.fields, f.potentials()):
            np.copyto(x, c)
        return run(self.forward, dict(self.grid))


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
        # L^{-1/2} e^{-tau D} right, per block, applied to f: its transpose,
        # contiguous, multiplies f's rows from the right
        return f.apply([np.swapaxes(fb.inv_sqrt_lambda
                                    @ (fb.d_eigvecs * np.exp(-tau * fb.d_eigvals)[:, None, :])
                                    @ np.swapaxes(fb.d_eigvecs, 1, 2) @ right(fb), 1, 2).copy()
                        for fb in factors])

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
    """Implicit linear part, explicit nonlinearity, for the run from u0.

    scheme="euler": backward Euler / forward Euler (first order);
    scheme="cnab2": Crank-Nicolson / Adams-Bashforth 2 (second order,
    first step seeded with the initial nonlinear slope).
    nonlinear=False freezes N to 0 (linear order studies).

    The stepper holds the state of the run from u0, a field or a member
    stack: per potential the rows [u | N | N_prev] side by side (``u``,
    ``N`` and ``N_prev`` view their slots) and ``out``, the product's output
    rows, which hold the field the last :meth:`step` wrote, at ``time``.
    """

    def __init__(self, ops, dt, u0, scheme="euler", nonlinear=True):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scheme not in ("euler", "cnab2"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.ops = ops
        self.dt = dt
        self.scheme = scheme
        self.nonlinear = nonlinear
        theta, b2 = (1.0 if scheme == "euler" else 0.5), ops.params.beta**2
        weights = ((-1.0,) if scheme == "euler" else (-1.5, 0.5)) if nonlinear else ()

        def stack(blk, M_lambda):
            # [E | w dt Q ...] stored transposed: a step multiplies the rows
            # [u | N | N_prev] by it from the left
            Q = np.linalg.inv(M_lambda + theta * dt * (b2 * blk.K_a + blk.K_grad))
            E = (Q @ M_lambda) / theta - (1.0 / theta - 1.0) * np.eye(blk.n)
            parts = [E] + [w * dt * Q for w in weights]
            return np.swapaxes(np.concatenate(parts, axis=-1), 1, 2).copy()

        self._stacks = [stack(blk, blk.M_lambda) for blk in ops.blocks]
        parts = 1 + len(weights)
        rows = [np.empty(c.shape[:-1] + (parts * c.shape[-1],)) for c in u0.potentials()]
        slots = list(zip(*(np.split(x, parts, axis=-1) for x in rows)))
        for x, c in zip(slots[0], u0.potentials()):
            np.copyto(x, c)
        self.u = SolenoidalField(u0.geometry, u0.resolution, *slots[0])
        self.out = u0._map(lambda c: np.empty(c.shape))
        products = [BlockProduct(S, x, y, runs) for S, x, y, runs in zip(
            self._stacks, rows, self.out.potentials(), ops.layout.potential_buckets)]
        self.update = products + [partial(np.copyto, a, b)
                                  for a, b in zip(slots[0], self.out.potentials())]
        self.time = 0.0
        self.N = slots[1] if nonlinear else ()
        self.plan = NonlinearPlan.of(ops, u0.mean.shape[:-2]) if nonlinear else None
        # cnab2 copies N to N_prev before a step overwrites N, and after the
        # first step's N, its initial slope
        self.N_prev = slots[2] if parts == 3 else ()
        self.keep = [partial(np.copyto, a, b) for a, b in zip(self.N_prev, self.N)]
        self.first = True

    def step(self):
        """One step in place: N moves to N_prev (cnab2), the nonlinear
        term's duals are copied from the grid workspace into N (on the first
        step into N_prev too), and the rows times the stepper's stacks go
        into ``out`` and back into u.  No field, state or dual is built."""
        if not self.first:
            run(self.keep)
        if self.plan is not None:
            for x, d in zip(self.N, self.plan(self.u)):
                np.copyto(x, d)
        if self.first:
            run(self.keep)
        run(self.update)
        self.time, self.first = self.time + self.dt, False


# ---------------------------------------------------------------------------
# trajectories, energy monitors, watchdog
# ---------------------------------------------------------------------------

def energy_report(ops, time, sn, prev=None, dt=None):
    """The report at time of the a_scale_norms sn of a state, with the
    balance against the norms prev of the state dt before it; their K_grad
    products run here."""
    E, a_uu, grad = _energy(ops, sn), sn["a_uu"], sn["grad_sq"]
    bal = np.nan
    if prev is not None and dt:
        bal = abs((E - _energy(ops, prev)) / dt + ops.params.beta**2 * a_uu + grad)
    return EnergyReport(time, E, a_uu, grad,
                        float(np.sqrt(max(sn["l2_sq"], 0.0) + max(grad, 0.0))),
                        sn["A_half"], sn["A1_lambda"], bal)


def _energy(ops, sn):
    """E_L = <M_L u, u> / 2 = (||u||^2 + alpha^2 <K_grad u, u>) / 2 (M = I)."""
    return 0.5 * (sn["l2_sq"] + ops.params.alpha**2 * sn["grad_sq"])


@dataclass
class EvolutionResult:
    reports: list
    final: object  # the field at the last step taken
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


def _initial_norms(ops, u0, watchdog_ceiling):
    """(norms, ceiling): the a_scale_norms of u0 and the watchdog ceiling,
    watchdog_ceiling times A1(u0).  ParameterError when A1(u0) or the
    ceiling overflows, as the watchdog could then never fire."""
    sn = ops.a_scale_norms(u0)
    with np.errstate(over="ignore"):
        ceiling = watchdog_ceiling * max(sn["A1"], 1e-300)
    if not np.isfinite(ceiling):
        raise ParameterError(f"the watchdog ceiling {watchdog_ceiling!r} times the initial field's "
                             f"norm A1 = {float(sn['A1'])!r} is not finite: it could never fire")
    return sn, ceiling


def run_evolution(ops, u0, dt, T, scheme="euler", cadence=1,
                  watchdog_ceiling=1e6, inject_nan_step=None):
    """Integrate to T or until the blow-up watchdog fires.

    T must be a whole number of steps dt (ValueError otherwise), so a run
    that is not stopped by the watchdog ends exactly at T.

    The watchdog monitors the fourth-order proxy ||(A + shift) u|| against
    ceiling times its initial value and also trips on non-finite
    coefficients; its firing is a structured outcome, not an exception.  An
    initial proxy that overflows raises ParameterError before any step.
    Every step computes the proxy's K_a norms only; the K_grad products run
    at report steps (every cadence-th, the last and a watchdog step).
    """
    nsteps = step_count(T, dt)
    stepper = IMEXStepper(ops, dt, u0, scheme)
    sn, ceiling = _initial_norms(ops, u0, watchdog_ceiling)
    reports = [energy_report(ops, 0.0, sn)]
    for n in range(1, nsteps + 1):
        stepper.step()
        # a copy: the next report's balance reads this step's grad_sq lazily
        prev, field = sn, stepper.out.copy()
        if inject_nan_step is not None and n == inject_nan_step:
            field.psi[:] = np.nan
        event, sn = _watchdog(ops, stepper.time, field, ceiling)
        if sn is not None and (event is not None or n % cadence == 0 or n == nsteps):
            reports.append(energy_report(ops, stepper.time, sn, prev, dt))
        if event is not None:
            return EvolutionResult(reports, field, event, n)
    return EvolutionResult(reports, field, None, nsteps)


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


def _h1_norms(ops, members, base):
    """H1 norm sqrt(<w[j] + K_grad w[j], w[j]>) of each member w[j] of the
    stacked difference w = members - base, each member's as its own; inf
    where the square overflowed.  w is written into the input rows of the
    set's planned K_grad products (:meth:`nsab.operators.OperatorSet.products`),
    and the sums run as ``SolenoidalField.dot(per_member=True)`` runs them -
    per potential an einsum over each member's rows times its weight, added
    in turn to 0 - into arrays planned with them."""
    lead = members.mean.shape[:-2]
    products = ops.products("K_grad", lead)
    rows, sums = ops.plan(("h1", lead), lambda: (
        [(p.x.reshape(lead[0], -1), np.empty(p.x.shape)) for p in products],
        np.empty((4,) + lead)))
    with np.errstate(over="ignore", invalid="ignore"):
        for product, a, b, (w, x), e, k in zip(products, members.potentials(), base.potentials(),
                                               rows, sums, (2.0, 2.0, 1.0)):
            np.subtract(a, b, out=product.x)
            np.add(product.x, product(), out=x)
            np.einsum("ej,ej->e", w, x.reshape(w.shape), out=e)
            np.multiply(e, k, out=e)
        total = sums[3]
        np.add(sums[0], 0.0, out=total)
        np.add(total, sums[1], out=total)
        np.add(total, sums[2], out=total)
        return _root(total).tolist()


def uniqueness_probe(ops, u0, perturbation, deltas, T, dt, scheme="cnab2",
                     watchdog_ceiling=1e6, inject_nan_step=None):
    """Paired-trajectory separation growth in the H1 norm, one probe per delta.

    perturbation is a unit-shape field; the member for delta starts from
    u0 + delta * perturbation and is compared with the base trajectory from
    u0, which is integrated once and shared: one stacked state holds the
    base run (member 0) and the members, and stays in the stepper's rows
    for the whole run.  Each member equals a single-delta run bit for bit;
    delta = 0 reproduces the base trajectory (growth identically 1).  The
    watchdog of :func:`run_evolution` checks the base run, then the members'
    finite coefficients; when it fires the probes end with the last step
    before it and carry the event.  inject_nan_step, as in
    :func:`run_evolution`, sets the base run's psi to NaN after that step.
    A step computes the base run's K_a norms and the members' H1 norms,
    nothing else, by products planned for the run that read the step's
    output rows.
    """
    nsteps = step_count(T, dt)
    stack = SolenoidalField.stack([u0] + [u0 + d * perturbation for d in deltas])
    stepper = IMEXStepper(ops, dt, stack, scheme)
    sn, ceiling = _initial_norms(ops, u0, watchdog_ceiling)
    w0 = [w if d != 0.0 else 1.0 for d, w in zip(deltas, _h1_norms(ops, stack[1:], u0))]
    if 0.0 in w0:
        raise ParameterError("a probe delta is too small to change u0 in floating point")
    base, members = stepper.out[0], stepper.out[1:]
    times, h3, growth = [0.0], [0.0], [[1.0] for _ in deltas]
    acc, taken = 0.0, 0
    for n in range(1, nsteps + 1):
        # the members are counted only for a step that passed the base's checks
        stepper.step()
        taken, h3_prev = taken + 1, sn["A_half"]
        if n == inject_nan_step:
            base.psi[:] = np.nan
        event, sn = _watchdog(ops, stepper.time, base, ceiling)
        if event is None:
            taken += len(deltas)
            h1 = _h1_norms(ops, members, base)
            event = _nonfinite_event(stepper.time, members, ceiling, h1)
        if event is not None:
            break
        acc += 0.5 * dt * (h3_prev + sn["A_half"])
        times.append(stepper.time)
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


def vanishing_sweep(base_params, cache, u0, levels, T, dt, scheme="euler", watchdog_ceiling=1e6):
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
        result = run_evolution(ops, u0, dt, T, scheme=scheme, cadence=cadence,
                               watchdog_ceiling=watchdog_ceiling)
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
