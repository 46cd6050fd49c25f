"""Stationary solves, pressure recovery and strong boundary-condition audits.

The weak problem is solved per wavenumber block: K_a c = rhs, where rhs is
the Galerkin projection of the data onto the solenoidal test basis plus,
optionally, a wall functional (used by the manufactured-solution studies to
absorb the tangential traction mismatch of an arbitrary manufactured field,
so that any smooth divergence-free u* can serve as the exact solution).

If a block operator is singular - the form operator genuinely admits a
kernel for suitable wall coefficients - the solve restricts to the
orthogonal complement and reports the kernel dimension, rejecting data with
a component in the kernel.

Pressure is recovered from the pointwise momentum residual r = f - Lap^2 u:
tangentially r = (i eta1 p, i eta2 p, p')+curl-free defect, so a per-mode
least-squares fit of a polynomial p against all three components (one
batched QR per distinct block serves every mode of the block) both
determines p (up to the zero-mean gauge) and measures how far r is from a
gradient; the explicit curl of r is also reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table
from .field import (SolenoidalField, analyze, layout_for, rowmul, synthesize,
                    velocity, zero_field)
from .operators import MULTIPLICITY


class ConsistencyError(RuntimeError):
    """Right-hand side has a component in the kernel of the form operator."""

    def __init__(self, magnitude):
        super().__init__(f"forcing not orthogonal to the operator kernel "
                         f"(violation {magnitude:.3e})")
        self.magnitude = magnitude


# ---------------------------------------------------------------------------
# forcing data
# ---------------------------------------------------------------------------

class ModalForcing:
    """Vector-field data held as Fourier-side profiles at the quadrature nodes.

    ``rows`` is complex (3, R, Q), one profile per representative mode of
    the field layout in row order (the other modes are their conjugates);
    ``mean`` is the real (3, Q) profile of the (0, 0) mode.
    """

    def __init__(self, geometry, resolution, rows=None, mean=None):
        self.geometry, self.resolution = geometry, resolution
        self.layout = layout_for(resolution)
        R, Q = len(self.layout.reps), resolution.Q
        self.rows = np.zeros((3, R, Q), complex) if rows is None else rows
        self.mean = np.zeros((3, Q)) if mean is None else mean

    def set_mode(self, k1, k2, profiles):
        """Install profiles (3, Q) at the representative mode (k1, k2)."""
        self.rows[:, self.layout.row[(k1, k2)]] = profiles

    def dual(self, ops):
        """Galerkin right-hand side: projection onto the solenoidal basis."""
        return analyze(self.rows, self.mean, self.geometry, self.resolution,
                       ops.cache)


def forcing_from_field(f, ops):
    """Velocity profiles of a solenoidal field, packaged as forcing data."""
    rows, mean = synthesize(f, ops.cache)["u"]
    return ModalForcing(f.geometry, f.resolution, rows, mean)


# ---------------------------------------------------------------------------
# stationary solve
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    kernel_dim: int
    max_kernel_violation: float
    residual: float
    rhs_norm: float


def solve_stationary(ops, rhs, kernel_rtol=1e-10, consistency_rtol=1e-8):
    """Solve K_a u = rhs per block; least-squares on the kernel complement.

    Raises ConsistencyError when a singular block sees data along its
    kernel beyond consistency_rtol times the data norm.
    """
    kernel_dim = 0
    violation = 0.0
    res_sq = 0.0
    rhs_norm = rhs.norm_l2()
    parts = []
    stacks = ops.row_stacks(lambda b: ops.block_eig(b) + (b.K_a,))
    for mult, c in zip(MULTIPLICITY, rhs.potentials()):
        lam, V, K = next(stacks)
        # kernel: |lam| <= kernel_rtol * max|lam| of the row's block; the
        # mean's one stack row serves both mean components
        scale = np.abs(lam).max(axis=1, keepdims=True, initial=0.0)
        d = rowmul(V.transpose(0, 2, 1), c)  # rows of c @ V
        kernel = np.broadcast_to(np.abs(lam) <= kernel_rtol * scale, d.shape)
        kernel_dim += int(kernel.sum())
        along = np.sum(np.abs(np.where(kernel, d, 0.0)) ** 2, axis=1)
        violation = max(violation, float(np.sqrt(along.max(initial=0.0))))
        sol = rowmul(V, np.divide(d, lam, out=np.zeros_like(d), where=~kernel))
        res_sq += mult * float(np.sum(np.abs(rowmul(K, sol) - c) ** 2))
        parts.append(sol)
        del lam, V, K  # hold one potential's stacks at a time
    if violation > consistency_rtol * max(rhs_norm, 1e-300):
        raise ConsistencyError(violation)
    u = SolenoidalField(ops.geometry, ops.resolution, *parts)
    return u, SolveReport(kernel_dim, violation, np.sqrt(res_sq), rhs_norm)


# ---------------------------------------------------------------------------
# wall functionals (natural-condition data)
# ---------------------------------------------------------------------------

def wall_dual(ops, wall_values):
    """Dual vector of phi -> sum_walls g . conj(d_n phi).

    wall_values maps representative wavenumbers (k1, k2) to a pair of
    tangential 2-vectors (g_bottom, g_top); the key (0, 0) holds real mean
    data.
    """
    out = zero_field(ops.geometry, ops.resolution)
    area, cache = ops.geometry.area, ops.cache
    for (k1, k2), (gb, gt) in wall_values.items():
        if (k1, k2) == (0, 0):
            t1 = cache.mean_tr[1]
            for c in range(2):
                out.mean[c] = area * np.real(-gb[c] * t1[0] + gt[c] * t1[1])
            continue
        row = ops.layout.row[(k1, k2)]
        g = ops.layout.block[row]
        e1, e2 = cache.wavenumber(k1, k2)
        ttr = cache.raw_T_tr[1] @ cache.W_tor[g]  # first-derivative traces, rows (z=0, z=H)
        ptr = cache.raw_C_tr[2] @ cache.W_pol[g]  # second-derivative traces
        # d_n phi at bottom = -(i e2 T', -i e1 T', 0) tor / -(i e1 C'', i e2 C'', .) pol
        tor = area * ((gb[0] * 1j * e2 - gb[1] * 1j * e1) * ttr[0]
                      + (-gt[0] * 1j * e2 + gt[1] * 1j * e1) * ttr[1])
        pol = area * ((gb[0] * 1j * e1 + gb[1] * 1j * e2) * ptr[0]
                      + (-gt[0] * 1j * e1 - gt[1] * 1j * e2) * ptr[1])
        out.psi[row] = tor
        out.phi[row] = pol
    return out


# ---------------------------------------------------------------------------
# strong boundary-condition residuals
# ---------------------------------------------------------------------------

@dataclass
class BCResidual:
    dirichlet_res: float
    wall_eddy_res: float


def strong_bc_residual(u, params, ops):
    """Wall traces of the solution: no-slip and tangential traction defect.

    The Dirichlet trace is structurally zero (essential basis); the
    traction residual (1 - n x n)(grad w + gamma (grad w)^T) n - k w,
    evaluated from the potential traces, measures how well the natural
    condition is recovered and decays under refinement.
    """
    area, kk, cache, lay = ops.geometry.area, params.k, ops.cache, ops.layout
    m, W_tor, W_pol = cache.row_bases
    e1, e2 = cache.wavenumber(lay.k[:, :1], lay.k[:, 1:])
    sgn = np.array([-1.0, 1.0])  # outward normal -e3 at z = 0, +e3 at z = H
    # wall traces, (rows, 2 walls) each
    ct, cp = rowmul(W_tor, u.psi), rowmul(W_pol, u.phi)
    tt = [ct @ cache.raw_T_tr[d].T for d in range(4)]
    pt = [cp @ cache.raw_C_tr[d].T for d in range(4)]
    uw = velocity(e1, e2, m, tt[0], pt[1], pt[0])
    # omega and d_z omega tangential components at the walls
    Lp, DLp = pt[2] - m * pt[0], pt[3] - m * pt[1]
    w1 = 1j * e1 * tt[1] - 1j * e2 * Lp
    w2 = 1j * e2 * tt[1] + 1j * e1 * Lp
    w3 = m * tt[0]
    # (Gn)_j = sgn * (d_z w_j + gamma * i eta_j w3), j = 1, 2
    r1 = sgn * (1j * e1 * tt[2] - 1j * e2 * DLp + params.gamma * 1j * e1 * w3) - kk * w1
    r2 = sgn * (1j * e2 * tt[2] + 1j * e1 * DLp + params.gamma * 1j * e2 * w3) - kk * w2
    # mean flow (U1, U2, 0): omega = (-U2', U1', 0); traces (2 walls, 2 comps)
    t = [cache.mean_tr[d] @ u.mean.T for d in range(3)]
    r0 = sgn[:, None] * t[2] - kk * t[1]  # the mean residual up to signs
    dir_sq = area * (2.0 * float(np.sum(np.abs(uw) ** 2)) + float(np.sum(t[0] ** 2)))
    we_sq = area * (2.0 * float(np.sum(np.abs(r1) ** 2 + np.abs(r2) ** 2))
                    + float(np.sum(r0 ** 2)))
    return BCResidual(np.sqrt(dir_sq), np.sqrt(we_sq))


# ---------------------------------------------------------------------------
# pressure recovery
# ---------------------------------------------------------------------------

@dataclass
class PressureField:
    degree: int
    coeffs: np.ndarray  # (R, degree+1) Legendre coefficients on [0, H], per row
    mean_profile: np.ndarray  # zero mode at the quadrature nodes


@dataclass
class PressureReport:
    gradient_defect: float
    curl_residual: float
    residual_norm: float


def _legendre_design(geometry, z, degree, dmax=1):
    zeta = 2.0 * z / geometry.H - 1.0
    T = legendre_table(zeta, degree, dmax)
    scale = 2.0 / geometry.H
    return [np.ascontiguousarray(T[d, :, :].T * scale**d) for d in range(dmax + 1)]


def recover_pressure(u, forcing, ops, degree=None):
    """Least-squares pressure from the momentum residual r = f - Lap^2 u.

    Per mode, p is the polynomial minimizing the quadrature norm of
    (i eta1 p - r1, i eta2 p - r2, p' - r3); the misfit is the gradient
    defect of r and an explicit curl norm of r is also formed.  The
    pressure is gauged to zero spatial mean.

    The fit is batched.  Each row's tangential residual is split along
    eta/|eta| and its normal; the normal part cannot be matched by
    i eta p and counts whole as defect.  What remains is
    min ||[|eta| S0; S1] c - [-i r_along; r3]|| with S0, S1 the weighted
    design matrices of p and p', a real matrix that depends on the mode
    only through m = |eta|^2: it is factored by one batched QR over the
    distinct blocks and applied to every row of its block.

    r is a difference of two large, nearly equal profiles, so the
    diagnostics derived from it (``gradient_defect``, ``curl_residual`` and
    a manufactured case's ``pressure_L2``) carry only about four
    significant digits.
    """
    res = u.resolution
    geo = u.geometry
    degree = degree if degree is not None else res.P + 1
    z, w = ops.cache.z, ops.cache.w
    Phi = _legendre_design(geo, z, degree)
    sw = np.sqrt(w)
    S0, S1 = sw[:, None] * Phi[0], sw[:, None] * Phi[1]
    bilap_rows, bilap_mean = synthesize(u, ops.cache, ("bilap_u",))["bilap_u"]
    R_reps = forcing.rows - bilap_rows  # (3, rows, Q)
    r0 = forcing.mean - bilap_mean
    area = geo.area
    e1, e2 = ops.cache.wavenumber(ops.layout.k[:, :1], ops.layout.k[:, 1:])

    # curl of r, z-derivatives from a polynomial fit of each component
    fit0 = np.linalg.pinv(S0)
    dR = ((sw * R_reps) @ fit0.T) @ Phi[1].T
    curl = np.stack([1j * e2 * R_reps[2] - dR[1],
                     dR[0] - 1j * e1 * R_reps[2],
                     1j * e1 * R_reps[1] - 1j * e2 * R_reps[0]])
    curl_sq = 2.0 * area * float(np.sum(w * np.abs(curl) ** 2))

    # per block: the least-squares solution operator R^-1 Q^T of [|eta| S0; S1]
    m = ops.cache.m
    A = np.concatenate([np.sqrt(m)[:, None, None] * S0,
                        np.broadcast_to(S1, m.shape + S1.shape)], axis=1)
    Qf, Rf = np.linalg.qr(A)
    fit = np.linalg.solve(Rf, np.swapaxes(Qf, -1, -2))
    # per row: residual along eta (times -i, so the matrix stays real) and
    # across it
    eta = np.sqrt(e1 * e1 + e2 * e2)
    r_along = sw * (e1 * R_reps[0] + e2 * R_reps[1]) / eta
    r_across = sw * (e2 * R_reps[0] - e1 * R_reps[1]) / eta
    b = np.concatenate([-1j * r_along, sw * R_reps[2]], axis=1)
    coeffs = rowmul(fit[ops.layout.block], b)
    misfit = np.concatenate([eta * (coeffs @ S0.T), coeffs @ S1.T], axis=1) - b
    defect_sq = 2.0 * area * float(np.sum(np.abs(misfit) ** 2)
                                   + np.sum(np.abs(r_across) ** 2))

    # zero mode: only the normal component is a gradient; the tangential
    # residual components cannot be matched and count as defect
    c0, *_ = np.linalg.lstsq(S1, sw * r0[2], rcond=None)
    defect_sq += area * float(np.linalg.norm(S1 @ c0 - sw * r0[2]) ** 2)
    defect_sq += area * float(np.sum(w * (np.abs(r0[0]) ** 2 + np.abs(r0[1]) ** 2)))
    # gauge: zero spatial mean
    zmean = float(np.real(np.sum(w * (Phi[0] @ c0)))) / geo.H

    rnorm_sq = area * (2.0 * float(np.sum(w * np.abs(R_reps) ** 2))
                       + float(np.sum(w * np.abs(r0) ** 2)))
    press = PressureField(degree, coeffs, np.real(Phi[0] @ c0) - zmean)
    return press, PressureReport(np.sqrt(defect_sq), np.sqrt(curl_sq),
                                 np.sqrt(rnorm_sq))
