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
least-squares fit of a polynomial p against all three components both
determines p (up to the zero-mean gauge) and measures how far r is from a
gradient; the explicit curl of r is also reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table
from .field import analyze, mirror, synthesize, zero_field


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
    """Vector-field data held as per-mode profiles at the quadrature nodes."""

    def __init__(self, geometry, resolution):
        self.geometry = geometry
        self.resolution = resolution
        self.F = np.zeros((3, resolution.N1, resolution.N2, resolution.Q), complex)

    def set_mode(self, layout, i1, i2, profiles):
        """Install profiles (3, Q) at a representative and its partner."""
        self.F[:, i1, i2, :] = profiles
        j1, j2 = layout.conj_index(i1, i2)
        self.F[:, j1, j2, :] = np.conj(profiles)

    def dual(self, ops):
        """Galerkin right-hand side: projection onto the solenoidal basis."""
        return analyze(self.F, self.geometry, self.resolution, ops.cache)


def forcing_from_field(f, ops):
    """Velocity profiles of a solenoidal field, packaged as forcing data."""
    res = f.resolution
    out = ModalForcing(f.geometry, res)
    out.F = synthesize(f, ops.cache, (res.N1, res.N2))["u"]
    return out


def gradient_forcing(ops, scalar_modes):
    """f = grad q for per-mode scalar profiles {(i1, i2): (value, z-deriv)}.

    scalar_modes maps representative indices to a pair of (Q,) arrays; the
    zero mode, if present, uses key (0, 0) with real profiles.
    """
    out = ModalForcing(ops.geometry, ops.resolution)
    for (i1, i2), (q0, q1) in scalar_modes.items():
        if (i1, i2) == (0, 0):
            out.F[2, 0, 0, :] = q1
            continue
        k1 = int(ops.layout.k1[i1])
        k2 = int(ops.layout.k2[i2])
        e1, e2 = ops.cache.wavenumber(k1, k2)
        out.set_mode(ops.layout, i1, i2,
                     np.stack([1j * e1 * q0, 1j * e2 * q0, q1]))
    return out


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
    u = zero_field(ops.geometry, ops.resolution)
    kernel_dim = 0
    violation = 0.0
    res_sq = 0.0
    rhs_norm = rhs.norm_l2()
    for slot, blk, c in ops.field_blocks(rhs):
        lam, V = ops.block_eig(blk)
        scale = np.max(np.abs(lam))
        kernel = np.abs(lam) <= kernel_rtol * scale
        d = V.T @ c
        if kernel.any():
            kernel_dim += int(kernel.sum())
            violation = max(violation, float(np.linalg.norm(d[kernel])))
        x = np.zeros_like(d)
        x[~kernel] = d[~kernel] / lam[~kernel]
        sol = V @ x
        res_sq += float(np.linalg.norm(blk.K_a @ sol - c) ** 2) * \
            (1.0 if slot[0] == "mean" else 2.0)
        u.coeffs(slot)[:] = sol
    if violation > consistency_rtol * max(rhs_norm, 1e-300):
        raise ConsistencyError(violation)
    return mirror(u), SolveReport(kernel_dim, violation, np.sqrt(res_sq), rhs_norm)


# ---------------------------------------------------------------------------
# wall functionals (natural-condition data)
# ---------------------------------------------------------------------------

def wall_dual(ops, wall_values):
    """Dual vector of phi -> sum_walls g . conj(d_n phi).

    wall_values maps representative indices (i1, i2) to a pair of tangential
    2-vectors (g_bottom, g_top); the key (0, 0) holds real mean data.
    """
    out = zero_field(ops.geometry, ops.resolution)
    area = ops.geometry.area
    for (i1, i2), (gb, gt) in wall_values.items():
        blk0 = ops.cache.block(0, 0)
        if (i1, i2) == (0, 0):
            t1 = blk0.tor.tr[1]
            for c in range(2):
                out.mean[c] = area * np.real(-gb[c] * t1[0] + gt[c] * t1[1])
            continue
        k1 = int(ops.layout.k1[i1])
        k2 = int(ops.layout.k2[i2])
        blk = ops.cache.block(k1, k2)
        e1, e2 = ops.cache.wavenumber(k1, k2)
        ttr = blk.tor.tr[1]   # first-derivative traces, rows (z=0, z=H)
        ptr = blk.pol.tr[2]   # second-derivative traces
        # d_n phi at bottom = -(i e2 T', -i e1 T', 0) tor / -(i e1 C'', i e2 C'', .) pol
        tor = area * ((gb[0] * 1j * e2 - gb[1] * 1j * e1) * ttr[0]
                      + (-gt[0] * 1j * e2 + gt[1] * 1j * e1) * ttr[1])
        pol = area * ((gb[0] * 1j * e1 + gb[1] * 1j * e2) * ptr[0]
                      + (-gt[0] * 1j * e1 - gt[1] * 1j * e2) * ptr[1])
        out.psi[i1, i2] = tor
        out.phi[i1, i2] = pol
    return mirror(out)


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
    dir_sq = 0.0
    we_sq = 0.0
    area = ops.geometry.area
    kk = params.k
    for (i1, i2, k1, k2) in ops.layout.reps:
        blk = ops.cache.block(k1, k2)
        e1, e2 = ops.cache.wavenumber(k1, k2)
        ct, cp = u.psi[i1, i2], u.phi[i1, i2]
        tt = [blk.tor.tr[d] @ ct for d in range(4)]
        pt = [blk.pol.tr[d] @ cp for d in range(4)]
        for wall, sgn in ((0, -1.0), (1, +1.0)):
            uw = np.array([1j * e2 * tt[0][wall] + 1j * e1 * pt[1][wall],
                           -1j * e1 * tt[0][wall] + 1j * e2 * pt[1][wall],
                           blk.m * pt[0][wall]])
            dir_sq += 2.0 * area * float(np.sum(np.abs(uw) ** 2))
            # omega and d_z omega tangential components at the wall
            Lp = pt[2][wall] - blk.m * pt[0][wall]
            DLp = pt[3][wall] - blk.m * pt[1][wall]
            w1 = 1j * e1 * tt[1][wall] - 1j * e2 * Lp
            w2 = 1j * e2 * tt[1][wall] + 1j * e1 * Lp
            w3 = blk.m * tt[0][wall]
            dw1 = 1j * e1 * tt[2][wall] - 1j * e2 * DLp
            dw2 = 1j * e2 * tt[2][wall] + 1j * e1 * DLp
            # (Gn)_j = sgn * (d_z w_j + gamma * i eta_j w3), j = 1, 2
            g1 = sgn * (dw1 + params.gamma * 1j * e1 * w3)
            g2 = sgn * (dw2 + params.gamma * 1j * e2 * w3)
            r1 = g1 - kk * w1
            r2 = g2 - kk * w2
            we_sq += 2.0 * area * float(abs(r1) ** 2 + abs(r2) ** 2)
    blk0 = ops.cache.block(0, 0)
    for wall, sgn in ((0, -1.0), (1, +1.0)):
        t = [blk0.tor.tr[d] @ u.mean.T for d in range(3)]  # (2 walls, 2 comps)
        U0 = t[0][wall]
        dir_sq += area * float(np.sum(U0**2))
        w1, w2 = -t[1][wall][1], t[1][wall][0]
        dw1, dw2 = -t[2][wall][1], t[2][wall][0]
        r1 = sgn * dw1 - kk * w1
        r2 = sgn * dw2 - kk * w2
        we_sq += area * float(r1**2 + r2**2)
    return BCResidual(np.sqrt(dir_sq), np.sqrt(we_sq))


# ---------------------------------------------------------------------------
# pressure recovery
# ---------------------------------------------------------------------------

@dataclass
class PressureField:
    degree: int
    coeffs: np.ndarray  # (N1, N2, degree+1) Legendre coefficients on [0, H]
    mean_profile: np.ndarray


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


def bilaplacian_profiles(u, ops):
    """(Lap^2 u)-hat at the quadrature nodes for every stored mode."""
    res = u.resolution
    out = np.zeros((3, res.N1, res.N2, res.Q), complex)
    for (i1, i2, k1, k2) in ops.layout.reps:
        blk = ops.cache.block(k1, k2)
        m = blk.m
        e1, e2 = ops.cache.wavenumber(k1, k2)
        t = [blk.tor.E[d] @ u.psi[i1, i2] for d in range(5)]
        p = [blk.pol.E[d] @ u.phi[i1, i2] for d in range(6)]
        LLt = t[4] - 2 * m * t[2] + m * m * t[0]
        DLLp = p[5] - 2 * m * p[3] + m * m * p[1]
        LLp = p[4] - 2 * m * p[2] + m * m * p[0]
        prof = np.stack([1j * e2 * LLt + 1j * e1 * DLLp,
                         -1j * e1 * LLt + 1j * e2 * DLLp,
                         m * LLp])
        out[:, i1, i2, :] = prof
        j1, j2 = ops.layout.conj_index(i1, i2)
        out[:, j1, j2, :] = np.conj(prof)
    blk0 = ops.cache.block(0, 0)
    for c in range(2):
        out[c, 0, 0, :] = blk0.tor.E[4] @ u.mean[c]
    return out


def recover_pressure(u, forcing, ops, degree=None):
    """Least-squares pressure from the momentum residual r = f - Lap^2 u.

    Per mode, p is the polynomial minimizing the quadrature norm of
    (i eta1 p - r1, i eta2 p - r2, p' - r3); the misfit is the gradient
    defect of r and an explicit curl norm of r is also formed.  The
    pressure is gauged to zero spatial mean.
    """
    res = u.resolution
    geo = u.geometry
    degree = degree if degree is not None else res.P + 1
    z, w = ops.cache.z, ops.cache.w
    Phi = _legendre_design(geo, z, degree)
    sw = np.sqrt(w)
    R = forcing.F - bilaplacian_profiles(u, ops)
    coeffs = np.zeros((res.N1, res.N2, degree + 1), complex)
    defect_sq = 0.0
    curl_sq = 0.0
    area = geo.area

    fit0 = np.linalg.pinv(sw[:, None] * Phi[0])  # for curl: polynomial fit of r

    def mode_curl(e1, e2, rprof):
        cr = [fit0 @ (sw * rprof[c]) for c in range(3)]
        vals = [Phi[0] @ c for c in cr]
        dvals = [Phi[1] @ c for c in cr]
        curl = np.stack([1j * e2 * rprof[2] - dvals[1],
                         dvals[0] - 1j * e1 * rprof[2],
                         1j * e1 * rprof[1] - 1j * e2 * rprof[0]])
        return float(np.sum(w * np.abs(curl) ** 2))

    for (i1, i2, k1, k2) in ops.layout.reps:
        e1, e2 = ops.cache.wavenumber(k1, k2)
        rprof = R[:, i1, i2, :]
        A = np.vstack([1j * e1 * (sw[:, None] * Phi[0]),
                       1j * e2 * (sw[:, None] * Phi[0]),
                       sw[:, None] * Phi[1]])
        b = np.concatenate([sw * rprof[0], sw * rprof[1], sw * rprof[2]])
        c, *_ = np.linalg.lstsq(A, b, rcond=None)
        coeffs[i1, i2] = c
        j1, j2 = ops.layout.conj_index(i1, i2)
        coeffs[j1, j2] = np.conj(c)
        defect_sq += 2.0 * area * float(np.linalg.norm(A @ c - b) ** 2)
        curl_sq += 2.0 * area * mode_curl(e1, e2, rprof)

    # zero mode: only the normal component is a gradient; the tangential
    # residual components cannot be matched and count as defect
    r0 = R[:, 0, 0, :]
    A0 = sw[:, None] * Phi[1]
    c0, *_ = np.linalg.lstsq(A0, sw * r0[2], rcond=None)
    defect_sq += area * float(np.linalg.norm(A0 @ c0 - sw * r0[2]) ** 2)
    defect_sq += area * float(np.sum(w * (np.abs(r0[0]) ** 2 + np.abs(r0[1]) ** 2)))
    # gauge: zero spatial mean
    zmean = float(np.real(np.sum(w * (Phi[0] @ c0)))) / geo.H
    c0 = c0.astype(complex)
    c0[0] -= zmean
    coeffs[0, 0] = c0

    rnorm_sq = area * float(np.sum(w * np.abs(R) ** 2, axis=(0, 3)).sum())
    press = PressureField(degree, coeffs, np.real(Phi[0] @ c0))
    return press, PressureReport(np.sqrt(defect_sq), np.sqrt(curl_sq),
                                 np.sqrt(rnorm_sq))
