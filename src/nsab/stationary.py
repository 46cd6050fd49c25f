"""Stationary solves, pressure recovery and strong boundary-condition audits.

The weak problem is solved per wavenumber block: K_a c = rhs, where rhs is
the Galerkin projection of the data onto the solenoidal test basis plus,
optionally, a wall functional (used by the manufactured-solution studies to
absorb the tangential traction mismatch of an arbitrary manufactured field,
so that any smooth divergence-free u* can serve as the exact solution).
The data f is the (rows, mean) planes pair of :func:`nsab.field.synthesize_rows`
and its projection ``analyze_rows(rows, mean, ops.cache)``.

If a block operator is singular - the form operator genuinely admits a
kernel for suitable wall coefficients - the solve restricts to the
orthogonal complement and reports the kernel dimension, rejecting data with
a component in the kernel.

Pressure is recovered from the pointwise momentum residual r = f - Lap^2 u:
tangentially r = (i eta1 p, i eta2 p, p')+curl-free defect, so a per-mode
least-squares fit of a polynomial p against all three components (one QR
and one SVD of the mode-independent design serve every mode) both
determines p on the stored modes and measures how far r is from a
gradient; the explicit curl of r is also reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table
from .field import (SolenoidalField, as_complex, as_planes, blockmul, synthesize_rows,
                    tangential_swap, zero_field)
from .operators import lowest_above


class ConsistencyError(RuntimeError):
    """Right-hand side has a component in the kernel of the form operator."""

    def __init__(self, magnitude):
        super().__init__(f"forcing not orthogonal to the operator kernel "
                         f"(violation {magnitude:.3e})")
        self.magnitude = magnitude


# ---------------------------------------------------------------------------
# stationary solve
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    kernel_dim: int
    max_kernel_violation: float
    residual: float
    rhs_norm: float


#: a block's eigenvalues |lam| <= KERNEL_RTOL * max|lam| span its kernel.
#: A block of order n whose K_a - (KERNEL_RTOL + n^2 eps) ||K_a||_F I has a
#: Cholesky factor has none: ||K_a||_F >= max|lam|, and n^2 eps covers the
#: backward errors of the factor and of eigh (Higham, ch. 10; Golub & Van
#: Loan, sec. 8.3)
KERNEL_RTOL = 1e-10
#: data along the kernel beyond CONSISTENCY_RTOL * its norm is inconsistent
CONSISTENCY_RTOL = 1e-8


def solve_stationary(ops, rhs):
    """Solve K_a u = rhs per block; least-squares on the kernel complement.

    A block is diagonalized (``OperatorSet.eigh``, once per set) only when
    rhs has data in it or a Cholesky certificate cannot rule out its
    kernel (:func:`nsab.operators.lowest_above`, see ``KERNEL_RTOL``); any
    other block has the zero solution and no kernel, as its eigenpairs would
    give it.  Raises ConsistencyError when a singular block sees data along
    its kernel beyond CONSISTENCY_RTOL times the data norm.
    """
    eig = []
    for p, (stack, c, block) in enumerate(zip(ops.blocks, rhs.potentials(),
                                               ops.layout.potential_blocks)):
        need = np.zeros(len(stack.K_a), bool)
        need[block[c.any(axis=tuple(range(1, c.ndim)))]] = True  # blocks with data
        free = np.flatnonzero(~need)
        K = stack.K_a[free]
        tau = (KERNEL_RTOL + stack.n**2 * np.finfo(float).eps) * np.linalg.norm(K, axis=(1, 2))
        need[free] = ~lowest_above(K, tau)
        eig.append(ops.eigh(p, need))
    lam, V = zip(*eig)
    d = rhs.apply(V)  # rows of c @ V
    kernel_dim, violation, parts = 0, 0.0, []
    for lam_p, c, block in zip(lam, d.potentials(), ops.layout.potential_blocks):
        # (rows, planes, n): a row's re/im planes, or one mean row U1 or U2
        x = c if c.ndim == 3 else c[:, None, :]
        # the kernel (KERNEL_RTOL), read per row
        top = np.abs(lam_p).max(axis=1, keepdims=True, initial=0.0)
        kernel = (np.abs(lam_p) <= KERNEL_RTOL * top)[block][:, None, :]
        kernel_dim += int(kernel.sum())
        along = np.sum(np.where(kernel, x, 0.0) ** 2, axis=(-2, -1))
        violation = max(violation, float(np.sqrt(along.max(initial=0.0))))
        parts.append(np.divide(x, lam_p[block][:, None, :], out=np.zeros_like(x),
                               where=~kernel).reshape(c.shape))
    rhs_norm = rhs.norm_l2()
    if violation > CONSISTENCY_RTOL * max(rhs_norm, 1e-300):
        raise ConsistencyError(violation)
    u = SolenoidalField(ops.geometry, ops.resolution, *parts).apply(
        [np.swapaxes(v, 1, 2).copy() for v in V])
    residual = (u.apply(ops.stacks("K_a")) - rhs).norm_l2()
    return u, SolveReport(kernel_dim, violation, residual, rhs_norm)


# ---------------------------------------------------------------------------
# wall functionals (natural-condition data)
# ---------------------------------------------------------------------------

def wall_dual(ops, row, gb, gt):
    """Dual vector of phi -> sum_walls g . conj(d_n phi) on one stored row,
    with tangential 2-vectors gb at z = 0 and gt at z = H."""
    out = zero_field(ops.geometry, ops.resolution)
    area, cache, b = ops.geometry.area, ops.cache, ops.layout.block[row]
    e1, e2 = ops.layout.wavenumber(*ops.layout.k[row])
    ttr = cache.raw_T_tr[1] @ cache.W_tor[b]  # first-derivative traces, rows (z=0, z=H)
    ptr = cache.raw_C_tr[2] @ cache.W_pol[b]  # second-derivative traces
    # d_n phi at bottom = -(i e2 T', -i e1 T', 0) tor / -(i e1 C'', i e2 C'', .) pol
    out.psi[row] = as_planes(area * ((gb[0] * 1j * e2 - gb[1] * 1j * e1) * ttr[0]
                                     + (-gt[0] * 1j * e2 + gt[1] * 1j * e1) * ttr[1]))
    out.phi[row] = as_planes(area * ((gb[0] * 1j * e1 + gb[1] * 1j * e2) * ptr[0]
                                     + (-gt[0] * 1j * e1 - gt[1] * 1j * e2) * ptr[1]))
    return out


# ---------------------------------------------------------------------------
# strong boundary-condition residuals
# ---------------------------------------------------------------------------

@dataclass
class BCResidual:
    dirichlet_res: float
    wall_eddy_res: float


_SGN = np.array([-1.0, 1.0])  # outward normal -e3 at z = 0, +e3 at z = H


def wall_traction(e1, e2, m, t, p, gamma, k):
    """Tangential traction defect r_j = (G n)_j - k w_j, j = 1, 2, at both walls.

    t and p hold the z-derivatives 0..3 of the toroidal and poloidal
    potentials at the walls (z = 0, z = H) on their last axis; w = curl u
    and G = grad w + gamma (grad w)^T.  With the outward normal sgn e3,
    sgn = ``_SGN``, (G n)_j = sgn (d_z w_j + gamma i eta_j w3).
    """
    Lp, DLp = p[2] - m * p[0], p[3] - m * p[1]
    w1 = 1j * e1 * t[1] - 1j * e2 * Lp
    w2 = 1j * e2 * t[1] + 1j * e1 * Lp
    w3 = m * t[0]
    r1 = _SGN * (1j * e1 * t[2] - 1j * e2 * DLp + gamma * 1j * e1 * w3) - k * w1
    r2 = _SGN * (1j * e2 * t[2] + 1j * e1 * DLp + gamma * 1j * e2 * w3) - k * w2
    return r1, r2


def strong_bc_residual(u, ops):
    """Wall traces of the solution: no-slip and tangential traction defect.

    The Dirichlet trace is structurally zero (essential basis); the
    traction residual (:func:`wall_traction`), evaluated from the potential
    traces, measures how well the natural condition is recovered and
    decays under refinement.  The wall coefficients are those of ops.params.
    """
    area, kk, cache = ops.geometry.area, ops.params.k, ops.cache
    (e1, e2, m), buckets = ops.layout.eta, ops.layout.buckets
    # wall traces, (rows, 2 planes, 2 walls) each; the velocity's mixed
    # planes (rows, 2, 3, 2 walls) hold its real and imaginary parts
    ct, cp = blockmul(cache.W_tor_T, u.psi, buckets), blockmul(cache.W_pol_T, u.phi, buckets)
    tt = [ct @ cache.raw_T_tr[d].T for d in range(4)]
    pt = [cp @ cache.raw_C_tr[d].T for d in range(4)]
    uw = ops.layout.mixing(("u",))[0] @ np.stack([tt[0], pt[0], pt[1]], axis=-2)
    r1, r2 = wall_traction(e1, e2, m, [as_complex(t) for t in tt], [as_complex(p) for p in pt],
                           ops.params.gamma, kk)
    # mean flow (U1, U2, 0): omega = (-U2', U1', 0); traces (2 walls, 2 comps)
    t = [cache.mean_tr[d] @ u.mean.T for d in range(3)]
    r0 = _SGN[:, None] * t[2] - kk * t[1]  # the mean residual up to signs
    dir_sq = area * (2.0 * float(np.sum(uw ** 2)) + float(np.sum(t[0] ** 2)))
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


@dataclass
class PressureReport:
    gradient_defect: float
    curl_residual: float


def _legendre_design(geometry, z, degree, dmax=1):
    zeta = 2.0 * z / geometry.H - 1.0
    T = legendre_table(zeta, degree, dmax)
    scale = 2.0 / geometry.H
    return [np.ascontiguousarray(T[d, :, :].T * scale**d) for d in range(dmax + 1)]


def recover_pressure(u, forcing, ops):
    """Least-squares pressure from the momentum residual r = f - Lap^2 u,
    forcing f the (rows, mean) planes pair of :func:`nsab.field.synthesize_rows`
    of velocity; r is formed in planes and made complex once.

    Per mode, p is the polynomial of degree P + 1 minimizing the quadrature
    norm of (i eta1 p - r1, i eta2 p - r2, p' - r3); the misfit is the
    gradient defect of r and an explicit curl norm of r is also formed.
    The pressure is returned for the stored rows; the zero mode is fitted
    only for its share of the defect.

    The fit is batched.  Each row's tangential residual is split along
    eta/|eta| and its normal; the normal part cannot be matched by
    i eta p and counts whole as defect.  What remains is
    min ||[|eta| S0; S1] c - [b_along; b_normal]|| with S0, S1 the weighted
    design matrices of p and p'.  p' has lower degree, so S1 lies in the
    column space of S0 = Q0 R0 (full column rank: Q >= P + 2 nodes), and
    with the SVD (Q0^T S1) R0^-1 = U diag(s) V^T the fit is diagonal in
    y = V^T R0 c: y = (|eta| V^T Q0^T b_along + s U^T Q0^T b_normal)
    / (m + s^2) (Golub & Van Loan, Matrix Computations, secs. 5.5 and
    6.1).  One QR and one SVD, both independent of the mode, serve every
    row through a few matrix products.

    r is a difference of two large, nearly equal profiles, so the
    diagnostics derived from it (``gradient_defect``, ``curl_residual`` and
    a manufactured case's ``pressure_L2``) carry only about four
    significant digits.
    """
    geo, degree = u.geometry, u.resolution.P + 1
    z, w = ops.cache.z, ops.cache.w
    Phi = _legendre_design(geo, z, degree)
    sw = np.sqrt(w)
    S0, S1 = sw[:, None] * Phi[0], sw[:, None] * Phi[1]
    (f_rows, f_mean), (b_rows, b_mean) = forcing, synthesize_rows(u, ops.cache, ("bilap_u",))
    r0 = f_mean - b_mean  # (3, Q); the rows' residual (3, rows, Q), made complex once
    R_reps = np.swapaxes(as_complex(tangential_swap(f_rows - b_rows), axis=-3), 0, 1)
    area = geo.area
    e1, e2, _ = ops.layout.eta
    Q0, R0 = np.linalg.qr(S0)

    # curl of r, z-derivatives of r1, r2 from a polynomial fit of each
    dR = ((sw * R_reps[:2]) @ Q0) @ np.linalg.solve(R0.T, Phi[1].T)
    curl = np.stack([1j * e2 * R_reps[2] - dR[1],
                     dR[0] - 1j * e1 * R_reps[2],
                     1j * e1 * R_reps[1] - 1j * e2 * R_reps[0]])
    curl_sq = 2.0 * area * float(np.sum(w * np.abs(curl) ** 2))

    # per row: residual along eta (times -i: the fit stays real) and across it
    eta = np.sqrt(e1 * e1 + e2 * e2)
    b_along = -1j * sw * (e1 * R_reps[0] + e2 * R_reps[1]) / eta
    b_normal = sw * R_reps[2]
    r_across = sw * (e2 * R_reps[0] - e1 * R_reps[1]) / eta
    U, s, Vt = np.linalg.svd(np.linalg.solve(R0.T, S1.T @ Q0).T)  # (Q0^T S1) R0^-1
    y = ((eta * (b_along @ (Q0 @ Vt.T)) + s * (b_normal @ (Q0 @ U)))
         / (eta * eta + s * s))
    coeffs = y @ np.linalg.solve(R0, Vt.T).T  # rows of R0^-1 V y
    defect_sq = 2.0 * area * float(np.sum(np.abs(eta * (coeffs @ S0.T) - b_along) ** 2)
                                   + np.sum(np.abs(coeffs @ S1.T - b_normal) ** 2)
                                   + np.sum(np.abs(r_across) ** 2))

    # zero mode: only the normal component is a gradient; the tangential
    # residual components cannot be matched and count as defect
    c0, *_ = np.linalg.lstsq(S1, sw * r0[2], rcond=None)
    defect_sq += area * float(np.linalg.norm(S1 @ c0 - sw * r0[2]) ** 2)
    defect_sq += area * float(np.sum(w * (np.abs(r0[0]) ** 2 + np.abs(r0[1]) ** 2)))
    return (PressureField(degree, coeffs),
            PressureReport(np.sqrt(defect_sq), np.sqrt(curl_sq)))
