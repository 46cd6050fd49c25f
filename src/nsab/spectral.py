"""Spectrum of the stationary form operator and its coercivity constants.

Everything here works on the stacks of wavenumber blocks in the
M-orthonormal bases, with batched numpy linear algebra and no per-block
loop:

* ``eigenpairs_A``     lowest eigenvalues of the form operator, merged and
                       sorted across blocks (each nonzero wavenumber counts
                       its Hermitian partner through multiplicity 2);
* ``garding_constants`` the discrete shifted-coercivity constant
                       c0(g0) = min eig of the pencil
                       (K_a + g0 M, M + K_grad + K_bilap), i.e. the largest
                       c0 with a(u,u) + g0 ||u||^2 >= c0 ||u||_{H2}^2 on the
                       discrete space, together with the smallest shift g0
                       on a logarithmic search grid that makes it positive;
                       each stack's pencil is reduced once, through the
                       Cholesky factor of its H2 form, to C + g0 N, so a
                       shift costs one batched eigvalsh per stack;
* ``spectral_factors`` square-root factors of the Helmholtz filter form
                       and the symmetrized dissipation generator
                       D = beta^2 L^{-1/2} A L^{-1/2} (optionally including
                       the viscous gradient form, which the evolution
                       equation adds to the stiff linear part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EigenPair:
    lam: float
    vector: np.ndarray
    mode: tuple       # (|k1|, |k2|); (0, 0) is the mean block
    block: str
    multiplicity: int
    residual: float


def eigenpairs_A(ops, count):
    """The ``count`` lowest eigenpairs of the stationary form operator.

    Eigenvalues of nonzero wavenumbers carry multiplicity 2 (the Hermitian
    partner); the returned list is nondecreasing in the eigenvalue and
    contains each eigenpair once with its multiplicity recorded.
    """
    # candidates ordered by block group q (the mean comes last), toroidal
    # before poloidal: equal eigenvalues keep that order; a group's stored
    # representatives count x 2 for their partners, the two mean components
    # x 2.  Groups of equal m read the eigenpairs of their block[q].
    keys = list(ops.layout.groups) + [(0, 0)]
    mult = [2 * (rows.stop - rows.start) for rows in ops.layout.groups.values()] + [2]
    block = ops.cache.block[[rows.start for rows in ops.layout.groups.values()]]
    cols = []
    for p, stack in enumerate(ops.blocks):
        lam, V = ops.block_eig(stack)
        res = (np.linalg.norm(stack.K_a @ V - V * lam[:, None, :], axis=1)
               / (np.abs(lam).max(axis=1, keepdims=True) + np.abs(lam)))
        lam, res = (lam[block], res[block]) if p < 2 else (lam, res)
        b, i = np.indices(lam.shape)
        q = b if p < 2 else np.full(lam.shape, len(keys) - 1)
        cols.append(np.stack([lam, res, q, np.full(lam.shape, p), i]).reshape(5, -1))
    lam, res, pos, pot, col = np.concatenate(cols, axis=1)
    found = []
    for j in np.lexsort((col, pot, pos, lam))[:count]:
        p, q, i = int(pot[j]), int(pos[j]), int(col[j])
        V = ops.block_eig(ops.blocks[p])[1][block[q] if p < 2 else 0]
        found.append(EigenPair(float(lam[j]), V[:, i].copy(), keys[q],
                               ops.blocks[p].name, mult[q], float(res[j])))
    return found


#: shifts g0 at which garding_constants measures c0(g0)
DEFAULT_SHIFT_GRID = (0.0,) + tuple(10.0**j for j in range(-3, 5))
#: c0 above this counts as coercive
C0_THRESHOLD = 1e-10

H2_NORM_DEFINITION = "||u||_H2^2 := ||u||^2 + ||grad u||^2 + ||Lap u||^2 (assembled forms)"


@dataclass
class GardingReport:
    grid: tuple
    c0: dict                 # shift -> c0(shift)
    gamma0_min: float        # smallest grid shift with c0 > threshold
    gamma0_refined: float    # bisection-refined transition shift (or gamma0_min)
    c0_at_min: float
    threshold: float
    norm_definition: str = H2_NORM_DEFINITION


def _reduced_pencils(ops):
    """(C, N) per stack: the pencil (K_a + s M, B) with the H2 form
    B = M + K_grad + K_bilap = L L^T reduced to the standard symmetric
    problem C + s N, C = L^-1 K_a L^-T, N = L^-1 M L^-T (Golub & Van Loan,
    Matrix Computations, sec. 8.7).  B does not depend on the shift, so one
    batched Cholesky factorization per stack serves every shift."""
    pencils = []
    for stack in ops.blocks:
        Li = np.linalg.inv(np.linalg.cholesky(stack.h2_form()))
        LiT = np.swapaxes(Li, -1, -2)
        pencils.append((Li @ stack.K_a @ LiT, Li @ stack.M @ LiT))
    return pencils


def _c0_of_shift(pencils, shift):
    return min(float(np.linalg.eigvalsh(C + shift * N)[:, 0].min(initial=np.inf))
               for C, N in pencils)


def garding_constants(ops):
    """Measure c0(shift) over the shift grid and locate the coercive range."""
    grid = DEFAULT_SHIFT_GRID
    pencils = _reduced_pencils(ops)
    c0 = {g: _c0_of_shift(pencils, g) for g in grid}
    passing = [g for g in grid if c0[g] > C0_THRESHOLD]
    if not passing:
        return GardingReport(grid, c0, np.inf, np.inf, -np.inf, C0_THRESHOLD)
    gmin = passing[0]
    grefined = gmin
    failing = [g for g in grid if g < gmin and c0[g] <= C0_THRESHOLD]
    if failing:
        lo, hi = max(failing), gmin
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _c0_of_shift(pencils, mid) > C0_THRESHOLD:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-3 * max(hi, 1e-12):
                break
        grefined = hi
    return GardingReport(grid, c0, gmin, grefined, c0[gmin], C0_THRESHOLD)


# ---------------------------------------------------------------------------
# filter square roots and the symmetrized generator
# ---------------------------------------------------------------------------

@dataclass
class BlockFactors:
    sqrt_lambda: np.ndarray
    inv_sqrt_lambda: np.ndarray
    D: np.ndarray
    d_eigvals: np.ndarray
    d_eigvecs: np.ndarray


def spectral_factors(blk, beta, include_gradient=False):
    """Filter square roots and generator eigendecomposition of a block or a
    stack of blocks.

    include_gradient=True builds the generator of the full stiff linear
    part beta^2 A - Lap (the form the time stepper treats implicitly);
    include_gradient=False is the bare beta^2-weighted form operator.
    """
    mu, U = np.linalg.eigh(blk.M_lambda)
    if np.any(mu[..., 0] <= 0):
        raise RuntimeError("filter form lost positivity (should not occur)")
    UT, r = np.swapaxes(U, -1, -2), np.sqrt(mu)[..., None, :]
    sq = (U * r) @ UT
    isq = (U / r) @ UT
    S = beta**2 * blk.K_a
    if include_gradient:
        S = S + blk.K_grad
    D = isq @ S @ isq
    D = 0.5 * (D + np.swapaxes(D, -1, -2))
    dv, dV = np.linalg.eigh(D)
    return BlockFactors(sq, isq, D, dv, dV)
