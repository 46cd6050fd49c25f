"""Spectrum of the stationary form operator and its coercivity constants.

Everything here works on the stacks of wavenumber blocks in the
M-orthonormal bases, where M = I (no M is stored), with batched numpy
linear algebra and no per-block loop:

* ``eigenpairs_A``     lowest eigenvalues of the form operator, merged and
                       sorted across blocks (each nonzero wavenumber counts
                       its Hermitian partner through multiplicity 2);
* ``garding_constants`` the discrete shifted-coercivity constant
                       c0(g0) = min eig of the pencil
                       (K_a + g0 I, I + K_grad + K_bilap), i.e. the largest
                       c0 with a(u,u) + g0 ||u||^2 >= c0 ||u||_{H2}^2 on the
                       discrete space, on a logarithmic shift grid, from
                       the pencils reduced once to C + g0 N, every block
                       solved at g0 = 0 and, at a shift, only the blocks
                       that neither their value at 0 nor a Cholesky
                       certificate clears;
                       and the transition shift s* = -lambda_min(K_a - t B)
                       past which c0 > t, read from one spectrum;
* ``spectral_factors`` square-root factors of the Helmholtz filter form
                       I + alpha^2 K_grad and the symmetrized dissipation generator
                       D = beta^2 L^{-1/2} A L^{-1/2} (optionally including
                       the viscous gradient form, which the evolution
                       equation adds to the stiff linear part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import lowest_above, lowest_eigenvalue


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
    contains each eigenpair once with its multiplicity recorded.  Every
    block's eigenvalues come first (eigvalsh); eigenvectors (eigh, matrix by
    matrix) only for blocks whose lowest eigenvalue, less t = 100 n eps ||K||
    (n the order), is at most the count-th smallest plus its block's t: both
    are backward stable, within ~n eps ||K|| (Golub & Van Loan, sec. 8.3).
    """
    # candidates ordered by block group q (the mean comes last), toroidal
    # before poloidal: equal eigenvalues keep that order; a group's stored
    # representatives count x 2 for their partners, the two mean components
    # x 2.  Groups of equal m read the eigenpairs of their block[q].
    keys = list(ops.layout.groups) + [(0, 0)]
    mult = [2 * (rows.stop - rows.start) for rows in ops.layout.groups.values()] + [2]
    block = ops.layout.block[[rows.start for rows in ops.layout.groups.values()]]
    bounds = [(v, 100 * stack.n * np.finfo(float).eps * np.abs(v).max(axis=1, keepdims=True))
              for v, stack in ((np.linalg.eigvalsh(b.K_a), b) for b in ops.blocks)]
    cut = np.sort(np.concatenate([(v + t)[g].ravel() for (v, t), g in
                                  zip(bounds, (block, block, [0]))]))[:count][-1]
    cols, vectors = [], []
    for p, (stack, (v, t)) in enumerate(zip(ops.blocks, bounds)):
        need = v[:, 0] - t[:, 0] <= cut
        K = stack.K_a[need]
        w, X = np.linalg.eigh(K)
        lam, res, V = np.full(v.shape, np.inf), np.zeros(v.shape), np.zeros(stack.K_a.shape)
        lam[need], V[need] = w, X  # the blocks left out keep lam = inf
        res[need] = (np.linalg.norm(K @ X - X * w[:, None, :], axis=1)
                     / (np.abs(w).max(axis=1, keepdims=True) + np.abs(w)))
        vectors.append(V)
        lam, res = (lam[block], res[block]) if p < 2 else (lam, res)
        b, i = np.indices(lam.shape)
        q = b if p < 2 else np.full(lam.shape, len(keys) - 1)
        cols.append(np.stack([lam, res, q, np.full(lam.shape, p), i]).reshape(5, -1))
    lam, res, pos, pot, col = np.concatenate(cols, axis=1)
    found = []
    for j in np.lexsort((col, pot, pos, lam))[:count]:
        p, q, i = int(pot[j]), int(pos[j]), int(col[j])
        V = vectors[p][block[q] if p < 2 else 0]
        found.append(EigenPair(float(lam[j]), V[:, i].copy(), keys[q],
                               ops.blocks[p].name, mult[q], float(res[j])))
    return found


#: shifts g0 at which garding_constants measures c0(g0)
DEFAULT_SHIFT_GRID = (0.0,) + tuple(10.0**j for j in range(-3, 5))
#: c0 above this counts as coercive
C0_THRESHOLD = 1e-10
#: the Garding search's margin over best, relative to ||C|| + shift: many
#: times the rounding of forming C + shift N, of eigvalsh and of a Cholesky
#: factor (Higham, ch. 10), so a cleared block's eigvalsh lies above best
SLACK = 1e-10

H2_NORM_DEFINITION = "||u||_H2^2 := ||u||^2 + ||grad u||^2 + ||Lap u||^2 (assembled forms)"


@dataclass
class GardingReport:
    grid: tuple
    c0: dict                 # shift -> c0(shift)
    gamma0_min: float        # smallest grid shift with c0 > threshold
    gamma0_refined: float    # transition shift s*, within the grid bracket of gamma0_min
    c0_at_min: float
    norm_definition: str = H2_NORM_DEFINITION


def _reduced_pencils(ops):
    """(C, N) per stack: the pencil (K_a + s I, B) with the H2 form
    B = I + K_grad + K_bilap = L L^T reduced to the standard symmetric
    problem C + s N, C = L^-1 K_a L^-T, N = L^-1 L^-T (Golub & Van Loan,
    Matrix Computations, sec. 8.7).  B does not depend on the shift, so one
    batched Cholesky factorization per stack serves every shift."""
    pencils = []
    for stack in ops.blocks:
        Li = np.linalg.inv(np.linalg.cholesky(stack.h2_form()))
        LiT = np.swapaxes(Li, -1, -2)
        pencils.append((Li @ stack.K_a @ LiT, Li @ LiT))
    return pencils


def _lowest_at_zero(pencils):
    """(lowest eigenvalue, norm) of C + 0 N per block, one pair per stack."""
    w = [np.linalg.eigvalsh(C + 0.0 * N) for C, N in pencils]
    return [(v[:, 0], np.abs(v).max(axis=1)) for v in w]


def _c0(pencils, zero, shift):
    """c0(shift): the lowest eigenvalue of C + shift N over every block, with
    eigvalsh on few blocks (``zero`` from :func:`_lowest_at_zero`).

    N is positive definite, so a block's lowest eigenvalue grows with the
    shift: lam_b(0) bounds lam_b(shift) below.  The block lowest at 0 is
    solved first, giving best; every other block is cleared when lam_b(0) is
    at least best + slack, or when C + shift N - (best + slack) I has a
    Cholesky factor (:func:`lowest_above`), slack = SLACK (||C_b|| + shift),
    as ||N|| <= 1.  Only the blocks left are solved, best lowered as they
    come; eigvalsh works matrix by matrix, so c0 is bitwise the minimum over
    all blocks."""
    lows = [lam.min(initial=np.inf) for lam, _ in zero]
    p = int(np.argmin(lows))
    b = int(np.argmin(zero[p][0]))
    C, N = pencils[p]
    best = np.linalg.eigvalsh(C[b:b + 1] + shift * N[b:b + 1])[0, 0]
    for q, ((C, N), (lam, norm)) in enumerate(zip(pencils, zero)):
        t = best + SLACK * (norm + shift)
        rest = lam < t
        if q == p:
            rest[b] = False
        K = C[rest] + shift * N[rest]
        left = K[~lowest_above(K, t[rest])]
        if len(left):
            best = min(best, np.linalg.eigvalsh(left)[:, 0].min())
    return float(best)


def garding_constants(ops):
    """Measure c0(shift) over the shift grid and locate the coercive range.

    As M = I, c0(s) > t exactly when K_a + s I - t B is positive definite in
    every block, so the transition shift is s* = -lambda_min(K_a - t B), t the
    threshold, one spectrum read by :func:`lowest_eigenvalue` when c0(0) fails.
    While the last shift fails, the grid goes on by decades, at most to the
    first decade past s*; gamma0_refined is s* within its grid bracket."""
    pencils, g = _reduced_pencils(ops), DEFAULT_SHIFT_GRID[-1]
    zero = _lowest_at_zero(pencils)
    c0 = {s: _c0(pencils, zero, s) for s in DEFAULT_SHIFT_GRID}
    s_star = DEFAULT_SHIFT_GRID[0]
    if c0[s_star] <= C0_THRESHOLD:
        s_star = -lowest_eigenvalue(b.K_a - C0_THRESHOLD * b.h2_form() for b in ops.blocks)
        while c0[g] <= C0_THRESHOLD and g < s_star:
            g *= 10.0
            c0[g] = _c0(pencils, zero, g)
    grid = tuple(c0)
    i = next((i for i, s in enumerate(grid) if c0[s] > C0_THRESHOLD), None)
    if i is None:
        return GardingReport(grid, c0, np.inf, np.inf, -np.inf)
    refined = float(np.clip(s_star, grid[max(i - 1, 0)], grid[i]))
    return GardingReport(grid, c0, grid[i], refined, c0[grid[i]])


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
    stack of blocks, from M_Lambda = I + alpha^2 K_grad, read once.

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
