"""Spectrum of the stationary form operator and its coercivity constants.

Everything here works per wavenumber block in the M-orthonormal bases, so
generalized pencils reduce to standard symmetric eigenproblems:

* ``eigenpairs_A``     lowest eigenvalues of the form operator, merged and
                       sorted across blocks (each nonzero wavenumber counts
                       its Hermitian partner through multiplicity 2);
* ``garding_constants`` the discrete shifted-coercivity constant
                       c0(g0) = min eig of the pencil
                       (K_a + g0 M, M + K_grad + K_bilap), i.e. the largest
                       c0 with a(u,u) + g0 ||u||^2 >= c0 ||u||_{H2}^2 on the
                       discrete space, together with the smallest shift g0
                       on a logarithmic search grid that makes it positive;
* ``lambda_sqrt_and_D`` square-root factors of the Helmholtz filter form
                       and the symmetrized dissipation generator
                       D = beta^2 L^{-1/2} A L^{-1/2} (optionally including
                       the viscous gradient form, which the evolution
                       equation adds to the stiff linear part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .field import mirror, zero_field


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
    found = []
    for key, modes in ops.layout.groups.items():
        mops = ops.mode_ops(*key)
        # multiplicity: stored representatives sharing this block x 2
        reps_here = len(modes)
        for name in ("toroidal", "poloidal"):
            blk = mops.blocks[name]
            lam, V = ops.block_eig(blk)
            scale = np.max(np.abs(lam))
            for i, lv in enumerate(lam):
                res = float(np.linalg.norm(blk.K_a @ V[:, i] - lv * V[:, i])
                            / (scale + abs(lv)))
                found.append(EigenPair(float(lv), V[:, i].copy(), key, name,
                                       2 * reps_here, res))
    blk = ops.mean_ops.blocks["mean1"]
    lam, V = ops.block_eig(blk)
    scale = np.max(np.abs(lam))
    for i, lv in enumerate(lam):
        res = float(np.linalg.norm(blk.K_a @ V[:, i] - lv * V[:, i])
                    / (scale + abs(lv)))
        found.append(EigenPair(float(lv), V[:, i].copy(), (0, 0), "mean",
                               2, res))  # two identical mean components
    found.sort(key=lambda p: p.lam)
    return found[:count]


def eigenpair_field(ops, pair, component=0):
    """Embed an eigenpair into a full field (for cross-mode inner products).

    For nonzero wavenumbers the coefficients are placed on the first stored
    representative of the pair's block; for the mean block, on the chosen
    component.
    """
    f = zero_field(ops.geometry, ops.resolution)
    if pair.mode == (0, 0):
        f.mean[component] = pair.vector.real
        return f
    for (i1, i2, k1, k2) in ops.layout.reps:
        if (abs(k1), abs(k2)) == pair.mode:
            vec = pair.vector / np.sqrt(2.0)  # unit L2 norm with the partner
            if pair.block == "toroidal":
                f.psi[i1, i2] = vec
            else:
                f.phi[i1, i2] = vec
            return mirror(f)
    raise ValueError(f"no stored representative for mode {pair.mode}")


DEFAULT_SHIFT_GRID = (0.0,) + tuple(10.0**j for j in range(-3, 5))

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


def _c0_of_shift(ops, shift):
    c0 = np.inf
    for blk in ops.distinct_blocks():
        A = blk.K_a + shift * blk.M
        B = blk.h2_form()
        lam0 = sla.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0]
        c0 = min(c0, float(lam0))
    return c0


def garding_constants(ops, gamma0_grid=None, threshold=1e-10):
    """Measure c0(shift) over the shift grid and locate the coercive range."""
    grid = tuple(sorted(set(gamma0_grid if gamma0_grid is not None
                            else DEFAULT_SHIFT_GRID)))
    c0 = {g: _c0_of_shift(ops, g) for g in grid}
    passing = [g for g in grid if c0[g] > threshold]
    if not passing:
        return GardingReport(grid, c0, np.inf, np.inf, -np.inf, threshold)
    gmin = passing[0]
    grefined = gmin
    failing = [g for g in grid if g < gmin and c0[g] <= threshold]
    if failing:
        lo, hi = max(failing), gmin
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _c0_of_shift(ops, mid) > threshold:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-3 * max(hi, 1e-12):
                break
        grefined = hi
    return GardingReport(grid, c0, gmin, grefined, c0[gmin], threshold)


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


class SpectralFactors:
    """Per-block filter square roots and generator eigendecompositions.

    include_gradient=True builds the generator of the full stiff linear
    part beta^2 A - Lap (the form the time stepper treats implicitly);
    include_gradient=False is the bare beta^2-weighted form operator.
    """

    def __init__(self, ops, include_gradient=False):
        self.ops = ops
        self.include_gradient = include_gradient
        self._blocks = {}

    def block(self, blk):
        key = id(blk)
        if key not in self._blocks:
            mu, U = np.linalg.eigh(blk.M_lambda)
            if mu[0] <= 0:
                raise RuntimeError("filter form lost positivity (should not occur)")
            sq = (U * np.sqrt(mu)) @ U.T
            isq = (U / np.sqrt(mu)) @ U.T
            S = self.ops.params.beta**2 * blk.K_a
            if self.include_gradient:
                S = S + blk.K_grad
            D = isq @ S @ isq
            D = 0.5 * (D + D.T)
            dv, dV = np.linalg.eigh(D)
            self._blocks[key] = BlockFactors(sq, isq, D, dv, dV)
        return self._blocks[key]

    def semigroup_apply(self, blk, t, coeffs):
        """e^{-tD} applied to block coefficients."""
        fb = self.block(blk)
        return fb.d_eigvecs @ (np.exp(-t * fb.d_eigvals)
                               * (fb.d_eigvecs.T @ coeffs))

    def propagate_block(self, blk, t, c0):
        """Lambda^{-1/2} e^{-tD} Lambda^{1/2} applied to block coefficients."""
        fb = self.block(blk)
        return fb.inv_sqrt_lambda @ self.semigroup_apply(blk, t, fb.sqrt_lambda @ c0)

    def min_d_eigenvalue(self):
        vals = [self.block(b).d_eigvals[0] for b in self.ops.distinct_blocks()]
        return float(min(vals))


def lambda_sqrt_and_D(ops, include_gradient=False):
    """Factor container realizing Lambda^{+-1/2} and D per block."""
    return SpectralFactors(ops, include_gradient=include_gradient)
