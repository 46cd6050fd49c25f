"""Per-wavenumber assembly of the mass, filter, gradient and stationary forms.

For a tangential wavenumber eta (m = |eta|^2 > 0) the toroidal and poloidal
potential blocks decouple in every form appearing in the model.  With
s,p the toroidal/poloidal profiles, ' = d/dz and L = d^2/dz^2 - m, the
per-mode restrictions (all carrying the tangential area factor L1*L2) are

    <u, w>          = m<s s'> ... (toroidal)   m<p' q'> + m^2<p q> (poloidal)
    <grad u, grad w> = m(<s' q'> + m<s q>)      m(<p'' q''> + 2m<p' q'> + m^2<p q>)
    volume of a(u,w) = m(<s'' q''> + 2m<s' q'> + m^2<s q>)
                       m(<(Lp)' (Lq)'> + m<Lp Lq>)
    wall term of a   = -k m [s' q' + p'' q'']   summed over both walls,

where the wall term uses omega = n x d_n u at the walls (valid under
no-slip).  The transposed-gradient part of G integrates to a pure wall flux
of the toroidal potential and therefore vanishes identically on Dirichlet
data; it is still assembled (as exactly that flux combination) so the
dependence of the form on gamma is kept explicit.  The zero mode reduces to
two decoupled Dirichlet profiles with volume term <U'' V''> and wall term
-k[U'V'].

All matrices are expressed in the M-orthonormalized block bases of
:mod:`nsab.basis`, so M is the identity and symmetric generalized pencils
become standard symmetric eigenproblems.  :func:`toroidal_forms`,
:func:`poloidal_forms` and :func:`mean_forms` build the forms of all
distinct blocks at once, as (G, n, n) stacks of Gram products of the
tabulated block bases, with no per-block loop.  Block g of the stacks is
block group g of the field layout, which owns the numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisCache
from .field import rowmul

#: multiplicity of each potential's rows in the full spectrum: a stored
#: mode also stands for its conjugate partner; the mean stands alone
MULTIPLICITY = (2.0, 2.0, 1.0)


FORMS = ("M", "M_lambda", "K_a", "K_grad", "K_bilap")


@dataclass
class BlockOperators:
    """Assembled forms of one scalar block in its orthonormal basis, or of a
    stack of blocks: then each form is a (G, n, n) array."""

    name: str
    n: int
    M: np.ndarray
    M_lambda: np.ndarray
    K_a: np.ndarray
    K_grad: np.ndarray
    K_bilap: np.ndarray  # volume part of a (k = 0); equals <Lap u, Lap w>

    def h2_form(self):
        return self.M + self.K_grad + self.K_bilap

    def __getitem__(self, g):
        """Block g of a stack, as views."""
        return replace(self, **{f: getattr(self, f)[g] for f in FORMS})


def _gram(w, A, B):
    return (np.swapaxes(A, -1, -2) * w) @ B


def _wall_sum(t):
    # sum over the two walls of the outer products of (..., 2, n) traces
    return t[..., 0, :, None] * t[..., 0, None, :] + t[..., 1, :, None] * t[..., 1, None, :]


def _block(params, name, M, K_a, K_grad, K_bilap):
    return BlockOperators(name, M.shape[-1], M, M + params.alpha**2 * K_grad,
                          K_a, K_grad, K_bilap)


def toroidal_forms(params, cache, m, W):
    """Forms of the toroidal blocks with m = |eta|^2 (G,) > 0 and bases W
    (G, n, n), stacked (G, n, n).

    The result depends on the model only through gamma, k and alpha (via
    M_lambda); callers apply the beta^2 scaling of K_a.
    """
    s, w, m = cache.geometry.area, cache.w, m[:, None, None]
    E = [t @ W for t in cache.raw_T[:3]]
    G00, G11 = _gram(w, E[0], E[0]), _gram(w, E[1], E[1])
    K_grad = s * m * (G11 + m * G00)
    K_bilap = s * m * (_gram(w, E[2], E[2]) + 2 * m * G11 + m**2 * G00)
    # transposed-gradient contribution: gamma * m^2 * integral of an exact
    # derivative; identically zero under Dirichlet but assembled as written
    K_trans = s * params.gamma * m * m * (2 * G11 + _gram(w, E[0], E[2])
                                          + _gram(w, E[2], E[0]))
    K_a = K_bilap + K_trans - params.k * s * m * _wall_sum(cache.raw_T_tr[1] @ W)
    return _block(params, "toroidal", s * m * G00, K_a, K_grad, K_bilap)


def poloidal_forms(params, cache, m, W):
    """Forms of the poloidal blocks with m = |eta|^2 (G,) > 0 and bases W
    (G, n, n), stacked (G, n, n)."""
    s, w, m = cache.geometry.area, cache.w, m[:, None, None]
    E = [t @ W for t in cache.raw_C[:4]]
    L0, L1 = E[2] - m * E[0], E[3] - m * E[1]
    G00, G11 = _gram(w, E[0], E[0]), _gram(w, E[1], E[1])
    K_grad = s * m * (_gram(w, E[2], E[2]) + 2 * m * G11 + m**2 * G00)
    K_bilap = s * m * (_gram(w, L1, L1) + m * _gram(w, L0, L0))
    K_a = K_bilap - params.k * s * m * _wall_sum(cache.raw_C_tr[2] @ W)
    return _block(params, "poloidal", s * m * (G11 + m * G00), K_a, K_grad, K_bilap)


def mean_forms(params, cache):
    """Forms of the mean block, as a stack of one."""
    s, w, E = cache.geometry.area, cache.w, cache.mean_E
    K_bilap = s * _gram(w, E[2], E[2])
    K_a = K_bilap - params.k * s * _wall_sum(cache.mean_tr[1])
    return _block(params, "mean", s * _gram(w, E[0], E[0])[None], K_a[None],
                  s * _gram(w, E[1], E[1])[None], K_bilap[None])


class OperatorSet:
    """Assembled operators for every stored wavenumber at fixed parameters.

    ``blocks`` holds the (toroidal, poloidal, mean) forms as stacks over the
    distinct blocks, in the order of :meth:`SolenoidalField.potentials`;
    ``blocks[p][layout.block[row]]`` is the block of a row.
    """

    def __init__(self, params, geometry, resolution, cache=None):
        self.params = params
        self.geometry = geometry
        self.resolution = resolution
        self.cache = c = cache if cache is not None else BasisCache(geometry, resolution)
        self.layout = c.layout
        self.blocks = (toroidal_forms(params, c, c.m, c.W_tor),
                       poloidal_forms(params, c, c.m, c.W_pol),
                       mean_forms(params, c))
        self._memo = {}

    def _cached(self, key, build):
        """build(), computed once per key for this operator set."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- per-row stacks of block operators ---------------------------------

    def row_stacks(self, fn):
        """Per-row stacks of fn(blocks), one potential at a time.

        fn maps a stacked BlockOperators to a tuple of (G, ...) arrays
        (matmul, eigh and solve accept stacks) and runs once per potential.
        Yields the tuple gathered over rows for the toroidal (R, ...),
        poloidal (R, ...) and mean (1, ...) blocks, in the order of
        :meth:`SolenoidalField.potentials`.
        """
        tor, pol, mean = self.blocks
        for stack in (tor, pol):
            # gathered in C order: the BLAS path of the row-wise matmuls, and
            # so their rounding, does not depend on the layout fn returns
            yield tuple(np.ascontiguousarray(a)[self.layout.block] for a in fn(stack))
        yield fn(mean)

    def form_inner(self, form, u, v):
        """<form u, v> summed over the full Hermitian spectrum; real output."""
        stacks = self._cached(("form", form), lambda: list(
            self.row_stacks(lambda b: (getattr(b, form),))))
        return sum(mult * np.vdot(cv, rowmul(K, cu)).real
                   for mult, (K,), cu, cv in zip(MULTIPLICITY, stacks,
                                                 u.potentials(), v.potentials()))

    def form_energy(self, form, u):
        return self.form_inner(form, u, u)

    # -- spectral decomposition of the form operator ------------------------

    def block_eig(self, blk):
        """Eigendecomposition of K_a (a block or a stack) in the orthonormal
        basis (M = I); computed once for each of the stacks of ``blocks``."""
        for p, stack in enumerate(self.blocks):
            if blk is stack:
                return self._cached(("eig", p), lambda: np.linalg.eigh(blk.K_a))
        return np.linalg.eigh(blk.K_a)

    def spectral_shift(self):
        """Shift making the stationary operator spectrum nonnegative."""
        return self._cached("shift", lambda: max(0.0, -min(
            self.block_eig(b)[0][:, 0].min(initial=np.inf) for b in self.blocks)))

    def a_scale_norms(self, f, shift=None):
        """Norms ||(A + shift)^{j/2} u|| for j = 0, 1, 2 plus Lambda-weighted j=2.

        The operator powers are realized through the per-block spectral
        calculus of the stationary form, stacked per row; shift defaults to
        the smallest value making the spectrum nonnegative.  A field too
        large for the squares gives inf, the watchdog's blow-up signal.
        """
        if shift is None:
            shift = self.spectral_shift()

        def eig_stack(b):
            lam, V = self.block_eig(b)
            VT = np.swapaxes(V, 1, 2)
            return lam, VT, VT @ b.M_lambda @ V

        stacks = self._cached("norms", lambda: list(self.row_stacks(eig_stack)))
        sums = np.zeros(4)
        with np.errstate(over="ignore", invalid="ignore"):
            for mult, c, (lam, VT, G) in zip(MULTIPLICITY, f.potentials(), stacks):
                d = rowmul(VT, c)  # rows of c @ V
                lam_s = np.maximum(lam + shift, 0.0)
                p, y = np.abs(d) ** 2, lam_s * d
                sums += mult * np.array([p.sum(), (lam_s * p).sum(), (lam_s**2 * p).sum(),
                                         np.vdot(y, rowmul(G, y)).real])
            n0, n1, n2, n2L = np.sqrt(np.maximum(sums, 0.0))
        return {"A0": n0, "A_half": n1, "A1": n2, "A1_lambda": n2L,
                "shift": shift}
