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
become standard symmetric eigenproblems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisCache
from .field import layout_for, rowmul

#: multiplicity of each potential's rows in the full spectrum: a stored
#: mode also stands for its conjugate partner; the mean stands alone
MULTIPLICITY = (2.0, 2.0, 1.0)


@dataclass
class BlockOperators:
    """Assembled forms of one scalar block, in its orthonormal basis."""

    name: str
    n: int
    M: np.ndarray
    M_lambda: np.ndarray
    K_a: np.ndarray
    K_grad: np.ndarray
    K_bilap: np.ndarray  # volume part of a (k = 0); equals <Lap u, Lap w>

    def h2_form(self):
        return self.M + self.K_grad + self.K_bilap


class ModeOperators:
    """Forms of one wavenumber: toroidal+poloidal blocks, or the mean block."""

    def __init__(self, blocks):
        self.blocks = blocks  # dict name -> BlockOperators


def _wall_sum(tr):
    return tr[0][:, None] * tr[0][None, :] + tr[1][:, None] * tr[1][None, :]


def assemble_mode(k1, k2, params, geometry, resolution, cache=None):
    """Assemble the ModeOperators of one wavenumber pair.

    The result depends on the model only through gamma and k; the alpha
    dependence enters via M_lambda and the beta^2 scaling of K_a is applied
    by callers where the evolution equation requires it.
    """
    if cache is None:
        cache = BasisCache(geometry, resolution)
    blk = cache.block(k1, k2)
    s = geometry.area
    w = cache.w
    kk = params.k
    gam = params.gamma

    def gram(A, B):
        return (A.T * w) @ B

    if (k1, k2) == (0, 0):
        E = blk.tor.E
        t = blk.tor.tr
        M = s * gram(E[0], E[0])
        Kg = s * gram(E[1], E[1])
        Kb = s * gram(E[2], E[2])
        Ka = Kb - kk * s * _wall_sum([t[1][0], t[1][1]])
        b = BlockOperators("mean", blk.tor.n, M, M + params.alpha**2 * Kg, Ka, Kg, Kb)
        return ModeOperators({"mean": b})

    m = blk.m

    # toroidal block
    E = blk.tor.E
    t = blk.tor.tr
    M = s * m * gram(E[0], E[0])
    Kg = s * m * (gram(E[1], E[1]) + m * gram(E[0], E[0]))
    Kb = s * m * (gram(E[2], E[2]) + 2 * m * gram(E[1], E[1]) + m**2 * gram(E[0], E[0]))
    # transposed-gradient contribution: gamma * m^2 * integral of an exact
    # derivative; identically zero under Dirichlet but assembled as written
    Ktrans = s * gam * m * m * (2 * gram(E[1], E[1]) + gram(E[0], E[2]) + gram(E[2], E[0]))
    Ka = Kb + Ktrans - kk * s * m * _wall_sum([t[1][0], t[1][1]])
    tor = BlockOperators("toroidal", blk.tor.n, M, M + params.alpha**2 * Kg, Ka, Kg, Kb)

    # poloidal block
    E = blk.pol.E
    t = blk.pol.tr
    L0 = E[2] - m * E[0]
    L1 = E[3] - m * E[1]
    M = s * m * (gram(E[1], E[1]) + m * gram(E[0], E[0]))
    Kg = s * m * (gram(E[2], E[2]) + 2 * m * gram(E[1], E[1]) + m**2 * gram(E[0], E[0]))
    Kb = s * m * (gram(L1, L1) + m * gram(L0, L0))
    Ka = Kb - kk * s * m * _wall_sum([t[2][0], t[2][1]])
    pol = BlockOperators("poloidal", blk.pol.n, M, M + params.alpha**2 * Kg, Ka, Kg, Kb)

    return ModeOperators({"toroidal": tor, "poloidal": pol})


def apply_form(op_matrix, u_coeffs, v_coeffs):
    """Sesquilinear form value v* (matrix) u; conjugate-linear in v."""
    u = np.asarray(u_coeffs)
    v = np.asarray(v_coeffs)
    if op_matrix.shape != (v.size, u.size):
        raise ValueError(f"dimension mismatch: matrix {op_matrix.shape}, "
                         f"vectors {u.size}/{v.size}")
    return complex(np.vdot(v, op_matrix @ u))


class OperatorSet:
    """Assembled operators for every stored wavenumber at fixed parameters."""

    def __init__(self, params, geometry, resolution, cache=None):
        self.params = params
        self.geometry = geometry
        self.resolution = resolution
        self.cache = cache if cache is not None else BasisCache(geometry, resolution)
        self.layout = layout_for(resolution)
        self._ops = {}
        self._eig = {}
        self._forms = {}
        self._stacks = None

    def mode_ops(self, k1, k2):
        key = (abs(k1), abs(k2))
        if key not in self._ops:
            self._ops[key] = assemble_mode(key[0], key[1], self.params,
                                           self.geometry, self.resolution, self.cache)
        return self._ops[key]

    @property
    def mean_ops(self):
        return self.mode_ops(0, 0)

    # -- per-row stacks of block operators ---------------------------------

    def row_stacks(self, fn):
        """Per-row stacks of fn(block), one potential at a time.

        fn maps a BlockOperators to a tuple of (n,) or (n, n) arrays and is
        evaluated once per distinct block.  Yields the tuple stacked over
        rows for the toroidal (R, ...), poloidal (R, ...) and mean (1, ...)
        blocks, in the order of :meth:`SolenoidalField.potentials`.
        """
        groups = self.layout.groups
        sizes = [rows.stop - rows.start for rows in groups.values()]
        mean = fn(self.mean_ops.blocks["mean"])

        def stack(name, n):
            if not groups:  # a mean-only resolution stores no rows
                return tuple(np.zeros((0,) + (n,) * np.ndim(a)) for a in mean)
            parts = zip(*(fn(self.mode_ops(*key).blocks[name]) for key in groups))
            return tuple(np.repeat(np.array(p), sizes, axis=0) for p in parts)

        yield stack("toroidal", self.resolution.n_toroidal)
        yield stack("poloidal", self.resolution.n_poloidal)
        yield tuple(np.asarray(a)[None] for a in mean)

    def form_inner(self, form, u, v):
        """<form u, v> summed over the full Hermitian spectrum; real output."""
        if form not in self._forms:
            self._forms[form] = list(self.row_stacks(lambda b: (getattr(b, form),)))
        return sum(mult * np.vdot(cv, rowmul(K, cu)).real
                   for mult, (K,), cu, cv in zip(MULTIPLICITY, self._forms[form],
                                                 u.potentials(), v.potentials()))

    def form_energy(self, form, u):
        return self.form_inner(form, u, u)

    # -- spectral decomposition of the form operator ------------------------

    def block_eig(self, blk):
        """Eigendecomposition of K_a in the orthonormal basis (M = I)."""
        key = id(blk)
        if key not in self._eig:
            lam, V = np.linalg.eigh(blk.K_a)
            self._eig[key] = (lam, V)
        return self._eig[key]

    def distinct_blocks(self):
        for key in self.layout.groups:
            yield from self.mode_ops(*key).blocks.values()
        yield self.mean_ops.blocks["mean"]

    def spectral_shift(self):
        """Shift making the stationary operator spectrum nonnegative."""
        if getattr(self, "_shift", None) is None:
            self._shift = max(0.0, -min(self.block_eig(b)[0][0]
                                        for b in self.distinct_blocks()))
        return self._shift

    def a_scale_norms(self, f, shift=None):
        """Norms ||(A + shift)^{j/2} u|| for j = 0, 1, 2 plus Lambda-weighted j=2.

        The operator powers are realized through the per-block spectral
        calculus of the stationary form, stacked per row; shift defaults to
        the smallest value making the spectrum nonnegative.  A field too
        large for the squares gives inf, the watchdog's blow-up signal.
        """
        if shift is None:
            shift = self.spectral_shift()
        if self._stacks is None:
            def eig_stack(b):
                lam, V = self.block_eig(b)
                return lam, V.T, V.T @ b.M_lambda @ V
            self._stacks = list(self.row_stacks(eig_stack))
        sums = np.zeros(4)
        with np.errstate(over="ignore", invalid="ignore"):
            for mult, c, (lam, VT, G) in zip(MULTIPLICITY, f.potentials(),
                                             self._stacks):
                d = rowmul(VT, c)  # rows of c @ V
                lam_s = np.maximum(lam + shift, 0.0)
                p, y = np.abs(d) ** 2, lam_s * d
                sums += mult * np.array([p.sum(), (lam_s * p).sum(), (lam_s**2 * p).sum(),
                                         np.vdot(y, rowmul(G, y)).real])
            n0, n1, n2, n2L = np.sqrt(np.maximum(sums, 0.0))
        return {"A0": n0, "A_half": n1, "A1": n2, "A1_lambda": n2L,
                "shift": shift}
