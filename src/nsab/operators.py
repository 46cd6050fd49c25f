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
from .field import layout_for


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

    def __init__(self, eta, blocks):
        self.eta = eta
        self.m = eta[0] ** 2 + eta[1] ** 2
        self.blocks = blocks  # dict name -> BlockOperators

    def _full(self, attr):
        mats = [getattr(b, attr) for b in self.blocks.values()]
        out = np.zeros((sum(m.shape[0] for m in mats),) * 2)
        at = 0
        for m in mats:
            out[at:at + m.shape[0], at:at + m.shape[0]] = m
            at += m.shape[0]
        return out

    @property
    def M(self):
        return self._full("M")

    @property
    def M_lambda(self):
        return self._full("M_lambda")

    @property
    def K_a(self):
        return self._full("K_a")

    @property
    def K_grad(self):
        return self._full("K_grad")


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
        return ModeOperators((0.0, 0.0), {"mean1": b, "mean2": b})

    m = blk.m
    eta = cache.wavenumber(k1, k2)

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

    return ModeOperators(eta, {"toroidal": tor, "poloidal": pol})


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

    def mode_ops(self, k1, k2):
        key = (abs(k1), abs(k2))
        if key not in self._ops:
            self._ops[key] = assemble_mode(key[0], key[1], self.params,
                                           self.geometry, self.resolution, self.cache)
        return self._ops[key]

    @property
    def mean_ops(self):
        return self.mode_ops(0, 0)

    def iter_reps(self):
        for (i1, i2, k1, k2) in self.layout.reps:
            yield (i1, i2, k1, k2), self.mode_ops(k1, k2)

    # -- block-wise traversal of a field's coefficients ---------------------

    def field_blocks(self, f):
        """Yield (slot, block_ops, coeffs) covering the representative modes.

        slot is ("psi"|"phi", i1, i2) or ("mean", c); the coefficient vector
        is a view into the field.
        """
        for (i1, i2, k1, k2), mops in self.iter_reps():
            yield ("psi", i1, i2), mops.blocks["toroidal"], f.psi[i1, i2]
            yield ("phi", i1, i2), mops.blocks["poloidal"], f.phi[i1, i2]
        mean_blk = self.mean_ops.blocks["mean1"]
        for c in range(2):
            yield ("mean", c), mean_blk, f.mean[c]

    def form_inner(self, form, u, v):
        """<form u, v> summed over the full Hermitian spectrum; real output."""
        acc = 0.0
        for slot, blk, cu in self.field_blocks(u):
            mat = getattr(blk, form)
            cv = v.coeffs(slot)
            val = np.vdot(cv, mat @ cu).real
            acc += val if slot[0] == "mean" else 2.0 * val
        return acc

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
            mops = self.mode_ops(*key)
            yield mops.blocks["toroidal"]
            yield mops.blocks["poloidal"]
        yield self.mean_ops.blocks["mean1"]

    def spectral_shift(self):
        """Shift making the stationary operator spectrum nonnegative."""
        if getattr(self, "_shift", None) is None:
            self._shift = max(0.0, -min(self.block_eig(b)[0][0]
                                        for b in self.distinct_blocks()))
        return self._shift

    def a_scale_norms(self, f, shift=None):
        """Norms ||(A + shift)^{j/2} u|| for j = 0, 1, 2 plus Lambda-weighted j=2.

        The operator powers are realized through the per-block spectral
        calculus of the stationary form; shift defaults to the smallest
        value making the spectrum nonnegative.
        """
        if shift is None:
            shift = self.spectral_shift()
        n0 = n1 = n2 = n2L = 0.0
        for slot, blk, c in self.field_blocks(f):
            lam, V = self.block_eig(blk)
            d = V.conj().T @ c
            mult = 1.0 if slot[0] == "mean" else 2.0
            p = np.abs(d) ** 2
            lam_s = np.maximum(lam + shift, 0.0)
            n0 += mult * p.sum()
            n1 += mult * (lam_s * p).sum()
            n2 += mult * (lam_s**2 * p).sum()
            Ac = V @ (lam_s * d)
            n2L += mult * np.vdot(Ac, blk.M_lambda @ Ac).real
        return {"A0": np.sqrt(n0), "A_half": np.sqrt(n1),
                "A1": np.sqrt(n2), "A1_lambda": np.sqrt(max(n2L, 0.0)),
                "shift": shift}

    def sobolev_norms(self, f, shift=None):
        """L2/H1/H2 proxy norms and the A-scale norms of a field."""
        l2sq = self.form_energy("M", f)
        gradsq = self.form_energy("K_grad", f)
        bilapsq = self.form_energy("K_bilap", f)
        out = {
            "L2": np.sqrt(max(l2sq, 0.0)),
            "H1": np.sqrt(max(l2sq + gradsq, 0.0)),
            "H2": np.sqrt(max(l2sq + gradsq + bilapsq, 0.0)),
        }
        out.update(self.a_scale_norms(f, shift=shift))
        return out
