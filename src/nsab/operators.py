"""Per-wavenumber assembly of the gradient and stationary forms.

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
:mod:`nsab.basis`, so M is the identity by construction and is not stored:
symmetric generalized pencils become standard symmetric eigenproblems,
M_Lambda = I + alpha^2 K_grad is formed where it is read, and the watchdog
norms of :meth:`OperatorSet.a_scale_norms` are quadratic forms of K_a and K_grad.
:func:`toroidal_forms`, :func:`poloidal_forms` and :func:`mean_forms`
build the forms of all distinct blocks at once, one per distinct
m = |eta|^2, as (U, n, n) stacks of Gram products of the tabulated block
bases, with no per-block loop; ``ModeLayout.block`` gives each row's block,
and :meth:`nsab.field.SolenoidalField.apply` applies the stacks to a field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import BasisCache
from .field import BlockProduct, SolenoidalField, zero_field


FORMS = ("K_a", "K_grad", "K_bilap")


@dataclass
class BlockOperators:
    """Assembled forms of one scalar block in its orthonormal basis (M = I),
    or of a stack of blocks: then each form is a (U, n, n) array."""

    name: str
    n: int
    alpha2: float
    K_a: np.ndarray
    K_grad: np.ndarray
    K_bilap: np.ndarray  # volume part of a (k = 0); equals <Lap u, Lap w>

    @property
    def M_lambda(self):
        """The filter form I + alpha^2 K_grad, formed on each read."""
        return np.eye(self.n) + self.alpha2 * self.K_grad

    def h2_form(self):
        return np.eye(self.n) + self.K_grad + self.K_bilap

    def __getitem__(self, g):
        """Block g of a stack, as views."""
        return replace(self, **{f: getattr(self, f)[g] for f in FORMS})


def _gram(w, A, B):
    return (np.swapaxes(A, -1, -2) * w) @ B


def _wall_sum(t):
    # sum over the two walls of the outer products of (..., 2, n) traces
    return t[..., 0, :, None] * t[..., 0, None, :] + t[..., 1, :, None] * t[..., 1, None, :]


def toroidal_forms(params, cache, m, W):
    """Forms of the toroidal blocks with m = |eta|^2 (U,) > 0 and bases W
    (U, n, n), stacked (U, n, n).

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
    return BlockOperators("toroidal", W.shape[-1], params.alpha**2, K_a, K_grad, K_bilap)


def poloidal_forms(params, cache, m, W):
    """Forms of the poloidal blocks with m = |eta|^2 (U,) > 0 and bases W
    (U, n, n), stacked (U, n, n)."""
    s, w, m = cache.geometry.area, cache.w, m[:, None, None]
    E = [t @ W for t in cache.raw_C[:4]]
    L0, L1 = E[2] - m * E[0], E[3] - m * E[1]
    G00, G11 = _gram(w, E[0], E[0]), _gram(w, E[1], E[1])
    K_grad = s * m * (_gram(w, E[2], E[2]) + 2 * m * G11 + m**2 * G00)
    K_bilap = s * m * (_gram(w, L1, L1) + m * _gram(w, L0, L0))
    K_a = K_bilap - params.k * s * m * _wall_sum(cache.raw_C_tr[2] @ W)
    return BlockOperators("poloidal", W.shape[-1], params.alpha**2, K_a, K_grad, K_bilap)


def mean_forms(params, cache):
    """Forms of the mean block, as a stack of one."""
    s, w, E = cache.geometry.area, cache.w, cache.mean_E
    K_bilap = s * _gram(w, E[2], E[2])
    K_a = K_bilap - params.k * s * _wall_sum(cache.mean_tr[1])
    return BlockOperators("mean", K_a.shape[-1], params.alpha**2, K_a[None],
                          s * _gram(w, E[1], E[1])[None], K_bilap[None])


class OperatorSet:
    """Assembled operators for every stored wavenumber at fixed parameters.

    ``blocks`` holds the (toroidal, poloidal, mean) forms as stacks over the
    distinct m, in the order of :meth:`SolenoidalField.potentials`;
    ``blocks[p][layout.block[row]]`` is the block of a row, and a field
    applies a form through :meth:`stacks`: ``u.apply(ops.stacks("K_a"))``,
    or through the set's planned products, :meth:`apply`.  The set keeps
    the plans of its run (:meth:`plan`): they bind its basis and stacks,
    and go with it; among them the eigenpairs of the K_a blocks its
    stationary solves diagonalized (:meth:`eigh`).
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
        self._transposed, self._plans = {}, {}

    def plan(self, key, build):
        """The plan of this set under key, build() on first use."""
        if key not in self._plans:
            self._plans[key] = build()
        return self._plans[key]

    def products(self, form, lead):
        """The planned products of form, one per potential, for fields with
        member axes lead: each reads its input rows ``x``, which the products
        of all forms share, and writes their shared output rows ``out``."""
        rows = self.plan(("rows", lead), lambda: [
            (np.empty(lead + c.shape), np.empty(lead + c.shape))
            for c in zero_field(self.geometry, self.resolution).potentials()])
        return self.plan((form, lead), lambda: [
            BlockProduct(S, x, y, runs)
            for S, (x, y), runs in zip(self.stacks(form), rows, self.layout.potential_buckets)])

    def apply(self, form, f):
        """f times form, bitwise as ``f.apply(self.stacks(form))``, by this
        set's planned products for f's member axes (:meth:`products`): f is
        copied into their input rows, and the result views their output
        rows, so it holds until the next :meth:`apply` to fields of f's
        shape."""
        products = self.products(form, f.mean.shape[:-2])
        for product, c in zip(products, f.potentials()):
            np.copyto(product.x, c)
            product()
        return SolenoidalField(f.geometry, f.resolution, *(p.out for p in products))

    def stacks(self, form):
        """The (toroidal, poloidal, mean) stacks of form, each transposed and
        contiguous, as :meth:`SolenoidalField.apply` reads them: x @ K^T
        applies K to each row x with the products of K @ x (a stored form is
        symmetric only to its rounding).  Built on first read of a form."""
        if form not in self._transposed:
            self._transposed[form] = [np.swapaxes(getattr(blk, form), 1, 2).copy()
                                      for blk in self.blocks]
        return self._transposed[form]

    def form_inner(self, form, u, v):
        """<form u, v> summed over the full Hermitian spectrum; real output."""
        return self.apply(form, u).dot(v)

    def eigh(self, p, need):
        """Eigenpairs (lam, V) of the K_a stack ``blocks[p]`` (M = I) with
        every block of the mask need diagonalized: the set keeps each block
        it solved, so no block is solved twice.  A block never solved holds
        lam = 1 and V = 0."""
        K = self.blocks[p].K_a
        lam, V, done = self.plan(("eigh", p), lambda: (
            np.ones(K.shape[:2]), np.zeros(K.shape), np.zeros(len(K), bool)))
        new = need & ~done
        if new.any():
            lam[new], V[new] = np.linalg.eigh(K[new])
            done |= new
        return lam, V

    @cached_property
    def shift(self):
        """Shift making the stationary operator spectrum nonnegative."""
        return max(0.0, -lowest_eigenvalue(b.K_a for b in self.blocks))

    def a_scale_norms(self, f):
        """Norms ||(A + s)^{j/2} u||, j = 0, 1, 2, and the Lambda-weighted j = 2
        norm, s = :attr:`shift`; with ||u||^2, a(u, u) and <K_grad u, u>
        bitwise as ``u.dot(u)`` and :meth:`form_inner` give them.

        As M = I, all are quadratic forms of the per-block K_a and K_grad: with
        z = (K_a + s) c, A0^2 = ||u||^2, A_half^2 = a(u, u) + s A0^2, A1^2 =
        ||z||^2 and A1_lambda^2 = <M_Lambda z, z> = A1^2 + alpha^2 <K_grad z, z>.
        The call applies K_a once, by the planned products of f's member axes
        (:meth:`products`; f is copied into their input rows), and sums as
        ``SolenoidalField.dot`` does over views of those rows; grad_sq and
        A1_lambda, which only energy reports read, apply K_grad on first read
        (:class:`ScaleNorms`), to f as it is then and the latter to z (arrays
        of its own) with some rows rounded once (:meth:`_rounded_once`).
        For finite c, a square that overflows (to inf, -inf or nan) gives an
        inf norm: the watchdog's blow-up signal.
        """
        lead, s, a2 = f.mean.shape[:-2], self.shift, self.params.alpha**2
        products = self.products("K_a", lead)

        def plan():
            # the products' input and output rows as fields, and rows for s c
            x, kf = zip(*((p.x, p.out) for p in products))
            return (SolenoidalField(self.geometry, self.resolution, *x),
                    SolenoidalField(self.geometry, self.resolution, *kf),
                    [np.empty(c.shape) for c in x])

        x, kf, scaled = self.plan(("a_scale", lead), plan)
        with np.errstate(over="ignore", invalid="ignore"):
            for product, c, t in zip(products, f.potentials(), scaled):
                np.copyto(product.x, c)
                product()
                np.multiply(product.x, s, out=t)
            z = kf._map(np.add, scaled)  # fresh: A1_lambda reads it later
            l2sq, a_uu, z2 = x.dot(x), kf.dot(x), z.dot(z)
            n0, n1, n2 = _root(np.array([l2sq, a_uu + s * l2sq, z2]))
        sn = ScaleNorms(A0=n0, A_half=n1, A1=n2, shift=s, l2_sq=l2sq, a_uu=a_uu)
        sn.later = {"grad_sq": lambda: self.form_inner("K_grad", f, f),
                    "A1_lambda": lambda: _root(z2 + a2 * self.form_inner(
                        "K_grad", self._rounded_once(f, z), z))}
        return sn

    def _rounded_once(self, f, z):
        """z = (K_a + s) c of :meth:`a_scale_norms`, in place, with the rows
        where its roundoff weighs most in <K_grad z, z>, the mean's and the
        smallest-m toroidal block's, rounded once from long double."""
        m, block, s = self.layout.m, self.layout.block, np.longdouble(self.shift)
        low = np.flatnonzero(m[block] == m.min(initial=np.inf))
        K_tor, _, K_mean = self.stacks("K_a")
        # rows as blockmul multiplies them: the mean's two rows U1, U2 as
        # the two planes of one row
        for c, zc, rows, KT in ((f.mean[..., None, :, :], z.mean[..., None, :, :], [0], K_mean),
                                (f.psi, z.psi, low, K_tor[block[low]])):
            x = c[..., rows, :, :].astype(np.longdouble)
            zc[..., rows, :, :] = x @ KT.astype(np.longdouble) + s * x
        return z


def lowest_eigenvalue(stacks):
    """The lowest eigenvalue over symmetric (U, n, n) stacks where one is
    negative, else a number >= 0.  A stack with a float64 Cholesky factor
    (an empty stack too) counts as 0.0; only a stack that does not factor
    has its lowest eigenvalues computed."""
    def lowest(K):
        try:
            np.linalg.cholesky(K)
            return 0.0
        except np.linalg.LinAlgError:
            return np.linalg.eigvalsh(K)[:, 0].min(initial=np.inf)
    return min(lowest(K) for K in stacks)


def lowest_above(K, t):
    """Mask of the blocks of a symmetric (U, n, n) stack K whose lowest
    eigenvalue a float64 Cholesky factor of K - t I (t one shift per block)
    certifies above t: a factor exists only for a matrix that is positive
    definite up to a backward error of order n u ||K|| (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 10).  The
    stack is factored in one batched call; a call that fails is split in
    halves until each failing block stands alone."""
    def factors(A):
        try:
            np.linalg.cholesky(A)
            return np.ones(len(A), bool)
        except np.linalg.LinAlgError:
            if len(A) == 1:
                return np.zeros(1, bool)
            return np.concatenate([factors(A[:len(A) // 2]), factors(A[len(A) // 2:])])
    return factors(K - t[:, None, None] * np.eye(K.shape[-1]))


def _root(sq):
    """sqrt of squares of norms, inf where a square overflowed."""
    return np.sqrt(np.where(np.isfinite(sq), np.maximum(sq, 0.0), np.inf))


class ScaleNorms(dict):
    """Norms whose entries in ``later`` (name -> function) are computed on first read."""

    def __missing__(self, key):
        with np.errstate(over="ignore", invalid="ignore"):
            self[key] = self.later[key]()
        return self[key]
