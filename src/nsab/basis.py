"""Wall-normal polynomial bases and per-wavenumber basis caches.

The divergence constraint is built into the velocity representation: for
each nonzero tangential wavenumber eta the velocity is generated by a
toroidal potential psi and a poloidal potential phi,

    u = curl(psi e3) + curl curl(phi e3)
      = (i eta2 psi + i eta1 phi',  -i eta1 psi + i eta2 phi',  |eta|^2 phi),

with ' = d/dz, and the zero mode carries two mean profiles (U1(z), U2(z), 0).
No-slip walls translate into essential conditions psi = 0 (Dirichlet) and
phi = phi' = 0 (clamped) at z = 0, H; mean profiles are Dirichlet.

Bases are Legendre recombinations on the reference interval [-1, 1]:

    Dirichlet:  T_j = P_j - P_{j+2},                       j = 0..P-2,
    clamped:    C_j = P_j - 2(2j+5)/(2j+7) P_{j+2}
                     + (2j+3)/(2j+7) P_{j+4},              j = 0..P-4,

mapped to [0, H].  Each block is then orthonormalized against its own mass
form (which carries the tangential area factor L1*L2 and the |eta|^2 weights
of the potential representation), so the block mass matrix is the identity
and generalized eigenproblems downstream become standard symmetric ones.

The mass forms depend on the wavenumber only through m = |eta|^2:
area * m <T, T> (toroidal) and area * (m <C', C'> + m^2 <C, C>)
(poloidal).  :class:`BasisCache` builds the change of basis of every
distinct block at once, as a (G, n, n) stack from one batched Cholesky
factorization per potential, with no per-block loop.
"""

from __future__ import annotations

import numpy as np

#: highest z-derivative order tabulated for interior evaluation; order 5 is
#: needed for the bilaplacian of poloidal-generated velocity components.
MAX_DERIV = 5
#: highest derivative order tabulated on the walls (boundary tractions).
MAX_TRACE_DERIV = 3


def legendre_table(x, nmax, dmax):
    """Table T[d, n, j] = d-th derivative of P_n at x[j], n <= nmax, d <= dmax.

    Recurrence (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}, differentiated d
    times: (n+1) P_{n+1}^(d) = (2n+1) (x P_n^(d) + d P_n^(d-1)) - n P_{n-1}^(d).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    T = np.zeros((dmax + 1, nmax + 1, x.size))
    T[0, 0] = 1.0
    if nmax >= 1:
        T[0, 1] = x
        if dmax >= 1:
            T[1, 1] = 1.0
    d = np.arange(1, dmax + 1)[:, None]
    for n in range(1, nmax):  # all orders d at once; d = 0 has no lower term
        T[0, n + 1] = ((2 * n + 1) * (x * T[0, n]) - n * T[0, n - 1]) / (n + 1)
        T[1:, n + 1] = ((2 * n + 1) * (x * T[1:, n] + d * T[:-1, n])
                        - n * T[1:, n - 1]) / (n + 1)
    return T


def gauss_legendre(Q, H):
    """Q-point Gauss-Legendre nodes/weights on [0, H], nodes ascending."""
    x, w = np.polynomial.legendre.leggauss(Q)
    return 0.5 * H * (x + 1.0), 0.5 * H * w


def _bases(P, points, H, dmax):
    """Dirichlet and clamped recombinations at z points, from one Legendre
    table: lists of (len(points), n) arrays, d = 0..dmax."""
    T = legendre_table(2.0 * np.asarray(points, dtype=float) / H - 1.0, P, dmax)
    j = np.arange(P - 3)
    c2 = 2.0 * (2 * j + 5) / (2 * j + 7)
    c4 = (2.0 * j + 3) / (2 * j + 7)
    scale = 2.0 / H  # chain rule for d/dz
    return ([np.ascontiguousarray((T[d, :P - 1, :] - T[d, 2:P + 1, :]).T * scale**d)
             for d in range(dmax + 1)],
            [np.ascontiguousarray((T[d, :P - 3, :] - c2[:, None] * T[d, 2:P - 1, :]
                                   + c4[:, None] * T[d, 4:P + 1, :]).T * scale**d)
             for d in range(dmax + 1)])


def dirichlet_basis(P, points, H, dmax=MAX_DERIV):
    """Values/derivatives of the Dirichlet recombination at given z points.

    Returns a list B with B[d] of shape (len(points), P-1).
    """
    return _bases(P, points, H, dmax)[0]


def clamped_basis(P, points, H, dmax=MAX_DERIV):
    """Values/derivatives of the clamped recombination, shape (npts, P-3)."""
    return _bases(P, points, H, dmax)[1]


def _inv_chol_T(mass):
    """W = L^{-T} from the Cholesky factor of an SPD (stack of) mass
    matrices, so W^T mass W = I."""
    L = np.linalg.cholesky(mass)
    return np.linalg.solve(np.swapaxes(L, -1, -2),
                           np.broadcast_to(np.eye(L.shape[-1]), L.shape))


class BlockBasis:
    """The orthonormal basis of one scalar block: W (n, n) maps orthonormal
    coefficients to the raw recombined basis."""

    def __init__(self, W):
        self.W = W
        self.n = W.shape[0]

    def evaluate(self, points, H, P, kind, dmax=MAX_DERIV):
        """Orthonormal basis values/derivatives at arbitrary z points."""
        raw = (dirichlet_basis if kind == "dirichlet" else clamped_basis)(P, points, H, dmax)
        return [r @ self.W for r in raw]


class ModeBasis:
    """Toroidal + poloidal blocks for one |wavenumber| pair, or the mean block."""

    def __init__(self, m, tor, pol):
        self.m = m
        self.tor = tor
        self.pol = pol


class BasisCache:
    """All basis data shared by assembly, reconstruction and projection.

    ``raw_T``/``raw_C`` tabulate the raw recombined bases and their
    z-derivatives at the quadrature nodes, ``raw_T_tr``/``raw_C_tr`` on the
    walls.  Blocks depend on the wavenumber only through m = |eta|^2; the
    distinct ones, keyed by (|k1|, |k2|) != (0, 0), are numbered by
    :meth:`block_number`, and ``m`` (G,), ``W_tor`` and ``W_pol`` (G, n, n)
    hold their m and changes of basis (:meth:`bases`).  The mean block has
    ``mean_W`` and its own tables ``mean_E``/``mean_tr`` (``raw_T``/
    ``raw_T_tr`` times ``mean_W``).
    """

    def __init__(self, geometry, resolution):
        self.geometry = geometry
        self.resolution = resolution
        H, P, area = geometry.H, resolution.P, geometry.area
        self.z, self.w = gauss_legendre(resolution.Q, H)
        self.raw_T, self.raw_C = _bases(P, self.z, H, MAX_DERIV)
        self.raw_T_tr, self.raw_C_tr = _bases(P, [0.0, H], H, MAX_TRACE_DERIV)
        # mean block: plain L^2 mass, one copy shared by both components
        T0 = self.raw_T[0]
        self.mean_W = _inv_chol_T(area * (T0.T * self.w) @ T0)
        self.mean_E = [t @ self.mean_W for t in self.raw_T]
        self.mean_tr = [t @ self.mean_W for t in self.raw_T_tr]
        # the stored |k1| <= N1/2 - 1, |k2| <= K2 = N2/2 - 1
        self.K2 = resolution.N2 // 2 - 1
        k1, k2 = np.divmod(np.arange(1, resolution.N1 // 2 * (self.K2 + 1)), self.K2 + 1)
        e1, e2 = self.wavenumber(k1, k2)
        self.m = e1 * e1 + e2 * e2
        self.W_tor, self.W_pol = self.bases(self.m)
        self._stacks = {}

    def bases(self, m):
        """Toroidal and poloidal W stacks (G, n, n) of the blocks with
        m = |eta|^2 > 0, m of shape (G,): one batched Cholesky factorization
        each of the masses area m <T, T> and area (m <C', C'> + m^2 <C, C>)."""
        area, w = self.geometry.area, self.w
        m = m[:, None, None]
        T0, (C0, C1) = self.raw_T[0], self.raw_C[:2]
        return (_inv_chol_T(m * area * (T0.T * w) @ T0),
                _inv_chol_T(area * (m * (C1.T * w) @ C1 + m * m * (C0.T * w) @ C0)))

    def wavenumber(self, k1, k2):
        g = self.geometry
        return 2.0 * np.pi * k1 / g.L1, 2.0 * np.pi * k2 / g.L2

    def block_number(self, k1, k2):
        """Index in the stacks of the block of stored nonzero wavenumbers
        (k1, k2), ints or arrays."""
        return np.abs(k1) * (self.K2 + 1) + np.abs(k2) - 1

    def block(self, k1, k2):
        """The bases of one wavenumber pair, stored or not; (0, 0) is the
        mean block."""
        if (k1, k2) == (0, 0):
            return ModeBasis(0.0, BlockBasis(self.mean_W), None)
        e1, e2 = self.wavenumber(k1, k2)
        m = e1 * e1 + e2 * e2
        W_tor, W_pol = self.bases(np.array([m]))
        return ModeBasis(m, BlockBasis(W_tor[0]), BlockBasis(W_pol[0]))

    def row_stacks(self, keys):
        """m (R, 1) and the W stacks (R, n, n) of the toroidal and poloidal
        blocks of rows keyed keys[r] = (|k1|, |k2|); gathered once per keys."""
        if keys not in self._stacks:
            g = self.block_number(*np.array(keys, int).reshape(-1, 2).T)
            self._stacks[keys] = (self.m[g, None], self.W_tor[g], self.W_pol[g])
        return self._stacks[keys]
