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
    for n in range(1, nmax):
        for d in range(dmax + 1):
            lower = d * T[d - 1, n] if d > 0 else 0.0
            T[d, n + 1] = ((2 * n + 1) * (x * T[d, n] + lower) - n * T[d, n - 1]) / (n + 1)
    return T


def gauss_legendre(Q, H):
    """Q-point Gauss-Legendre nodes/weights on [0, H], nodes ascending."""
    x, w = np.polynomial.legendre.leggauss(Q)
    return 0.5 * H * (x + 1.0), 0.5 * H * w


def dirichlet_basis(P, points, H, dmax=MAX_DERIV):
    """Values/derivatives of the Dirichlet recombination at given z points.

    Returns a list B with B[d] of shape (len(points), P-1).
    """
    zeta = 2.0 * np.asarray(points, dtype=float) / H - 1.0
    T = legendre_table(zeta, P, dmax)
    scale = 2.0 / H  # chain rule for d/dz
    out = []
    for d in range(dmax + 1):
        vals = (T[d, :P - 1, :] - T[d, 2:P + 1, :]).T * scale**d
        out.append(np.ascontiguousarray(vals))
    return out


def clamped_basis(P, points, H, dmax=MAX_DERIV):
    """Values/derivatives of the clamped recombination, shape (npts, P-3)."""
    zeta = 2.0 * np.asarray(points, dtype=float) / H - 1.0
    T = legendre_table(zeta, P, dmax)
    j = np.arange(P - 3)
    c2 = 2.0 * (2 * j + 5) / (2 * j + 7)
    c4 = (2.0 * j + 3) / (2 * j + 7)
    scale = 2.0 / H
    out = []
    for d in range(dmax + 1):
        vals = (T[d, :P - 3, :] - c2[:, None] * T[d, 2:P - 1, :]
                + c4[:, None] * T[d, 4:P + 1, :]).T * scale**d
        out.append(np.ascontiguousarray(vals))
    return out


class BlockBasis:
    """One orthonormalized scalar basis block at a fixed wavenumber modulus.

    Attributes
    ----------
    E : list of (Q, n) arrays, d-th z-derivative of the orthonormalized basis
        at the quadrature nodes, d = 0..MAX_DERIV.
    tr : list of (2, n) arrays, d-th derivative at the walls (z=0 row 0,
        z=H row 1), d = 0..MAX_TRACE_DERIV.
    W : (n, n) change of basis from orthonormal coefficients to the raw
        recombined basis.
    """

    def __init__(self, raw_E, raw_tr, mass):
        # mass is the raw SPD mass matrix of this block; W = L^{-T} from its
        # Cholesky factor makes W^T mass W = I.
        L = np.linalg.cholesky(mass)
        n = mass.shape[0]
        self.W = np.linalg.solve(L.T, np.eye(n))
        self.E = [e @ self.W for e in raw_E]
        self.tr = [t @ self.W for t in raw_tr]
        self.n = n

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

    Blocks depend on the wavenumber only through m = |eta|^2, so they are
    keyed by (|k1|, |k2|).  The (0, 0) key holds the mean-profile block.
    ``raw_T``/``raw_C`` and their wall traces ``raw_T_tr``/``raw_C_tr`` are
    the tables all blocks share: a block's ``E[d]`` is ``raw_T[d] @ W``.
    """

    def __init__(self, geometry, resolution):
        self.geometry = geometry
        self.resolution = resolution
        self.z, self.w = gauss_legendre(resolution.Q, geometry.H)
        wall_pts = np.array([0.0, geometry.H])
        P = resolution.P
        self.raw_T = dirichlet_basis(P, self.z, geometry.H)
        self.raw_C = clamped_basis(P, self.z, geometry.H)
        self.raw_T_tr = dirichlet_basis(P, wall_pts, geometry.H, MAX_TRACE_DERIV)
        self.raw_C_tr = clamped_basis(P, wall_pts, geometry.H, MAX_TRACE_DERIV)
        self._blocks = {}
        self._stacks = {}

    def wavenumber(self, k1, k2):
        g = self.geometry
        return 2.0 * np.pi * k1 / g.L1, 2.0 * np.pi * k2 / g.L2

    def block(self, k1, k2):
        key = (abs(k1), abs(k2))
        if key not in self._blocks:
            self._blocks[key] = self._build(key)
        return self._blocks[key]

    def row_stacks(self, keys):
        """m (R, 1) and the W stacks (R, n, n) of the toroidal and poloidal
        blocks of rows keyed keys[r] = (|k1|, |k2|); built once per keys."""
        if keys not in self._stacks:
            blks = [self.block(*key) for key in keys]
            n_t, n_p = self.resolution.n_toroidal, self.resolution.n_poloidal
            self._stacks[keys] = (np.array([b.m for b in blks]).reshape(-1, 1),
                                  np.array([b.tor.W for b in blks]).reshape(-1, n_t, n_t),
                                  np.array([b.pol.W for b in blks]).reshape(-1, n_p, n_p))
        return self._stacks[keys]

    def _build(self, key):
        area = self.geometry.area
        w = self.w
        if key == (0, 0):
            # mean block: plain L^2 mass, one copy shared by both components
            mass = area * (self.raw_T[0].T * w) @ self.raw_T[0]
            blk = BlockBasis(self.raw_T, self.raw_T_tr, mass)
            return ModeBasis(0.0, blk, None)
        e1, e2 = self.wavenumber(*key)
        m = e1 * e1 + e2 * e2
        # toroidal velocity (i eta2 T, -i eta1 T, 0): mass = m * area * Gram
        mass_t = m * area * (self.raw_T[0].T * w) @ self.raw_T[0]
        tor = BlockBasis(self.raw_T, self.raw_T_tr, mass_t)
        # poloidal velocity (i eta1 C', i eta2 C', m C):
        # mass = area * (m <C'C'> + m^2 <CC>)
        mass_p = area * (m * (self.raw_C[1].T * w) @ self.raw_C[1]
                         + m * m * (self.raw_C[0].T * w) @ self.raw_C[0])
        pol = BlockBasis(self.raw_C, self.raw_C_tr, mass_p)
        return ModeBasis(m, tor, pol)
