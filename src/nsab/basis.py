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
distinct m at once, as a (U, n, n) stack from one batched Cholesky
factorization per potential, with no per-block loop: block groups (|k1|,
|k2|) of bitwise-equal m, (a, b) and (b, a) on a square box, share a block.
The field layout (:class:`nsab.field.ModeLayout`) owns the one block
numbering and sorts a field's rows by it, and a field applies any stack
itself (:meth:`nsab.field.SolenoidalField.apply`), with no per-row gather.
"""

from __future__ import annotations

import numpy as np

from .field import layout_for

#: highest z-derivative order tabulated, at the nodes and on the walls; order
#: 5 is needed for the bilaplacian of poloidal-generated velocity components.
MAX_DERIV = 5


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


def recombined_bases(P, points, H, dmax):
    """Dirichlet and clamped recombinations and their z-derivatives at the
    given z points, from one Legendre table: two lists, d = 0..dmax, of
    (len(points), P - 1) and (len(points), P - 3) arrays."""
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


def _inv_chol_T(mass):
    """W = L^{-T} from the Cholesky factor of an SPD (stack of) mass
    matrices, so W^T mass W = I."""
    L = np.linalg.cholesky(mass)
    return np.linalg.solve(np.swapaxes(L, -1, -2),
                           np.broadcast_to(np.eye(L.shape[-1]), L.shape))


class BasisCache:
    """All basis data shared by assembly, reconstruction and projection.

    ``raw_T``/``raw_C`` tabulate the recombined bases and z-derivatives
    0..MAX_DERIV, (orders, points, n), at the nodes, ``raw_T_tr``/``raw_C_tr``
    on the walls, ``synth_T``/``synth_C`` those synthesis and analysis read.
    Blocks depend on the wavenumber only through m = |eta|^2: ``W_tor`` and
    ``W_pol`` (U, n, n) stack one per distinct m, ``m`` (U,), in the block
    numbering of the layout (``layout.block`` gives each row's), and act on
    a field's rows through :class:`nsab.field.BlockProduct`, which multiplies
    the rows from the right: analysis reads W, synthesis the contiguous
    transposes ``W_tor_T``/``W_pol_T``.  The mean block has
    ``mean_W`` and its own tables ``mean_E``/``mean_tr``
    (``raw_T``/``raw_T_tr`` times ``mean_W``).
    """

    def __init__(self, geometry, resolution):
        self.geometry = geometry
        self.resolution = resolution
        self.layout = layout_for(geometry, resolution)
        H, P, Q, area = geometry.H, resolution.P, resolution.Q, geometry.area
        self.z, self.w = gauss_legendre(Q, H)
        # nodes and walls in one table: the recurrence is pointwise, so each
        # row is bitwise the row of a table of its own points
        T, C = map(np.stack, recombined_bases(P, np.append(self.z, (0.0, H)), H, MAX_DERIV))
        self.raw_T, self.raw_T_tr = T[:, :Q], T[:, Q:]
        self.raw_C, self.raw_C_tr = C[:, :Q], C[:, Q:]
        self.synth_T, self.synth_C = (np.hstack([t.T for t in tabs])
                                      for tabs in (self.raw_T[:MAX_DERIV], self.raw_C))
        # mean block: plain L^2 mass, one copy shared by both components
        T0 = self.raw_T[0]
        self.mean_W = _inv_chol_T(area * (T0.T * self.w) @ T0)
        self.mean_E = np.stack([t @ self.mean_W for t in self.raw_T])
        self.mean_tr = [t @ self.mean_W for t in self.raw_T_tr]
        self.m = self.layout.m
        self.W_tor, self.W_pol = self.bases(self.m)
        self.W_tor_T, self.W_pol_T = (np.ascontiguousarray(np.swapaxes(W, 1, 2))
                                      for W in (self.W_tor, self.W_pol))

    def bases(self, m):
        """Toroidal and poloidal W stacks (U, n, n) of the blocks with
        m = |eta|^2 > 0, m of shape (U,): one batched Cholesky factorization
        each of the masses area m <T, T> and area (m <C', C'> + m^2 <C, C>)."""
        area, w = self.geometry.area, self.w
        m = m[:, None, None]
        T0, (C0, C1) = self.raw_T[0], self.raw_C[:2]
        return (_inv_chol_T(m * area * (T0.T * w) @ T0),
                _inv_chol_T(area * (m * (C1.T * w) @ C1 + m * m * (C0.T * w) @ C0)))
