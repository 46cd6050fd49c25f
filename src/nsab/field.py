"""Divergence-free velocity fields as toroidal/poloidal potential coefficients.

Storage layout
--------------
A real field's tangential spectrum is Hermitian, coef(-k) = conj(coef(k)),
so only the representative modes are stored: k1 > 0, or k1 = 0 < k2, for
wavenumbers k in [-N/2, N/2) without the Nyquist values -N/2.  The
potentials ``psi`` and ``phi`` are (R, n) arrays with one row per
representative, R = ((N1 - 1)(N2 - 1) - 1) / 2; the (0,0) slot is carried
separately as two real mean profiles (U1(z), U2(z), 0).  Rows are ordered by
block group - the modes (k1, k2) sharing |k1|, |k2| and therefore one basis
block - so each group is a contiguous (g, n) slice (:class:`ModeLayout`).

Coefficients are expressed in the per-block orthonormalized bases of
:mod:`nsab.basis`, so the L2 inner product of two fields is the Hermitian
dot product of their rows, counted twice for the conjugate partners, plus
the dot product of the mean rows.

This module and the snapshot file boundary are the only places that know
that layout.  :meth:`SolenoidalField.coeffs` addresses one group's rows by
the slot keys of :meth:`nsab.operators.OperatorSet.field_blocks`.

One synthesis/analysis pair maps between coefficients and Fourier-side
profiles at the quadrature nodes on any A x B tangential mode grid, mode
(k1, k2) sitting at (k1 % A, k2 % B):

* :func:`synthesize` evaluates velocity (and, on request, the curl of the
  filtered velocity v = (1 - alpha^2 Lap) u and Lap^2 u), and is the only
  code that writes the conjugate partners of a field's profiles;
  :func:`reconstruct` transforms the k2 >= 0 half of them to the padded
  physical grid with a real inverse FFT;
* :func:`analyze` is its L2 adjoint, the Galerkin projection onto the
  solenoidal test basis, which realizes the Leray projection when fed an
  arbitrary vector field.  It reads the representative modes only.
  :func:`project_velocity` applies it to gridded samples, the nonlinear
  term to the rotational product (curl v) x u and the forcing dual to
  profiles on the N1 x N2 storage grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisCache


def _int_freqs(N):
    return np.rint(np.fft.fftfreq(N) * N).astype(int)


class ModeLayout:
    """Rows of the representative tangential modes.

    ``reps`` lists the representatives (k1, k2) in fft traversal order;
    ``groups`` maps each block key (|k1|, |k2|) to its slice of rows, in
    order of first appearance in ``reps``; rows within a group keep the
    ``reps`` order.  ``k`` is the (R, 2) array of row wavenumbers and
    ``row`` the (k1, k2) -> row lookup.
    """

    def __init__(self, resolution):
        N1, N2 = resolution.N1, resolution.N2
        self.N1, self.N2 = N1, N2
        self.reps = [(int(k1), int(k2))
                     for k1 in _int_freqs(N1) if 2 * k1 != -N1
                     for k2 in _int_freqs(N2) if 2 * k2 != -N2
                     if k1 > 0 or (k1 == 0 and k2 > 0)]
        members = {}
        for k1, k2 in self.reps:
            members.setdefault((abs(k1), abs(k2)), []).append((k1, k2))
        rows, self.groups = [], {}
        for key, modes in members.items():
            self.groups[key] = slice(len(rows), len(rows) + len(modes))
            rows += modes
        self.k = np.array(rows, int).reshape(-1, 2)
        self.row = {k: r for r, k in enumerate(rows)}

    def grid_index(self, A, B):
        """Fancy indices of every row's mode and of its conjugate partner
        on an A x B mode grid."""
        k1, k2 = self.k.T
        return (k1 % A, k2 % B), ((-k1) % A, (-k2) % B)


_layouts = {}


def layout_for(resolution):
    key = (resolution.N1, resolution.N2)
    if key not in _layouts:
        _layouts[key] = ModeLayout(resolution)
    return _layouts[key]


@dataclass
class SolenoidalField:
    """Potential coefficients of one divergence-free field.

    The same container doubles as storage for Galerkin right-hand sides
    (projections of arbitrary fields onto the solenoidal test basis).
    """

    geometry: object
    resolution: object
    psi: np.ndarray  # (R, P-1) complex toroidal coefficients, one row per mode
    phi: np.ndarray  # (R, P-3) complex poloidal coefficients
    mean: np.ndarray  # (2, P-1) real mean-profile coefficients

    def copy(self):
        return SolenoidalField(self.geometry, self.resolution,
                               self.psi.copy(), self.phi.copy(), self.mean.copy())

    def __add__(self, other):
        return SolenoidalField(self.geometry, self.resolution,
                               self.psi + other.psi, self.phi + other.phi,
                               self.mean + other.mean)

    def __sub__(self, other):
        return SolenoidalField(self.geometry, self.resolution,
                               self.psi - other.psi, self.phi - other.phi,
                               self.mean - other.mean)

    def __mul__(self, s):
        return SolenoidalField(self.geometry, self.resolution,
                               self.psi * s, self.phi * s, self.mean * s)

    __rmul__ = __mul__

    def coeffs(self, slot):
        """Writable (g, n) view of one block group's rows.

        slot is ("psi"|"phi"|"mean", rows), as yielded by
        :meth:`nsab.operators.OperatorSet.field_blocks`.
        """
        return getattr(self, slot[0])[slot[1]]

    def dot(self, other):
        """L2 inner product over the full (Hermitian) spectrum; real."""
        return (2.0 * (np.vdot(other.psi, self.psi).real
                       + np.vdot(other.phi, self.phi).real)
                + float(np.vdot(other.mean, self.mean)))

    def norm_l2(self):
        return np.sqrt(max(self.dot(self), 0.0))


def zero_field(geometry, resolution):
    R = len(layout_for(resolution).reps)
    return SolenoidalField(
        geometry, resolution,
        np.zeros((R, resolution.n_toroidal), complex),
        np.zeros((R, resolution.n_poloidal), complex),
        np.zeros((2, resolution.n_toroidal)))


def random_field(geometry, resolution, seed=0, amplitude=1.0, decay=0.5):
    """Seeded random field with smoothly decaying spectrum, ||u||_L2 = amplitude.

    decay sets the exponential falloff rate per unit wavenumber index and
    per basis index; decay=0 gives white coefficients.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    f = zero_field(geometry, resolution)
    lay = layout_for(resolution)
    n_t, n_p = resolution.n_toroidal, resolution.n_poloidal
    jt, jp = np.arange(n_t), np.arange(n_p)
    for (k1, k2) in lay.reps:
        r = lay.row[(k1, k2)]
        kmag = np.hypot(k1, k2)
        wt = np.exp(-decay * (kmag + jt))
        wp = np.exp(-decay * (kmag + jp))
        f.psi[r] = wt * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
        f.phi[r] = wp * (rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p))
    f.mean[:] = np.exp(-decay * jt) * rng.standard_normal((2, n_t))
    nrm = f.norm_l2()
    if nrm > 0:
        f = f * (amplitude / nrm)
    return f


# ---------------------------------------------------------------------------
# synthesis: coefficients -> Fourier-side profiles -> padded physical grid
# ---------------------------------------------------------------------------

#: quantities synthesize can evaluate, each with the highest phi derivative
#: it needs (psi derivatives go one order lower)
QUANTITIES = {"u": 1, "curl_v": 4, "bilap_u": 5}


def _mode_profiles(blk, eta1, eta2, tvals, pvals, want, alpha):
    """Per-mode component profiles at quadrature nodes.

    tvals/pvals: lists of (Q, g) arrays of potential derivative values.
    Returns dict like {"u": (3, Q, g), ...}.
    """
    m = blk.m
    ie1, ie2 = 1j * eta1, 1j * eta2
    out = {}

    def vel(td, pd1, pd0):
        # velocity-like triple from psi-derivs (order d) and phi-derivs (d+1, d)
        return np.stack([ie2 * td + ie1 * pd1, -ie1 * td + ie2 * pd1, m * pd0])

    if "u" in want:
        out["u"] = vel(tvals[0], pvals[1], pvals[0])
    if "curl_v" in want:
        # curl u = vel(-Lap phi, D psi, psi), and curl commutes with the
        # filter: curl v = vel(T, D P, P) with T = -(1 - a^2 Lap) Lap phi,
        # P = (1 - a^2 Lap) psi and Lap = D^2 - m
        a2 = alpha**2
        T = (a2 * (pvals[4] - 2 * m * pvals[2] + m * m * pvals[0])
             - (pvals[2] - m * pvals[0]))
        P0 = tvals[0] - a2 * (tvals[2] - m * tvals[0])
        P1 = tvals[1] - a2 * (tvals[3] - m * tvals[1])
        out["curl_v"] = vel(T, P1, P0)
    if "bilap_u" in want:
        out["bilap_u"] = vel(tvals[4] - 2 * m * tvals[2] + m * m * tvals[0],
                             pvals[5] - 2 * m * pvals[3] + m * m * pvals[1],
                             pvals[4] - 2 * m * pvals[2] + m * m * pvals[0])
    return out


def _mean_profiles(blk, mean, want, alpha, nd):
    E = blk.tor.E
    U = [np.stack([E[d] @ mean[0], E[d] @ mean[1], np.zeros(E[d].shape[0])])
         for d in range(nd + 1)]
    out = {}
    if "u" in want:
        out["u"] = U[0]
    if "curl_v" in want:
        # curl (V1, V2, 0)(z) = (-V2', V1', 0) with V = U - alpha^2 U''
        dV = U[1] - alpha**2 * U[3]
        out["curl_v"] = np.stack([-dV[1], dV[0], np.zeros_like(dV[0])])
    if "bilap_u" in want:
        out["bilap_u"] = U[4]
    return out


def synthesize(f, cache, shape, want=("u",), alpha=None):
    """Fourier-side profiles of the requested quantities on an A x B mode grid.

    Mode (k1, k2) lands at (k1 % A, k2 % B) and its conjugate partner at
    (-k1 % A, -k2 % B).  Names are those of :data:`QUANTITIES`: velocity,
    the curl of the filtered velocity v = (1 - alpha^2 Lap) u (this one
    needs alpha) and Lap^2 u.  Returns dict mapping names to complex
    arrays of shape (3, A, B, Q).
    """
    res = f.resolution
    lay = layout_for(res)
    if alpha is None and "curl_v" in want:
        raise ValueError("filtered quantities need the filter length alpha")
    A, B = shape
    spec = {name: np.zeros((3, A, B, res.Q), complex) for name in want}
    # psi derivatives up to order nd - 1 and phi derivatives up to nd
    nd = max(QUANTITIES[name] for name in want)
    idx, partner = lay.grid_index(A, B)

    for key, rows in lay.groups.items():
        blk = cache.block(*key)
        e1, e2 = cache.wavenumber(lay.k[rows, 0], lay.k[rows, 1])
        tvals = [blk.tor.E[d] @ f.psi[rows].T for d in range(nd)]
        pvals = [blk.pol.E[d] @ f.phi[rows].T for d in range(nd + 1)]
        profs = _mode_profiles(blk, e1, e2, tvals, pvals, want, alpha)
        I1, I2 = idx[0][rows], idx[1][rows]
        J1, J2 = partner[0][rows], partner[1][rows]
        for name, arr in profs.items():
            arr = np.swapaxes(arr, -1, -2)  # (3, g, Q)
            spec[name][:, I1, I2, :] = arr
            spec[name][:, J1, J2, :] = np.conj(arr)

    profs0 = _mean_profiles(cache.block(0, 0), f.mean, want, alpha, nd)
    for name, arr in profs0.items():
        spec[name][:, 0, 0, :] = arr
    return spec


def reconstruct(f, cache, want=("u",), alpha=None):
    """Evaluate requested physical-space quantities on the padded grid.

    Returns dict mapping names to real arrays of shape (3, M1, M2, Q).
    The spectrum is Hermitian, so its k2 >= 0 half is inverse-transformed
    with irfft2.
    """
    M1, M2 = f.resolution.padded_shape
    spec = synthesize(f, cache, (M1, M2), want, alpha)
    return {name: np.fft.irfft2(arr[:, :, :M2 // 2 + 1], s=(M1, M2),
                                axes=(-3, -2)) * (M1 * M2)
            for name, arr in spec.items()}


def potentials_to_velocity(f, cache=None):
    """Physical velocity samples on the padded tangential grid x z-nodes."""
    if cache is None:
        cache = BasisCache(f.geometry, f.resolution)
    if cache.geometry != f.geometry or cache.resolution != f.resolution:
        raise ValueError("basis cache resolution/geometry do not match the field")
    return reconstruct(f, cache, want=("u",))["u"]


# ---------------------------------------------------------------------------
# analysis: Fourier-side profiles -> Galerkin duals (the L2 adjoint)
# ---------------------------------------------------------------------------

def analyze(Fh, geometry, resolution, cache):
    """Galerkin projection of Fourier-side profiles onto the solenoidal basis.

    Fh has shape (3, A, B, Q); mode (k1, k2) is read at (k1 % A, k2 % B),
    which serves the padded grid and the N1 x N2 grid alike.  Only the
    representative modes and (0, 0) are read.
    Returns the dual coefficients (same container as fields).
    """
    lay = layout_for(resolution)
    A, B = Fh.shape[1:3]
    area = geometry.area
    w = cache.w
    out = zero_field(geometry, resolution)
    idx, _ = lay.grid_index(A, B)
    F1, F2, F3 = w * Fh[:, idx[0], idx[1]]  # (rows, Q) each
    E1, E2 = cache.wavenumber(lay.k[:, :1], lay.k[:, 1:])  # (rows, 1) each

    for key, rows in lay.groups.items():
        blk = cache.block(*key)
        e1, e2, f1, f2 = E1[rows], E2[rows], F1[rows], F2[rows]
        out.psi[rows] = area * (((-1j * e2) * f1 + (1j * e1) * f2) @ blk.tor.E[0])
        out.phi[rows] = area * (((-1j * e1) * f1 + (-1j * e2) * f2) @ blk.pol.E[1]
                                + blk.m * (F3[rows] @ blk.pol.E[0]))

    blk0 = cache.block(0, 0)
    for c in range(2):
        out.mean[c] = area * np.real(blk0.tor.E[0].T @ (w * Fh[c, 0, 0]))
    return out


def project_velocity(U, geometry, resolution, cache):
    """L2 projection of a gridded vector field onto the solenoidal basis.

    For fields inside the discrete space this inverts
    :func:`potentials_to_velocity`; in general it realizes the Leray-type
    projection (gradient parts drop out by construction of the test basis).
    """
    M1, M2 = resolution.padded_shape
    Uh = np.fft.fft2(U, axes=(-3, -2)) / (M1 * M2)
    return analyze(Uh, geometry, resolution, cache)


def grid_quadrature(cache, resolution):
    """Weights integrating gridded samples over the channel volume."""
    M1, M2 = resolution.padded_shape
    g = cache.geometry
    da = (g.L1 / M1) * (g.L2 / M2)
    return da * np.broadcast_to(cache.w, (M1, M2, resolution.Q))
