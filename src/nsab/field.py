"""Divergence-free velocity fields as toroidal/poloidal potential coefficients.

Storage layout
--------------
Tangential spectra live on the full FFT grid (wavenumbers k1 in
[-N1/2, N1/2), k2 likewise, numpy fft ordering) with Hermitian symmetry
coef(-k) = conj(coef(k)) so the physical field is real.  Nyquist columns and
the (0,0) entry of the potentials are pinned to zero; the (0,0) slot is
carried separately as two real mean profiles (U1(z), U2(z), 0).

Coefficients are expressed in the per-block orthonormalized bases of
:mod:`nsab.basis`, so the L2 inner product of two fields is the plain
(Hermitian) dot product of their coefficient arrays summed over the grid.

This module is the only place that traverses, projects and mirrors that
spectrum.  Writers fill the representative modes and call :func:`mirror`;
:meth:`SolenoidalField.coeffs` addresses one block vector by the slot keys
of :meth:`nsab.operators.OperatorSet.field_blocks`.

One synthesis/analysis pair maps between coefficients and Fourier-side
profiles at the quadrature nodes on any A x B tangential mode grid, mode
(k1, k2) sitting at (k1 % A, k2 % B):

* :func:`synthesize` evaluates velocity (and, on request, its gradient, the
  filtered velocity v = (1 - alpha^2 Lap) u and grad v); :func:`reconstruct`
  transforms it to the padded physical grid;
* :func:`analyze` is its L2 adjoint, the Galerkin projection onto the
  solenoidal test basis, which realizes the Leray projection when fed an
  arbitrary vector field.  :func:`project_velocity` applies it to gridded
  samples, the nonlinear term to the convective product and the forcing
  dual to profiles on the N1 x N2 storage grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisCache


def _int_freqs(N):
    return np.rint(np.fft.fftfreq(N) * N).astype(int)


class ModeLayout:
    """Index bookkeeping for the tangential spectral grid."""

    def __init__(self, resolution):
        N1, N2 = resolution.N1, resolution.N2
        self.k1 = _int_freqs(N1)
        self.k2 = _int_freqs(N2)
        self.nyq1, self.nyq2 = N1 // 2, N2 // 2
        reps, active = [], []
        for i1 in range(N1):
            if i1 == self.nyq1:
                continue
            for i2 in range(N2):
                if i2 == self.nyq2 or (i1 == 0 and i2 == 0):
                    continue
                k1, k2 = int(self.k1[i1]), int(self.k2[i2])
                active.append((i1, i2, k1, k2))
                if k1 > 0 or (k1 == 0 and k2 > 0):
                    reps.append((i1, i2, k1, k2))
        self.active = active
        self.reps = reps
        self.N1, self.N2 = N1, N2
        # representatives grouped by (|k1|, |k2|): one basis block per group
        groups = {}
        for (i1, i2, k1, k2) in reps:
            groups.setdefault((abs(k1), abs(k2)), []).append((i1, i2, k1, k2))
        self.groups = groups
        # fancy indices of the representatives and of their conjugate partners
        ri = np.array([(i1, i2) for (i1, i2, _, _) in reps], int).reshape(-1, 2).T
        self.rep_index = (ri[0], ri[1])
        self.partner_index = ((-ri[0]) % N1, (-ri[1]) % N2)

    def conj_index(self, i1, i2):
        return (-i1) % self.N1, (-i2) % self.N2


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
    psi: np.ndarray  # (N1, N2, P-1) complex toroidal coefficients
    phi: np.ndarray  # (N1, N2, P-3) complex poloidal coefficients
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
        """Writable view of one block vector.

        slot is ("psi"|"phi", i1, i2) or ("mean", c), as yielded by
        :meth:`nsab.operators.OperatorSet.field_blocks`.
        """
        if slot[0] == "mean":
            return self.mean[slot[1]]
        return getattr(self, slot[0])[slot[1], slot[2]]

    def dot(self, other):
        """L2 inner product over the full (Hermitian) spectrum; real."""
        lay = layout_for(self.resolution)
        acc = 0.0
        for (i1, i2, _, _) in lay.reps:
            acc += 2.0 * (np.vdot(other.psi[i1, i2], self.psi[i1, i2]).real
                          + np.vdot(other.phi[i1, i2], self.phi[i1, i2]).real)
        acc += float(np.dot(self.mean.ravel(), other.mean.ravel()))
        return acc

    def norm_l2(self):
        return np.sqrt(max(self.dot(self), 0.0))


def zero_field(geometry, resolution):
    return SolenoidalField(
        geometry, resolution,
        np.zeros((resolution.N1, resolution.N2, resolution.n_toroidal), complex),
        np.zeros((resolution.N1, resolution.N2, resolution.n_poloidal), complex),
        np.zeros((2, resolution.n_toroidal)))


def mirror(f):
    """Set every partner mode to the conjugate of its representative; in place."""
    lay = layout_for(f.resolution)
    for arr in (f.psi, f.phi):
        arr[lay.partner_index] = np.conj(arr[lay.rep_index])
    return f


def enforce_constraints(f):
    """Pin Nyquist/(0,0) slots to zero and Hermitian-symmetrize in place."""
    lay = layout_for(f.resolution)
    for arr in (f.psi, f.phi):
        arr[lay.nyq1, :, :] = 0.0
        arr[:, lay.nyq2, :] = 0.0
        arr[0, 0, :] = 0.0
    for arr in (f.psi, f.phi):
        avg = 0.5 * (arr[lay.rep_index] + np.conj(arr[lay.partner_index]))
        arr[lay.rep_index] = avg
        arr[lay.partner_index] = np.conj(avg)
    return f


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
    for (i1, i2, k1, k2) in lay.reps:
        kmag = np.hypot(k1, k2)
        wt = np.exp(-decay * (kmag + jt))
        wp = np.exp(-decay * (kmag + jp))
        f.psi[i1, i2] = wt * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
        f.phi[i1, i2] = wp * (rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p))
    mirror(f)
    f.mean[:] = np.exp(-decay * jt) * rng.standard_normal((2, n_t))
    nrm = f.norm_l2()
    if nrm > 0:
        f = f * (amplitude / nrm)
    return f


# ---------------------------------------------------------------------------
# synthesis: coefficients -> Fourier-side profiles -> padded physical grid
# ---------------------------------------------------------------------------

#: quantities synthesize can evaluate, in order of the derivatives they need
QUANTITIES = ("u", "grad_u", "v", "grad_v")


def _mode_profiles(blk, eta1, eta2, tvals, pvals, want, alpha):
    """Per-mode component profiles at quadrature nodes.

    tvals/pvals: lists of (Q, g) arrays of potential derivative values.
    Returns dict like {"u": (3, Q, g), "grad_u": (3, 3, Q, g), ...}.
    """
    m = blk.m
    ie1 = 1j * eta1
    ie2 = 1j * eta2
    out = {}

    def vel(td, pd1, pd0):
        # velocity-like triple from psi-derivs (order d) and phi-derivs (d+1, d)
        return np.stack([ie2 * td + ie1 * pd1, -ie1 * td + ie2 * pd1, m * pd0])

    u = vel(tvals[0], pvals[1], pvals[0])
    if "u" in want:
        out["u"] = u
    if "grad_u" in want:
        du = vel(tvals[1], pvals[2], pvals[1])
        out["grad_u"] = np.stack([ie1 * u, ie2 * u, du], axis=1)
    if "v" in want or "grad_v" in want:
        lap = vel(tvals[2] - m * tvals[0], pvals[3] - m * pvals[1],
                  pvals[2] - m * pvals[0])
        v = u - alpha**2 * lap
        if "v" in want:
            out["v"] = v
        if "grad_v" in want:
            du = vel(tvals[1], pvals[2], pvals[1])
            dlap = vel(tvals[3] - m * tvals[1], pvals[4] - m * pvals[2],
                       pvals[3] - m * pvals[1])
            dv = du - alpha**2 * dlap
            out["grad_v"] = np.stack([ie1 * v, ie2 * v, dv], axis=1)
    return out


def _mean_profiles(blk, mean, want, alpha):
    E = blk.tor.E
    U = [np.stack([E[d] @ mean[0], E[d] @ mean[1], np.zeros(E[d].shape[0])])
         for d in range(4)]
    out = {}
    if "u" in want:
        out["u"] = U[0]
    if "grad_u" in want:
        z = np.zeros_like(U[0])
        out["grad_u"] = np.stack([z, z, U[1]], axis=1)
    if "v" in want or "grad_v" in want:
        v = U[0] - alpha**2 * U[2]
        if "v" in want:
            out["v"] = v
        if "grad_v" in want:
            z = np.zeros_like(U[0])
            out["grad_v"] = np.stack([z, z, U[1] - alpha**2 * U[3]], axis=1)
    return out


def synthesize(f, cache, shape, want=("u",), alpha=None):
    """Fourier-side profiles of the requested quantities on an A x B mode grid.

    Mode (k1, k2) lands at (k1 % A, k2 % B) and its conjugate partner at
    (-k1 % A, -k2 % B).  Returns dict mapping names to complex arrays of
    shape (3, A, B, Q) for vectors and (3, 3, A, B, Q) for gradients.
    """
    res = f.resolution
    lay = layout_for(res)
    if alpha is None and any(n in ("v", "grad_v") for n in want):
        raise ValueError("filtered quantities need the filter length alpha")
    A, B = shape
    Q = res.Q
    spec = {}
    for name in want:
        dims = (3, 3, A, B, Q) if name.startswith("grad") else (3, A, B, Q)
        spec[name] = np.zeros(dims, complex)
    # psi derivatives up to order nd - 1 and phi derivatives up to nd
    nd = 1 + max(QUANTITIES.index(name) for name in want)

    for key, modes in lay.groups.items():
        blk = cache.block(*key)
        g = len(modes)
        ct = np.empty((res.n_toroidal, g), complex)
        cp = np.empty((res.n_poloidal, g), complex)
        e1 = np.empty(g)
        e2 = np.empty(g)
        for j, (i1, i2, k1, k2) in enumerate(modes):
            ct[:, j] = f.psi[i1, i2]
            cp[:, j] = f.phi[i1, i2]
            e1[j], e2[j] = cache.wavenumber(k1, k2)
        tvals = [blk.tor.E[d] @ ct for d in range(nd)]
        pvals = [blk.pol.E[d] @ cp for d in range(nd + 1)]
        profs = _mode_profiles(blk, e1[None, :], e2[None, :],
                               tvals, pvals, want, alpha)
        for j, (i1, i2, k1, k2) in enumerate(modes):
            I1, I2 = k1 % A, k2 % B
            J1, J2 = (-k1) % A, (-k2) % B
            for name, arr in profs.items():
                spec[name][..., I1, I2, :] = arr[..., :, j]
                spec[name][..., J1, J2, :] = np.conj(arr[..., :, j])

    blk0 = cache.block(0, 0)
    profs0 = _mean_profiles(blk0, f.mean, want, alpha)
    for name, arr in profs0.items():
        spec[name][..., 0, 0, :] = arr
    return spec


def reconstruct(f, cache, want=("u",), alpha=None):
    """Evaluate requested physical-space quantities on the padded grid.

    Returns dict mapping names to real arrays of shape (3, M1, M2, Q) for
    vectors and (3, 3, M1, M2, Q) for gradients ((grad u)_{ij} = d_j u_i).
    """
    M1, M2 = f.resolution.padded_shape
    spec = synthesize(f, cache, (M1, M2), want, alpha)
    out = {}
    scale = M1 * M2
    for name, arr in spec.items():
        out[name] = np.real(np.fft.ifft2(arr, axes=(-3, -2)) * scale)
    return out


def potentials_to_velocity(f, cache=None):
    """Physical velocity samples on the padded tangential grid x z-nodes."""
    if cache is None:
        cache = BasisCache(f.geometry, f.resolution)
    if (cache.geometry is not f.geometry and cache.geometry != f.geometry) or \
            (cache.resolution is not f.resolution and cache.resolution != f.resolution):
        raise ValueError("basis cache resolution/geometry do not match the field")
    return reconstruct(f, cache, want=("u",))["u"]


# ---------------------------------------------------------------------------
# analysis: Fourier-side profiles -> Galerkin duals (the L2 adjoint)
# ---------------------------------------------------------------------------

def analyze(Fh, geometry, resolution, cache):
    """Galerkin projection of Fourier-side profiles onto the solenoidal basis.

    Fh has shape (3, A, B, Q); mode (k1, k2) is read at (k1 % A, k2 % B),
    which serves the padded grid and the N1 x N2 storage grid alike.
    Returns the dual coefficients (same container as fields).
    """
    lay = layout_for(resolution)
    A, B = Fh.shape[1:3]
    area = geometry.area
    w = cache.w
    out = zero_field(geometry, resolution)

    for key, modes in lay.groups.items():
        blk = cache.block(*key)
        m = blk.m
        for (i1, i2, k1, k2) in modes:
            e1, e2 = cache.wavenumber(k1, k2)
            f1, f2, f3 = Fh[:, k1 % A, k2 % B]
            tor_integrand = (-1j * e2) * f1 + (1j * e1) * f2
            out.psi[i1, i2] = area * (blk.tor.E[0].T @ (w * tor_integrand))
            pol_integrand_d = (-1j * e1) * f1 + (-1j * e2) * f2
            out.phi[i1, i2] = area * (blk.pol.E[1].T @ (w * pol_integrand_d)
                                      + m * (blk.pol.E[0].T @ (w * f3)))

    blk0 = cache.block(0, 0)
    for c in range(2):
        out.mean[c] = area * np.real(blk0.tor.E[0].T @ (w * Fh[c, 0, 0]))
    return mirror(out)


def project_velocity(U, geometry, resolution, cache):
    """L2 projection of a gridded vector field onto the solenoidal basis.

    For fields inside the discrete space this inverts
    :func:`potentials_to_velocity`; in general it realizes the Leray-type
    projection (gradient parts drop out by construction of the test basis).
    """
    M1, M2 = resolution.padded_shape
    Uh = np.fft.fft2(U, axes=(-3, -2)) / (M1 * M2)
    return analyze(Uh, geometry, resolution, cache)


def velocity_to_potentials(U, geometry, resolution, cache=None):
    if cache is None:
        cache = BasisCache(geometry, resolution)
    return project_velocity(U, geometry, resolution, cache)


def grid_quadrature(cache, resolution):
    """Weights integrating gridded samples over the channel volume."""
    M1, M2 = resolution.padded_shape
    g = cache.geometry
    da = (g.L1 / M1) * (g.L2 / M2)
    return da * np.broadcast_to(cache.w, (M1, M2, resolution.Q))
