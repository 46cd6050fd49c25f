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
that layout.

One synthesis/analysis pair maps coefficients to Fourier-side profiles at
the quadrature nodes in the same row layout - complex (3, R, Q) rows plus
the real (3, Q) mean profile - in a few batched calls: a stacked per-row
change of basis and one gemm per derivative order against the raw tables
all blocks share.  :func:`synthesize` evaluates velocity (and, on request,
the curl of the filtered velocity v = (1 - alpha^2 Lap) u and Lap^2 u);
:func:`analyze`, its L2 adjoint, is the Galerkin projection onto the
solenoidal test basis (a Leray projection when fed an arbitrary field).

Only :func:`reconstruct` and :func:`project_velocity` know the padded
grid, M1 x M2 x Q physical samples with M the smallest even count
>= 3N/2 per direction (``Resolution.padded_shape``): stored wavenumbers
reach |k| = N/2 - 1 only, so products of two fields do not alias back onto
them and their projection is exact.  The grid's spectrum is kept as its
k1 >= 0 half, (3, M1/2 + 1, M2, Q) with mode (k1, k2) at (k1, k2 % M2),
taken to and from physical samples by the real FFT along x.
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
    ``reps`` order.  ``k`` is the (R, 2) array of row wavenumbers, ``keys``
    their block keys and ``row`` the (k1, k2) -> row lookup.
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
        self.keys = tuple((abs(k1), abs(k2)) for k1, k2 in rows)


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

    def potentials(self):
        """(psi, phi, mean), the order of
        :meth:`nsab.operators.OperatorSet.row_stacks`."""
        return self.psi, self.phi, self.mean

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


def rowmul(W, c):
    """Row-wise W[r] @ c[r] for a real (R, n, n) stack (or one (n, n)
    matrix); complex rows go as (n, 2) real blocks, so W is never cast."""
    c = np.ascontiguousarray(c)
    if not np.iscomplexobj(c):
        return np.matmul(W, c[..., None])[..., 0]
    return np.matmul(W, c.view(np.float64).reshape(*c.shape, 2)).view(complex)[..., 0]


def _mode_profiles(m, eta1, eta2, tvals, pvals, want, alpha):
    """Component profiles of the representative modes at quadrature nodes.

    m, eta1, eta2: (R, 1) per-row data; tvals/pvals: lists of (R, Q)
    arrays of potential derivative values.  Returns {"u": (3, R, Q), ...}.
    """
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


def _mean_profiles(E, mean, want, alpha, nd):
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


def synthesize(f, cache, want=("u",), alpha=None):
    """Fourier-side profiles of the requested quantities at the quadrature nodes.

    Names are those of :data:`QUANTITIES`: velocity, the curl of the
    filtered velocity v = (1 - alpha^2 Lap) u (this one needs alpha) and
    Lap^2 u.  Returns dict mapping names to (rows, mean): complex (3, R, Q)
    profiles of the representative modes in row order and the real (3, Q)
    profile of the (0, 0) mode.  Conjugate partners are not formed.
    """
    lay = layout_for(f.resolution)
    if alpha is None and "curl_v" in want:
        raise ValueError("filtered quantities need the filter length alpha")
    # psi derivatives up to order nd - 1 and phi derivatives up to nd
    nd = max(QUANTITIES[name] for name in want)
    m, W_tor, W_pol = cache.row_stacks(lay.keys)
    e1, e2 = cache.wavenumber(lay.k[:, :1], lay.k[:, 1:])
    # orthonormal -> raw recombined coefficients, then one gemm per order
    ct, cp = rowmul(W_tor, f.psi), rowmul(W_pol, f.phi)
    tvals = [ct @ cache.raw_T[d].T for d in range(nd)]
    pvals = [cp @ cache.raw_C[d].T for d in range(nd + 1)]
    rows = _mode_profiles(m, e1, e2, tvals, pvals, want, alpha)
    means = _mean_profiles(cache.mean_E, f.mean, want, alpha, nd)
    return {name: (rows[name], means[name]) for name in want}


def reconstruct(f, cache, want=("u",), alpha=None):
    """Evaluate requested physical-space quantities on the padded grid.

    Returns dict mapping names to real arrays of shape (3, M1, M2, Q).
    Every representative has k1 >= 0, so of the conjugate partners only
    those of the k1 = 0 rows lie in the half spectrum.
    """
    res = f.resolution
    M1, M2 = res.padded_shape
    k1, k2 = layout_for(res).k.T
    k1_zero = k1 == 0
    out = {}
    for name, (rows, mean) in synthesize(f, cache, want, alpha).items():
        half = np.zeros((3, M1 // 2 + 1, M2, res.Q), complex)
        half[:, k1, k2 % M2] = rows
        half[:, 0, -k2[k1_zero] % M2] = np.conj(rows[:, k1_zero])
        half[:, 0, 0] = mean
        out[name] = np.fft.irfft2(half, s=(M2, M1), axes=(-2, -3),
                                  norm="forward")
    return out


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

def analyze(rows, mean, geometry, resolution, cache):
    """Galerkin projection of Fourier-side profiles onto the solenoidal basis.

    rows/mean: profiles of the representative modes and of (0, 0), as
    :func:`synthesize` returns them.  Returns the dual coefficients (same
    container as fields).
    """
    lay = layout_for(resolution)
    area, w = geometry.area, cache.w
    m, W_tor, W_pol = cache.row_stacks(lay.keys)
    e1, e2 = cache.wavenumber(lay.k[:, :1], lay.k[:, 1:])
    f1, f2, f3 = w * rows
    # adjoint of synthesize: raw-table gemms first, then the stacked W^T
    gt = ((-1j * e2) * f1 + (1j * e1) * f2) @ cache.raw_T[0]
    gp = (((-1j * e1) * f1 + (-1j * e2) * f2) @ cache.raw_C[1]
          + m * (f3 @ cache.raw_C[0]))
    psi = area * rowmul(W_tor.transpose(0, 2, 1), gt)
    phi = area * rowmul(W_pol.transpose(0, 2, 1), gp)
    mean0 = area * ((w * mean[:2]) @ cache.mean_E[0])
    return SolenoidalField(geometry, resolution, psi, phi, mean0)


def project_velocity(U, geometry, resolution, cache):
    """L2 projection of a gridded vector field onto the solenoidal basis.

    For fields inside the discrete space this inverts
    :func:`potentials_to_velocity`; in general it realizes the Leray-type
    projection (gradient parts drop out by construction of the test basis).
    """
    M2 = resolution.padded_shape[1]
    k1, k2 = layout_for(resolution).k.T
    Uh = np.fft.rfft2(U, axes=(-2, -3), norm="forward")
    return analyze(Uh[:, k1, k2 % M2], Uh[:, 0, 0].real, geometry, resolution,
                   cache)

