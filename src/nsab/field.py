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
The layout also owns the block numbering: block g of every per-block stack
(bases, forms) is group g, and ``ModeLayout.block`` gives each row's g.

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
them and their projection is exact.  Both go through :class:`PaddedGrid`,
a matrix DFT pruned to the box of stored wavenumbers (0 <= k1 < N1/2,
|k2| < N2/2): one real gemm along k2 and one along k1 each way, with
tables built once per (N1, N2).

The time step evaluates the nonlinear term through :class:`GridWorkspace`,
the arrays of one product of synthesized quantities (profiles, spectral box,
grid, product, forward halves and gathered rows) reused from call to call
instead of allocated afresh.  The grid owns one workspace per requested
quantities and node count Q, so it lives as long as the grid, which
:func:`layout_for` keeps for the whole process: a run that freed it on exit
would hand the pages back to the OS and take the page faults again in the
next run.  Arrays carved from a workspace are overwritten by the next call
that uses it, so the path is not reentrant (nsab is serial); the public
:func:`synthesize`, :func:`reconstruct`, :func:`potentials_to_velocity`
and :func:`project_velocity` return fresh arrays unless given a workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _int_freqs(N):
    """Integer wavenumbers of an N-point DFT in fft order: 0, 1, ..., -1."""
    return (np.arange(N) + N // 2) % N - N // 2


def _roots(M, j):
    """cos and sin of 2 pi j / M, the phase taken from the integer j mod M,
    so every value is one of the M roots of unity."""
    angle = (2.0 * np.pi / M) * (j % M)
    return np.cos(angle), np.sin(angle)


class ModeLayout:
    """Rows of the representative tangential modes.

    ``reps`` lists the representatives (k1, k2) in fft traversal order;
    ``groups`` maps each block key (|k1|, |k2|) to its slice of rows, in
    order of first appearance in ``reps``; rows within a group keep the
    ``reps`` order.  ``k`` is the (R, 2) array of row wavenumbers, ``block``
    the (R,) group index g of each row (the block numbering: block g of
    every per-block stack is group g) and ``row`` the (k1, k2) -> row
    lookup.  ``grid`` is the transform to the padded grid, built on first
    use.
    """

    def __init__(self, resolution):
        N1, N2 = resolution.N1, resolution.N2
        self.N1, self.N2 = N1, N2
        self.padded_shape = resolution.padded_shape
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
        self.block = np.repeat(np.arange(len(members)), [len(v) for v in members.values()])
        self.row = {k: r for r, k in enumerate(rows)}

    @cached_property
    def grid(self):
        return PaddedGrid(self.k, self.N1, self.N2, self.padded_shape)


class PaddedGrid:
    """Matrix DFT between the stored modes and the padded M1 x M2 grid.

    The spectral side is the box of stored wavenumbers, 0 <= k1 <= K1 - 1
    (K1 = N1/2) and |k2| <= K2 = N2/2 - 1, as a real (B, K1, 2, 2 K2 + 1, Q)
    array with the real and imaginary parts in separate planes.  The
    inverse applies the complex (M2, 2 K2 + 1) DFT along k2 as one real
    (2 M2, 2 (2 K2 + 1)) block, then one real (M1, 2 K1) gemm along k1 that
    writes the grid: u = Re sum_k1 c_k1 G_k1(y) exp(2 pi i k1 x / M1), with
    c = 2 for k1 > 0 (the conjugate partners k1 < 0) and c = 1 for k1 = 0,
    whose column holds its partners itself.  :meth:`from_grid` is the
    adjoint, scaled by 1/(M1 M2), so it returns the grid's Fourier
    coefficients of the stored modes.

    Both transforms write into a :class:`GridWorkspace` when given one
    (:meth:`workspace`), into fresh arrays otherwise.
    """

    def __init__(self, k, N1, N2, shape):
        M1, M2 = shape
        K1, K2 = N1 // 2, N2 // 2 - 1
        k1, k2 = k.T
        zero = k1 == 0
        self.rows = (k1, k2 + K2)
        self.partners = (zero, K2 - k2[zero])
        self.center = K2
        self.box = (K1, 2, 2 * K2 + 1)
        self.shape = (M1, M2)
        # flat (k1, plane, k2) box index of each row's real and imaginary part
        J = 2 * K2 + 1
        self.gather = ((2 * k1) * J + k2 + K2, (2 * k1 + 1) * J + k2 + K2)
        cy, sy = _roots(M2, np.arange(M2)[:, None] * np.arange(-K2, K2 + 1))
        self.y_inv = np.block([[cy, -sy], [sy, cy]])
        self.y_fwd = np.ascontiguousarray(self.y_inv.T / M2)
        cx, sx = _roots(M1, np.arange(M1)[:, None] * np.arange(K1))
        c = np.where(np.arange(K1) > 0, 2.0, 1.0)
        self.x_inv = np.stack([c * cx, -c * sx], axis=-1).reshape(M1, 2 * K1)
        self.x_fwd = np.stack([cx.T, -sx.T], axis=1).reshape(2 * K1, M1) / M1
        self._work = {}

    def workspace(self, want, Q):
        """The :class:`GridWorkspace` of the quantities want at Q nodes,
        built on first use and kept as long as the grid."""
        key = (tuple(want), Q)
        if key not in self._work:
            self._work[key] = GridWorkspace(self, want, Q)
        return self._work[key]

    def to_grid(self, profiles, work=None):
        """Real (3 n, M1, M2, Q) samples of n (rows, mean) profile pairs,
        complex (3, R, Q) rows and the real (3, Q) mean as
        :func:`synthesize` returns them."""
        profiles = list(profiles)
        B, Q = 3 * len(profiles), profiles[0][1].shape[-1]
        (k1, j2), (zero, jp) = self.rows, self.partners
        # the writes below fill every slot of the box, so a reused one needs
        # no zeroing
        box = np.empty((B,) + self.box + (Q,)) if work is None else work.box
        for b, (rows, mean) in zip(np.split(box, len(profiles)), profiles):
            b[:, k1, 0, j2] = rows.real
            b[:, k1, 1, j2] = rows.imag
            b[:, 0, 0, jp] = rows.real[:, zero]
            b[:, 0, 1, jp] = -rows.imag[:, zero]
            b[:, 0, 0, self.center] = mean
            b[:, 0, 1, self.center] = 0.0  # the mean is real
        K1 = self.box[0]
        half = np.matmul(self.y_inv, box.reshape(B * K1, -1, Q), out=_slot(work, "half"))
        grid = np.matmul(self.x_inv, half.reshape(B, 2 * K1, -1), out=_slot(work, "grid"))
        return grid.reshape((B,) + self.shape + (Q,))

    def from_grid(self, U, work=None):
        """(rows, mean) Fourier coefficients of real (B, M1, M2, Q) samples:
        complex (B, R, Q) rows of the stored modes and the real (B, Q) mean."""
        B, M1, M2, Q = U.shape
        K1 = self.box[0]
        half = np.matmul(self.x_fwd, U.reshape(B, M1, M2 * Q), out=_slot(work, "fhalf"))
        box = np.matmul(self.y_fwd, half.reshape(B * K1, 2 * M2, Q), out=_slot(work, "fbox"))
        box = box.reshape(B, -1, Q)
        # take with mode="clip" writes into out directly (the indices are in range)
        re, im = (np.take(box, idx, axis=1, out=_slot(work, name), mode="clip")
                  for idx, name in zip(self.gather, ("re", "im")))
        rows = np.multiply(1j, im, out=_slot(work, "rows"))
        return np.add(re, rows, out=rows), box[:, self.center]


def _slot(work, name):
    """The workspace array name, or None (a fresh result) without one."""
    return None if work is None else getattr(work, name)


class GridWorkspace:
    """Reused arrays of one product of synthesized quantities on the grid.

    Serves :func:`nsab.evolution.nonlinear_term`: synthesis of the
    quantities want (B = 3 len(want) components), :meth:`PaddedGrid.to_grid`,
    a (3, M1, M2, Q) pointwise product, :meth:`PaddedGrid.from_grid` and
    :func:`analyze`.  Every array is a view of one of two flat float64
    regions.  Each step of the chain reads one region and writes the other,
    so the arrays of a region take turns:

    region A: ``tvals``/``pvals`` (derivative values), ``box``, ``grid``,
    ``fhalf``, ``re``/``im`` (gathered parts), ``weighted`` (rows times
    the quadrature weights);

    region B: ``profiles``, ``half``, ``prod`` and its ``scratch``,
    ``fbox`` and the gathered ``rows`` (after ``fbox``, whose mean slot
    :func:`analyze` still reads).
    """

    def __init__(self, grid, want, Q):
        K1, _, J = grid.box
        M1, M2 = grid.shape
        R, B = len(grid.rows[0]), 3 * len(want)
        nd = max(QUANTITIES[name] for name in want)
        rows = ((3, R, Q), complex)
        # per region, its stages in turn; the arrays of a stage lie end to end
        regions = (
            [[("tvals", (nd, R, Q), complex), ("pvals", (nd + 1, R, Q), complex)],
             [("box", (B, K1, 2, J, Q), float)],
             [("grid", (B, M1, M2 * Q), float)],
             [("fhalf", (3, 2 * K1, M2 * Q), float)],
             [("re", (3, R, Q), float), ("im", (3, R, Q), float)],
             [("weighted",) + rows]],
            [[("profiles", (len(want), 3, R, Q), complex)],
             [("half", (B * K1, 2 * M2, Q), float)],
             [("prod", (3, M1, M2, Q), float), ("scratch", (M1, M2, Q), float)],
             [("fbox", (3 * K1, 2 * J, Q), float), ("rows",) + rows]])
        for region in regions:
            buf = np.empty(max(sum(_floats(shape, dtype) for _, shape, dtype in stage)
                               for stage in region))
            for stage in region:
                at = 0
                for name, shape, dtype in stage:
                    n = _floats(shape, dtype)
                    setattr(self, name, buf[at:at + n].view(dtype).reshape(shape))
                    at += n
        self.profiles = dict(zip(want, self.profiles))


def _floats(shape, dtype):
    """Number of float64 slots an array of this shape and dtype takes."""
    return math.prod(shape) * np.dtype(dtype).itemsize // 8


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
    lay = layout_for(resolution)
    n_t, n_p = resolution.n_toroidal, resolution.n_poloidal
    # one draw in reps order, per representative the real and imaginary
    # parts of psi, then of phi; then moved to row order
    draw = rng.standard_normal((len(lay.reps), 2 * (n_t + n_p)))
    z = np.empty_like(draw)
    z[[lay.row[k] for k in lay.reps]] = draw
    re_t, im_t, re_p, im_p = np.split(z, np.cumsum([n_t, n_t, n_p]), axis=1)
    kmag = np.hypot(lay.k[:, :1], lay.k[:, 1:])
    wt = np.exp(-decay * (kmag + np.arange(n_t)))
    wp = np.exp(-decay * (kmag + np.arange(n_p)))
    mean = np.exp(-decay * np.arange(n_t)) * rng.standard_normal((2, n_t))
    f = SolenoidalField(geometry, resolution, wt * (re_t + 1j * im_t),
                        wp * (re_p + 1j * im_p), mean)
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


def velocity(e1, e2, m, t, p1, p0):
    """Velocity (3, ...) of toroidal t and poloidal p0, p1 = p0' at (e1, e2)."""
    return np.stack([1j * e2 * t + 1j * e1 * p1, -1j * e1 * t + 1j * e2 * p1, m * p0])


def _mode_profiles(m, eta1, eta2, tvals, pvals, want, alpha, into):
    """Component profiles of the representative modes at quadrature nodes.

    m, eta1, eta2: (R, 1) per-row data; tvals/pvals: lists of (R, Q)
    arrays of potential derivative values; into: name -> (3, R, Q) array to
    write, or None for a fresh one.  Returns {"u": (3, R, Q), ...}.
    """
    ie1, ie2 = 1j * eta1, 1j * eta2
    out = {}

    def vel(td, pd1, pd0, name):
        # velocity-like triple from psi-derivs (order d) and phi-derivs (d+1, d)
        v = np.empty((3,) + td.shape, complex) if into[name] is None else into[name]
        np.add(ie2 * td, ie1 * pd1, out=v[0])
        np.add(-ie1 * td, ie2 * pd1, out=v[1])
        np.multiply(m, pd0, out=v[2])
        return v

    if "u" in want:
        out["u"] = vel(tvals[0], pvals[1], pvals[0], "u")
    if "curl_v" in want:
        # curl u = vel(-Lap phi, D psi, psi), and curl commutes with the
        # filter: curl v = vel(T, D P, P) with T = -(1 - a^2 Lap) Lap phi,
        # P = (1 - a^2 Lap) psi and Lap = D^2 - m
        a2 = alpha**2
        T = (a2 * (pvals[4] - 2 * m * pvals[2] + m * m * pvals[0])
             - (pvals[2] - m * pvals[0]))
        P0 = tvals[0] - a2 * (tvals[2] - m * tvals[0])
        P1 = tvals[1] - a2 * (tvals[3] - m * tvals[1])
        out["curl_v"] = vel(T, P1, P0, "curl_v")
    if "bilap_u" in want:
        out["bilap_u"] = vel(tvals[4] - 2 * m * tvals[2] + m * m * tvals[0],
                             pvals[5] - 2 * m * pvals[3] + m * m * pvals[1],
                             pvals[4] - 2 * m * pvals[2] + m * m * pvals[0],
                             "bilap_u")
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


def synthesize(f, cache, want=("u",), alpha=None, work=None):
    """Fourier-side profiles of the requested quantities at the quadrature nodes.

    Names are those of :data:`QUANTITIES`: velocity, the curl of the
    filtered velocity v = (1 - alpha^2 Lap) u (this one needs alpha) and
    Lap^2 u.  Returns dict mapping names to (rows, mean): complex (3, R, Q)
    profiles of the representative modes in row order and the real (3, Q)
    profile of the (0, 0) mode.  Conjugate partners are not formed.  With
    a :class:`GridWorkspace` of the same want, the rows are views of it.
    """
    lay = layout_for(f.resolution)
    if alpha is None and "curl_v" in want:
        raise ValueError("filtered quantities need the filter length alpha")
    # psi derivatives up to order nd - 1 and phi derivatives up to nd
    nd = max(QUANTITIES[name] for name in want)
    m, W_tor, W_pol = cache.row_bases
    e1, e2 = cache.wavenumber(lay.k[:, :1], lay.k[:, 1:])
    # orthonormal -> raw recombined coefficients, then one gemm per order
    ct, cp = rowmul(W_tor, f.psi), rowmul(W_pol, f.phi)
    tv, pv, into = ((work.tvals, work.pvals, work.profiles) if work is not None
                    else ([None] * nd, [None] * (nd + 1), dict.fromkeys(want)))
    tvals = [np.matmul(ct, cache.raw_T[d].T, out=tv[d]) for d in range(nd)]
    pvals = [np.matmul(cp, cache.raw_C[d].T, out=pv[d]) for d in range(nd + 1)]
    rows = _mode_profiles(m, e1, e2, tvals, pvals, want, alpha, into)
    means = _mean_profiles(cache.mean_E, f.mean, want, alpha, nd)
    return {name: (rows[name], means[name]) for name in want}


def reconstruct(f, cache, want=("u",), alpha=None, work=None):
    """Evaluate requested physical-space quantities on the padded grid.

    Returns dict mapping names to real arrays of shape (3, M1, M2, Q),
    all transformed in one :meth:`PaddedGrid.to_grid` call; views of the
    workspace work, if given.
    """
    profiles = synthesize(f, cache, want, alpha, work)
    grid = layout_for(f.resolution).grid.to_grid(profiles.values(), work)
    return dict(zip(profiles, np.split(grid, len(profiles))))


def potentials_to_velocity(f, cache):
    """Physical velocity samples on the padded tangential grid x z-nodes."""
    if cache.geometry != f.geometry or cache.resolution != f.resolution:
        raise ValueError("basis cache resolution/geometry do not match the field")
    return reconstruct(f, cache, want=("u",))["u"]


# ---------------------------------------------------------------------------
# analysis: Fourier-side profiles -> Galerkin duals (the L2 adjoint)
# ---------------------------------------------------------------------------

def analyze(rows, mean, geometry, resolution, cache, work=None):
    """Galerkin projection of Fourier-side profiles onto the solenoidal basis.

    rows/mean: profiles of the representative modes and of (0, 0), as
    :func:`synthesize` returns them.  Returns the dual coefficients (same
    container as fields), which own their arrays also when the weighted
    rows go to the workspace work.
    """
    lay = layout_for(resolution)
    area, w = geometry.area, cache.w
    m, W_tor, W_pol = cache.row_bases
    e1, e2 = cache.wavenumber(lay.k[:, :1], lay.k[:, 1:])
    f1, f2, f3 = np.multiply(w, rows, out=_slot(work, "weighted"))
    # adjoint of synthesize: raw-table gemms first, then the stacked W^T
    gt = ((-1j * e2) * f1 + (1j * e1) * f2) @ cache.raw_T[0]
    gp = (((-1j * e1) * f1 + (-1j * e2) * f2) @ cache.raw_C[1]
          + m * (f3 @ cache.raw_C[0]))
    psi = area * rowmul(W_tor.transpose(0, 2, 1), gt)
    phi = area * rowmul(W_pol.transpose(0, 2, 1), gp)
    mean0 = area * ((w * mean[:2]) @ cache.mean_E[0])
    return SolenoidalField(geometry, resolution, psi, phi, mean0)


def project_velocity(U, geometry, resolution, cache, work=None):
    """L2 projection of a gridded vector field onto the solenoidal basis.

    For fields inside the discrete space this inverts
    :func:`potentials_to_velocity`; in general it realizes the Leray-type
    projection (gradient parts drop out by construction of the test basis).
    With a workspace, U is a (3, M1, M2, Q) array and the transforms write
    into work.
    """
    rows, mean = layout_for(resolution).grid.from_grid(U, work)
    return analyze(rows, mean, geometry, resolution, cache, work)
