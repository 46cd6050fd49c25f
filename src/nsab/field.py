"""Divergence-free velocity fields as toroidal/poloidal potential coefficients.

Storage layout
--------------
A real field's tangential spectrum is Hermitian, coef(-k) = conj(coef(k)),
so only the representative modes are stored: k1 > 0, or k1 = 0 < k2, for
wavenumbers k in [-N/2, N/2) without the Nyquist values -N/2.  The
potentials ``psi`` and ``phi`` are (R, n) arrays with one row per
representative, R = ((N1 - 1)(N2 - 1) - 1) / 2; the (0,0) slot is carried
separately as two real mean profiles (U1(z), U2(z), 0).  A basis block
depends on the wavenumber only through m = |eta|^2, so all modes of
bitwise-equal m share one, and the rows are stored block-major
(:class:`ModeLayout`, one per geometry and resolution, as m depends on the
periods): sorted by block, the blocks numbered by their row count, so the
blocks with k rows each form one contiguous slice.  Every per-block stack
(bases, forms, propagators, eigenvectors) acts on a field's rows through
:func:`blockmul`, one matmul per such bucket; nothing is gathered per row.

Coefficients are expressed in the per-block orthonormalized bases of
:mod:`nsab.basis`, so the L2 inner product of two fields is the Hermitian
dot product of their rows, counted twice for the conjugate partners, plus
the dot product of the mean rows.

This module and the snapshot file boundary are the only places that know
that layout; other modules apply stacks with :meth:`SolenoidalField.apply`
and reach rows through the layout's ``row``, ``groups`` and ``block``.

One synthesis/analysis pair maps coefficients to Fourier-side profiles at
the quadrature nodes - complex (C, R, Q) rows of the C components asked
for, plus the real (C, Q) mean profile - in a few batched calls: a
per-block change of basis (:func:`blockmul`), one gemm per potential
against the raw tables of its derivative orders side by side, shared by
all blocks, and one product with per-row (C, orders) mixing matrices of
i eta1, i eta2, m and the filter (:meth:`ModeLayout.mixing`).
:func:`synthesize` evaluates velocity (and, on request, the curl of the
filtered velocity v = (1 - alpha^2 Lap) u and Lap^2 u); :func:`analyze`,
its L2 adjoint (the same steps transposed), is the Galerkin projection
onto the solenoidal test basis (a Leray projection when fed an arbitrary
field).

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
instead of allocated afresh.  The grid owns one workspace per node count Q
and leading member axes, so it lives as long as the grid, which
:func:`layout_for` keeps for the whole process: a run that freed it on exit
would hand the pages back to the OS and take the page faults again in the
next run.  Arrays carved from a workspace are overwritten by the next call
that uses it, so the path is not reentrant (nsab is serial); the public
:func:`synthesize`, :func:`reconstruct` and :func:`project_velocity`
return fresh arrays unless given a workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import ParameterError


def _int_freqs(N):
    """Integer wavenumbers of an N-point DFT in fft order: 0, 1, ..., -1."""
    return (np.arange(N) + N // 2) % N - N // 2


def _roots(M, j):
    """cos and sin of 2 pi j / M, the phase taken from the integer j mod M,
    so every value is one of the M roots of unity."""
    angle = (2.0 * np.pi / M) * (j % M)
    return np.cos(angle), np.sin(angle)


class ModeLayout:
    """Block-major rows of the representative tangential modes.

    ``reps`` lists the representatives (k1, k2) in fft traversal order.  A
    block is one bitwise-distinct m = |eta|^2, eta from :meth:`wavenumber`:
    ``m`` (U,) holds the blocks' m and ``block`` (R,) each row's block, the
    one block numbering.  Blocks are numbered by their row count, then by
    first appearance in ``reps``, and rows are sorted by block, so the nb
    blocks with k rows each are one contiguous (nb k, n) slice of a
    potential: ``buckets`` lists these runs as (rows, blocks, (nb, k)), the
    form :func:`blockmul` reads, ``potential_buckets`` and ``potential_blocks``
    the runs and row blocks of psi, phi and the mean.  ``groups`` maps each
    key (|k1|, |k2|) to its slice of rows, in order of first appearance in
    ``reps``; within a group, rows keep the ``reps`` order, and ``by_group``
    lists the rows group after group.  ``k`` is the (R, 2) array of row
    wavenumbers, ``row`` the (k1, k2) -> row lookup, ``eta`` the (R, 1)
    columns eta1, eta2 and m of the rows.  ``grid`` is the transform to the
    padded grid, built on first use, and :meth:`mixing` the synthesis
    matrices of the rows, kept as long as the layout.
    """

    def __init__(self, geometry, resolution):
        N1, N2 = resolution.N1, resolution.N2
        self.N1, self.N2, self.L = N1, N2, (geometry.L1, geometry.L2)
        self.padded_shape = resolution.padded_shape
        self.reps = [(int(k1), int(k2))
                     for k1 in _int_freqs(N1) if 2 * k1 != -N1
                     for k2 in _int_freqs(N2) if 2 * k2 != -N2
                     if k1 > 0 or (k1 == 0 and k2 > 0)]
        members = {}
        for k1, k2 in self.reps:
            members.setdefault((abs(k1), abs(k2)), []).append((k1, k2))
        k = np.array([mode for modes in members.values() for mode in modes], int).reshape(-1, 2)
        e1, e2 = self.wavenumber(*k.T)
        m, first, inv, count = np.unique(e1 * e1 + e2 * e2, return_index=True,
                                         return_inverse=True, return_counts=True)
        order = np.lexsort((first, count))  # (rows per block, first appearance)
        block = np.argsort(order)[inv]
        rows = np.argsort(block, kind="stable")
        self.m, self.block, self.k = m[order], block[rows], k[rows]
        self.by_group = np.argsort(rows)
        self.row = {(int(k1), int(k2)): r for r, (k1, k2) in enumerate(self.k)}
        self.groups = {key: slice(self.row[modes[0]], self.row[modes[0]] + len(modes))
                       for key, modes in members.items()}
        e1, e2 = e1[rows, None], e2[rows, None]
        self.eta = e1, e2, e1 * e1 + e2 * e2
        size, nb = (a.tolist() for a in np.unique(count, return_counts=True))
        ends = zip(np.cumsum(np.multiply(size, nb)).tolist(), np.cumsum(nb).tolist())
        self.buckets = [(slice(r - s * n, r), slice(b - n, b), (n, s))
                        for s, n, (r, b) in zip(size, nb, ends)]
        self.potential_buckets = (self.buckets, self.buckets, MEAN_BUCKETS)
        self.potential_blocks = (self.block, self.block, np.zeros(2, int))
        self._mixing = {}

    def wavenumber(self, k1, k2):
        L1, L2 = self.L
        return 2.0 * np.pi * k1 / L1, 2.0 * np.pi * k2 / L2

    @cached_property
    def grid(self):
        return PaddedGrid(self.k, self.N1, self.N2, self.padded_shape)

    def mixing(self, want, alpha=None):
        """The products of synthesis after the table gemms, (rows, mean), of
        the quantities want at filter length alpha (read by curl_v only),
        kept per want for the last alpha asked.  rows is the complex (R, C, O)
        stack of per-row matrices, C = 3 len(want) components in want order,
        O = 2 nd + 1 derivative orders (psi's 0..nd-1, then phi's 0..nd):
        each quantity is vel(t, p) = (i eta2 t + i eta1 p', -i eta1 t + i
        eta2 p', m p) of D-polynomials t, p of the potentials, Lap = D^2 - m,
        F = 1 - alpha^2 Lap: u = vel(psi, phi), curl v = vel(-F Lap phi, F
        psi) (the curl commutes with F) and Lap^2 u = vel(Lap^2 psi, Lap^2
        phi).  mean (C, 2 nd + 2) mixes the mean's orders 0..nd of (U1, U2)
        alike into (U1, U2, 0), (-V2', V1', 0) with V = F U, and (U1^(4),
        U2^(4), 0).
        """
        want, alpha = tuple(want), (alpha if "curl_v" in want else None)
        if want in self._mixing and self._mixing[want][0] == alpha:
            return self._mixing[want][1:]
        nd = max(QUANTITIES[name] for name in want)
        e1, e2, m = (x[:, 0] for x in self.eta)
        a2, one = (0.0 if alpha is None else alpha**2), np.ones_like(m)
        # coefficients of D^0, D^1, ...: F, -F Lap and Lap^2
        f0 = 1.0 + a2 * m
        filt, curl, bilap = ([f0, 0.0, -a2 * one], [m * f0, 0.0, -(f0 + a2 * m), 0.0, a2 * one],
                             [m * m, 0.0, -2.0 * m, 0.0, one])
        # per quantity, (potential, D-polynomial) of t and of p: 0 psi, 1 phi;
        # for the mean, the D-polynomial and its 2 x 2 map of (U1, U2)
        parts = {"u": ((0, [one]), (1, [one]), [1.0], np.eye(2)),
                 "curl_v": ((1, curl), (0, filt), [0.0, 1.0, 0.0, -a2],
                            np.array([[0.0, -1.0], [1.0, 0.0]])),
                 "bilap_u": ((0, bilap), (1, bilap), [0.0] * 4 + [1.0], np.eye(2))}
        rows = np.zeros((len(m), 3 * len(want), 2 * nd + 1), complex)
        mean = np.zeros((3 * len(want), nd + 1, 2))
        for i, name in enumerate(want):
            (pt, t), (pp, p), mean_poly, S = parts[name]
            for d, c in enumerate(t):
                rows[:, 3 * i, pt * nd + d] += 1j * e2 * c
                rows[:, 3 * i + 1, pt * nd + d] -= 1j * e1 * c
            for d, c in enumerate(p):
                rows[:, 3 * i, pp * nd + d + 1] += 1j * e1 * c
                rows[:, 3 * i + 1, pp * nd + d + 1] += 1j * e2 * c
                rows[:, 3 * i + 2, pp * nd + d] += m * c
            for d, c in enumerate(mean_poly):
                mean[3 * i:3 * i + 2, d] = c * S
        self._mixing[want] = alpha, rows, mean.reshape(len(mean), -1)
        return self._mixing[want][1:]


class PaddedGrid:
    """Matrix DFT between the stored modes and the padded M1 x M2 grid.

    The spectral side is the box of stored wavenumbers, 0 <= k1 <= K1 - 1
    (K1 = N1/2) and |k2| <= K2 = N2/2 - 1, as a real (..., C, K1, 2, J, Q)
    array, J = 2 K2 + 1, with the real and imaginary parts in separate
    planes.  The inverse applies the complex (M2, J) DFT along k2 as one
    real (2 M2, 2 J) block, then one real (M1, 2 K1) gemm along k1 that
    writes the grid: u = Re sum_k1 c_k1 G_k1(y) exp(2 pi i k1 x / M1), with
    c = 2 for k1 > 0 (the conjugate partners k1 < 0) and c = 1 for k1 = 0,
    whose column holds its partners itself.  :meth:`from_grid` is the
    adjoint, scaled by 1/(M1 M2), so it returns the grid's Fourier
    coefficients of the stored modes.  Each row's real and imaginary part
    have a flat (k1, plane, k2) box index, ``slots``: one indexed copy per
    plane moves the rows of all C components.

    Both transforms write into a :class:`GridWorkspace` when given one
    (:meth:`workspace`), into fresh arrays otherwise.  Leading member axes
    of a stacked field stay batch axes of every gemm.
    """

    def __init__(self, k, N1, N2, shape):
        M1, M2 = shape
        K1, K2 = N1 // 2, N2 // 2 - 1
        J = 2 * K2 + 1
        k1, k2 = k.T
        zero = np.flatnonzero(k1 == 0)
        self.slots = ((2 * k1) * J + k2 + K2, (2 * k1 + 1) * J + k2 + K2)
        # rows k1 = 0 also fill their partners' slots -k2, conjugated
        self.partners = (zero, K2 - k2[zero], J + K2 - k2[zero])
        self.center = K2
        self.box = (K1, 2, J)
        self.shape = (M1, M2)
        cy, sy = _roots(M2, np.arange(M2)[:, None] * np.arange(-K2, K2 + 1))
        self.y_inv = np.block([[cy, -sy], [sy, cy]])
        self.y_fwd = np.ascontiguousarray(self.y_inv.T / M2)
        cx, sx = _roots(M1, np.arange(M1)[:, None] * np.arange(K1))
        c = np.where(np.arange(K1) > 0, 2.0, 1.0)
        self.x_inv = np.stack([c * cx, -c * sx], axis=-1).reshape(M1, 2 * K1)
        self.x_fwd = np.stack([cx.T, -sx.T], axis=1).reshape(2 * K1, M1) / M1
        self._work = {}

    def workspace(self, Q, lead):
        """The :class:`GridWorkspace` at Q nodes for fields with leading
        member axes lead, built on first use and kept as long as the grid."""
        if (Q, lead) not in self._work:
            self._work[Q, lead] = GridWorkspace(self, Q, lead)
        return self._work[Q, lead]

    def to_grid(self, rows, mean, work=None):
        """Real (..., C, M1, M2, Q) samples of the complex (..., C, R, Q)
        rows and real (..., C, Q) mean of :func:`synthesize_rows`; into the
        workspace work, if given, which holds the grid of its quantities."""
        *lead, C, R, Q = rows.shape
        K1, _, J = self.box
        (re, im), (zero, pre, pim) = self.slots, self.partners
        # the writes below fill every slot of the box, so a reused one needs
        # no zeroing
        box = np.empty((*lead, C, 2 * K1 * J, Q)) if work is None else work.box
        box[..., re, :] = rows.real
        box[..., im, :] = rows.imag
        box[..., pre, :] = rows.real[..., zero, :]
        box[..., pim, :] = -rows.imag[..., zero, :]
        box[..., self.center, :] = mean
        box[..., self.center + J, :] = 0.0  # the mean is real
        n = math.prod(lead) * C
        half = np.matmul(self.y_inv, box.reshape(n * K1, 2 * J, Q), out=_slot(work, "half"))
        grid = np.matmul(self.x_inv, half.reshape(n, 2 * K1, -1), out=_slot(work, "grid"))
        return grid.reshape(*lead, C, *self.shape, Q)

    def from_grid(self, U, work=None):
        """(rows, mean) Fourier coefficients of real (..., M1, M2, Q)
        samples: complex (..., R, Q) rows of the stored modes and the real
        (..., Q) mean."""
        *lead, M1, M2, Q = U.shape
        K1, n = self.box[0], math.prod(lead)
        half = np.matmul(self.x_fwd, U.reshape(n, M1, M2 * Q), out=_slot(work, "fhalf"))
        box = np.matmul(self.y_fwd, half.reshape(n * K1, 2 * M2, Q), out=_slot(work, "fbox"))
        box = box.reshape(*lead, -1, Q)
        # take with mode="clip" writes into out directly (the indices are in range)
        re, im = (np.take(box, idx, axis=-2, out=_slot(work, name), mode="clip")
                  for idx, name in zip(self.slots, ("re", "im")))
        rows = np.multiply(1j, im, out=_slot(work, "rows"))
        return np.add(re, rows, out=rows), box[..., self.center, :]


def _slot(work, name):
    """The workspace array name, or None (a fresh result) without one."""
    return None if work is None else getattr(work, name)


class GridWorkspace:
    """Reused arrays of one product of synthesized quantities on the grid.

    Serves :func:`nsab.evolution.nonlinear_term` on fields with leading
    member axes lead (E members; () for one field): :func:`synthesize_rows`
    of the quantities :attr:`want` (C = 3 len(want) components),
    :meth:`PaddedGrid.to_grid`, a (3, M1, M2, Q) pointwise product,
    :meth:`PaddedGrid.from_grid` and :func:`analyze`.  Every array is a view
    of one of two flat float64 regions.  Each step of the chain reads one
    region and writes the other, so the arrays of a region take turns:

    region A: ``values`` (derivative values), ``box``, ``grid``, ``fhalf``,
    ``re``/``im`` (gathered parts), ``mixed`` (the analysis mixing);

    region B: ``profiles`` (lead + (C, R, Q) rows), ``half``, ``prod`` and
    its ``scratch``, ``fbox`` and the gathered ``rows`` (after ``fbox``,
    whose mean slot :func:`analyze` still reads).
    """

    #: the quantities of the nonlinear term, velocity and filtered vorticity
    want = ("u", "curl_v")

    def __init__(self, grid, Q, lead):
        K1, _, J = grid.box
        M1, M2 = grid.shape
        R, C, E = len(grid.slots[0]), 3 * len(self.want), math.prod(lead)
        O = 2 * max(QUANTITIES[name] for name in self.want) + 1
        rows = lead + (3, R, Q)
        # per region, its stages in turn; the arrays of a stage lie end to end
        regions = (
            [[("values", lead + (R, O * Q), complex)],
             [("box", lead + (C, 2 * K1 * J, Q), float)],
             [("grid", (E * C, M1, M2 * Q), float)],
             [("fhalf", (E * 3, 2 * K1, M2 * Q), float)],
             [("re", rows, float), ("im", rows, float)],
             [("mixed", lead + (R, 3, Q), complex)]],
            [[("profiles", lead + (C, R, Q), complex)],
             [("half", (E * C * K1, 2 * M2, Q), float)],
             [("prod", lead + (3, M1, M2, Q), float), ("scratch", lead + (M1, M2, Q), float)],
             [("fbox", (E * 3 * K1, 2 * J, Q), float), ("rows", rows, complex)]])
        for region in regions:
            buf = np.empty(max(sum(_floats(shape, dtype) for _, shape, dtype in stage)
                               for stage in region))
            for stage in region:
                at = 0
                for name, shape, dtype in stage:
                    n = _floats(shape, dtype)
                    setattr(self, name, buf[at:at + n].view(dtype).reshape(shape))
                    at += n


def _floats(shape, dtype):
    """Number of float64 slots an array of this shape and dtype takes."""
    return math.prod(shape) * np.dtype(dtype).itemsize // 8


_layouts = {}


def layout_for(geometry, resolution):
    key = (resolution.N1, resolution.N2, geometry.L1, geometry.L2)
    if key not in _layouts:
        _layouts[key] = ModeLayout(geometry, resolution)
    return _layouts[key]


@dataclass
class SolenoidalField:
    """Potential coefficients of one divergence-free field, or of a stack
    of E member fields whose arrays carry a leading (E,) axis; ``f[j]`` is
    member j, as views.

    The same container doubles as storage for Galerkin right-hand sides
    (projections of arbitrary fields onto the solenoidal test basis).
    """

    geometry: object
    resolution: object
    psi: np.ndarray  # (R, P-1) complex toroidal coefficients, one row per mode
    phi: np.ndarray  # (R, P-3) complex poloidal coefficients
    mean: np.ndarray  # (2, P-1) real mean-profile coefficients

    def _map(self, fn, *parts):
        """The field of fn(c, *entries) per potential c and its entries of parts."""
        return SolenoidalField(self.geometry, self.resolution,
                               *map(fn, self.potentials(), *parts))

    def copy(self):
        return self._map(np.copy)

    def __add__(self, other):
        return self._map(np.add, other.potentials())

    def __sub__(self, other):
        return self._map(np.subtract, other.potentials())

    def __mul__(self, s):
        return self._map(lambda c: c * s)

    __rmul__ = __mul__

    def __getitem__(self, j):
        return self._map(lambda c: c[j])

    @staticmethod
    def stack(fields):
        """The stacked field whose member j is fields[j]."""
        return fields[0]._map(lambda *cs: np.stack(cs), *(f.potentials() for f in fields[1:]))

    def potentials(self):
        """(psi, phi, mean), the order of :attr:`nsab.operators.OperatorSet.blocks`."""
        return self.psi, self.phi, self.mean

    def apply(self, stacks):
        """The (toroidal, poloidal, mean) per-block stacks applied to the
        potentials' rows by :func:`blockmul`, behind any member axes."""
        runs = layout_for(self.geometry, self.resolution).potential_buckets
        return self._map(lambda c, W, b: blockmul(W, c, b), stacks, runs)

    def dot(self, other, per_member=False):
        """L2 inner product over the full (Hermitian) spectrum and any member
        axes; real.  A stored mode counts twice, for its conjugate partner.
        per_member: the (E,) products of stacked fields' members, each summed
        as its own, as dot products of float views."""
        if per_member:
            E = len(self.mean)
            return sum(k * np.einsum("ej,ej->e", *(c.reshape(E, -1).view(float) for c in cs))
                       for k, *cs in zip((2.0, 2.0, 1.0), other.potentials(), self.potentials()))
        return (2.0 * (np.vdot(other.psi, self.psi).real
                       + np.vdot(other.phi, self.phi).real)
                + float(np.vdot(other.mean, self.mean)))

    def norm_l2(self):
        return np.sqrt(max(self.dot(self), 0.0))


def zero_field(geometry, resolution):
    R = len(layout_for(geometry, resolution).reps)
    return SolenoidalField(
        geometry, resolution,
        np.zeros((R, resolution.n_toroidal), complex),
        np.zeros((R, resolution.n_poloidal), complex),
        np.zeros((2, resolution.n_toroidal)))


def random_field(geometry, resolution, seed=0, amplitude=1.0, decay=0.5):
    """Seeded random field with smoothly decaying spectrum, ||u||_L2 = amplitude.

    decay sets the exponential falloff rate per unit wavenumber index and
    per basis index; decay=0 gives white coefficients.  A decay so far below
    0 that the drawn field's norm overflows raises ParameterError.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lay = layout_for(geometry, resolution)
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
    # the norm sums the rows in block-group order, which the storage order
    # of the blocks does not change
    g = lay.by_group
    nrm = SolenoidalField(geometry, resolution, f.psi[g], f.phi[g], mean).norm_l2()
    if not np.isfinite(nrm):
        raise ParameterError(f"decay = {decay!r} overflows the random field's L2 norm")
    if nrm > 0:
        f = f * (amplitude / nrm)
    return f


# ---------------------------------------------------------------------------
# synthesis: coefficients -> Fourier-side profiles -> padded physical grid
# ---------------------------------------------------------------------------

#: quantities synthesize can evaluate, each with the highest phi derivative
#: it needs (psi derivatives go one order lower)
QUANTITIES = {"u": 1, "curl_v": 4, "bilap_u": 5}


#: the bucket of the mean block: its two rows U1, U2 share the one block
MEAN_BUCKETS = ((slice(0, 2), slice(0, 1), (1, 2)),)


def blockmul(W, c, buckets):
    """W[b] @ c[r] for every row r of each block b of the (U, n_out, n) stack
    W, behind any member axes of c: per bucket of buckets
    (:attr:`ModeLayout.buckets`) one matmul of the blocks' real (nb, n_out, n)
    stack against their rows as an (nb, k, n, 2) array, the complex rows as
    real pairs, so W is never cast.  Each row is the same (n_out, n) @ (n, 2)
    gemm however the blocks are bucketed."""
    c = np.ascontiguousarray(c)
    *lead, R, n = c.shape
    t, L = (2 if c.dtype.kind == "c" else 1), math.prod(lead)
    x = c.view(np.float64).reshape(L, R, n * t)
    y = np.empty((L, R, W.shape[-2] * t))
    for rows, blocks, (nb, k) in buckets:
        np.matmul(W[blocks, None], x[:, rows].reshape(L, nb, k, n, t),
                  out=y[:, rows].reshape(L, nb, k, -1, t))
    return y.view(c.dtype).reshape(*lead, R, W.shape[-2])


def synthesize_rows(f, cache, want=("u",), alpha=None, work=None):
    """The profiles of :func:`synthesize` as one block, the layout
    :meth:`PaddedGrid.to_grid` reads: complex (..., C, R, Q) rows, C =
    3 len(want) components in want order, and the real (..., C, Q) mean
    profile; the rows are a view of the :class:`GridWorkspace` work of the
    same want, if given.  The (..., R, O, Q) derivative values the table
    gemms write are mixed by :meth:`ModeLayout.mixing`."""
    if alpha is None and "curl_v" in want:
        raise ValueError("filtered quantities need the filter length alpha")
    mix, mean_mix = cache.layout.mixing(want, alpha)
    _, C, O = mix.shape
    nd, Q, buckets = O // 2, f.resolution.Q, cache.layout.buckets
    ct, cp = blockmul(cache.W_tor, f.psi, buckets), blockmul(cache.W_pol, f.phi, buckets)
    *lead, R, _ = ct.shape
    values = np.empty((*lead, R, O * Q), complex) if work is None else work.values
    np.matmul(ct, cache.synth_T[:, :nd * Q], out=values[..., :nd * Q])
    np.matmul(cp, cache.synth_C[:, :(nd + 1) * Q], out=values[..., nd * Q:])
    rows = np.empty((*lead, C, R, Q), complex) if work is None else work.profiles
    # each row's (C, Q) product is written in place, strided, into its rows
    np.matmul(mix, values.reshape(*lead, R, O, Q), out=np.swapaxes(rows, -3, -2))
    mean = np.matmul(f.mean[..., None, :, :], cache.mean_E[:nd + 1].swapaxes(-1, -2))
    return rows, np.matmul(mean_mix, mean.reshape(*lead, -1, Q))


def synthesize(f, cache, want=("u",), alpha=None, work=None):
    """Fourier-side profiles of the requested quantities at the quadrature nodes.

    Names are those of :data:`QUANTITIES`: velocity, the curl of the
    filtered velocity v = (1 - alpha^2 Lap) u (this one needs alpha) and
    Lap^2 u.  Returns dict mapping names to (rows, mean): complex (3, R, Q)
    profiles of the representative modes in row order and the real (3, Q)
    profile of the (0, 0) mode, behind the member axes of a stacked f:
    slices of the :func:`synthesize_rows` block.  Conjugate partners are not
    formed.
    """
    rows, mean = synthesize_rows(f, cache, want, alpha, work)
    return {name: (rows[..., 3 * i:3 * i + 3, :, :], mean[..., 3 * i:3 * i + 3, :])
            for i, name in enumerate(want)}


def reconstruct(f, cache, want=("u",), alpha=None, work=None):
    """Evaluate requested physical-space quantities on the padded grid.

    Returns dict mapping names to real arrays of shape (..., 3, M1, M2, Q),
    all transformed in one :meth:`PaddedGrid.to_grid` call; views of the
    workspace work, if given.
    """
    rows, mean = synthesize_rows(f, cache, want, alpha, work)
    grid = cache.layout.grid.to_grid(rows, mean, work)
    return {name: grid[..., 3 * i:3 * i + 3, :, :, :] for i, name in enumerate(want)}


# ---------------------------------------------------------------------------
# analysis: Fourier-side profiles -> Galerkin duals (the L2 adjoint)
# ---------------------------------------------------------------------------

def analyze(rows, mean, cache, work=None):
    """Galerkin projection of Fourier-side profiles onto the solenoidal basis.

    rows/mean: profiles of the representative modes and of (0, 0), as
    :func:`synthesize` returns them for the cache.  Velocity synthesis
    transposed step by step: the mixing matrices, quadrature weights (and
    area), the tables of psi's value and of phi's value and derivative, W.
    Returns the dual coefficients (same container as fields), which own
    their arrays also when the mixed rows go to the workspace work.
    """
    wa, Q, buckets = cache.geometry.area * cache.w, cache.resolution.Q, cache.layout.buckets
    adjoint = np.swapaxes(cache.layout.mixing(("u",))[0].conj(), -1, -2)
    g = np.matmul(adjoint, np.swapaxes(rows, -3, -2), out=_slot(work, "mixed"))
    np.multiply(g, wa, out=g)
    gt = g[..., 0, :] @ cache.synth_T[:, :Q].T
    gp = g[..., 1:, :].reshape(*g.shape[:-2], 2 * Q) @ cache.synth_C[:, :2 * Q].T
    return SolenoidalField(cache.geometry, cache.resolution,
                           blockmul(cache.W_tor.transpose(0, 2, 1), gt, buckets),
                           blockmul(cache.W_pol.transpose(0, 2, 1), gp, buckets),
                           (wa * mean[..., :2, :]) @ cache.mean_E[0])


def project_velocity(U, cache, work=None):
    """L2 projection of a gridded vector field onto the solenoidal basis.

    For fields inside the discrete space this inverts the velocity of
    :func:`reconstruct`; in general it realizes the Leray-type
    projection (gradient parts drop out by construction of the test basis).
    With a workspace, U is a (..., 3, M1, M2, Q) array of the workspace's
    member axes and the transforms write into work.
    """
    rows, mean = cache.layout.grid.from_grid(U, work)
    return analyze(rows, mean, cache, work)
