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
the quadrature nodes in the same row layout - complex (3, R, Q) rows plus
the real (3, Q) mean profile - in a few batched calls: a per-block change
of basis (:func:`blockmul`) and one gemm per potential against the raw
tables of its derivative orders side by side, which all blocks share.
:func:`synthesize`
evaluates velocity (and, on request, the curl of the filtered velocity
v = (1 - alpha^2 Lap) u and Lap^2 u); :func:`analyze`, its L2 adjoint, is
the Galerkin projection onto the solenoidal test basis (a Leray projection
when fed an arbitrary field).

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
    padded grid, built on first use.
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

    def wavenumber(self, k1, k2):
        L1, L2 = self.L
        return 2.0 * np.pi * k1 / L1, 2.0 * np.pi * k2 / L2

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
    (:meth:`workspace`), into fresh arrays otherwise.  Leading member axes
    of a stacked field stay batch axes of every gemm.
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

    def workspace(self, want, Q, lead):
        """The :class:`GridWorkspace` of the quantities want at Q nodes for
        fields with leading member axes lead, built on first use and kept as
        long as the grid."""
        key = (tuple(want), Q, lead)
        if key not in self._work:
            self._work[key] = GridWorkspace(self, want, Q, lead)
        return self._work[key]

    def to_grid(self, profiles, work=None):
        """Real (..., 3 n, M1, M2, Q) samples of n (rows, mean) profile
        pairs, complex (..., 3, R, Q) rows and the real (..., 3, Q) mean as
        :func:`synthesize` returns them; with a workspace, the rows are read
        from its profiles, all quantities at once, which synthesize given the
        same workspace has written."""
        profiles = list(profiles)
        rows = (np.concatenate([r for r, _ in profiles], axis=-3) if work is None
                else work.all_profiles)
        mean = np.concatenate([m for _, m in profiles], axis=-2)
        *lead, B, _, Q = rows.shape
        (k1, j2), (zero, jp) = self.rows, self.partners
        # the writes below fill every slot of the box, so a reused one needs
        # no zeroing
        box = np.empty((*lead, B) + self.box + (Q,)) if work is None else work.box
        box[..., k1, 0, j2, :] = rows.real
        box[..., k1, 1, j2, :] = rows.imag
        box[..., 0, 0, jp, :] = rows.real[..., zero, :]
        box[..., 0, 1, jp, :] = -rows.imag[..., zero, :]
        box[..., 0, 0, self.center, :] = mean
        box[..., 0, 1, self.center, :] = 0.0  # the mean is real
        K1, n = self.box[0], math.prod(lead) * B
        half = np.matmul(self.y_inv, box.reshape(n * K1, -1, Q), out=_slot(work, "half"))
        grid = np.matmul(self.x_inv, half.reshape(n, 2 * K1, -1), out=_slot(work, "grid"))
        return grid.reshape((*lead, B) + self.shape + (Q,))

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
                  for idx, name in zip(self.gather, ("re", "im")))
        rows = np.multiply(1j, im, out=_slot(work, "rows"))
        return np.add(re, rows, out=rows), box[..., self.center, :]


def _slot(work, name):
    """The workspace array name, or None (a fresh result) without one."""
    return None if work is None else getattr(work, name)


class GridWorkspace:
    """Reused arrays of one product of synthesized quantities on the grid.

    Serves :func:`nsab.evolution.nonlinear_term` on fields with leading
    member axes lead (E members; () for one field): synthesis of the
    quantities want (B = 3 len(want) components), :meth:`PaddedGrid.to_grid`,
    a (3, M1, M2, Q) pointwise product, :meth:`PaddedGrid.from_grid` and
    :func:`analyze`.  Every array is a view of one of two flat float64
    regions.  Each step of the chain reads one region and writes the other,
    so the arrays of a region take turns:

    region A: ``tvals``/``pvals``/``terms`` (derivative values, profile
    terms), ``box``, ``grid``, ``fhalf``, ``re``/``im`` (gathered parts),
    ``weighted``/``mixed`` (rows times the quadrature weights, their sums);

    region B: ``profiles`` (``all_profiles``: every quantity's, as
    lead + (3 q, R, Q)), ``half``, ``prod`` and its ``scratch``,
    ``fbox`` and the gathered ``rows`` (after ``fbox``, whose mean slot
    :func:`analyze` still reads).
    """

    def __init__(self, grid, want, Q, lead):
        K1, _, J = grid.box
        M1, M2 = grid.shape
        R, B, E = len(grid.rows[0]), 3 * len(want), math.prod(lead)
        nd = max(QUANTITIES[name] for name in want)
        rq, rows = lead + (R, Q), (lead + (3, R, Q), complex)
        # per region, its stages in turn; the arrays of a stage lie end to end
        regions = (
            [[("tvals", lead + (R, nd * Q), complex),
              ("pvals", lead + (R, (nd + 1) * Q), complex), ("terms", (4,) + rq, complex)],
             [("box", lead + (B, K1, 2, J, Q), float)],
             [("grid", (E * B, M1, M2 * Q), float)],
             [("fhalf", (E * 3, 2 * K1, M2 * Q), float)],
             [("re", lead + (3, R, Q), float), ("im", lead + (3, R, Q), float)],
             [("weighted",) + rows, ("mixed", (2,) + rq, complex)]],
            [[("profiles", lead + (len(want), 3, R, Q), complex)],
             [("half", (E * B * K1, 2 * M2, Q), float)],
             [("prod", lead + (3, M1, M2, Q), float), ("scratch", lead + (M1, M2, Q), float)],
             [("fbox", (E * 3 * K1, 2 * J, Q), float), ("rows",) + rows]])
        for region in regions:
            buf = np.empty(max(sum(_floats(shape, dtype) for _, shape, dtype in stage)
                               for stage in region))
            for stage in region:
                at = 0
                for name, shape, dtype in stage:
                    n = _floats(shape, dtype)
                    setattr(self, name, buf[at:at + n].view(dtype).reshape(shape))
                    at += n
        self.all_profiles = self.profiles.reshape(lead + (B, R, Q))
        self.profiles = {name: self.profiles[..., i, :, :, :] for i, name in enumerate(want)}


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

    def dot(self, other):
        """L2 inner product over the full (Hermitian) spectrum and any member
        axes; real.  A stored mode counts twice, for its conjugate partner."""
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


def velocity(e1, e2, m, t, p1, p0):
    """Velocity (3, ...) of toroidal t and poloidal p0, p1 = p0' at (e1, e2)."""
    return np.stack([1j * e2 * t + 1j * e1 * p1, -1j * e1 * t + 1j * e2 * p1, m * p0])


def _minus(a, x, y, out):
    """y - a * x, written to out (None: a fresh array)."""
    out = np.multiply(a, x, out=out)
    return np.subtract(y, out, out=out)


def _combine(a, x, b, y, out, tmp):
    """a * x + b * y, written to out with tmp as scratch (None: fresh arrays)."""
    out = np.multiply(a, x, out=out)
    return np.add(out, np.multiply(b, y, out=tmp), out=out)


def _mode_profiles(m, eta1, eta2, tvals, pvals, want, alpha, into, tmp):
    """Component profiles of the representative modes at quadrature nodes.

    m, eta1, eta2: (R, 1) per-row data; tvals/pvals: lists of (R, Q) views
    of potential derivative values, one per order; into: name -> (3, R, Q)
    array to write, or None for a fresh one; tmp: (4, R, Q) scratch, or None
    for fresh arrays.  Returns {"u": (3, R, Q), ...}.
    """
    ie1, ie2 = 1j * eta1, 1j * eta2
    s0, s1, s2, s3 = [None] * 4 if tmp is None else tmp
    out = {}

    def vel(td, pd1, pd0, name):
        # velocity-like triple from psi-derivs (order d) and phi-derivs (d+1, d)
        v = into[name]
        if v is None:
            v = np.empty(td.shape[:-2] + (3,) + td.shape[-2:], complex)
        v0, v1, v2 = (v[..., i, :, :] for i in range(3))
        _combine(ie2, td, ie1, pd1, v0, s3)
        _combine(-ie1, td, ie2, pd1, v1, s3)
        np.multiply(m, pd0, out=v2)
        return v

    if "u" in want:
        out["u"] = vel(tvals[0], pvals[1], pvals[0], "u")
    if "curl_v" in want:
        # curl u = vel(-Lap phi, D psi, psi), and curl commutes with the
        # filter: curl v = vel(T, D P, P) with T = -(1 - a^2 Lap) Lap phi,
        # P = (1 - a^2 Lap) psi and Lap = D^2 - m
        a2 = alpha**2
        T = _minus(2 * m, pvals[2], pvals[4], s0)
        np.add(T, np.multiply(m * m, pvals[0], out=s3), out=T)
        np.subtract(np.multiply(a2, T, out=T), _minus(m, pvals[0], pvals[2], s3), out=T)
        P0 = _minus(a2, _minus(m, tvals[0], tvals[2], s1), tvals[0], s1)
        P1 = _minus(a2, _minus(m, tvals[1], tvals[3], s2), tvals[1], s2)
        out["curl_v"] = vel(T, P1, P0, "curl_v")
    if "bilap_u" in want:
        out["bilap_u"] = vel(tvals[4] - 2 * m * tvals[2] + m * m * tvals[0],
                             pvals[5] - 2 * m * pvals[3] + m * m * pvals[1],
                             pvals[4] - 2 * m * pvals[2] + m * m * pvals[0],
                             "bilap_u")
    return out


def _mean_profiles(E, mean, want, alpha, nd):
    # (..., 3, Q) derivatives of (U1, U2, 0): one gemv per order and mean row,
    # in one batched product over the stacked orders E
    U = np.zeros(mean.shape[:-2] + (nd + 1, 3, E.shape[1]))
    np.matmul(E[:nd + 1, None], mean[..., None, :, :, None], out=U[..., :2, :, None])
    out = {}
    if "u" in want:
        out["u"] = U[..., 0, :, :]
    if "curl_v" in want:
        # curl (V1, V2, 0)(z) = (-V2', V1', 0) with V = U - alpha^2 U''
        dV = U[..., 1, :, :] - alpha**2 * U[..., 3, :, :]
        out["curl_v"] = dV[..., [1, 0, 2], :] * np.array([[-1.0], [1.0], [1.0]])
    if "bilap_u" in want:
        out["bilap_u"] = U[..., 4, :, :]
    return out


def synthesize(f, cache, want=("u",), alpha=None, work=None):
    """Fourier-side profiles of the requested quantities at the quadrature nodes.

    Names are those of :data:`QUANTITIES`: velocity, the curl of the
    filtered velocity v = (1 - alpha^2 Lap) u (this one needs alpha) and
    Lap^2 u.  Returns dict mapping names to (rows, mean): complex (3, R, Q)
    profiles of the representative modes in row order and the real (3, Q)
    profile of the (0, 0) mode, behind the member axes of a stacked f.
    Conjugate partners are not formed.  With a :class:`GridWorkspace` of the
    same want, the rows are views of it.
    """
    if alpha is None and "curl_v" in want:
        raise ValueError("filtered quantities need the filter length alpha")
    # psi derivatives up to order nd - 1 and phi derivatives up to nd
    nd = max(QUANTITIES[name] for name in want)
    (e1, e2, m), Q, buckets = cache.layout.eta, f.resolution.Q, cache.layout.buckets
    # orthonormal -> raw coefficients, one gemm per potential against its
    # orders' tables side by side, then views per order
    ct, cp = blockmul(cache.W_tor, f.psi, buckets), blockmul(cache.W_pol, f.phi, buckets)
    into = work.profiles if work is not None else dict.fromkeys(want)
    tv = np.matmul(ct, cache.synth_T[:, :nd * Q], out=_slot(work, "tvals"))
    pv = np.matmul(cp, cache.synth_C[:, :(nd + 1) * Q], out=_slot(work, "pvals"))
    tvals, pvals = ([v[..., d * Q:(d + 1) * Q] for d in range(v.shape[-1] // Q)] for v in (tv, pv))
    rows = _mode_profiles(m, e1, e2, tvals, pvals, want, alpha, into, _slot(work, "terms"))
    means = _mean_profiles(cache.mean_E, f.mean, want, alpha, nd)
    return {name: (rows[name], means[name]) for name in want}


def reconstruct(f, cache, want=("u",), alpha=None, work=None):
    """Evaluate requested physical-space quantities on the padded grid.

    Returns dict mapping names to real arrays of shape (..., 3, M1, M2, Q),
    all transformed in one :meth:`PaddedGrid.to_grid` call; views of the
    workspace work, if given.
    """
    profiles = synthesize(f, cache, want, alpha, work)
    grid = cache.layout.grid.to_grid(profiles.values(), work)
    return {name: grid[..., 3 * i:3 * i + 3, :, :, :] for i, name in enumerate(profiles)}


# ---------------------------------------------------------------------------
# analysis: Fourier-side profiles -> Galerkin duals (the L2 adjoint)
# ---------------------------------------------------------------------------

def analyze(rows, mean, cache, work=None):
    """Galerkin projection of Fourier-side profiles onto the solenoidal basis.

    rows/mean: profiles of the representative modes and of (0, 0), as
    :func:`synthesize` returns them for the cache.  Returns the dual
    coefficients (same container as fields), which own their arrays also
    when the weighted rows go to the workspace work.
    """
    area, w = cache.geometry.area, cache.w
    (e1, e2, m), buckets = cache.layout.eta, cache.layout.buckets
    weighted = np.multiply(w, rows, out=_slot(work, "weighted"))
    f1, f2, f3 = (weighted[..., i, :, :] for i in range(3))
    a, b = (None, None) if work is None else work.mixed
    # adjoint of synthesize: raw-table gemms first, then the stacked W^T
    gt = _combine(-1j * e2, f1, 1j * e1, f2, a, b) @ cache.raw_T[0]
    gp = (_combine(-1j * e1, f1, -1j * e2, f2, a, b) @ cache.raw_C[1]
          + m * (f3 @ cache.raw_C[0]))
    psi = area * blockmul(cache.W_tor.transpose(0, 2, 1), gt, buckets)
    phi = area * blockmul(cache.W_pol.transpose(0, 2, 1), gp, buckets)
    mean0 = area * ((w * mean[..., :2, :]) @ cache.mean_E[0])
    return SolenoidalField(cache.geometry, cache.resolution, psi, phi, mean0)


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
