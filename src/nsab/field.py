"""Divergence-free velocity fields as toroidal/poloidal potential coefficients.

Storage layout
--------------
A real field's tangential spectrum is Hermitian, coef(-k) = conj(coef(k)),
so only the representative modes are stored: k1 > 0, or k1 = 0 < k2, for
wavenumbers k in [-N/2, N/2) without the Nyquist values -N/2.  The
potentials ``psi`` and ``phi`` are real (R, 2, n) arrays with one row per
representative, R = ((N1 - 1)(N2 - 1) - 1) / 2, each row's real and
imaginary coefficient vectors as two adjacent planes; the (0,0) slot is
carried separately as two real mean profiles (U1(z), U2(z), 0).  A basis
block depends on the wavenumber only through m = |eta|^2, so all modes of
bitwise-equal m share one, and the rows are stored block-major
(:class:`ModeLayout`, one per geometry and resolution, as m depends on the
periods): sorted by block, the blocks numbered by their row count, so the
blocks with k rows each form one contiguous slice.  Every per-block stack
(bases, forms, propagators, eigenvectors) acts on a field's rows through
:class:`BlockProduct`: a block's 2 k plane rows times its stack, one gemm per
block; nothing is gathered per row.

Coefficients are expressed in the per-block orthonormalized bases of
:mod:`nsab.basis`, so the L2 inner product of two fields is the dot product
of their planes, counted twice for the conjugate partners, plus the dot
product of the mean rows.

This module and the snapshot file boundary are the only places that know
that layout; other modules apply stacks with :meth:`SolenoidalField.apply`
and reach rows through the layout's ``row``, ``groups`` and ``block``.
Complex numbers appear only at the edges - the snapshot file, one row's
mixing (:meth:`ModeLayout.mix_row`), the wall functionals and audits, the
pressure fit after its one conversion - through one conversion pair,
:func:`as_complex` and :func:`as_planes`; the time step and the stationary
data run in real arithmetic end to end.

One synthesis/analysis pair maps coefficients to Fourier-side profiles at
the quadrature nodes - real (R, 2, C, Q) planes of the C components asked
for, plus the real (C, Q) mean profile - in a few batched calls: a
per-block change of basis (:class:`BlockProduct`), one real gemm per
potential against the raw tables of its derivative orders side by side,
shared by all blocks, and one real product per plane with per-row (C, orders)
mixing matrices of eta1, eta2, m and the filter (:meth:`ModeLayout.mixing`):
a tangential component is i times a real combination, so its two products
are its imaginary and real part, swapped (:func:`tangential_swap`).
:func:`synthesize_rows` evaluates velocity (and, on request, the curl of
the filtered velocity v = (1 - alpha^2 Lap) u and Lap^2 u);
:func:`analyze_rows`, its L2 adjoint (the same steps transposed), is the
Galerkin projection onto the solenoidal test basis (a Leray projection when
fed an arbitrary field).

Only :func:`reconstruct` and :func:`nsab.evolution.nonlinear_term` know the
padded grid, M1 x M2 x Q physical samples with M the smallest even count
>= 3N/2 per direction (``Resolution.padded_shape``): stored wavenumbers
reach |k| = N/2 - 1 only, so products of two fields do not alias back onto
them and their projection is exact.  Both go through :class:`PaddedGrid`,
a matrix DFT pruned to the box of stored wavenumbers (0 <= k1 < N1/2,
|k2| < N2/2): one real gemm along k2 and one along k1 each way, with
tables built once per (N1, N2).

The time step evaluates the nonlinear term through :class:`GridWorkspace`,
the arrays of one product of synthesized quantities (input and coefficient
rows, derivative values, profiles, spectral box, grid, product, forward
halves, gathered planes and dual rows) reused from call to call instead of
allocated afresh.  Each stage - :class:`BlockProduct`, the synthesis, the
two grid gathers, the analysis - is one builder of its numpy calls
over given arrays (``plan_*``): a one-off call builds them over fresh
arrays and runs them once, and a run's time step builds them once over the
workspace (:class:`nsab.evolution.NonlinearPlan`) and runs that fixed list
every step.  Arrays carved from a workspace are overwritten by the next
call that uses it, so the path is not reentrant (nsab is serial); the
public functions return fresh arrays.  The process keeps what its runs
share, as a run that freed it would rebuild it and take its page faults
again: each layout (:func:`layout_for`, per N1, N2, L1, L2), its grid
tables and the workspace arrays (one per resolution and member-axes shape,
so a stacked probe keeps its own beside the single field's), never
replaced; and a layout's mixing matrices, for the last alpha asked.  Each
run builds its own plans, basis and operator sets, which go with it: no
workspace holds a plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

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
    blocks with k rows each are one contiguous (nb k, 2, n) slice of a
    potential: ``buckets`` lists these runs as (rows, blocks, (nb, k)), the
    form :class:`BlockProduct` reads, ``potential_buckets`` and
    ``potential_blocks`` the runs and row blocks of psi, phi and the mean.
    ``groups`` maps each key (|k1|, |k2|) to its slice of rows, in order of
    first appearance in ``reps``; within a group, rows keep the ``reps``
    order, and ``by_group`` lists the rows group after group.  ``k`` is the
    (R, 2) array of row wavenumbers, ``row`` the (k1, k2) -> row lookup,
    ``eta`` the (R, 1) columns eta1, eta2 and m of the rows.  ``grid`` is the transform to the
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
        """The products of synthesis after the table gemms, (rows, mean,
        adjoint), of the quantities want at filter length alpha (read by
        curl_v only), kept per want for the last alpha asked.  Each quantity
        is vel(t, p) = (i eta2 t + i eta1 p', -i eta1 t + i eta2 p', m p) of
        D-polynomials t, p of the potentials, Lap = D^2 - m, F = 1 - alpha^2
        Lap: u = vel(psi, phi), curl v = vel(-F Lap phi, F psi) (the curl
        commutes with F) and Lap^2 u = vel(Lap^2 psi, Lap^2 phi).  A row's
        complex (C, O) matrix, C = 3 len(want) components in want order, O =
        2 nd + 1 derivative orders (psi's 0..nd-1, then phi's 0..nd), is i K
        in the tangential components and K in the normal one, K real.  So
        rows is the real (R, 2, C, O) pair (K, sign K) that multiplies the
        values' real and imaginary planes, sign = -1 in the tangential
        components, where the two products are the imaginary and the real
        part, in that order (:func:`tangential_swap`); adjoint is its
        transpose, (R, 2, O, C).  mean (C, 2 nd + 2) mixes the mean's orders
        0..nd of (U1, U2) alike into (U1, U2, 0), (-V2', V1', 0) with V = F
        U, and (U1^(4), U2^(4), 0).
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
        K = np.zeros((len(m), 3 * len(want), 2 * nd + 1))
        mean = np.zeros((3 * len(want), nd + 1, 2))
        for i, name in enumerate(want):
            (pt, t), (pp, p), mean_poly, S = parts[name]
            for d, c in enumerate(t):
                K[:, 3 * i, pt * nd + d] += e2 * c
                K[:, 3 * i + 1, pt * nd + d] -= e1 * c
            for d, c in enumerate(p):
                K[:, 3 * i, pp * nd + d + 1] += e1 * c
                K[:, 3 * i + 1, pp * nd + d + 1] += e2 * c
                K[:, 3 * i + 2, pp * nd + d] += m * c
            for d, c in enumerate(mean_poly):
                mean[3 * i:3 * i + 2, d] = c * S
        rows = np.stack([K, np.where(_tangential(len(mean)), -1.0, 1.0)[:, None] * K], axis=1)
        self._mixing[want] = (alpha, rows, mean.reshape(len(mean), -1),
                              np.ascontiguousarray(np.swapaxes(rows, -1, -2)))
        return self._mixing[want][1:]

    def mix_row(self, row, want, values, alpha=None):
        """The complex (C, Q) profiles synthesis mixes from one row's complex
        (O, Q) derivative values, as :meth:`mixing` orders them."""
        planes = self.mixing(want, alpha)[0][row] @ as_planes(values, axis=0)
        return as_complex(tangential_swap(planes), axis=0)


class PaddedGrid:
    """Matrix DFT between the stored modes and the padded M1 x M2 grid.

    The spectral side is the box of stored wavenumbers, 0 <= k1 <= K1 - 1
    (K1 = N1/2) and |k2| <= K2 = N2/2 - 1, as a real (..., C, K1, 2, J, Q)
    array, J = 2 K2 + 1, with the real and imaginary parts in separate
    planes.  The inverse applies the complex (M2, J) DFT along k2 as one
    real (2 M2, 2 J) block, then one real (M1, 2 K1) gemm along k1 that
    writes the grid: u = 2 Re sum_k1 G_k1(y) exp(2 pi i k1 x / M1), each
    k1 > 0 counting twice for its conjugate partners k1 < 0.  Column k1 = 0
    counts twice as well: it holds the stored rows k2 > 0, zeros for k2 < 0
    and half the mean, so 2 Re G_0 adds the rows' partners -k2.
    :meth:`plan_from_grid` plans the adjoint, scaled by 1/(M1 M2), which
    gives the grid's Fourier coefficients of the stored modes.  One flat box
    index per component count (:meth:`index`) gathers the mixed planes of
    all rows and components back from the box, and its inverse
    (:meth:`gather`) fills the box from them in one take.

    Both transforms write into a :class:`GridWorkspace` when given one
    (:meth:`workspace`), into fresh arrays otherwise.  Leading member axes
    of a stacked field stay batch axes of every gemm.
    """

    def __init__(self, k, N1, N2, shape):
        M1, M2 = shape
        K1, K2 = N1 // 2, N2 // 2 - 1
        J = 2 * K2 + 1
        k1, k2 = k.T
        self.slots = (2 * k1) * J + k2 + K2  # each row's real part; its imaginary part is J on
        self.center = K2
        self.box = (K1, 2, J)
        self.shape = (M1, M2)
        cy, sy = _roots(M2, np.arange(M2)[:, None] * np.arange(-K2, K2 + 1))
        self.y_inv = np.block([[cy, -sy], [sy, cy]])
        self.y_fwd = np.ascontiguousarray(self.y_inv.T / M2)
        cx, sx = _roots(M1, np.arange(M1)[:, None] * np.arange(K1))
        self.x_inv = np.stack([2.0 * cx, -2.0 * sx], axis=-1).reshape(M1, 2 * K1)
        self.x_fwd = np.stack([cx.T, -sx.T], axis=1).reshape(2 * K1, M1) / M1
        self._work, self._index = {}, {}

    def index(self, C):
        """The flat (component, k1, plane, k2) box slot of each of the mixed
        planes (R, 2, C) of C components, in C order: a tangential
        component's planes hold (imaginary, real) parts
        (:meth:`ModeLayout.mixing`)."""
        if C not in self._index:
            plane = (np.arange(2)[:, None] + _tangential(C)) % 2  # (2, C)
            size = math.prod(self.box)
            self._index[C] = (self.slots[:, None, None] + plane * self.box[2]
                              + np.arange(C) * size).ravel()
        return self._index[C]

    def gather(self, C):
        """The row of the box source (:meth:`plan_to_grid`) that fills each
        flat (component, k1, plane, k2) box slot: the mixed planes at their
        :meth:`index`, half the mean of each component at (k1, plane, k2) =
        (0, real, 0), and the zero row everywhere else (column k1 = 0 at
        k2 < 0 and the mean's imaginary part)."""
        if ("gather", C) not in self._index:
            index, size = self.index(C), math.prod(self.box)
            g = np.full(C * size, len(index))
            g[index] = np.arange(len(index))
            g[np.arange(C) * size + self.center] = len(index) + 1 + np.arange(C)
            self._index[("gather", C)] = g
        return self._index[("gather", C)]

    def workspace(self, resolution, lead):
        """The :class:`GridWorkspace` of resolution's Q nodes and basis sizes
        for fields with leading member axes lead, built on first use and
        kept as long as the grid."""
        key = (resolution.P, lead)
        if key not in self._work:
            self._work[key] = GridWorkspace(self, resolution, lead)
        return self._work[key]

    def to_grid(self, rows, mean):
        """Real (..., C, M1, M2, Q) samples of the mixed (..., R, 2, C, Q)
        planes and real (..., C, Q) mean of :func:`synthesize_rows`."""
        return run(*self.plan_to_grid(rows, mean, None))

    def plan_to_grid(self, rows, mean, work):
        """(calls, grid) of :meth:`to_grid` of rows and mean, into work.

        The box is gathered in one take from its source, (..., 2 R C + 1 + C,
        Q) rows: the mixed planes, a zero row and half the mean, in that
        order (:meth:`gather`).  A workspace's synthesis writes its planes
        and mean there (``GridWorkspace.source``); other rows and means are
        copied in."""
        *lead, R, _, C, Q = rows.shape
        K1, _, J = self.box
        n, planes = math.prod(lead) * C, 2 * R * C
        source = _array(work, "source", (*lead, planes + 1 + C, Q))
        box = _array(work, "box", (*lead, C * 2 * K1 * J, Q))
        half = _array(work, "half", (n * K1, 2 * self.shape[1], Q))
        grid = _array(work, "grid", (n, self.shape[0], self.shape[1] * Q))
        given = _view(source[..., :planes, :], rows.shape)
        # a workspace's synthesis wrote rows into the source already
        same = rows.__array_interface__ == given.__array_interface__
        calls = [] if same else [partial(np.copyto, given, rows)]
        # take with mode="clip" writes into the box directly (the indices are in range)
        calls += [partial(source[..., planes, :].fill, 0.0),
                  partial(np.multiply, mean, 0.5, out=source[..., planes + 1:, :]),
                  partial(source.take, self.gather(C), axis=-2, out=box, mode="clip"),
                  partial(np.matmul, self.y_inv, _view(box, (n * K1, 2 * J, Q)), out=half),
                  partial(np.matmul, self.x_inv, _view(half, (n, 2 * K1, -1)), out=grid)]
        return calls, _view(grid, (*lead, C, *self.shape, Q))

    def plan_from_grid(self, U, work):
        """(calls, (rows, mean)) of the Fourier coefficients of contiguous real
        (..., C, M1, M2, Q) samples U, into work: the mixed (..., R, 2, C, Q)
        planes of the stored modes, as :meth:`to_grid` reads them, and the
        real (..., C, Q) mean."""
        *lead, C, M1, M2, Q = U.shape
        K1, _, J = self.box
        n = math.prod(lead) * C
        half = _array(work, "fhalf", (n, 2 * K1, M2 * Q))
        box = _array(work, "fbox", (n * K1, 2 * J, Q))
        rows = _array(work, "rows", (*lead, len(self.slots), 2, C, Q))
        # take with mode="clip" writes into rows directly (the indices are in range)
        calls = [partial(np.matmul, self.x_fwd, _view(U, (n, M1, M2 * Q)), out=half),
                 partial(np.matmul, self.y_fwd, _view(half, (n * K1, 2 * M2, Q)), out=box),
                 partial(_view(box, (*lead, -1, Q)).take, self.index(C), axis=-2,
                         out=_view(rows, (*lead, -1, Q)), mode="clip")]
        return calls, (rows, _view(box, (*lead, C, -1, Q))[..., self.center, :])


def _view(a, shape):
    """a reshaped without a copy (ValueError where that needs one): a
    plan's calls must read and write the arrays it was built over."""
    v = a.reshape(shape)
    if v.size and not np.may_share_memory(v, a):
        raise ValueError(f"a {a.shape} array of strides {a.strides} has no {shape} view")
    return v


def run(calls, result=None):
    """Run the planned calls in turn; returns result."""
    for call in calls:
        call()
    return result


def _array(work, name, shape):
    """The workspace array name as a view of shape, or a fresh array
    without a workspace (the one-off calls)."""
    return np.empty(shape) if work is None else _view(getattr(work, name), shape)


class GridWorkspace:
    """Reused arrays of one product of synthesized quantities on the grid.

    Serves :func:`nsab.evolution.nonlinear_term` on fields of one
    resolution with leading member axes lead (E members; () for one
    field): :func:`synthesize_rows` of the quantities :attr:`want` (C = 3
    len(want) components), :meth:`PaddedGrid.to_grid`, a (3, M1, M2, Q)
    pointwise product, :meth:`PaddedGrid.plan_from_grid` and :func:`analyze_rows`,
    the coefficient rows included.  The workspace holds arrays only; each
    run plans its calls over them (:class:`nsab.evolution.NonlinearPlan`).
    Every array is a view of one of two flat float64 regions.  Each step of
    the chain reads one region and writes the other, so the arrays of a
    region take turns:

    region A: ``values`` (table outputs) and ``meanvals``, ``box``,
    ``grid``, ``fhalf``, ``rows`` (the gathered planes), the analysis table
    outputs ``gt``, ``gp`` and the mean's ``wmean`` and dual ``dmean``;

    region B: the input potentials ``psi``, ``phi``, ``mean`` and their
    W^T products ``ct``, ``cp``; the box ``source`` of
    :meth:`PaddedGrid.plan_to_grid`, where the synthesis writes its
    ``profiles`` (lead + (R, 2, C, Q) mixed planes) and ``meanprof`` (which
    the gather halves in place); ``half``, ``prod`` and its ``scratch``,
    ``fbox`` and the analysis mixing ``mixed`` (after ``fbox``, whose mean
    slot the analysis still reads), and the dual rows ``dpsi``, ``dphi``.
    """

    #: the quantities of the nonlinear term, velocity and filtered vorticity
    want = ("u", "curl_v")

    def __init__(self, grid, resolution, lead):
        K1, _, J = grid.box
        M1, M2 = grid.shape
        R, C, E = len(grid.slots), 3 * len(self.want), math.prod(lead)
        Q, n_t, n_p = resolution.Q, resolution.n_toroidal, resolution.n_poloidal
        nd = max(QUANTITIES[name] for name in self.want)
        rows = lead + (R, 2, 3, Q)
        # per region, its stages in turn; the arrays of a stage lie end to end
        regions = (
            [[("values", lead + (R, 2, (2 * nd + 1) * Q)), ("meanvals", lead + (nd + 1, 2, Q))],
             [("box", lead + (C, 2 * K1 * J, Q))],
             [("grid", (E * C, M1, M2 * Q))],
             [("fhalf", (E * 3, 2 * K1, M2 * Q))],
             [("rows", rows)],
             [("gt", lead + (R, 2, n_t)), ("gp", lead + (R, 2, n_p)),
              ("wmean", lead + (2, Q)), ("dmean", lead + (2, n_t))]],
            [[("psi", lead + (R, 2, n_t)), ("phi", lead + (R, 2, n_p)),
              ("mean", lead + (2, n_t)), ("ct", lead + (R, 2, n_t)), ("cp", lead + (R, 2, n_p))],
             [("source", lead + (2 * R * C + 1 + C, Q))],
             [("half", (E * C * K1, 2 * M2, Q))],
             [("prod", lead + (3, M1, M2, Q)), ("scratch", lead + (M1, M2, Q))],
             [("fbox", (E * 3 * K1, 2 * J, Q)), ("mixed", rows)],
             [("dpsi", lead + (R, 2, n_t)), ("dphi", lead + (R, 2, n_p))]])
        for region in regions:
            buf = np.empty(max(sum(math.prod(shape) for _, shape in stage) for stage in region))
            for stage in region:
                at = 0
                for name, shape in stage:
                    n = math.prod(shape)
                    setattr(self, name, buf[at:at + n].reshape(shape))
                    at += n
        # the synthesis writes its planes and mean into the box source
        self.profiles = _view(self.source[..., :2 * R * C, :], rows[:-2] + (C, Q))
        self.meanprof = self.source[..., 2 * R * C + 1:, :]


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

    The coefficients are real: each stored row of ``psi`` and ``phi`` keeps
    its real and its imaginary coefficient vector as two adjacent planes,
    (R, 2, n), and the mean's two profiles are two real rows.  Complex
    numbers appear only at the edges, through :func:`as_complex` and
    :func:`as_planes`.

    The same container doubles as storage for Galerkin right-hand sides
    (projections of arbitrary fields onto the solenoidal test basis).
    """

    geometry: object
    resolution: object
    psi: np.ndarray  # (R, 2, P-1) toroidal coefficients: re/im planes per mode
    phi: np.ndarray  # (R, 2, P-3) poloidal coefficients
    mean: np.ndarray  # (2, P-1) mean-profile coefficients

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
        """The rows of the potentials times their (toroidal, poloidal, mean)
        per-block stacks, by :func:`blockmul`, behind any member axes."""
        runs = layout_for(self.geometry, self.resolution).potential_buckets
        return self._map(lambda c, S, b: blockmul(S, c, b), stacks, runs)

    def dot(self, other, per_member=False):
        """L2 inner product over the full (Hermitian) spectrum and any member
        axes.  A stored mode counts twice, for its conjugate partner.
        per_member: the (E,) products of stacked fields' members, each summed
        as its own."""
        if per_member:
            E = len(self.mean)
            return sum(k * np.einsum("ej,ej->e", *(c.reshape(E, -1) for c in cs))
                       for k, *cs in zip((2.0, 2.0, 1.0), other.potentials(), self.potentials()))
        return (2.0 * (np.vdot(other.psi, self.psi) + np.vdot(other.phi, self.phi))
                + float(np.vdot(other.mean, self.mean)))

    def norm_l2(self):
        return np.sqrt(max(self.dot(self), 0.0))


def as_complex(x, axis=-2):
    """The complex array of the real and imaginary planes of x along axis
    (which it drops): a field's rows, or (with :func:`tangential_swap`) a
    synthesis's profiles, at the edges where complex numbers are read."""
    re, im = np.moveaxis(x, axis, 0)
    z = np.empty(re.shape, complex)
    z.real, z.imag = re, im
    return z


def as_planes(z, axis=-2):
    """The real and imaginary planes of complex z, stacked along axis: the
    inverse of :func:`as_complex`."""
    return np.stack([z.real, z.imag], axis=axis)


def zero_field(geometry, resolution):
    R = len(layout_for(geometry, resolution).reps)
    return SolenoidalField(
        geometry, resolution,
        np.zeros((R, 2, resolution.n_toroidal)),
        np.zeros((R, 2, resolution.n_poloidal)),
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
    psi, phi = np.split(z, [2 * n_t], axis=1)
    kmag = np.hypot(lay.k[:, :1], lay.k[:, 1:])[:, None]
    psi = np.exp(-decay * (kmag + np.arange(n_t))) * psi.reshape(-1, 2, n_t)
    phi = np.exp(-decay * (kmag + np.arange(n_p))) * phi.reshape(-1, 2, n_p)
    mean = np.exp(-decay * np.arange(n_t)) * rng.standard_normal((2, n_t))
    f = SolenoidalField(geometry, resolution, psi, phi, mean)
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

#: quantities synthesis can evaluate, each with the highest phi derivative
#: it needs (psi derivatives go one order lower)
QUANTITIES = {"u": 1, "curl_v": 4, "bilap_u": 5}


#: the bucket of the mean block: its two rows U1, U2 go as one row's planes
MEAN_BUCKETS = ((slice(0, 1), slice(0, 1), (1, 1)),)


def _tangential(C):
    """(C,) mask of the tangential components of C = 3 q components, the
    first two of each quantity's three."""
    return np.arange(C) % 3 < 2


def tangential_swap(x):
    """x (..., 2, C, Q) with the two planes of each tangential component
    exchanged, between (real, imaginary) and the (imaginary, real) order in
    which synthesis mixes them (:meth:`ModeLayout.mixing`); its own inverse."""
    return np.where(_tangential(x.shape[-2])[:, None], x[..., ::-1, :, :], x)


class BlockProduct:
    """x @ S[b] for the two planes x (2, n) of every row of each block b of
    the (U, n, n_out) stack S, written into out, behind any member axes of x
    (..., R, 2, n), R rows as in buckets (:attr:`ModeLayout.buckets`; the
    mean (..., 2, n) is one row, :data:`MEAN_BUCKETS`).  Planned: the
    per-bucket views of the (nb, 2 k, n) plane rows of x, of their (nb, n,
    n_out) stacks and of out are built once, over x and out as given, so a
    call is one matmul per bucket (one gemm per block) and returns out.  S
    is read as given, so a product that applies a matrix from the left
    takes its transpose, contiguous."""

    def __init__(self, S, x, out, buckets):
        self.S, self.x, self.out, self.buckets, self.calls = S, x, out, buckets, ()
        if buckets:
            R, n, n_out = buckets[-1][0].stop, x.shape[-1], S.shape[-1]
            # views of the whole arrays, so each bucket's rows are views too
            xs, ys = _view(x, (-1, R, 2 * n)), _view(out, (-1, R, 2 * n_out))
            self.calls = [(xs[:, rows].reshape(-1, nb, 2 * k, n), S[blocks],
                           ys[:, rows].reshape(-1, nb, 2 * k, n_out))
                          for rows, blocks, (nb, k) in buckets]

    def __call__(self):
        for x, S, out in self.calls:
            np.matmul(x, S, out=out)
        return self.out


def blockmul(S, c, buckets):
    """The :class:`BlockProduct` of S and the rows c, into a fresh array."""
    c = np.ascontiguousarray(c)
    return BlockProduct(S, c, np.empty(c.shape[:-1] + S.shape[-1:]), buckets)()


def synthesize_rows(f, cache, want=("u",), alpha=None):
    """Fourier-side profiles at the quadrature nodes of the quantities want
    of :data:`QUANTITIES` - velocity, the curl of the filtered velocity
    v = (1 - alpha^2 Lap) u (needs alpha), Lap^2 u - behind any member axes
    of f, fresh arrays, in the layout :meth:`PaddedGrid.to_grid` reads: the
    mixed real (..., R, 2, C, Q) planes of the representative modes in row
    order (no conjugate partners), C = 3 len(want) components in want
    order, a tangential component's planes in (imaginary, real) order
    (:func:`tangential_swap`), and the real (..., C, Q) profile of (0, 0).
    The (..., R, 2, O, Q) derivative values the table gemms write are mixed
    by :meth:`ModeLayout.mixing`, one real product per plane."""
    potentials = (np.ascontiguousarray(f.psi), np.ascontiguousarray(f.phi), f.mean)
    return run(*plan_synthesis(potentials, cache, want, alpha, None))


def plan_synthesis(potentials, cache, want, alpha, work):
    """(calls, (rows, mean)) of :func:`synthesize_rows` of the potentials
    (psi, phi, mean), psi and phi contiguous, into work."""
    if alpha is None and "curl_v" in want:
        raise ValueError("filtered quantities need the filter length alpha")
    psi, phi, mean = potentials
    mix, mean_mix, _ = cache.layout.mixing(want, alpha)
    R, _, C, O = mix.shape
    nd, Q, buckets, lead = O // 2, cache.resolution.Q, cache.layout.buckets, mean.shape[:-2]
    ct = _array(work, "ct", psi.shape[:-1] + cache.W_tor_T.shape[-1:])
    cp = _array(work, "cp", phi.shape[:-1] + cache.W_pol_T.shape[-1:])
    values = _array(work, "values", (*lead, R, 2, O * Q))
    planes = (*lead, 2 * R)  # the plane rows, one real gemm per potential
    v = _view(values, (*planes, O * Q))
    rows = _array(work, "profiles", (*lead, R, 2, C, Q))
    mean_values = _array(work, "meanvals", (*lead, nd + 1, 2, Q))
    mean_rows = _array(work, "meanprof", (*lead, C, Q))
    # every input is read before the mixing writes rows (GridWorkspace)
    calls = [BlockProduct(cache.W_tor_T, psi, ct, buckets),
             BlockProduct(cache.W_pol_T, phi, cp, buckets),
             partial(np.matmul, mean[..., None, :, :], cache.mean_E[:nd + 1].swapaxes(-1, -2),
                     out=mean_values),
             partial(np.matmul, _view(ct, (*planes, ct.shape[-1])), cache.synth_T[:, :nd * Q],
                     out=v[..., :nd * Q]),
             partial(np.matmul, _view(cp, (*planes, cp.shape[-1])),
                     cache.synth_C[:, :(nd + 1) * Q], out=v[..., nd * Q:]),
             partial(np.matmul, mix, _view(values, (*lead, R, 2, O, Q)), out=rows),
             partial(np.matmul, mean_mix, _view(mean_values, (*lead, -1, Q)), out=mean_rows)]
    return calls, (rows, mean_rows)


def reconstruct(f, cache, want=("u",), alpha=None, plan=None):
    """Evaluate requested physical-space quantities on the padded grid.

    Returns dict mapping names to real arrays of shape (..., 3, M1, M2, Q),
    all transformed in one :meth:`PaddedGrid.to_grid` call: fresh arrays,
    or, given the plan of this cache, want and alpha
    (:class:`nsab.evolution.NonlinearPlan`), views of its workspace.
    """
    if plan is not None:
        return plan.reconstruct(f)
    rows, mean = synthesize_rows(f, cache, want, alpha)
    grid = cache.layout.grid.to_grid(rows, mean)
    return {name: grid[..., 3 * i:3 * i + 3, :, :, :] for i, name in enumerate(want)}


# ---------------------------------------------------------------------------
# analysis: Fourier-side profiles -> Galerkin duals (the L2 adjoint)
# ---------------------------------------------------------------------------

def analyze_rows(rows, mean, cache):
    """Galerkin projection of velocity profiles given as the mixed planes
    rows (..., R, 2, 3, Q) of :meth:`PaddedGrid.plan_from_grid` and the real
    (..., 3, Q) mean: velocity synthesis transposed step by step, the
    mixing adjoint (one real product per plane), quadrature weights (and
    area), the tables of psi's value and of phi's value and derivative, W.
    Returns the dual coefficients (same container as fields), fresh arrays.
    """
    duals = run(*plan_analysis(rows, mean, cache, None))
    return SolenoidalField(cache.geometry, cache.resolution, *duals)


def plan_analysis(rows, mean, cache, work):
    """(calls, (psi, phi, mean)) of :func:`analyze_rows`, into work."""
    wa, Q, buckets = cache.geometry.area * cache.w, cache.resolution.Q, cache.layout.buckets
    *lead, R, _, _, _ = rows.shape
    n_t, n_p = cache.W_tor.shape[-1], cache.W_pol.shape[-1]
    g = _array(work, "mixed", rows.shape)
    gt, gp = _array(work, "gt", (*lead, R, 2, n_t)), _array(work, "gp", (*lead, R, 2, n_p))
    wmean, dmean = _array(work, "wmean", (*lead, 2, Q)), _array(work, "dmean", (*lead, 2, n_t))
    psi, phi = _array(work, "dpsi", gt.shape), _array(work, "dphi", gp.shape)
    # the mean goes before the W products, which may overwrite its slot of
    # the plan_from_grid box (GridWorkspace)
    calls = [partial(np.matmul, cache.layout.mixing(("u",))[2], rows, out=g),
             partial(np.multiply, g, wa, out=g),
             partial(np.matmul, _view(g[..., 0, :], (*lead, 2 * R, Q)), cache.synth_T[:, :Q].T,
                     out=_view(gt, (*lead, 2 * R, n_t))),
             partial(np.matmul, _view(g[..., 1:, :], (*lead, 2 * R, 2 * Q)),
                     cache.synth_C[:, :2 * Q].T, out=_view(gp, (*lead, 2 * R, n_p))),
             partial(np.multiply, mean[..., :2, :], wa, out=wmean),
             partial(np.matmul, wmean, cache.mean_E[0], out=dmean),
             BlockProduct(cache.W_tor, gt, psi, buckets),
             BlockProduct(cache.W_pol, gp, phi, buckets)]
    return calls, (psi, phi, dmean)
