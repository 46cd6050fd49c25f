"""Field representation: divergence-free reconstruction and projection."""

import numpy as np
import pytest

from nsab.basis import BasisCache
from nsab.field import (MEAN_BUCKETS, SolenoidalField, as_complex, as_planes, blockmul,
                        layout_for, random_field, reconstruct,
                        synthesize_rows, tangential_swap, zero_field)
from nsab.operators import OperatorSet
from nsab.params import Resolution, derive_params

from conftest import (convert_rows, grid_quadrature, hermitian_modes, mean_tables,
                      mode_velocity_profiles, pair_bases, project_velocity,
                      project_velocity_fft, random_field_loop, reconstruct_fft,
                      velocity_dual)


def test_zero_field_maps_to_zero_velocity(geo, res_small, cache_small):
    U = reconstruct(zero_field(geo, res_small), cache_small)["u"]
    assert np.all(U == 0.0)


def test_single_toroidal_mode_is_horizontal(geo, res_small, cache_small):
    f = zero_field(geo, res_small)
    lay = layout_for(geo, res_small)
    k1, k2 = lay.reps[2]
    f.psi[lay.row[(k1, k2)]] = as_planes(np.eye(1, res_small.n_toroidal)[0] * (1.0 + 0.3j))
    U = reconstruct(f, cache_small)["u"]
    assert np.abs(U[2]).max() < 1e-14 * np.abs(U).max()   # u3 == 0
    # horizontal divergence i eta . u_h == 0 pointwise: check spectrally
    M1, M2 = res_small.padded_shape
    Uh = np.fft.fft2(U, axes=(-3, -2)) / (M1 * M2)
    e1, e2 = cache_small.layout.wavenumber(k1, k2)
    div_h = 1j * e1 * Uh[0, k1 % M1, k2 % M2] + 1j * e2 * Uh[1, k1 % M1, k2 % M2]
    assert np.abs(div_h).max() < 1e-14 * np.abs(Uh).max()


def test_reconstruction_is_real(geo, res_small, cache_small):
    # rebuild the complex spectral array independently and inverse-transform
    # without casting: the imaginary part must sit at roundoff
    f = random_field(geo, res_small, seed=11)
    M1, M2 = res_small.padded_shape
    spec = np.zeros((3, M1, M2, res_small.Q), complex)
    for k1, k2, ct, cp in hermitian_modes(f):
        spec[:, k1 % M1, k2 % M2, :] = mode_velocity_profiles(
            cache_small, k1, k2, ct, cp, cache_small.z)[0]
    spec[0, 0, 0, :] = cache_small.mean_E[0] @ f.mean[0]
    spec[1, 0, 0, :] = cache_small.mean_E[0] @ f.mean[1]
    U = np.fft.ifft2(spec, axes=(1, 2)) * (M1 * M2)
    assert np.abs(U.imag).max() <= 1e-13 * np.abs(U.real).max()
    # and it agrees with the production reconstruction
    assert np.allclose(U.real, reconstruct(f, cache_small)["u"],
                       atol=1e-12 * np.abs(U.real).max())


@pytest.mark.parametrize("res", [Resolution(N1=4, N2=4, P=12),
                                 Resolution(N1=8, N2=6, P=14)],
                         ids=["4x4", "8x6"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_synthesize_matches_per_mode_oracle(geometry, res, request):
    """Row-batched synthesis against per-mode velocity formulas: curl_v and
    bilap_u are formed from z-derivatives of the velocity profile itself,
    v = u - alpha^2 (u'' - m u), not from the potential identities."""
    g = request.getfixturevalue(geometry)
    cache = BasisCache(g, res)
    alpha = 0.2
    f = random_field(g, res, seed=17, amplitude=1.0)
    names = ("u", "curl_v", "bilap_u")
    rows, mean = synthesize_rows(f, cache, names, alpha)
    rows = convert_rows(rows)
    got = {name: (rows[3 * i:3 * i + 3], mean[3 * i:3 * i + 3]) for i, name in enumerate(names)}
    lay = layout_for(g, res)
    want = {name: np.zeros((3, len(lay.reps), res.Q), complex)
            for name in names}
    for r, (k1, k2) in enumerate(lay.k):
        m, W_tor, W_pol = pair_bases(cache, k1, k2)
        e1, e2 = cache.layout.wavenumber(k1, k2)
        t = [E @ (W_tor @ as_complex(f.psi[r])) for E in cache.raw_T]
        p = [E @ (W_pol @ as_complex(f.phi[r])) for E in cache.raw_C]
        U = [np.stack([1j * e2 * t[d] + 1j * e1 * p[d + 1],
                       -1j * e1 * t[d] + 1j * e2 * p[d + 1],
                       m * p[d]]) for d in range(5)]
        V = [U[d] - alpha**2 * (U[d + 2] - m * U[d]) for d in range(2)]
        want["u"][:, r] = U[0]
        want["curl_v"][:, r] = [1j * e2 * V[0][2] - V[1][1],
                                V[1][0] - 1j * e1 * V[0][2],
                                1j * e1 * V[0][1] - 1j * e2 * V[0][0]]
        want["bilap_u"][:, r] = U[4] - 2 * m * U[2] + m * m * U[0]
    E = cache.mean_E
    M = [np.stack([E[d] @ f.mean[0], E[d] @ f.mean[1], 0 * cache.z])
         for d in range(5)]
    want_mean = {"u": M[0], "bilap_u": M[4],
                 "curl_v": np.stack([-(M[1][1] - alpha**2 * M[3][1]),
                                     M[1][0] - alpha**2 * M[3][0], 0 * cache.z])}
    for name, (rows, mean) in got.items():
        assert rows.shape == (3, len(lay.reps), res.Q)
        assert np.abs(rows - want[name]).max() <= 1e-13 * np.abs(want[name]).max()
        assert np.abs(mean - want_mean[name]).max() <= \
            1e-13 * np.abs(want_mean[name]).max()


@pytest.mark.parametrize("shape", [(5, 2, 3, 4), (3, 7, 2, 9, 2)], ids=["rows", "stack-3"])
def test_plane_conversions_keep_every_bit(shape):
    """tangential_swap is its own inverse, and synthesis planes made complex
    and back (the pressure fit's one conversion) are the planes given, bit
    for bit, signed zeros, infinities and NaNs included."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    x.flat[rng.choice(x.size, x.size // 3, replace=False)] = rng.choice(special, x.size // 3)

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    swapped = tangential_swap(x)
    assert not np.array_equal(bits(swapped), bits(x))
    np.testing.assert_array_equal(bits(tangential_swap(swapped)), bits(x))
    round_trip = tangential_swap(as_planes(as_complex(swapped, axis=-3), axis=-3))
    np.testing.assert_array_equal(bits(round_trip), bits(x))


@pytest.mark.parametrize("res, shape", [
    (Resolution(N1=2, N2=4, P=10), (4, 6)),
    (Resolution(N1=6, N2=6, P=12), (10, 10)),
    (Resolution(N1=6, N2=8, P=12), (10, 12)),
    (Resolution(N1=10, N2=12, P=12), (16, 18)),
], ids=["2x4", "6x6", "6x8", "10x12"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_grid_transforms_match_fft_oracle(geometry, res, shape, request):
    """The pruned matrix DFTs of reconstruct and project_velocity against
    the real FFT of the zero-filled half spectrum: N1 != N2, the round-up
    N = 6 (3N/2 = 9 -> M = 10) and the single k1 column of N1 = 2."""
    g = request.getfixturevalue(geometry)
    assert res.padded_shape == shape
    cache = BasisCache(g, res)
    f = random_field(g, res, seed=9, decay=0.2)
    want = ("u", "curl_v", "bilap_u")
    got = reconstruct(f, cache, want=want, alpha=0.3)
    ref = reconstruct_fft(f, cache, want=want, alpha=0.3)
    assert list(got) == list(ref)
    for name in want:
        assert got[name].shape == (3,) + shape + (res.Q,)
        assert np.abs(got[name] - ref[name]).max() <= 1e-13 * np.abs(ref[name]).max()
    # an arbitrary grid field: the modes the box does not hold are dropped
    U = np.random.default_rng(4).standard_normal((3,) + shape + (res.Q,))
    got, ref = project_velocity(U, cache), project_velocity_fft(U, cache)
    assert (got - ref).norm_l2() <= 1e-13 * ref.norm_l2()


def test_spectral_divergence_near_roundoff(geo_odd, res_small):
    # evaluate D u3 + i eta . u_h from independently computed derivative
    # values; the analytic cancellation must survive at the roundoff level
    cache = BasisCache(geo_odd, res_small)
    f = random_field(geo_odd, res_small, seed=4, amplitude=1.0)
    lay = layout_for(geo_odd, res_small)
    scale = 0.0
    worst = 0.0
    for (k1, k2) in lay.reps[:6]:
        e1, e2 = cache.layout.wavenumber(k1, k2)
        r = lay.row[(k1, k2)]
        prof = mode_velocity_profiles(cache, k1, k2, as_complex(f.psi[r]),
                                      as_complex(f.phi[r]), cache.z, dmax=1)
        div = prof[1][2] + 1j * e1 * prof[0][0] + 1j * e2 * prof[0][1]
        worst = max(worst, np.abs(div).max())
        scale = max(scale, np.abs(prof[0]).max())
    assert worst <= 1e-12 * scale


def test_finite_difference_divergence_oracle(geo, res_small, cache_small):
    """Divergence via high-order FD on grids the solver never uses."""
    f = random_field(geo, res_small, seed=7, amplitude=1.0)
    # fine tangential grid (128^2) and interior z line with 9-point stencils
    Mf = 128
    h = 5e-3 * geo.H
    z0 = np.linspace(0.25 * geo.H, 0.75 * geo.H, 5)
    offsets = np.arange(-4, 5) * h
    w8 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                   4 / 5, -1 / 5, 4 / 105, -1 / 280]) / h
    zpts = (z0[:, None] + offsets[None, :]).ravel()
    spec = np.zeros((3, Mf, Mf, zpts.size), complex)
    for k1, k2, ct, cp in hermitian_modes(f):
        prof = mode_velocity_profiles(cache_small, k1, k2, ct, cp, zpts)[0]
        spec[:, k1 % Mf, k2 % Mf, :] = prof
    Em = mean_tables(cache_small, zpts, 0)
    spec[0, 0, 0, :] = Em[0] @ f.mean[0]
    spec[1, 0, 0, :] = Em[0] @ f.mean[1]
    U = np.real(np.fft.ifft2(spec, axes=(1, 2)) * Mf * Mf)
    d1 = (np.roll(U[0], -1, axis=0) - np.roll(U[0], 1, axis=0)) / (2 * geo.L1 / Mf)
    # 8th-order periodic differences tangentially
    def pderiv(A, axis, L):
        hh = L / Mf
        out = np.zeros_like(A)
        for k, c in zip(range(-4, 5), w8 * h / hh):
            out += c * np.roll(A, -k, axis=axis)
        return out
    dU1 = pderiv(U[0], 0, geo.L1)
    dU2 = pderiv(U[1], 1, geo.L2)
    U3 = U[2].reshape(Mf, Mf, len(z0), 9)
    dU3 = U3 @ w8
    div = (dU1 + dU2).reshape(Mf, Mf, len(z0), 9)[..., 4] + dU3
    assert np.abs(div).max() < 1e-6 * np.abs(U).max()


def test_round_trip_projection(geo_odd, res_small):
    cache = BasisCache(geo_odd, res_small)
    f = random_field(geo_odd, res_small, seed=5, amplitude=3.0)
    U = reconstruct(f, cache)["u"]
    f2 = project_velocity(U, cache)
    assert (f2 - f).norm_l2() <= 1e-12 * f.norm_l2()
    # the same projection read from profiles on the N1 x N2 storage grid
    ops = OperatorSet(derive_params(0.2, 0.1, 0.0, 0.05), geo_odd, res_small,
                      cache)
    f3 = velocity_dual(f, ops)
    assert (f3 - f).norm_l2() <= 1e-12 * f.norm_l2()


def test_essential_wall_values(geo, res_small, cache_small):
    f = random_field(geo, res_small, seed=9, amplitude=1.0)
    lay = layout_for(geo, res_small)
    interior = np.abs(reconstruct(f, cache_small)["u"]).max()
    worst = 0.0
    for r, (k1, k2) in enumerate(lay.k):
        prof = mode_velocity_profiles(cache_small, k1, k2, as_complex(f.psi[r]),
                                      as_complex(f.phi[r]), np.array([0.0, geo.H]))[0]
        worst = max(worst, np.abs(prof).max())
    Em = mean_tables(cache_small, np.array([0.0, geo.H]), 0)
    worst = max(worst, np.abs(Em[0] @ f.mean.T).max())
    assert worst <= 1e-12 * interior


def test_parseval_between_grid_and_coefficients(geo_odd, res_small):
    cache = BasisCache(geo_odd, res_small)
    f = random_field(geo_odd, res_small, seed=13, amplitude=2.0)
    U = reconstruct(f, cache)["u"]
    wq = grid_quadrature(cache, res_small)
    phys = np.sqrt(float(np.sum(U**2 * wq)))
    assert phys == pytest.approx(f.norm_l2(), rel=1e-12)


def test_random_field_amplitude_and_hermit(geo, res_small):
    f = random_field(geo, res_small, seed=1, amplitude=2.5)
    assert f.norm_l2() == pytest.approx(2.5, rel=1e-12)


def test_random_field_draws_in_rep_order(geo):
    """A seed gives the same field in any row order: the representatives
    draw in fft traversal order, then the mean.  At 8 x 8 the row order
    (by block group) differs from that order."""
    seed, decay = 3, 0.5
    res = Resolution(N1=8, N2=8, P=8)
    f = random_field(geo, res, seed=seed, amplitude=1.0, decay=decay)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_t, n_p = res.n_toroidal, res.n_poloidal
    lay = layout_for(geo, res)
    assert [tuple(k) for k in lay.k] != lay.reps
    psi, phi = [], []
    for (k1, k2) in lay.reps:
        kmag = np.hypot(k1, k2)
        psi.append(np.exp(-decay * (kmag + np.arange(n_t)))
                   * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)))
        phi.append(np.exp(-decay * (kmag + np.arange(n_p)))
                   * (rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)))
    mean = np.exp(-decay * np.arange(n_t)) * rng.standard_normal((2, n_t))
    scale = f.mean[0, 0] / mean[0, 0]
    rows = [lay.row[k] for k in lay.reps]
    assert np.allclose(as_complex(f.psi[rows]), scale * np.array(psi), rtol=1e-14, atol=0)
    assert np.allclose(as_complex(f.phi[rows]), scale * np.array(phi), rtol=1e-14, atol=0)
    assert np.allclose(f.mean, scale * mean, rtol=1e-14, atol=0)


@pytest.mark.parametrize("res", [Resolution(N1=4, N2=4, P=12),
                                 Resolution(N1=8, N2=6, P=14),
                                 Resolution(N1=16, N2=16, P=32)],
                         ids=["4x4", "8x6", "16x16"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_random_field_matches_per_representative_draws(geometry, res, request):
    """The one batched draw gives the per-representative loop's field bit
    for bit: the generator's stream does not depend on how it is split."""
    g = request.getfixturevalue(geometry)
    for seed, amplitude, decay in ((0, 1.0, 0.5), (7, 0.2, 1.5), (11, 3.0, 0.0)):
        got = random_field(g, res, seed=seed, amplitude=amplitude, decay=decay)
        ref = random_field_loop(g, res, seed=seed, amplitude=amplitude, decay=decay)
        for a, b in zip(got.potentials(), ref.potentials()):
            assert a.dtype == b.dtype and np.array_equal(a, b)



@pytest.mark.parametrize("N1, N2", [(16, 16), (8, 12), (12, 8), (2, 4)])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_layout_block_numbers_the_basis_stacks(request, geometry, N1, N2):
    """The layout's block numbers the stacks of its rows: every row of a
    block group reads one block, whose m = |eta(k)|^2 is the row's own.
    Blocks are the distinct m, numbered by their row count, then by first
    appearance among the groups, and rows are sorted by block, so the
    buckets of blocks with k rows each tile the rows in order."""
    g = request.getfixturevalue(geometry)
    cache = BasisCache(g, Resolution(N1=N1, N2=N2, P=8))
    lay = cache.layout
    assert lay is layout_for(g, cache.resolution)
    e1, e2 = cache.layout.wavenumber(lay.k[:, 0], lay.k[:, 1])
    assert np.array_equal(cache.m[lay.block], e1 * e1 + e2 * e2)
    assert np.array_equal(lay.eta[2][:, 0], e1 * e1 + e2 * e2)
    assert lay.block.shape == (len(lay.reps),)
    firsts = [int(lay.block[rows.start]) for rows in lay.groups.values()]
    for block, rows in zip(firsts, lay.groups.values()):
        assert np.all(lay.block[rows] == block)
    count = np.bincount(lay.block)
    first = [firsts.index(b) for b in range(len(cache.m))]
    U = len(cache.m)
    assert sorted(range(U), key=lambda b: (count[b], first[b])) == list(range(U))
    at = 0
    for rows, blocks, (nb, k) in lay.buckets:
        assert rows.start == at and blocks.stop - blocks.start == nb
        assert np.all(count[blocks] == k)
        assert np.array_equal(lay.block[rows], np.repeat(np.arange(blocks.start, blocks.stop), k))
        at = rows.stop
    assert at == len(lay.reps) and len(lay.buckets) == len(set(count.tolist()))
    assert len(cache.m) == len(set((e1 * e1 + e2 * e2).tolist()))


@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_blockmul_is_the_per_block_product(request, geometry):
    """blockmul gives the re/im plane rows of every block their (2 k, n) @
    (n, n) product with the block's stack bit for bit, as a loop over the
    members and blocks does: with and without member axes, for the
    transposed stacks synthesis reads, for W, and for the mean's one block,
    whose two rows are one row's planes."""
    g = request.getfixturevalue(geometry)
    res = Resolution(N1=8, N2=6, P=12)
    cache = BasisCache(g, res)
    lay, f = cache.layout, random_field(g, res, seed=5)
    for S, c, runs, block in ((cache.W_tor_T, f.psi, lay.buckets, lay.block),
                              (cache.W_pol, f.phi, lay.buckets, lay.block),
                              (cache.mean_W[None], f.mean, MEAN_BUCKETS, np.zeros(1, int))):
        for x in (c, np.stack([c, 2.0 * c, -c])):
            got = blockmul(S, x, runs)
            assert got.shape == x.shape
            xs, gs = (a.reshape(-1, len(block), 2, a.shape[-1]) for a in (x, got))
            for xm, gm in zip(xs, gs):
                for b in range(len(S)):
                    rows = np.flatnonzero(block == b)
                    want = xm[rows].reshape(-1, x.shape[-1]) @ S[b]
                    assert np.array_equal(gm[rows].reshape(want.shape), want)


@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_apply_and_dot_are_the_per_potential_sums(request, geometry):
    """SolenoidalField.apply gives each potential its own stack through
    blockmul, and dot is the vdot sum weighted 2 for the stored modes (each
    stands for its conjugate partner) and 1 for the mean, bit for bit: for
    one field and for a stack of three members."""
    g = request.getfixturevalue(geometry)
    res = Resolution(N1=8, N2=6, P=12)
    cache = BasisCache(g, res)
    lay, stacks = cache.layout, (cache.W_tor, cache.W_pol, cache.mean_W[None])
    f, h = random_field(g, res, seed=5), random_field(g, res, seed=6, decay=0.2)
    for u, v in ((f, h), (SolenoidalField.stack([f, h, f * -2.0]),
                          SolenoidalField.stack([h, f * 3.0, h]))):
        got = u.apply(stacks)
        for c, W, cu, runs in zip(got.potentials(), stacks, u.potentials(),
                                  (lay.buckets, lay.buckets, MEAN_BUCKETS)):
            assert np.array_equal(c, blockmul(W, cu, runs))
        want = sum(mult * np.vdot(cv, cu).real for mult, cu, cv in
                   zip((2.0, 2.0, 1.0), got.potentials(), v.potentials()))
        assert got.dot(v) == want
