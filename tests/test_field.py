"""Field representation: divergence-free reconstruction and projection."""

import numpy as np
import pytest

from nsab.basis import BasisCache
from nsab.field import (enforce_constraints, grid_quadrature, layout_for,
                        potentials_to_velocity, random_field, reconstruct,
                        velocity_to_potentials, zero_field)
from nsab.operators import OperatorSet
from nsab.params import derive_params
from nsab.stationary import forcing_from_field

from conftest import mode_velocity_profiles


def test_zero_field_maps_to_zero_velocity(geo, res_small, cache_small):
    U = potentials_to_velocity(zero_field(geo, res_small), cache_small)
    assert np.all(U == 0.0)


def test_single_toroidal_mode_is_horizontal(geo, res_small, cache_small):
    f = zero_field(geo, res_small)
    lay = layout_for(res_small)
    i1, i2, k1, k2 = lay.reps[2]
    f.psi[i1, i2, 0] = 1.0 + 0.3j
    j1, j2 = lay.conj_index(i1, i2)
    f.psi[j1, j2, 0] = np.conj(f.psi[i1, i2, 0])
    U = potentials_to_velocity(f, cache_small)
    assert np.abs(U[2]).max() < 1e-14 * np.abs(U).max()   # u3 == 0
    # horizontal divergence i eta . u_h == 0 pointwise: check spectrally
    M1, M2 = res_small.padded_shape
    Uh = np.fft.fft2(U, axes=(-3, -2)) / (M1 * M2)
    e1, e2 = cache_small.wavenumber(k1, k2)
    div_h = 1j * e1 * Uh[0, k1 % M1, k2 % M2] + 1j * e2 * Uh[1, k1 % M1, k2 % M2]
    assert np.abs(div_h).max() < 1e-14 * np.abs(Uh).max()


def test_reconstruction_is_real(geo, res_small, cache_small):
    # rebuild the complex spectral array independently and inverse-transform
    # without casting: the imaginary part must sit at roundoff
    f = random_field(geo, res_small, seed=11)
    lay = layout_for(res_small)
    M1, M2 = res_small.padded_shape
    spec = np.zeros((3, M1, M2, res_small.Q), complex)
    for (i1, i2, k1, k2) in lay.active:
        spec[:, k1 % M1, k2 % M2, :] = mode_velocity_profiles(
            cache_small, k1, k2, f.psi[i1, i2], f.phi[i1, i2], cache_small.z)[0]
    blk0 = cache_small.block(0, 0)
    spec[0, 0, 0, :] = blk0.tor.E[0] @ f.mean[0]
    spec[1, 0, 0, :] = blk0.tor.E[0] @ f.mean[1]
    U = np.fft.ifft2(spec, axes=(1, 2)) * (M1 * M2)
    assert np.abs(U.imag).max() <= 1e-13 * np.abs(U.real).max()
    # and it agrees with the production reconstruction
    assert np.allclose(U.real, potentials_to_velocity(f, cache_small),
                       atol=1e-12 * np.abs(U.real).max())


def test_spectral_divergence_near_roundoff(geo_odd, res_small):
    # evaluate D u3 + i eta . u_h from independently computed derivative
    # values; the analytic cancellation must survive at the roundoff level
    cache = BasisCache(geo_odd, res_small)
    f = random_field(geo_odd, res_small, seed=4, amplitude=1.0)
    lay = layout_for(res_small)
    scale = 0.0
    worst = 0.0
    for (i1, i2, k1, k2) in lay.reps[:6]:
        e1, e2 = cache.wavenumber(k1, k2)
        prof = mode_velocity_profiles(cache, k1, k2, f.psi[i1, i2],
                                      f.phi[i1, i2], cache.z, dmax=1)
        div = prof[1][2] + 1j * e1 * prof[0][0] + 1j * e2 * prof[0][1]
        worst = max(worst, np.abs(div).max())
        scale = max(scale, np.abs(prof[0]).max())
    assert worst <= 1e-12 * scale


def test_finite_difference_divergence_oracle(geo, res_small, cache_small):
    """Divergence via high-order FD on grids the solver never uses."""
    f = random_field(geo, res_small, seed=7, amplitude=1.0)
    lay = layout_for(res_small)
    # fine tangential grid (128^2) and interior z line with 9-point stencils
    Mf = 128
    h = 5e-3 * geo.H
    z0 = np.linspace(0.25 * geo.H, 0.75 * geo.H, 5)
    offsets = np.arange(-4, 5) * h
    w8 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                   4 / 5, -1 / 5, 4 / 105, -1 / 280]) / h
    zpts = (z0[:, None] + offsets[None, :]).ravel()
    spec = np.zeros((3, Mf, Mf, zpts.size), complex)
    for (i1, i2, k1, k2) in lay.active:
        prof = mode_velocity_profiles(cache_small, k1, k2, f.psi[i1, i2],
                                      f.phi[i1, i2], zpts)[0]
        spec[:, k1 % Mf, k2 % Mf, :] = prof
    blk0 = cache_small.block(0, 0)
    Em = blk0.tor.evaluate(zpts, geo.H, res_small.P, "dirichlet", dmax=0)
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
    U = potentials_to_velocity(f, cache)
    f2 = velocity_to_potentials(U, geo_odd, res_small, cache)
    assert (f2 - f).norm_l2() <= 1e-12 * f.norm_l2()
    # the same projection read from profiles on the N1 x N2 storage grid
    ops = OperatorSet(derive_params(0.2, 0.1, 0.0, 0.05), geo_odd, res_small,
                      cache)
    f3 = forcing_from_field(f, ops).dual(ops)
    assert (f3 - f).norm_l2() <= 1e-12 * f.norm_l2()


def test_essential_wall_values(geo, res_small, cache_small):
    f = random_field(geo, res_small, seed=9, amplitude=1.0)
    lay = layout_for(res_small)
    interior = np.abs(potentials_to_velocity(f, cache_small)).max()
    worst = 0.0
    for (i1, i2, k1, k2) in lay.reps:
        prof = mode_velocity_profiles(cache_small, k1, k2, f.psi[i1, i2],
                                      f.phi[i1, i2], np.array([0.0, geo.H]))[0]
        worst = max(worst, np.abs(prof).max())
    blk0 = cache_small.block(0, 0)
    Em = blk0.tor.evaluate(np.array([0.0, geo.H]), geo.H, res_small.P,
                           "dirichlet", dmax=0)
    worst = max(worst, np.abs(Em[0] @ f.mean.T).max())
    assert worst <= 1e-12 * interior


def test_parseval_between_grid_and_coefficients(geo_odd, res_small):
    cache = BasisCache(geo_odd, res_small)
    f = random_field(geo_odd, res_small, seed=13, amplitude=2.0)
    U = potentials_to_velocity(f, cache)
    wq = grid_quadrature(cache, res_small)
    phys = np.sqrt(float(np.sum(U**2 * wq)))
    assert phys == pytest.approx(f.norm_l2(), rel=1e-12)


def test_random_field_amplitude_and_hermit(geo, res_small):
    f = random_field(geo, res_small, seed=1, amplitude=2.5)
    assert f.norm_l2() == pytest.approx(2.5, rel=1e-12)
    lay = layout_for(res_small)
    i1, i2, _, _ = lay.reps[0]
    j1, j2 = lay.conj_index(i1, i2)
    assert np.allclose(f.psi[j1, j2], np.conj(f.psi[i1, i2]))


def test_mismatched_cache_rejected(geo, geo_odd, res_small):
    from nsab.basis import BasisCache
    f = random_field(geo, res_small, seed=1)
    wrong = BasisCache(geo_odd, res_small)
    with pytest.raises(ValueError, match="do not match"):
        potentials_to_velocity(f, wrong)


def test_enforce_constraints_pins_and_symmetrizes(geo, res_small):
    f = random_field(geo, res_small, seed=2)
    lay = layout_for(res_small)
    f.psi[lay.nyq1, 0, :] = 1.0        # pollute a Nyquist slot
    f.psi[0, 0, :] = 2.0               # and the zero-mode potential
    i1, i2, _, _ = lay.reps[0]
    f.psi[i1, i2] += 0.5               # break Hermitian symmetry
    enforce_constraints(f)
    assert np.all(f.psi[lay.nyq1, 0] == 0.0)
    assert np.all(f.psi[0, 0] == 0.0)
    j1, j2 = lay.conj_index(i1, i2)
    assert np.allclose(f.psi[j1, j2], np.conj(f.psi[i1, i2]))
