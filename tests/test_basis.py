"""Wall-normal basis construction against independent references."""

import numpy as np
import pytest

from nsab.basis import (BasisCache, clamped_basis, dirichlet_basis,
                        gauss_legendre, legendre_table)


def test_legendre_values_match_numpy():
    x = np.linspace(-1, 1, 17)
    T = legendre_table(x, 12, 2)
    for n in range(13):
        c = np.zeros(n + 1)
        c[n] = 1.0
        ref = np.polynomial.legendre.legval(x, c)
        assert np.allclose(T[0, n], ref, atol=1e-13)
        dref = np.polynomial.legendre.legval(x, np.polynomial.legendre.legder(c))
        assert np.allclose(T[1, n], dref, atol=1e-12)


def test_legendre_high_derivatives_by_finite_differences():
    # second-order central stencils: agreement to their truncation error
    x = np.array([-0.7, -0.2, 0.3, 0.8])
    T = legendre_table(x, 10, 5)
    h = 2e-3
    for n in (6, 9):
        for d in (3, 4):
            stencil = np.arange(-2, 3) * h
            weights = {3: np.array([-0.5, 1.0, 0.0, -1.0, 0.5]) / h**3,
                       4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / h**4}[d]
            vals = legendre_table((x[:, None] + stencil[None, :]).ravel(), n, 0)
            grid = vals[0, n].reshape(len(x), -1)
            fd = grid @ weights
            scale = np.abs(T[d, n]).max()
            assert np.abs(fd - T[d, n]).max() < 2e-3 * scale


def test_gauss_quadrature_exactness():
    H = 1.3
    z, w = gauss_legendre(14, H)
    # exact for polynomials of degree <= 27
    for deg in (0, 5, 13, 27):
        val = np.sum(w * z**deg)
        assert val == pytest.approx(H**(deg + 1) / (deg + 1), rel=1e-13)


def test_dirichlet_basis_boundary_values():
    H = 1.3
    B = dirichlet_basis(12, np.array([0.0, H]), H, dmax=1)
    assert np.abs(B[0]).max() < 1e-13          # values vanish at both walls
    assert np.abs(B[1]).max() > 1e-3           # slopes do not


def test_clamped_basis_boundary_values():
    H = 0.9
    B = clamped_basis(12, np.array([0.0, H]), H, dmax=2)
    assert np.abs(B[0]).max() < 1e-13
    assert np.abs(B[1]).max() < 1e-12          # slopes vanish too
    assert np.abs(B[2]).max() > 1e-3


def test_block_orthonormalization(geo_odd, res_small):
    cache = BasisCache(geo_odd, res_small)
    blk = cache.block(2, 1)
    w = cache.w
    area = geo_odd.area
    m = blk.m
    Mt = m * area * (blk.tor.E[0].T * w) @ blk.tor.E[0]
    Mp = area * (m * (blk.pol.E[1].T * w) @ blk.pol.E[1]
                 + m * m * (blk.pol.E[0].T * w) @ blk.pol.E[0])
    assert np.abs(Mt - np.eye(blk.tor.n)).max() < 1e-12
    assert np.abs(Mp - np.eye(blk.pol.n)).max() < 1e-12


def test_evaluate_consistent_with_tables(geo, res_small):
    cache = BasisCache(geo, res_small)
    blk = cache.block(1, 1)
    again = blk.tor.evaluate(cache.z, geo.H, res_small.P, "dirichlet", dmax=2)
    for d in range(3):
        assert np.allclose(again[d], blk.tor.E[d], atol=1e-13)
