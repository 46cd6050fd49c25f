"""Wall-normal basis construction against independent references."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsab

from nsab.basis import (BasisCache, gauss_legendre, legendre_table,
                        recombined_bases)
from nsab.params import ChannelGeometry, Resolution


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
    B = recombined_bases(12, np.array([0.0, H]), H, 1)[0]
    assert np.abs(B[0]).max() < 1e-13          # values vanish at both walls
    assert np.abs(B[1]).max() > 1e-3           # slopes do not


def test_clamped_basis_boundary_values():
    H = 0.9
    B = recombined_bases(12, np.array([0.0, H]), H, 2)[1]
    assert np.abs(B[0]).max() < 1e-13
    assert np.abs(B[1]).max() < 1e-12          # slopes vanish too
    assert np.abs(B[2]).max() > 1e-3


def test_block_orthonormalization(geo_odd, res_small):
    """M = I is the invariant the operator set relies on in place of a stored
    M: W^T M_raw W is the identity for every toroidal and poloidal block and
    for the mean block, with M_raw the Gram mass of the raw tables."""
    for res in (res_small, Resolution(N1=16, N2=16, P=48)):
        cache = BasisCache(geo_odd, res)
        w, area, m = cache.w, geo_odd.area, cache.m[:, None, None]

        def gram(A, B):
            return (np.swapaxes(A, -1, -2) * w) @ B

        Et, E0 = cache.raw_T[0] @ cache.W_tor, cache.raw_T[0] @ cache.mean_W
        Ep = [t @ cache.W_pol for t in cache.raw_C[:2]]
        masses = (area * m * gram(Et, Et),
                  area * (m * gram(Ep[1], Ep[1]) + m * m * gram(Ep[0], Ep[0])),
                  area * gram(E0, E0)[None])
        assert len(masses[0]) == len(cache.m) > 1
        for M in masses:
            assert np.abs(M - np.eye(M.shape[-1])).max() <= 1e-13


def test_evaluate_consistent_with_tables(geo, res_small):
    cache = BasisCache(geo, res_small)
    W = cache.W_tor[cache.layout.block[cache.layout.row[(1, 1)]]]
    again = recombined_bases(res_small.P, cache.z, geo.H, 2)[0]
    for d in range(3):
        assert np.allclose(again[d] @ W, cache.raw_T[d] @ W, atol=1e-13)


def test_basis_imports_first_in_a_fresh_interpreter():
    """nsab.basis imports the field layout, so nsab.field must not import
    nsab.basis back: a cycle would fail this import."""
    env = dict(os.environ, PYTHONPATH=str(Path(nsab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", "import nsab.basis"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_nodes_and_walls_tabulated_together_are_the_separate_tables():
    """The basis tabulates nodes and walls in one call and splits the rows:
    each table equals its points tabulated alone, bit for bit."""
    for P, Q, H in ((12, 19, 2.0), (32, 49, 2.0), (48, 73, 1.3), (64, 97, 1e6), (24, 37, 1e-6)):
        z = gauss_legendre(Q, H)[0]
        together = recombined_bases(P, np.append(z, (0.0, H)), H, 5)
        for tabs, nodes, walls in zip(together, recombined_bases(P, z, H, 5),
                                      recombined_bases(P, [0.0, H], H, 3)):
            for d, t in enumerate(tabs):
                assert np.array_equal(t[:Q], nodes[d])
                assert np.signbit(t[:Q]).tolist() == np.signbit(nodes[d]).tolist()
                if d < len(walls):
                    assert np.array_equal(t[Q:], walls[d])
                    assert np.signbit(t[Q:]).tolist() == np.signbit(walls[d]).tolist()
    cache = BasisCache(ChannelGeometry(H=2.0), Resolution(N1=4, N2=4, P=12))
    for split, alone in ((cache.raw_T, recombined_bases(12, cache.z, 2.0, 5)[0]),
                         (cache.raw_T_tr, recombined_bases(12, [0.0, 2.0], 2.0, 3)[0]),
                         (cache.raw_C_tr, recombined_bases(12, [0.0, 2.0], 2.0, 3)[1])):
        assert all(np.array_equal(a, b) for a, b in zip(split, alone))
