"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately avoid the assembled-matrix code paths: forms are
recomputed by evaluating integrands pointwise from reconstructed profiles
on refined quadrature grids, and divergence is checked by high-order finite
differences on evaluation grids the solver never touches.
"""

import numpy as np
import pytest

from nsab.basis import BasisCache, gauss_legendre
from nsab.field import layout_for
from nsab.params import ChannelGeometry, Resolution, derive_params


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "slow: long-running acceptance trajectories")


@pytest.fixture(scope="session")
def geo():
    return ChannelGeometry()


@pytest.fixture(scope="session")
def geo_odd():
    # incommensurate periods and wall separation, to catch hidden 2*pi or H=1
    return ChannelGeometry(L1=2 * np.pi, L2=1.7, H=1.3)


@pytest.fixture(scope="session")
def res_small():
    return Resolution(N1=4, N2=4, P=12)


@pytest.fixture(scope="session")
def res_tiny():
    return Resolution(N1=4, N2=4, P=10)


@pytest.fixture(scope="session")
def cache_small(geo, res_small):
    return BasisCache(geo, res_small)


@pytest.fixture(scope="session")
def cache_odd(geo_odd, res_small):
    return BasisCache(geo_odd, res_small)


def params_with_k(gamma, k, alpha=0.2, beta=0.1):
    """Model parameters with a prescribed wall coefficient k = ell/beta^2."""
    if k == 0.0:
        # exact zero is outside the admissible range (ell > 0); an ell at
        # the underflow edge gives k = 0 to machine precision
        from nsab.params import ModelParams
        return ModelParams(alpha=alpha, beta=beta, gamma=gamma,
                           ell=1e-300, k=1e-300 / beta**2)
    return derive_params(alpha, beta, gamma, k * beta**2)


def block_groups(ops, f):
    """(block, (g, n) writable view of f's rows, multiplicity) per block group
    and potential, then the mean: a per-group traversal that does not go
    through OperatorSet.row_stacks."""
    for key, rows in layout_for(f.resolution).groups.items():
        blocks = ops.mode_ops(*key).blocks
        yield blocks["toroidal"], f.psi[rows], 2.0
        yield blocks["poloidal"], f.phi[rows], 2.0
    yield ops.mean_ops.blocks["mean"], f.mean, 1.0


# ---------------------------------------------------------------------------
# pointwise profile machinery (independent of the assembly routines)
# ---------------------------------------------------------------------------

def hermitian_modes(f):
    """(k1, k2, psi, phi) of every stored mode and of its conjugate partner."""
    for r, (k1, k2) in enumerate(layout_for(f.resolution).k):
        yield k1, k2, f.psi[r], f.phi[r]
        yield -k1, -k2, np.conj(f.psi[r]), np.conj(f.phi[r])


def mode_velocity_profiles(cache, k1, k2, ct, cp, z, dmax=0):
    """u-hat derivative stacks (dmax+1, 3, len(z)) from potential coefficients."""
    blk = cache.block(k1, k2)
    e1, e2 = cache.wavenumber(k1, k2)
    m = blk.m
    P = cache.resolution.P
    H = cache.geometry.H
    Et = blk.tor.evaluate(z, H, P, "dirichlet", dmax=dmax)
    Ep = blk.pol.evaluate(z, H, P, "clamped", dmax=dmax + 1)
    t = [Et[d] @ ct for d in range(dmax + 1)]
    p = [Ep[d] @ cp for d in range(dmax + 2)]
    return np.stack([
        np.stack([1j * e2 * t[d] + 1j * e1 * p[d + 1],
                  -1j * e1 * t[d] + 1j * e2 * p[d + 1],
                  m * p[d]]) for d in range(dmax + 1)])


def mode_vorticity_gradient(cache, k1, k2, ct, cp, z):
    """(omega-hat, grad omega-hat) at the given z points, componentwise."""
    blk = cache.block(k1, k2)
    e1, e2 = cache.wavenumber(k1, k2)
    m = blk.m
    P = cache.resolution.P
    H = cache.geometry.H
    Et = blk.tor.evaluate(z, H, P, "dirichlet", dmax=3)
    Ep = blk.pol.evaluate(z, H, P, "clamped", dmax=3)
    t = [Et[d] @ ct for d in range(4)]
    p = [Ep[d] @ cp for d in range(4)]
    L0 = p[2] - m * p[0]
    L1 = p[3] - m * p[1]
    w = np.stack([1j * e1 * t[1] - 1j * e2 * L0,
                  1j * e2 * t[1] + 1j * e1 * L0,
                  m * t[0]])
    dw = np.stack([1j * e1 * t[2] - 1j * e2 * L1,
                   1j * e2 * t[2] + 1j * e1 * L1,
                   m * t[1]])
    G = np.stack([1j * e1 * w, 1j * e2 * w, dw], axis=1)  # G[i,j] = d_j w_i
    return w, G


def a_form_oracle(params, cache, k1, k2, ct, cp, refine=3):
    """a(u,u) for the +-eta pair by direct quadrature of the defining integrand.

    Volume: (grad w + gamma (grad w)^T) : conj(grad w); wall term:
    k (n x w) . conj(d_n u) at both walls, using an independent (finer)
    Gauss rule and the pointwise profile formulas only.
    """
    geo = cache.geometry
    res = cache.resolution
    z2, w2 = gauss_legendre(refine * res.Q + 8, geo.H)
    _, G = mode_vorticity_gradient(cache, k1, k2, ct, cp, z2)
    Gfull = G + params.gamma * np.swapaxes(G, 0, 1)
    integrand = np.einsum("ijq,ijq->q", Gfull, np.conj(G))
    vol = geo.area * float(np.real(np.sum(w2 * integrand)))
    wall = 0.0
    for zw, sgn in ((0.0, -1.0), (geo.H, +1.0)):
        zp = np.array([zw])
        wv, _ = mode_vorticity_gradient(cache, k1, k2, ct, cp, zp)
        du = mode_velocity_profiles(cache, k1, k2, ct, cp, zp, dmax=1)[1][:, 0]
        dnu = sgn * du
        nxw = np.array([-sgn * wv[1, 0], sgn * wv[0, 0], 0.0])
        wall += geo.area * float(np.real(np.vdot(dnu, nxw)))
    return 2.0 * (vol + params.k * wall)


def grad_omega_sq_oracle(cache, k1, k2, ct, cp, refine=3):
    """integral of |grad omega|^2 for the +-eta pair, independent quadrature."""
    geo = cache.geometry
    res = cache.resolution
    z2, w2 = gauss_legendre(refine * res.Q + 8, geo.H)
    _, G = mode_vorticity_gradient(cache, k1, k2, ct, cp, z2)
    val = geo.area * float(np.real(np.sum(w2 * np.einsum("ijq,ijq->q", G, np.conj(G)))))
    return 2.0 * val


def random_block_coeffs(cache, k1, k2, seed):
    blk = cache.block(k1, k2)
    rng = np.random.default_rng(seed)
    ct = rng.standard_normal(blk.tor.n) + 1j * rng.standard_normal(blk.tor.n)
    cp = rng.standard_normal(blk.pol.n) + 1j * rng.standard_normal(blk.pol.n)
    return ct, cp
