"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately avoid the assembled-matrix code paths: forms are
recomputed by evaluating integrands pointwise from reconstructed profiles
on refined quadrature grids, and divergence is checked by high-order finite
differences on evaluation grids the solver never touches.
"""

import numpy as np
import pytest
import scipy.linalg

from nsab.basis import BasisCache, gauss_legendre, recombined_bases
from nsab.field import (SolenoidalField, analyze, layout_for, project_velocity, reconstruct,
                        synthesize, zero_field)
from nsab.operators import poloidal_forms, toroidal_forms
from nsab.params import ChannelGeometry, Resolution, derive_params
from nsab.spectral import DEFAULT_SHIFT_GRID
from nsab.stationary import _legendre_design


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


def distinct_blocks(ops):
    """The block of every distinct |k| pair of ops, one at a time: toroidal
    and poloidal per block group (groups of equal m read the block they
    share, through ops.layout.block), then the mean."""
    tor, pol, mean = ops.blocks
    for rows in ops.layout.groups.values():
        b = ops.layout.block[rows.start]
        yield tor[b]
        yield pol[b]
    yield mean[0]


def block_groups(ops, f):
    """(block, (g, n) writable view of f's rows, multiplicity) per block group
    and potential, then the mean: a per-group traversal that does not go
    through the block-major products of nsab.field.blockmul."""
    tor, pol, mean = ops.blocks
    for rows in layout_for(f.geometry, f.resolution).groups.values():
        b = ops.layout.block[rows.start]
        yield tor[b], f.psi[rows], 2.0
        yield pol[b], f.phi[rows], 2.0
    yield mean[0], f.mean, 1.0


def pair_bases(cache, k1, k2):
    """m = |eta|^2 and the toroidal and poloidal W (n, n) of any nonzero
    wavenumber pair, stored or not, built on their own."""
    e1, e2 = cache.wavenumber(k1, k2)
    m = e1 * e1 + e2 * e2
    W_tor, W_pol = cache.bases(np.array([m]))
    return m, W_tor[0], W_pol[0]


def pair_forms(ops, k1, k2):
    """Toroidal and poloidal forms of any nonzero wavenumber pair: views of
    the stacks for a stored one, assembled on their own otherwise."""
    key = (abs(k1), abs(k2))
    if key in ops.layout.groups:
        b = ops.layout.block[ops.layout.groups[key].start]
        return ops.blocks[0][b], ops.blocks[1][b]
    m, W_tor, W_pol = pair_bases(ops.cache, k1, k2)
    m = np.array([m])
    return (toroidal_forms(ops.params, ops.cache, m, W_tor[None])[0],
            poloidal_forms(ops.params, ops.cache, m, W_pol[None])[0])


def pair_tables(cache, k1, k2, z, dmax):
    """m and the orthonormal toroidal and poloidal bases of any nonzero
    pair at the points z: lists of (len(z), n) arrays, d = 0..dmax."""
    m, W_tor, W_pol = pair_bases(cache, k1, k2)
    tor, pol = recombined_bases(cache.resolution.P, z, cache.geometry.H, dmax)
    return m, [t @ W_tor for t in tor], [p @ W_pol for p in pol]


def mean_tables(cache, z, dmax):
    """The orthonormal mean basis at the points z, d = 0..dmax."""
    tor, _ = recombined_bases(cache.resolution.P, z, cache.geometry.H, dmax)
    return [t @ cache.mean_W for t in tor]


# ---------------------------------------------------------------------------
# pointwise profile machinery (independent of the assembly routines)
# ---------------------------------------------------------------------------

def hermitian_modes(f):
    """(k1, k2, psi, phi) of every stored mode and of its conjugate partner."""
    for r, (k1, k2) in enumerate(layout_for(f.geometry, f.resolution).k):
        yield k1, k2, f.psi[r], f.phi[r]
        yield -k1, -k2, np.conj(f.psi[r]), np.conj(f.phi[r])


def mode_velocity_profiles(cache, k1, k2, ct, cp, z, dmax=0):
    """u-hat derivative stacks (dmax+1, 3, len(z)) from potential coefficients."""
    e1, e2 = cache.wavenumber(k1, k2)
    m, Et, Ep = pair_tables(cache, k1, k2, z, dmax + 1)
    t = [Et[d] @ ct for d in range(dmax + 1)]
    p = [Ep[d] @ cp for d in range(dmax + 2)]
    return np.stack([
        np.stack([1j * e2 * t[d] + 1j * e1 * p[d + 1],
                  -1j * e1 * t[d] + 1j * e2 * p[d + 1],
                  m * p[d]]) for d in range(dmax + 1)])


def mode_vorticity_gradient(cache, k1, k2, ct, cp, z):
    """(omega-hat, grad omega-hat) at the given z points, componentwise."""
    e1, e2 = cache.wavenumber(k1, k2)
    m, Et, Ep = pair_tables(cache, k1, k2, z, 3)
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
    n_t, n_p = cache.resolution.n_toroidal, cache.resolution.n_poloidal
    rng = np.random.default_rng(seed)
    ct = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    cp = rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)
    return ct, cp


# ---------------------------------------------------------------------------
# per-block reference assembly: the Gram products of each block's own
# tabulated orthonormal basis, one block at a time
# ---------------------------------------------------------------------------

def reference_block(mass, raw, raw_tr):
    """(W, E, tr) of one block: W = chol(mass)^{-T}, tables E[d] = raw[d] W."""
    W = np.linalg.solve(np.linalg.cholesky(mass).T, np.eye(mass.shape[0]))
    return W, [e @ W for e in raw], [t @ W for t in raw_tr]


def reference_forms(params, cache, k1, k2):
    """{block name: {form: matrix}} and {block name: W} of one wavenumber
    pair, assembled per block from the raw tables of cache."""
    s, w, kk = cache.geometry.area, cache.w, params.k
    T, C, Ttr, Ctr = cache.raw_T, cache.raw_C, cache.raw_T_tr, cache.raw_C_tr

    def gram(A, B):
        return (A.T * w) @ B

    def wall(t):
        return np.outer(t[0], t[0]) + np.outer(t[1], t[1])

    def forms(M, K_a, K_grad, K_bilap):
        return {"M": M, "M_lambda": M + params.alpha**2 * K_grad, "K_a": K_a,
                "K_grad": K_grad, "K_bilap": K_bilap}

    if (k1, k2) == (0, 0):
        W, E, t = reference_block(s * gram(T[0], T[0]), T, Ttr)
        Kb = s * gram(E[2], E[2])
        return ({"mean": forms(s * gram(E[0], E[0]), Kb - kk * s * wall(t[1]),
                               s * gram(E[1], E[1]), Kb)}, {"mean": W})
    e1, e2 = cache.wavenumber(k1, k2)
    m = e1 * e1 + e2 * e2
    Wt, E, t = reference_block(m * s * gram(T[0], T[0]), T, Ttr)
    Kb = s * m * (gram(E[2], E[2]) + 2 * m * gram(E[1], E[1]) + m**2 * gram(E[0], E[0]))
    Ktrans = s * params.gamma * m * m * (2 * gram(E[1], E[1]) + gram(E[0], E[2])
                                         + gram(E[2], E[0]))
    tor = forms(s * m * gram(E[0], E[0]), Kb + Ktrans - kk * s * m * wall(t[1]),
                s * m * (gram(E[1], E[1]) + m * gram(E[0], E[0])), Kb)
    Wp, E, t = reference_block(s * (m * gram(C[1], C[1]) + m * m * gram(C[0], C[0])),
                               C, Ctr)
    L0, L1 = E[2] - m * E[0], E[3] - m * E[1]
    Kb = s * m * (gram(L1, L1) + m * gram(L0, L0))
    pol = forms(s * m * (gram(E[1], E[1]) + m * gram(E[0], E[0])),
                Kb - kk * s * m * wall(t[2]),
                s * m * (gram(E[2], E[2]) + 2 * m * gram(E[1], E[1])
                         + m**2 * gram(E[0], E[0])), Kb)
    return {"toroidal": tor, "poloidal": pol}, {"toroidal": Wt, "poloidal": Wp}


# ---------------------------------------------------------------------------
# reference random field: one draw per representative, in fft order
# ---------------------------------------------------------------------------

def random_field_loop(geometry, resolution, seed=0, amplitude=1.0, decay=0.5):
    """field.random_field drawn representative by representative: psi's
    real and imaginary parts, then phi's, in ``reps`` order, then the mean."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    f = zero_field(geometry, resolution)
    lay = layout_for(geometry, resolution)
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
    # the norm sums the rows in block-group order, as random_field's does
    g = lay.by_group
    nrm = SolenoidalField(geometry, resolution, f.psi[g], f.phi[g], f.mean).norm_l2()
    if nrm > 0:
        f = f * (amplitude / nrm)
    return f


# ---------------------------------------------------------------------------
# reference nonlinear term on a chosen tangential grid
# ---------------------------------------------------------------------------

def nonlinear_term_fresh(u, ops):
    """N(u) composed from the public functions, every array fresh:
    reconstruct -> (curl v) x u -> project_velocity."""
    rec = reconstruct(u, ops.cache, want=("u", "curl_v"), alpha=ops.params.alpha)
    w, v = rec["curl_v"], rec["u"]
    prod = np.empty_like(v)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(w[j], v[k], out=prod[i])
        prod[i] -= w[k] * v[j]
    return project_velocity(prod, ops.cache)


def nonlinear_term_on_grid(u, ops, shape):
    """N(u) with (curl v) x u formed on an explicit M1 x M2 grid: every
    stored mode and its conjugate partner placed by hand and taken through
    full complex FFTs, with no half spectrum and no Resolution.padded_shape."""
    M1, M2 = shape
    k1, k2 = ops.layout.k.T
    grid = {}
    for name, (rows, mean) in synthesize(u, ops.cache, want=("u", "curl_v"),
                                         alpha=ops.params.alpha).items():
        spec = np.zeros((3, M1, M2, u.resolution.Q), complex)
        spec[:, k1 % M1, k2 % M2] = rows
        spec[:, -k1 % M1, -k2 % M2] = np.conj(rows)
        spec[:, 0, 0] = mean
        grid[name] = np.fft.ifft2(spec, axes=(1, 2), norm="forward").real
    prod = np.cross(grid["curl_v"], grid["u"], axis=0)
    spec = np.fft.fft2(prod, axes=(1, 2), norm="forward")
    return analyze(spec[:, k1 % M1, k2 % M2], spec[:, 0, 0].real, ops.cache)


def reconstruct_fft(f, cache, want=("u",), alpha=None):
    """field.reconstruct through numpy's real FFT: the zero-filled k1 >= 0
    half spectrum (3, M1/2 + 1, M2, Q) taken to the grid by irfft2."""
    res = f.resolution
    M1, M2 = res.padded_shape
    k1, k2 = layout_for(f.geometry, res).k.T
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


def project_velocity_fft(U, cache):
    """field.project_velocity through numpy's real FFT: rfft2 of the grid,
    then the stored rows and the mean gathered from the half spectrum."""
    M2 = cache.resolution.padded_shape[1]
    k1, k2 = cache.layout.k.T
    Uh = np.fft.rfft2(U, axes=(-2, -3), norm="forward")
    return analyze(Uh[:, k1, k2 % M2], Uh[:, 0, 0].real, cache)


def velocity_dual(f, ops):
    """Galerkin dual of the velocity profiles of f: the data f posed as
    forcing."""
    return analyze(*synthesize(f, ops.cache)["u"], ops.cache)


# ---------------------------------------------------------------------------
# per-block and per-row references of the stationary diagnostics
# ---------------------------------------------------------------------------

def reference_eigenpairs(ops, count):
    """The ``count`` lowest (lam, vector, mode, block, multiplicity, residual)
    from np.linalg.eigh of every block stack and the residuals of all its
    pairs, candidates ordered like eigenpairs_A's: by eigenvalue, then block
    group q (the mean last), potential and column."""
    keys = list(ops.layout.groups) + [(0, 0)]
    mult = [2 * (rows.stop - rows.start) for rows in ops.layout.groups.values()] + [2]
    block = [ops.layout.block[rows.start] for rows in ops.layout.groups.values()] + [0]
    found = []
    for p, stack in enumerate(ops.blocks):
        lam, V = np.linalg.eigh(stack.K_a)
        res = (np.linalg.norm(stack.K_a @ V - V * lam[:, None, :], axis=1)
               / (np.abs(lam).max(axis=1, keepdims=True) + np.abs(lam)))
        for q in (range(len(keys) - 1) if p < 2 else [len(keys) - 1]):
            b = block[q]
            found += [(lam[b, i], q, p, i, V[b][:, i], keys[q], stack.name, mult[q], res[b, i])
                      for i in range(stack.n)]
    found.sort(key=lambda f: f[:4])
    return [f[:1] + f[4:] for f in found[:count]]


def reference_c0(ops, shift):
    """c0(shift): the lowest eigenvalue of (K_a + shift M, M + K_grad +
    K_bilap), one generalized eigenproblem per distinct block."""
    return min(float(scipy.linalg.eigh(blk.K_a + shift * blk.M, blk.h2_form(),
                                       eigvals_only=True,
                                       subset_by_index=[0, 0])[0])
               for blk in distinct_blocks(ops))


def reference_garding(ops, threshold=1e-10):
    """(c0 on the default shift grid, gamma0_min, gamma0_refined) from
    reference_c0, with the grid search and bisection of garding_constants."""
    grid = tuple(sorted(set(DEFAULT_SHIFT_GRID)))
    c0 = {g: reference_c0(ops, g) for g in grid}
    passing = [g for g in grid if c0[g] > threshold]
    if not passing:
        return c0, np.inf, np.inf
    gmin = grefined = passing[0]
    failing = [g for g in grid if g < gmin and c0[g] <= threshold]
    if failing:
        lo, hi = max(failing), gmin
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if reference_c0(ops, mid) > threshold:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-3 * max(hi, 1e-12):
                break
        grefined = hi
    return c0, gmin, grefined


def reference_pressure(u, forcing, ops):
    """(coefficients (R, degree+1), gradient_defect) of recover_pressure at
    its default degree, from one complex least-squares fit of
    (i eta1 p - r1, i eta2 p - r2, p' - r3) per row."""
    geo, w = u.geometry, ops.cache.w
    degree = u.resolution.P + 1
    Phi = _legendre_design(geo, ops.cache.z, degree)
    sw = np.sqrt(w)
    bilap_rows, bilap_mean = synthesize(u, ops.cache, ("bilap_u",))["bilap_u"]
    f_rows, f_mean = forcing
    R_reps, r0 = f_rows - bilap_rows, f_mean - bilap_mean
    coeffs = np.zeros((len(ops.layout.reps), degree + 1), complex)
    defect_sq = 0.0
    for r, (k1, k2) in enumerate(ops.layout.k):
        e1, e2 = ops.cache.wavenumber(k1, k2)
        A = np.vstack([1j * e1 * (sw[:, None] * Phi[0]),
                       1j * e2 * (sw[:, None] * Phi[0]),
                       sw[:, None] * Phi[1]])
        b = np.concatenate([sw * R_reps[0, r], sw * R_reps[1, r], sw * R_reps[2, r]])
        coeffs[r] = np.linalg.lstsq(A, b, rcond=None)[0]
        defect_sq += 2.0 * geo.area * float(np.linalg.norm(A @ coeffs[r] - b) ** 2)
    A0 = sw[:, None] * Phi[1]
    c0 = np.linalg.lstsq(A0, sw * r0[2], rcond=None)[0]
    defect_sq += geo.area * float(np.linalg.norm(A0 @ c0 - sw * r0[2]) ** 2)
    defect_sq += geo.area * float(np.sum(w * (r0[0] ** 2 + r0[1] ** 2)))
    return coeffs, np.sqrt(defect_sq)


# ---------------------------------------------------------------------------
# helpers only the tests use
# ---------------------------------------------------------------------------

def apply_form(op_matrix, u_coeffs, v_coeffs):
    """Sesquilinear form value v* (matrix) u; conjugate-linear in v."""
    u = np.asarray(u_coeffs)
    v = np.asarray(v_coeffs)
    if op_matrix.shape != (v.size, u.size):
        raise ValueError(f"dimension mismatch: matrix {op_matrix.shape}, "
                         f"vectors {u.size}/{v.size}")
    return complex(np.vdot(v, op_matrix @ u))


def grid_quadrature(cache, resolution):
    """Weights integrating gridded samples over the channel volume."""
    M1, M2 = resolution.padded_shape
    g = cache.geometry
    da = (g.L1 / M1) * (g.L2 / M2)
    return da * np.broadcast_to(cache.w, (M1, M2, resolution.Q))


def gradient_forcing(ops, scalar_modes):
    """f = grad q for per-mode scalar profiles {(k1, k2): (value, z-deriv)},
    as a (rows, mean) profile pair.

    scalar_modes maps representative wavenumbers to a pair of (Q,) arrays;
    the zero mode, if present, uses key (0, 0) with real profiles.
    """
    Q = ops.resolution.Q
    rows, mean = np.zeros((3, len(ops.layout.reps), Q), complex), np.zeros((3, Q))
    for (k1, k2), (q0, q1) in scalar_modes.items():
        if (k1, k2) == (0, 0):
            mean[2] = q1
            continue
        e1, e2 = ops.cache.wavenumber(k1, k2)
        rows[:, ops.layout.row[(k1, k2)]] = np.stack([1j * e1 * q0, 1j * e2 * q0, q1])
    return rows, mean


def eigenpair_field(ops, pair, component=0):
    """Embed an eigenpair into a full field (for cross-mode inner products).

    For nonzero wavenumbers the coefficients are placed on the first stored
    representative of the pair's block; for the mean block, on the chosen
    component.
    """
    f = zero_field(ops.geometry, ops.resolution)
    if pair.mode == (0, 0):
        f.mean[component] = pair.vector.real
        return f
    if pair.mode not in ops.layout.groups:
        raise ValueError(f"no stored representative for mode {pair.mode}")
    row = ops.layout.groups[pair.mode].start
    coeffs = f.psi if pair.block == "toroidal" else f.phi
    coeffs[row] = pair.vector / np.sqrt(2.0)  # unit L2 norm with the partner
    return f
