"""Nonlinear term, exact propagator, IMEX stepping, monitors, probes."""

import dataclasses
import gc
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from nsab.evolution import (IMEXStepper, energy_report, linear_propagator_exact,
                            nonlinear_term, run_evolution, uniqueness_probe, vanishing_sweep)
from nsab import evolution, field
from nsab.basis import BasisCache
from nsab.field import (MEAN_BUCKETS, SolenoidalField, as_complex, as_planes, blockmul,
                        layout_for, random_field, reconstruct,
                        synthesize_rows, zero_field)
from nsab.operators import FORMS, OperatorSet, _root
from nsab.params import Resolution, derive_params
from nsab.spectral import eigenpairs_A, garding_constants, spectral_factors

from conftest import (block_groups, distinct_blocks, hermitian_modes, mean_tables,
                      mode_velocity_profiles, nonlinear_term_fresh,
                      nonlinear_term_on_grid, params_with_k, project_velocity,
                      project_velocity_fft, reconstruct_fft)


@pytest.fixture(scope="module")
def par():
    return derive_params(0.2, 0.1, -1.0, 0.01)  # k = 1


@pytest.fixture(scope="module")
def ops(par, geo, res_small):
    return OperatorSet(par, geo, res_small)


def test_nonlinear_zero(ops, geo, res_small):
    assert nonlinear_term(zero_field(geo, res_small), ops).norm_l2() == 0.0


def test_nonlinear_skew_symmetry(ops, geo, res_small):
    for seed in range(20):
        u = random_field(geo, res_small, seed=40 + seed, amplitude=1.0)
        N = nonlinear_term(u, ops)
        scale = N.norm_l2() * u.norm_l2()
        assert abs(N.dot(u)) <= 1e-11 * max(scale, 1e-30)


def convective_form(u, cache, alpha):
    """(grad v) u + (grad u)^T v on the padded grid, (grad u)_{ij} = d_j u_i,
    built from the pointwise mode profiles: the reference for N."""
    res = u.resolution
    M1, M2 = res.padded_shape
    a2 = alpha**2
    U, V = (np.zeros((3, M1, M2, res.Q), complex) for _ in range(2))
    GU, GV = (np.zeros((3, 3, M1, M2, res.Q), complex) for _ in range(2))
    for k1, k2, ct, cp in hermitian_modes(u):
        d = mode_velocity_profiles(cache, k1, k2, ct, cp, cache.z, dmax=3)
        e1, e2 = cache.layout.wavenumber(k1, k2)
        m = e1 * e1 + e2 * e2
        u_hat = d[0]
        v_hat = d[0] - a2 * (d[2] - m * d[0])
        dv_hat = d[1] - a2 * (d[3] - m * d[1])
        i, j = k1 % M1, k2 % M2
        U[:, i, j] = u_hat
        V[:, i, j] = v_hat
        GU[:, :, i, j] = np.stack([1j * e1 * u_hat, 1j * e2 * u_hat, d[1]],
                                  axis=1)
        GV[:, :, i, j] = np.stack([1j * e1 * v_hat, 1j * e2 * v_hat, dv_hat],
                                  axis=1)
    # mean profile (U1, U2, 0)(z): only z-derivatives
    E = mean_tables(cache, cache.z, 3)
    Um = [np.stack([E[j] @ u.mean[0], E[j] @ u.mean[1], 0.0 * cache.z])
          for j in range(4)]
    U[:, 0, 0] = Um[0]
    V[:, 0, 0] = Um[0] - a2 * Um[2]
    GU[:, 2, 0, 0] = Um[1]
    GV[:, 2, 0, 0] = Um[1] - a2 * Um[3]
    u_, v_, gu, gv = (np.real(np.fft.ifft2(A, axes=(-3, -2))) * (M1 * M2)
                      for A in (U, V, GU, GV))
    return (np.einsum("ij...,j...->i...", gv, u_)
            + np.einsum("ji...,j...->i...", gu, v_))


@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_nonlinear_matches_convective_form(request, geometry, par, res_small):
    """N equals the projection of the convective form evaluated pointwise."""
    g = request.getfixturevalue(geometry)
    o = OperatorSet(par, g, res_small)
    for seed in (3, 17):
        u = random_field(g, res_small, seed=seed, amplitude=1.0, decay=0.5)
        ref = project_velocity(convective_form(u, o.cache, par.alpha), o.cache)
        N = nonlinear_term(u, o)
        assert (N - ref).norm_l2() <= 1e-12 * ref.norm_l2()


def test_nonlinear_single_mode_support(ops, geo, res_small):
    """A single-mode field interacts only into wavenumbers {0, +-2 eta}:
    verified against a brute-force convolution of the tangential series."""
    lay = layout_for(geo, res_small)
    u = zero_field(geo, res_small)
    k1, k2 = 1, 1
    u.psi[lay.row[(k1, k2)]] = as_planes(np.eye(1, res_small.n_toroidal)[0] * (0.7 + 0.4j))
    u.phi[lay.row[(k1, k2)]] = as_planes(np.eye(1, res_small.n_poloidal)[0] * (0.2 - 0.1j))
    N = nonlinear_term(u, ops)
    allowed = {(0, 0), (2 * k1, 2 * k2), (-2 * k1, -2 * k2)}
    top = max(np.abs(N.psi).max(), np.abs(N.phi).max(), np.abs(N.mean).max())
    # stored rows stand for their conjugate partners too
    for a, (q1, q2) in enumerate(lay.k):
        if (q1, q2) in allowed:
            continue
        assert np.abs(N.psi[a]).max() <= 1e-14 * top
        assert np.abs(N.phi[a]).max() <= 1e-14 * top
    # brute-force tangential convolution of the quadratic interaction:
    # support of products of e^{i eta x} and conjugates
    active = {(k1, k2), (-k1, -k2)}
    conv = {(p1 + q1, p2 + q2) for (p1, p2) in active for (q1, q2) in active}
    assert allowed == conv


@pytest.mark.parametrize("N, P, M", [(8, 16, 12), (6, 12, 10)],
                         ids=["N8P16", "N6P12"])
def test_nonlinear_3_2_grid_matches_twice_padded_grid(par, geo_odd, N, P, M):
    """The 3N/2 grid (rounded up to even: 10 at N = 6) gives the products of
    the 2N grid; an N x N grid aliases them, which the comparison sees."""
    res = Resolution(N1=N, N2=N, P=P)
    o = OperatorSet(par, geo_odd, res)
    assert res.padded_shape == (M, M)
    for seed in (5, 23):
        u = random_field(geo_odd, res, seed=seed, amplitude=1.0, decay=0.3)
        ref = nonlinear_term_on_grid(u, o, (2 * N, 2 * N))
        assert (nonlinear_term(u, o) - ref).norm_l2() <= 1e-13 * ref.norm_l2()
        aliased = nonlinear_term_on_grid(u, o, (N, N))
        assert (aliased - ref).norm_l2() > 1e-6 * ref.norm_l2()


@pytest.mark.parametrize("N1, N2, P", [(4, 4, 12), (6, 6, 12), (8, 8, 16),
                                       (10, 12, 12), (16, 16, 32)],
                         ids=["N4P12", "N6P12", "N8P16", "N10x12P12", "N16P32"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_nonlinear_term_matches_fft_oracle(par, geometry, N1, N2, P, request):
    """N(u) through the matrix DFTs against the same product taken through
    numpy's real FFTs on the same 3/2-rule grid."""
    g = request.getfixturevalue(geometry)
    res = Resolution(N1=N1, N2=N2, P=P)
    o = OperatorSet(par, g, res)
    u = random_field(g, res, seed=17, amplitude=1.0, decay=0.3)
    rec = reconstruct_fft(u, o.cache, want=("u", "curl_v"), alpha=par.alpha)
    ref = project_velocity_fft(np.cross(rec["curl_v"], rec["u"], axis=0), o.cache)
    assert (nonlinear_term(u, o) - ref).norm_l2() <= 1e-13 * ref.norm_l2()


def test_propagator_identity_and_eigen_decay(ops, geo, res_small, par):
    u0 = random_field(geo, res_small, seed=6, amplitude=0.3, decay=1.0)
    assert (linear_propagator_exact(u0, 0.0, ops) - u0).norm_l2() <= 1e-13
    # an eigenvector of D: u = L^{-1/2} e, decays like e^{-mu t} in L norm
    g = ops.layout.block[ops.layout.row[(1, 0)]]
    fb = spectral_factors(ops.blocks[0][g], par.beta, include_gradient=True)
    mu = fb.d_eigvals[0]
    c0 = fb.inv_sqrt_lambda @ fb.d_eigvecs[:, 0]
    f = zero_field(geo, res_small)
    f.psi[layout_for(geo, res_small).row[(1, 0)]] = c0
    for t in (0.1, 1.0):
        ft = linear_propagator_exact(f, t, ops)
        want = np.exp(-mu * t) * f
        for got, ref in zip(ft.potentials(), want.potentials()):
            assert np.allclose(got, ref, rtol=0, atol=1e-12 * np.abs(c0).max())


def test_semigroup_contraction_bound(ops):
    """||e^{-tD}|| <= e^{-mu_min t}: self-adjoint sharp bound per block."""
    for blk in distinct_blocks(ops):
        fb = spectral_factors(blk, ops.params.beta, include_gradient=False)
        mu_min = fb.d_eigvals[0]
        for t in (0.1, 1.0, 10.0):
            E = fb.d_eigvecs @ np.diag(np.exp(-t * fb.d_eigvals)) @ fb.d_eigvecs.T
            assert np.linalg.norm(E, 2) <= np.exp(-mu_min * t) * (1 + 1e-12)


def test_propagator_constant_forcing(ops, geo, res_small):
    """Duhamel quadrature against the closed form for constant forcing."""
    g = random_field(geo, res_small, seed=9, amplitude=0.2, decay=1.0)
    t = 0.7
    u = linear_propagator_exact(zero_field(geo, res_small), t, ops,
                                forcing=lambda tau: g, panels=8, nodes=10)
    ref = zero_field(geo, res_small)
    for (blk, c, _), (_, rows, _) in zip(block_groups(ops, g),
                                         block_groups(ops, ref)):
        fb = spectral_factors(blk, ops.params.beta, include_gradient=True)
        mu = fb.d_eigvals
        phi = np.where(np.abs(mu) > 1e-12, (1 - np.exp(-mu * t)) / np.where(mu == 0, 1, mu), t)
        for row, cr in zip(rows, c):
            cc = fb.inv_sqrt_lambda @ cr
            d = fb.d_eigvecs.T @ cc
            row[:] = fb.inv_sqrt_lambda @ (fb.d_eigvecs @ (phi * d))
    # graded composite Gauss quadrature: stiff-block kernels resolved to ~1e-8
    assert (u - ref).norm_l2() <= 1e-8 * max(ref.norm_l2(), 1e-30)


def test_imex_orders_against_propagator(geo):
    par = derive_params(0.2, 0.1, -1.0, 0.01)
    res = Resolution(N1=4, N2=4, P=12)
    o = OperatorSet(par, geo, res)
    u0 = random_field(geo, res, seed=5, amplitude=0.5, decay=2.0)
    T = 0.2
    uT = linear_propagator_exact(u0, T, o)
    dts = [1e-2, 5e-3, 2.5e-3]
    for scheme, expected in (("euler", 1.0), ("cnab2", 2.0)):
        errs = []
        for dt in dts:
            stepper = IMEXStepper(o, dt, u0, scheme, nonlinear=False)
            for _ in range(int(round(T / dt))):
                stepper.step()
            errs.append((stepper.out - uT).norm_l2())
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - expected) <= 0.1


def _lu_step(ops, dt, theta, u, G):
    """Reference step: one scipy LU solve of A x = (M_L - (1 - theta) dt S) u
    - dt G per block group, A = M_L + theta dt S."""
    out = zero_field(u.geometry, u.resolution)
    b2 = ops.params.beta**2
    for (blk, c, _), (_, g, _), (_, x, _) in zip(block_groups(ops, u),
                                                 block_groups(ops, G),
                                                 block_groups(ops, out)):
        S = b2 * blk.K_a + blk.K_grad
        lu = scipy.linalg.lu_factor(blk.M_lambda + theta * dt * S)
        rhs = c @ (blk.M_lambda - (1 - theta) * dt * S).T - dt * g
        x[:] = scipy.linalg.lu_solve(lu, rhs.T).T
    return out


@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_step_matches_high_precision_solve(request, geometry, res_small):
    """The second euler and cnab2 step, whose cnab2 history N(u0) differs
    from N(u1), against a 30-digit solve of the same float64 block system,
    and against a per-group LU step."""
    mp = mpmath.MPContext()  # private precision
    mp.dps = 30
    g = request.getfixturevalue(geometry)
    ops = OperatorSet(derive_params(0.2, 0.1, -1.0, 0.01), g, res_small)
    u0 = random_field(g, res_small, seed=2, amplitude=0.5)
    Nprev = nonlinear_term(u0, ops)
    dt = 0.02
    b2 = mp.mpf(ops.params.beta**2)

    def mat(a):
        return mp.matrix(a.tolist())

    for scheme, theta in (("euler", 1.0), ("cnab2", 0.5)):
        stepper = IMEXStepper(ops, dt, u0, scheme)
        stepper.step()
        u = stepper.out.copy()
        stepper.step()
        got, Nu = stepper.out, nonlinear_term(u, ops)
        G = Nu if scheme == "euler" else Nu * 1.5 - Nprev * 0.5
        ref = _lu_step(ops, dt, theta, u, G)
        for a, b in zip(got.potentials(), ref.potentials()):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
        # up to two rows of every block group: both mean components
        err = cmax = 0.0
        th, tau = mp.mpf(theta), mp.mpf(dt)
        for (blk, c, _), (_, gr, _), (_, x, _) in zip(block_groups(ops, u),
                                                      block_groups(ops, G),
                                                      block_groups(ops, got)):
            M, S = mat(blk.M_lambda), b2 * mat(blk.K_a) + mat(blk.K_grad)
            for cr, grow, xr in zip(c[:2], gr[:2], x[:2]):
                rhs = (M - (1 - th) * tau * S) * mat(cr) - tau * mat(grow)
                want = np.array(mp.lu_solve(M + th * tau * S, rhs).tolist(),
                                dtype=complex)[:, 0]
                err = max(err, np.abs(xr - want).max())
                cmax = max(cmax, np.abs(want).max())
        assert err <= 1e-14 * cmax


def _textbook_step(ops, dt, theta, u, G):
    """A x = (M_L - (1 - theta) dt S) u - dt G solved row by row with
    np.linalg.solve on the assembled forms, A = M_L + theta dt S, behind
    any member axes."""
    b2, out = ops.params.beta**2, []
    for p, (blk, c, g, blocks) in enumerate(zip(ops.blocks, u.potentials(), G.potentials(),
                                                ops.layout.potential_blocks)):
        if p < 2:
            c, g = as_complex(c), as_complex(g)
        S = b2 * blk.K_a + blk.K_grad
        A, B = ((blk.M_lambda + w * dt * S)[blocks] for w in (theta, theta - 1.0))
        rhs = (B @ c[..., None])[..., 0] - dt * g
        x = np.linalg.solve(A, rhs[..., None])[..., 0]
        out.append(as_planes(x) if p < 2 else x)
    return SolenoidalField(u.geometry, u.resolution, *out)


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
@pytest.mark.parametrize("members", [1, 3], ids=["single", "stack-3"])
@pytest.mark.parametrize("scheme, theta", [("euler", 1.0), ("cnab2", 0.5)])
def test_step_is_the_textbook_solve(par, geo, scheme, theta, members, nonlinear):
    """The step's one product per potential, [P | -dt Q] or
    [2 P - I | -1.5 dt Q | 0.5 dt Q] applied to [u | N | N_prev], equals
    the solve of A u' = (M_L - (1 - theta) dt S) u - dt G to 1e-13
    relative, G = N (euler), 1.5 N - 0.5 N_prev (cnab2) or 0 (nonlinear
    off), for one field and for a 3-member stack.  The step checked is the
    second, whose N_prev = N(u0) differs from N = N(u1)."""
    res = Resolution(N1=8, N2=8, P=16)
    o = OperatorSet(par, geo, res)

    def draw(seed):
        fields = [random_field(geo, res, seed=seed + j, amplitude=0.5) for j in range(members)]
        return SolenoidalField.stack(fields) if members > 1 else fields[0]

    u0 = draw(1)
    stepper = IMEXStepper(o, 0.02, u0, scheme, nonlinear)
    stepper.step()
    u = stepper.out.copy()
    stepper.step()
    got, N, Nprev = stepper.out, nonlinear_term(u, o), nonlinear_term(u0, o)
    G = (N if scheme == "euler" else N * 1.5 - Nprev * 0.5) if nonlinear else u * 0.0
    want = _textbook_step(o, 0.02, theta, u, G)
    for a, b in zip(got.potentials(), want.potentials()):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_zero_state_is_fixed_point(ops, geo, res_small):
    stepper = IMEXStepper(ops, 0.01, zero_field(geo, res_small), "euler")
    for _ in range(3):
        stepper.step()
    assert stepper.out.norm_l2() == 0.0


def test_small_amplitude_quadratic_deviation(geo):
    """Nonlinear deviation from the linear flow scales like amplitude^2."""
    par = derive_params(0.2, 0.1, -1.0, 0.01)
    res = Resolution(N1=4, N2=4, P=10)
    o = OperatorSet(par, geo, res)
    shape = random_field(geo, res, seed=8, amplitude=1.0, decay=1.5)
    T, dt = 0.1, 2e-3
    devs = []
    for eps in (1e-4, 5e-5):
        u0 = eps * shape
        stepper = IMEXStepper(o, dt, u0, "cnab2", nonlinear=True)
        steplin = IMEXStepper(o, dt, u0, "cnab2", nonlinear=False)
        for _ in range(int(round(T / dt))):
            stepper.step()
            steplin.step()
        devs.append((stepper.out - steplin.out).norm_l2())
    ratio = devs[0] / devs[1]
    assert abs(ratio - 4.0) <= 0.8          # quadratic scaling within 20%


def test_energy_decay_and_balance(ops, geo, res_small):
    # smooth initial data: the balance defect is then O(dt) uniformly,
    # without a stiff initial layer polluting the first steps
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1, decay=2.0)
    r1 = run_evolution(ops, u0, 0.01, 0.4, scheme="euler", cadence=1)
    E = [r.E_lambda for r in r1.reports]
    assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(E, E[1:]))
    b1 = max(r.dE_balance for r in r1.reports[1:])
    r2 = run_evolution(ops, u0, 0.005, 0.4, scheme="euler", cadence=1)
    b2 = max(r.dE_balance for r in r2.reports[1:])
    assert 1.6 <= b1 / b2 <= 2.4            # first-order balance defect


def test_bitwise_determinism(ops, geo, res_small):
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1)
    ra = run_evolution(ops, u0, 0.01, 0.2, cadence=5)
    rb = run_evolution(ops, u0, 0.01, 0.2, cadence=5)
    assert np.array_equal(ra.final.psi, rb.final.psi)
    assert np.array_equal(ra.final.phi, rb.final.phi)
    assert np.array_equal(ra.final.mean, rb.final.mean)
    assert [r.E_lambda for r in ra.reports] == [r.E_lambda for r in rb.reports]


def test_watchdog_nan_and_ceiling(ops, geo, res_small):
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1)
    r = run_evolution(ops, u0, 0.01, 0.3, inject_nan_step=4)
    assert r.watchdog is not None and r.watchdog.reason == "nan"
    assert r.watchdog.time == pytest.approx(0.04)
    # an absurdly low ceiling must also trip the watchdog structurally
    r2 = run_evolution(ops, u0, 0.01, 0.3, watchdog_ceiling=1e-12)
    assert r2.watchdog is not None and r2.watchdog.reason == "h4_growth"


def test_uniqueness_probe_properties(ops, geo, res_small):
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1, decay=1.0)
    pert = random_field(geo, res_small, seed=99, amplitude=1.0, decay=1.0)
    p0, = uniqueness_probe(ops, u0, pert, (0.0,), 0.1, 0.01)
    assert np.all(p0.growth == 1.0)
    p8, p6 = uniqueness_probe(ops, u0, pert, (1e-8, 1e-6), 0.2, 0.01)
    assert abs(p8.growth[-1] - p6.growth[-1]) <= 0.01 * abs(p8.growth[-1])
    # Gronwall envelope: log growth controlled by the H3-proxy integral with
    # a once-fitted constant (regression value with 50% headroom)
    C_REG = 0.5
    mask = p8.times > 0
    assert np.all(np.log(np.maximum(p8.growth[mask], 1e-300))
                  <= C_REG * p8.h3_integral[mask] + 1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniqueness_probe_watchdog_matches_run_evolution(geo):
    """A blow-up stops the probe at the step where run_evolution's watchdog
    stops the same base run, before any overflow; the probes keep the
    steps before it."""
    o = OperatorSet(derive_params(0.2, 0.1, 0.0, 0.01), geo,
                    Resolution(N1=8, N2=8, P=16))
    u0 = random_field(geo, o.resolution, seed=1, amplitude=1e4, decay=1.0)
    pert = random_field(geo, o.resolution, seed=7, amplitude=1.0, decay=1.0)
    run = run_evolution(o, u0, 0.02, 0.5, scheme="cnab2")
    assert run.watchdog is not None and run.watchdog.reason == "h4_growth"
    probes = uniqueness_probe(o, u0, pert, (1e-8, 1e-6), 0.5, 0.02)
    for p in probes:
        assert p.watchdog == run.watchdog
        assert len(p.times) == run.steps
        # three trajectories per completed step, then the base step that fired
        assert p.steps == 3 * (run.steps - 1) + 1
        assert p.times[-1] == pytest.approx(run.watchdog.time - 0.02)
        assert np.all(np.isfinite(p.growth)) and np.all(np.isfinite(p.h3_integral))


def test_uniqueness_probe_watchdog_checks_members(ops, geo, res_small):
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1, decay=1.0)
    pert = zero_field(geo, res_small)
    pert.phi[0, 0] = np.nan
    p, = uniqueness_probe(ops, u0, pert, (1e-6,), 0.1, 0.01)
    assert p.watchdog is not None and p.watchdog.reason == "nan"
    assert p.watchdog.time == pytest.approx(0.01)
    assert list(p.times) == [0.0]
    assert p.steps == 2  # the base step and the member step that fired


def test_vanishing_sweep_uniform_bounds(geo):
    par = derive_params(0.2, 0.1, 0.0, 0.01)
    res = Resolution(N1=4, N2=4, P=10)
    u0 = random_field(geo, res, seed=3, amplitude=0.1, decay=1.0)
    rows = vanishing_sweep(par, BasisCache(geo, res), u0, 4, T=0.5, dt=0.01)
    assert all(r.watchdog is None for r in rows)
    l2s = [r.sup_l2 for r in rows]
    h1s = [r.int_h1_sq for r in rows]
    # dissipation: sup-in-time L2 never exceeds the filtered initial energy
    for r, row in enumerate(rows):
        E0 = 0.5 * (u0.norm_l2()**2)  # lower bound of E_Lambda(0)
        assert row.sup_l2 <= np.sqrt(2 * E0 * (1 + row.alpha**2)) * (1 + 1e-6)
    # uniform in the sweep index: no growth as the lengths halve
    assert max(l2s) <= l2s[0] * (1 + 1e-6)
    assert max(h1s) <= 10 * h1s[0]


def test_time_stepping_computes_no_eigenvectors(par, geo, monkeypatch):
    """The watchdog norms are quadratic forms of the assembled K_a and
    K_grad: evolve, probe and sweep run with eigh unavailable."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh on the time-step path")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    res = Resolution(N1=4, N2=4, P=12)
    ops = OperatorSet(par, geo, res)
    u0 = random_field(geo, res, seed=8, amplitude=0.3)
    assert run_evolution(ops, u0, 0.01, 0.05).steps == 5
    assert uniqueness_probe(ops, u0, u0, (1e-6,), 0.05, 0.01)[0].steps == 10
    assert len(vanishing_sweep(par, ops.cache, u0, 2, 0.05, 0.01)) == 2


def test_uniqueness_probe_members_match_single_delta_runs(ops, geo, res_small):
    """The shared base trajectory changes no member: each one is bitwise
    equal to a run with its delta alone."""
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1, decay=1.0)
    pert = random_field(geo, res_small, seed=99, amplitude=1.0, decay=1.0)
    deltas = (1e-8, 0.0, 1e-6)
    members = uniqueness_probe(ops, u0, pert, deltas, 0.1, 0.01)
    assert [p.delta for p in members] == list(deltas)
    for d, p in zip(deltas, members):
        alone, = uniqueness_probe(ops, u0, pert, (d,), 0.1, 0.01)
        for name in ("times", "growth", "h3_integral"):
            assert np.array_equal(getattr(p, name), getattr(alone, name))


@pytest.mark.parametrize("dt, T", [(0.03, 0.1), (0.2, 0.1)])
def test_library_rejects_horizon_not_a_whole_number_of_steps(ops, geo, res_small,
                                                             par, dt, T):
    """T = 0.1 with dt = 0.03 would stop at 0.09, dt = 0.2 would take no step."""
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1)
    with pytest.raises(ValueError, match="not a whole multiple"):
        run_evolution(ops, u0, dt, T)
    with pytest.raises(ValueError, match="not a whole multiple"):
        uniqueness_probe(ops, u0, u0, (1e-6,), T, dt)
    with pytest.raises(ValueError, match="not a whole multiple"):
        vanishing_sweep(par, ops.cache, u0, 1, T, dt)


@pytest.mark.parametrize("cadence", [1, 3])
def test_energy_reports_reuse_previous_energy_bitwise(ops, geo, res_small, cadence):
    """run_evolution passes the previous report's E_Lambda to the balance
    term where the previous state was reported; every report equals the one
    that recomputes it from the previous state."""
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1)
    dt, T = 0.01, 0.1
    got = run_evolution(ops, u0, dt, T, cadence=cadence).reports
    stepper = IMEXStepper(ops, dt, u0, "euler")
    want, prev = [energy_report(ops, 0.0, ops.a_scale_norms(u0))], u0
    for n in range(1, 11):
        stepper.step()
        state = stepper.out.copy()
        if n % cadence == 0 or n == 10:
            want.append(energy_report(ops, stepper.time, ops.a_scale_norms(state),
                                      ops.a_scale_norms(prev), dt))
        prev = state
    assert len(got) == len(want) == 1 + 10 // cadence + (10 % cadence > 0)
    rows = [[dataclasses.astuple(r) for r in reps] for reps in (got, want)]
    np.testing.assert_array_equal(*rows)  # bitwise, NaN balance of t = 0 included


# ---------------------------------------------------------------------------
# the monitors compute only what the run reads
# ---------------------------------------------------------------------------

def _full_norms(ops, f):
    """The watchdog norms and report terms with every K_a and K_grad product
    formed on every call, summed as one array over the potentials; the
    <K_grad z, z> of A1_lambda takes z with the rows a_scale_norms rounds
    once from long double."""
    s, sums, zs = ops.shift, np.zeros(4), []
    runs = ops.layout.potential_buckets
    # blockmul multiplies rows x @ S: K applies to each row as its transpose
    Ka, Kg = ([np.swapaxes(getattr(blk, name), 1, 2).copy() for blk in ops.blocks]
              for name in ("K_a", "K_grad"))
    with np.errstate(over="ignore", invalid="ignore"):
        for mult, c, ka, kg, run in zip((2.0, 2.0, 1.0), f.potentials(), Ka, Kg, runs):
            kc = blockmul(ka, c, run)
            zs.append(kc + s * c)
            sums += mult * np.array([np.vdot(c, kc).real,
                                     np.vdot(c, blockmul(kg, c, run)).real,
                                     np.vdot(zs[-1], zs[-1]).real, 0.0])
        zr = ops._rounded_once(f, SolenoidalField(f.geometry, f.resolution, *zs))
        for mult, z, kg, run in zip((2.0, 2.0, 1.0), zr.potentials(), Kg, runs):
            sums[3] += mult * np.vdot(z, blockmul(kg, z, run)).real
        l2sq, (a_uu, grad, z2, zg) = f.dot(f), sums
        sq = np.array([l2sq, a_uu + s * l2sq, z2, z2 + ops.params.alpha**2 * zg])
        n0, n1, n2, n2L = np.sqrt(np.where(np.isfinite(sq), np.maximum(sq, 0.0), np.inf))
    return {"A0": n0, "A_half": n1, "A1": n2, "A1_lambda": n2L, "l2_sq": l2sq,
            "a_uu": a_uu, "grad_sq": grad}


def _full_report(ops, t, sn, prev=None, dt=None):
    energy = [0.5 * (x["l2_sq"] + ops.params.alpha**2 * x["grad_sq"]) for x in (sn, prev)
              if x is not None]
    bal = np.nan if prev is None else abs(
        (energy[0] - energy[1]) / dt + ops.params.beta**2 * sn["a_uu"] + sn["grad_sq"])
    return (t, energy[0], sn["a_uu"], sn["grad_sq"],
            float(np.sqrt(max(sn["l2_sq"], 0.0) + max(sn["grad_sq"], 0.0))),
            sn["A_half"], sn["A1_lambda"], bal)


def _full_norm_run(ops, u0, dt, nsteps, scheme, cadence, watchdog_ceiling):
    """(reports, (reason, time), steps) of run_evolution with every norm of
    every step in full and the coefficients scanned on every step."""
    stepper = IMEXStepper(ops, dt, u0, scheme)
    sn = _full_norms(ops, u0)
    ceiling = watchdog_ceiling * max(sn["A1"], 1e-300)
    reports = [_full_report(ops, 0.0, sn)]
    for n in range(1, nsteps + 1):
        stepper.step()
        prev, field, time = sn, stepper.out, stepper.time
        if not all(np.isfinite(c).all() for c in field.potentials()):
            return reports, ("nan", time), n
        sn = _full_norms(ops, field)
        if sn["A1"] > ceiling or n % cadence == 0 or n == nsteps:
            reports.append(_full_report(ops, time, sn, prev, dt))
        if sn["A1"] > ceiling:
            return reports, ("h4_growth", time), n
    return reports, None, nsteps


@pytest.mark.parametrize("case", ["cadence1", "cadence3", "ceiling-step1", "blowup-step3"])
def test_reports_match_full_norm_formula_bitwise(geo, case):
    """Norms computed on demand give every report, event and step count
    bitwise as the full formula of every step gives them, also on watchdog
    steps off the cadence (step 1 at cadence 3, step 3 at cadence 4, whose
    previous state was not reported)."""
    o = OperatorSet(derive_params(0.2, 0.1, 0.0, 0.01), geo, Resolution(N1=8, N2=8, P=16))
    amplitude, scheme, cadence, ceiling, T = {
        "cadence1": (0.3, "euler", 1, 1e6, 0.1),
        "cadence3": (0.3, "cnab2", 3, 1e6, 0.2),
        "ceiling-step1": (0.3, "euler", 3, 1e-12, 0.2),
        "blowup-step3": (1e4, "cnab2", 4, 1e6, 0.2)}[case]
    u0 = random_field(geo, o.resolution, seed=1, amplitude=amplitude, decay=1.0)
    run = run_evolution(o, u0, 0.02, T, scheme=scheme, cadence=cadence,
                        watchdog_ceiling=ceiling)
    reports, event, steps = _full_norm_run(o, u0, 0.02, round(T / 0.02), scheme, cadence,
                                           ceiling)
    np.testing.assert_array_equal([dataclasses.astuple(r) for r in run.reports], reports)
    assert run.steps == steps
    assert (run.watchdog and (run.watchdog.reason, run.watchdog.time)) == (event or None)
    if case.startswith(("ceiling", "blowup")):
        assert run.watchdog is not None and steps % cadence != 0


def test_probe_h3_integral_is_the_trapezoid_of_full_norms(ops, geo, res_small):
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1, decay=1.0)
    pert = random_field(geo, res_small, seed=99, amplitude=1.0, decay=1.0)
    p, = uniqueness_probe(ops, u0, pert, (1e-6,), 0.1, 0.01)
    stepper = IMEXStepper(ops, 0.01, u0, "cnab2")
    prev, acc, want = _full_norms(ops, u0)["A_half"], 0.0, [0.0]
    for _ in range(10):
        stepper.step()
        cur = _full_norms(ops, stepper.out)["A_half"]
        acc += 0.5 * 0.01 * (prev + cur)
        want.append(acc)
        prev = cur
    assert np.array_equal(p.h3_integral, want)


def test_k_grad_products_run_only_for_energy_reports(ops, geo, res_small, monkeypatch):
    """The watchdog and the probe read A0, A_half and A1 only: one K_a
    product per potential.  The K_grad products of grad_sq and A1_lambda run
    for reported states, and grad_sq also for the state before a report.
    Every K_a and K_grad stack product is counted, as (form, on stacked
    members); the probe's members take one stacked K_grad product per
    potential for their H1 norms.  Planned and one-off products alike run
    field.BlockProduct."""
    forms, calls = [(name, K) for name in ("K_a", "K_grad") for K in ops.stacks(name)], []
    product = field.BlockProduct.__call__

    def counting(self):
        # member axes lead the rows (R, 2, n), or the mean's (2, n)
        calls.extend((name, self.x.ndim > (2 if self.buckets is MEAN_BUCKETS else 3))
                     for name, K in forms if self.S is K)
        return product(self)

    monkeypatch.setattr(field.BlockProduct, "__call__", counting)
    u0 = random_field(geo, res_small, seed=2, amplitude=0.1)
    uniqueness_probe(ops, u0, u0, (1e-6,), 0.1, 0.01)
    assert calls.count(("K_a", False)) == calls.count(("K_grad", True)) == 3 * 11
    assert len(calls) == 2 * 3 * 11
    calls.clear()
    run_evolution(ops, u0, 0.01, 0.1, cadence=5)
    # reports at steps 0, 5, 10; grad_sq of steps 4 and 9 for the balance
    assert calls.count(("K_grad", False)) == 3 * (2 + 3 + 3)
    assert calls.count(("K_a", False)) == 3 * 11 and len(calls) == 3 * (11 + 8)
    calls.clear()
    run_evolution(ops, u0, 0.01, 0.04, cadence=1)
    assert calls.count(("K_grad", False)) == 3 * 2 * 5  # no state's K_grad products twice


def test_probe_arithmetic_is_the_full_fft_nonlinear_term(geo, monkeypatch):
    """At probe-n8p16's model (N8/P16, cnab2, dt 0.02, amplitude 0.3), five
    probe steps give h3_integral and the final stacked state (base run and
    both members) within 1e-12 relative of a run whose nonlinear term is
    formed member by member through full complex FFTs on the padded grid
    (conftest.nonlinear_term_on_grid).  The same run with that term scaled
    by 1 + 1e-9 misses the bound: its state moves by about 3e-12, while
    h3_integral, which depends on N only weakly here, moves by about
    1e-15.  The probe keeps its state in the stepper's rows and takes the
    nonlinear term's duals from its plan (NonlinearPlan.__call__), so the
    final state is read from the rows of the stepper it built and the term
    is replaced there."""
    rtol = 1e-12
    res = Resolution(N1=8, N2=8, P=16)
    o = OperatorSet(derive_params(0.2, 0.1, -1.0, 0.01), geo, res)
    u0 = random_field(geo, res, seed=1, amplitude=0.3)
    pert = random_field(geo, res, seed=2, amplitude=1.0)
    built, init = [], IMEXStepper.__init__
    monkeypatch.setattr(IMEXStepper, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))

    def probe():
        h3 = uniqueness_probe(o, u0, pert, (1e-8, 1e-6), 0.1, 0.02)[0].h3_integral[1:]
        return [h3, *(c.copy() for c in built[-1].u.potentials())]

    def on_grid(scale):
        def term(plan, u):
            return SolenoidalField.stack([nonlinear_term_on_grid(u[j], o, res.padded_shape)
                                          * scale for j in range(len(u.mean))]).potentials()
        return term

    got = probe()
    for scale, within in ((1.0, True), (1.0 + 1e-9, False)):
        monkeypatch.setattr(evolution.NonlinearPlan, "__call__", on_grid(scale))
        want = probe()
        err = max(np.abs(a - b).max() / np.abs(b).max() for a, b in zip(got, want))
        assert (err <= rtol) == within


def test_probe_member_scan_keeps_its_events(geo):
    """Members are scanned only when one of their H1 norms is not finite:
    a member that overflows to NaN stops the probe at the step and count it
    did before; a finite member whose difference overflows gives an inf
    growth (its H1 square sums inf - inf, which reads as overflow) and no
    event."""
    o = OperatorSet(derive_params(0.2, 0.1, 0.0, 0.01), geo, Resolution(N1=8, N2=8, P=16))
    u0 = random_field(geo, o.resolution, seed=2, amplitude=0.1, decay=1.0)
    pert = random_field(geo, o.resolution, seed=7, amplitude=1.0, decay=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for d2, time, steps in ((1e300, 0.02, 3), (1e150, 0.04, 6)):
            small, big = uniqueness_probe(o, u0, pert, (1e-6, d2), 0.1, 0.02)
            for p in (small, big):
                assert (p.watchdog.reason, p.steps) == ("nan", steps)
                assert p.watchdog.time == pytest.approx(time)
                assert len(p.times) == steps // 3
        small, big = uniqueness_probe(o, u0, pert, (1e-6, 1e63), 0.04, 0.02)
    assert small.watchdog is big.watchdog is None and big.steps == 6
    assert np.all(np.isfinite(small.growth)) and np.all(np.isfinite(big.growth[:2]))
    assert big.growth[2] == np.inf


# ---------------------------------------------------------------------------
# the reused grid workspace of the nonlinear term
# ---------------------------------------------------------------------------

def _same_field(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.potentials(), b.potentials()))


@pytest.mark.parametrize("N, P", [(4, 12), (8, 16), (16, 32)],
                         ids=["N4P12", "N8P16", "N16P32"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_nonlinear_workspace_bitwise_equals_public_composition(par, geometry, N, P,
                                                               request):
    """The workspace path does the arithmetic of reconstruct -> cross
    product -> project_velocity on fresh arrays, bit for bit, in repeated
    calls that reuse the workspace for other fields."""
    g = request.getfixturevalue(geometry)
    res = Resolution(N1=N, N2=N, P=P)
    o = OperatorSet(par, g, res)
    fields = [random_field(g, res, seed=s, amplitude=a)
              for s, a in ((1, 1.0), (2, 0.2), (1, 1.0), (3, 5.0))]
    for u in fields:
        assert _same_field(nonlinear_term(u, o), nonlinear_term_fresh(u, o))


def test_nonlinear_workspace_does_not_alias_returned_arrays(par, geo_odd):
    """Arrays handed out earlier - public reconstruct, synthesize_rows and
    project_velocity results, a previous N and its input - are not touched
    by a later nonlinear_term call."""
    res = Resolution(N1=8, N2=6, P=14)
    o = OperatorSet(par, geo_odd, res)
    u, u2 = (random_field(geo_odd, res, seed=s) for s in (4, 5))
    want = ("u", "curl_v")
    rec = reconstruct(u, o.cache, want=want, alpha=par.alpha)
    syn = synthesize_rows(u, o.cache, want=want, alpha=par.alpha)
    proj = project_velocity(rec["u"], o.cache)
    N = nonlinear_term(u, o)
    held = [*rec.values(), *syn,
            *proj.potentials(), *N.potentials(), *u.potentials()]
    copies = [a.copy() for a in held]
    nonlinear_term(u2, o)
    assert all(np.array_equal(a, c) for a, c in zip(held, copies))


@pytest.mark.parametrize("members", [(), (3,)], ids=["single", "stack-3"])
def test_to_grid_with_workspace_reads_the_profiles_given(par, geo, members):
    """Planned over a workspace, to_grid transforms the profiles handed to
    it, not those a planned synthesis last wrote into the workspace."""
    res = Resolution(N1=8, N2=8, P=16)
    o = OperatorSet(par, geo, res)
    grid = o.layout.grid
    work = grid.workspace(res, members)

    def draw(seed):
        fields = [random_field(geo, res, seed=seed + j) for j in range(math.prod(members))]
        return SolenoidalField.stack(fields) if members else fields[0]

    field.run(*field.plan_synthesis(draw(1).potentials(), o.cache, work.want, par.alpha, work))
    given = synthesize_rows(draw(7), o.cache, work.want, par.alpha)
    np.testing.assert_array_equal(field.run(*grid.plan_to_grid(*given, work)),
                                  grid.to_grid(*given))


def test_cnab2_history_owns_its_arrays(par, geo):
    """cnab2 keeps N as history across a step in the N_prev slot of its
    rows, which owns its arrays: after each step it holds the nonlinear term
    of the state two steps back (of u0 after the first step, the seed)
    bitwise, although the grid workspace's duals were overwritten since by
    the nonlinear term of another field."""
    res = Resolution(N1=8, N2=8, P=16)
    o = OperatorSet(par, geo, res)
    u0 = random_field(geo, res, seed=6, amplitude=0.3)
    stepper, states = IMEXStepper(o, 0.02, u0, "cnab2"), [u0]
    for n in range(1, 5):
        stepper.step()
        states.append(stepper.out.copy())
        nonlinear_term(random_field(geo, res, seed=10 + n), o)
        history = SolenoidalField(geo, res, *stepper.N_prev)
        assert _same_field(history, nonlinear_term(states[max(n - 2, 0)], o))


def test_warm_nonlinear_term_allocates_under_350kb(par, geo):
    """At N16/P32 the grid, box, profile and product arrays (3.3 MB when
    allocated per call) and the (R, Q) profile terms of the synthesis and
    analysis live in the workspace: a warm call's traced allocation peak,
    the (R, n) coefficient rows and the result, measured at 0.27 MB, stays
    under 0.35 MB."""
    res = Resolution(N1=16, N2=16, P=32)
    o = OperatorSet(par, geo, res)
    u = random_field(geo, res, seed=8, amplitude=0.2)
    nonlinear_term(u, o)
    tracemalloc.start()
    try:
        nonlinear_term(u, o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e5


def test_no_operator_stack_is_copied_per_row(par, geo):
    """The forms, bases and propagators are held per block: every stack's
    leading axis runs over the distinct m (one block for the mean), never
    over the layout's rows, and the basis cache gathers nothing per row, also
    after eigs.  Building the stepper at N16/P32, its rows included, peaks
    below the 3.4 MB its per-row P and Q took, once the grid workspace it
    plans on is warm (2.29 MB measured; 3.89 MB when the constructor builds
    the workspace, which lives for the process)."""
    res = Resolution(N1=16, N2=16, P=32)
    o = OperatorSet(par, geo, res)
    U = len(o.cache.m)
    assert U < len(o.layout.reps)
    u = random_field(geo, res, seed=1, amplitude=0.3)
    nonlinear_term(u, o)
    tracemalloc.start()
    try:
        stepper = IMEXStepper(o, 0.02, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4e6
    eigenpairs_A(o, 5)
    garding_constants(o)
    assert not hasattr(o.cache, "row_bases")
    assert o.cache.W_tor.shape[0] == o.cache.W_pol.shape[0] == U
    for blk, stack, size in zip(o.blocks, stepper._stacks, (U, U, 1)):
        for a in [getattr(blk, form) for form in FORMS] + [stack]:
            assert a.shape[0] == size


# ---------------------------------------------------------------------------
# stacked members: a leading (E,) axis on every coefficient array
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N1, N2, P", [(16, 16, 32), (8, 12, 16)], ids=["N16P32", "N8x12P16"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
@pytest.mark.parametrize("scheme", ["euler", "cnab2"])
def test_stacked_members_equal_their_own_calls(par, geometry, scheme, N1, N2, P, request):
    """nonlinear_term and two IMEX steps (the second with cnab2 history) of
    a 3-member stack give every member bitwise what its own calls and its
    own stepper give: the member axis stays a batch axis of every gemm."""
    g = request.getfixturevalue(geometry)
    res = Resolution(N1=N1, N2=N2, P=P)
    o = OperatorSet(par, g, res)
    fields = [random_field(g, res, seed=s, amplitude=a)
              for s, a in ((1, 0.3), (2, 1.0), (3, 5.0))]
    N = nonlinear_term(SolenoidalField.stack(fields), o)
    assert N.psi.shape[0] == 3
    for j, u in enumerate(fields):
        assert _same_field(N[j], nonlinear_term(u, o))
    stacked = IMEXStepper(o, 0.02, SolenoidalField.stack(fields), scheme)
    singles = [IMEXStepper(o, 0.02, u, scheme) for u in fields]
    for _ in range(2):
        for stepper in (stacked, *singles):
            stepper.step()
        for j, single in enumerate(singles):
            assert _same_field(stacked.out[j], single.out)


# ---------------------------------------------------------------------------
# the planned step: buffers and views built with the stepper
# ---------------------------------------------------------------------------

def _one_off_step(stepper, u, history):
    """(u', N) of a step from u with cnab2 history (None: seeded with N),
    composed of one-off calls on fresh arrays: reconstruct, the cross
    product, project_velocity, the rows [u | N | N_prev] concatenated and
    SolenoidalField.apply of the stepper's propagator stacks; N is None for
    euler."""
    ops, N = stepper.ops, None
    parts = [u]
    if stepper.nonlinear:
        rec = reconstruct(u, ops.cache, want=("u", "curl_v"), alpha=ops.params.alpha)
        w, v = ([a[..., i, :, :, :] for i in range(3)] for a in (rec["curl_v"], rec["u"]))
        prod = np.empty_like(rec["u"])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            prod[..., i, :, :, :] = w[j] * v[k] - w[k] * v[j]
        N = project_velocity(prod, ops.cache)
        parts.append(N)
        if stepper.scheme == "cnab2":
            parts.append(history if history is not None else N)
    rows = [np.concatenate(cs, axis=-1) for cs in zip(*(f.potentials() for f in parts))]
    return (SolenoidalField(u.geometry, u.resolution, *rows).apply(stepper._stacks),
            N if stepper.scheme == "cnab2" else None)


@pytest.mark.parametrize("N, P", [(8, 16), (16, 32)], ids=["N8P16", "N16P32"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
@pytest.mark.parametrize("members", [0, 3], ids=["single", "stack-3"])
@pytest.mark.parametrize("scheme", ["euler", "cnab2"])
def test_planned_step_is_the_one_off_composition(par, geometry, members, scheme, N, P, request):
    """Five planned steps give every state, and the cnab2 history in the N
    slot of the rows, bit for bit as the same steps composed of one-off
    calls on fresh arrays."""
    g = request.getfixturevalue(geometry)
    res = Resolution(N1=N, N2=N, P=P)
    o = OperatorSet(par, g, res)
    fields = [random_field(g, res, seed=s, amplitude=a) for s, a in ((1, 0.3), (2, 1.0), (3, 5.0))]
    u0 = SolenoidalField.stack(fields) if members else fields[0]
    stepper = IMEXStepper(o, 0.02, u0, scheme)
    want, history, time = u0, None, 0.0
    for _ in range(5):
        stepper.step()
        (want, history), time = _one_off_step(stepper, want, history), time + stepper.dt
        assert stepper.time == time and _same_field(stepper.out, want)
        assert (not stepper.N_prev) == (history is None) == (scheme == "euler")
        assert scheme == "euler" or _same_field(SolenoidalField(g, res, *stepper.N), history)


def _probe_stepper(o, scheme, fields):
    """The stepper of a probe on the stacked fields, with its base run and
    members: views of the step's output rows."""
    stepper = IMEXStepper(o, 0.02, SolenoidalField.stack(fields), scheme)
    return stepper, stepper.out[0], stepper.out[1:]


def test_warm_probe_step_allocates_under_200kb(par, geo):
    """A warm step of the probe on a 3-member stack at N16/P32 - the step
    of the stepper's rows, the watchdog's norms of the base run and the
    members' H1 norms - writes into the rows, workspace and monitor arrays
    planned for its run: its traced allocation peak, the watchdog's
    z = (K_a + s) c (0.11 MB, kept for a later A1_lambda) and the monitors'
    sums, measured at 0.17 MB (1.09 MB when each step returned a fresh state
    and its duals), stays under 0.2 MB."""
    res = Resolution(N1=16, N2=16, P=32)
    o = OperatorSet(par, geo, res)
    u0, pert = (random_field(geo, res, seed=s, amplitude=a) for s, a in ((1, 0.3), (7, 1.0)))
    stepper, base, members = _probe_stepper(o, "cnab2", [u0, u0 + 1e-8 * pert, u0 + 1e-6 * pert])

    def probe_step():
        stepper.step()
        evolution._watchdog(o, stepper.time, base, 1e300)
        evolution._h1_norms(o, members, base)

    probe_step()
    probe_step()
    tracemalloc.start()
    try:
        probe_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e5


def test_warm_evolve_step_allocates_under_250kb(par, geo):
    """A warm cnab2 step of an evolve run at N16/P32 - the step of the
    stepper's rows, the copy of its output rows that the next report's
    balance reads and the watchdog's norms of that copy - copies no state
    and no history: its traced allocation peak, measured at 0.22 MB (0.33 MB
    when each step loaded a state into the rows and copied it and its
    history out), stays under 0.25 MB."""
    res = Resolution(N1=16, N2=16, P=32)
    o = OperatorSet(par, geo, res)
    stepper = IMEXStepper(o, 0.02, random_field(geo, res, seed=1, amplitude=0.3), "cnab2")

    def evolve_step():
        stepper.step()
        evolution._watchdog(o, stepper.time, stepper.out.copy(), 1e300)

    evolve_step()
    evolve_step()
    tracemalloc.start()
    try:
        evolve_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e5


def test_runs_leave_no_reference_cycles(par, geo):
    """A run's plans keep no reference to the operator set that keeps them,
    so a finished probe or evolve run frees its rows and plans at once: a
    cycle would hold them until the garbage collector ran, and a process
    running many operations would peak higher."""
    res = Resolution(N1=8, N2=8, P=16)
    u0 = random_field(geo, res, seed=1, amplitude=0.3)

    def runs():
        o = OperatorSet(par, geo, res)
        uniqueness_probe(o, u0, u0, (1e-8, 1e-6), 0.06, 0.02)
        run_evolution(o, u0, 0.02, 0.06, scheme="cnab2")

    runs()
    gc.collect()
    gc.disable()
    try:
        runs()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _one_off_scale_norms(ops, f):
    """l2_sq, a_uu, A0, A_half and A1 of a_scale_norms composed of one-off
    calls on fresh arrays: SolenoidalField.apply, field arithmetic and dot."""
    s = ops.shift
    kf = f.apply(ops.stacks("K_a"))
    z = kf + f * s
    l2sq, a_uu, z2 = f.dot(f), kf.dot(f), z.dot(z)
    return [l2sq, a_uu, *_root(np.array([l2sq, a_uu + s * l2sq, z2]))]


def _one_off_h1_norms(ops, w):
    x = w + w.apply(ops.stacks("K_grad"))
    return _root(x.dot(w, per_member=True)).tolist()


def _bits(values):
    return np.array(values, float).view(np.int64).tolist()


@pytest.mark.parametrize("N, P", [(8, 16), (16, 32)], ids=["N8P16", "N16P32"])
@pytest.mark.parametrize("scheme", ["euler", "cnab2"])
def test_planned_monitors_are_the_one_off_norms(par, geo, scheme, N, P):
    """The watchdog's norms of the base run and the members' H1 norms, read
    as the probe reads them from the step's output rows by products planned
    for the run, equal the one-off compositions bit for bit over three steps
    of a 3-member stack; so do both for members with an inf and a NaN
    coefficient."""
    res = Resolution(N1=N, N2=N, P=P)
    o = OperatorSet(par, geo, res)
    fields = [random_field(geo, res, seed=s, amplitude=a)
              for s, a in ((1, 0.3), (2, 1.0), (3, 5.0))]
    stepper, base, members = _probe_stepper(o, scheme, fields)
    keys = ("l2_sq", "a_uu", "A0", "A_half", "A1")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            stepper.step()
            sn = o.a_scale_norms(base)
            assert _bits([sn[k] for k in keys]) == _bits(_one_off_scale_norms(o, base.copy()))
            h1 = evolution._h1_norms(o, members, base)
            assert _bits(h1) == _bits(_one_off_h1_norms(o, members - base))
        members.psi[0, 3, 1, 2] = np.inf
        members.phi[1, 0, 0, 1] = np.nan
        h1 = evolution._h1_norms(o, members, base)
        assert h1 == [np.inf, np.inf]
        assert _bits(h1) == _bits(_one_off_h1_norms(o, members - base))
        for j in range(2):
            sn = o.a_scale_norms(members[j])
            assert _bits([sn[k] for k in keys]) == _bits(_one_off_scale_norms(o, members[j].copy()))


def test_warm_stacked_nonlinear_term_allocates_under_1050kb(par, geo):
    """A 3-member stack reuses a workspace of its own (its grid array alone
    takes 4 MB at N16/P32): a warm call's traced peak, three members'
    coefficient rows and result, measured at 0.81 MB, stays under three
    times the single-field bound of 0.35 MB."""
    res = Resolution(N1=16, N2=16, P=32)
    o = OperatorSet(par, geo, res)
    u = SolenoidalField.stack([random_field(geo, res, seed=s, amplitude=0.2) for s in (8, 9, 10)])
    nonlinear_term(u, o)
    tracemalloc.start()
    try:
        nonlinear_term(u, o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05e6
