"""Assembled forms against pointwise integrand oracles."""

import numpy as np
import pytest

from nsab.basis import BasisCache, gauss_legendre
from nsab.evolution import run_evolution
from nsab.field import layout_for, random_field, reconstruct, zero_field
from nsab.operators import FORMS, OperatorSet, poloidal_forms, toroidal_forms
from nsab.params import ChannelGeometry, Resolution, derive_params

from conftest import (a_form_oracle, apply_form, block_groups, grad_omega_sq_oracle,
                      grid_quadrature, mode_velocity_profiles,
                      mode_vorticity_gradient, pair_bases, pair_forms, pair_tables,
                      params_with_k, random_block_coeffs, reference_forms)


@pytest.fixture(scope="module")
def setup(geo_odd, res_small, cache_odd):
    par = derive_params(0.2, 0.1, 0.5, 0.05)
    return OperatorSet(par, geo_odd, res_small, cache_odd)


def _block_energy(blocks, ct, cp, form):
    bt, bp = blocks
    return 2.0 * (np.vdot(ct, getattr(bt, form) @ ct).real
                  + np.vdot(cp, getattr(bp, form) @ cp).real)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("gamma,k", [(0.0, 0.0), (0.7, 0.0), (-1.0, 5.0), (0.3, 2.0)])
def test_a_form_matches_pointwise_oracle(geo_odd, res_small, cache_odd, gamma, k, seed):
    par = params_with_k(gamma, k)
    ops = OperatorSet(par, geo_odd, res_small, cache_odd)
    ct, cp = random_block_coeffs(cache_odd, 2, -1, 100 + seed)
    a_mat = _block_energy(pair_forms(ops, 2, -1), ct, cp, "K_a")
    a_ref = a_form_oracle(par, cache_odd, 2, -1, ct, cp)
    assert a_mat == pytest.approx(a_ref, rel=1e-12)


@pytest.mark.parametrize("gamma", [-1.0, -0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [0.0, 5.0])
def test_form_symmetry(geo, gamma, k):
    par = params_with_k(gamma, k)
    res = Resolution(N1=8, N2=8, P=24)
    ops = OperatorSet(par, geo, res)
    for blk in (*pair_forms(ops, 1, 0), *pair_forms(ops, 2, 3), ops.blocks[2][0]):
        m = blk.K_a
        assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()


def test_gamma_minus_one_bilaplacian_identity(geo_odd, res_small, cache_odd):
    """With k = 0 the form energy equals ||Lap u||^2 exactly (flat walls)."""
    par = params_with_k(-1.0, 0.0)
    ops = OperatorSet(par, geo_odd, res_small, cache_odd)
    z2, w2 = gauss_legendre(3 * res_small.Q, geo_odd.H)
    for seed in range(20):
        k1, k2 = [(1, 0), (2, 1), (1, -1), (3, 2)][seed % 4]
        ct, cp = random_block_coeffs(cache_odd, k1, k2, 300 + seed)
        a_val = _block_energy(pair_forms(ops, k1, k2), ct, cp, "K_a")
        prof = mode_velocity_profiles(cache_odd, k1, k2, ct, cp, z2, dmax=2)
        m = pair_bases(cache_odd, k1, k2)[0]
        lap = prof[2] - m * prof[0]
        lap_sq = 2.0 * geo_odd.area * float(np.sum(w2 * np.abs(lap) ** 2))
        assert abs(a_val - lap_sq) <= 1e-12 * lap_sq


def test_flat_wall_gamma_independence(geo_odd, res_small, cache_odd):
    ct, cp = random_block_coeffs(cache_odd, 1, 2, 1)
    vals = []
    for gamma in (-1.0, 0.0, 1.0):
        ops = OperatorSet(params_with_k(gamma, 2.0), geo_odd, res_small, cache_odd)
        vals.append(_block_energy(pair_forms(ops, 1, 2), ct, cp, "K_a"))
    assert max(vals) - min(vals) <= 1e-13 * max(abs(v) for v in vals)


def test_boundary_term_against_surface_quadrature(geo_odd, res_small, cache_odd):
    """a_k(u,u) - a_0(u,u) = k * wall integral, recomputed from traces."""
    k = 3.7
    par_k = params_with_k(0.4, k)
    par_0 = params_with_k(0.4, 0.0)
    ops_k = OperatorSet(par_k, geo_odd, res_small, cache_odd)
    ops_0 = OperatorSet(par_0, geo_odd, res_small, cache_odd)
    for seed in (0, 1, 2):
        k1, k2 = 2, 1
        ct, cp = random_block_coeffs(cache_odd, k1, k2, 500 + seed)
        diff = (_block_energy(pair_forms(ops_k, k1, k2), ct, cp, "K_a")
                - _block_energy(pair_forms(ops_0, k1, k2), ct, cp, "K_a"))
        wall = 0.0
        for zw, sgn in ((0.0, -1.0), (geo_odd.H, +1.0)):
            zp = np.array([zw])
            wv, _ = mode_vorticity_gradient(cache_odd, k1, k2, ct, cp, zp)
            du = mode_velocity_profiles(cache_odd, k1, k2, ct, cp, zp, dmax=1)[1][:, 0]
            nxw = np.array([-sgn * wv[1, 0], sgn * wv[0, 0], 0.0])
            wall += geo_odd.area * float(np.real(np.vdot(sgn * du, nxw)))
        assert diff == pytest.approx(2.0 * k * wall, rel=1e-10)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5])
def test_garding_sign_structure(geo_odd, res_small, cache_odd, gamma):
    """k = 0: a(u,u) >= (1-|gamma|) * independent grad-omega energy."""
    ops = OperatorSet(params_with_k(gamma, 0.0), geo_odd, res_small, cache_odd)
    for seed in range(4):
        ct, cp = random_block_coeffs(cache_odd, 1, 1, 700 + seed)
        a_val = _block_energy(pair_forms(ops, 1, 1), ct, cp, "K_a")
        ref = grad_omega_sq_oracle(cache_odd, 1, 1, ct, cp)
        assert a_val >= (1.0 - abs(gamma)) * ref - 1e-10 * abs(ref)


def test_cross_mode_forms_vanish(geo_odd, res_small, cache_odd):
    """Distinct tangential modes never couple: evaluate the a-form integrand
    between two single-mode fields by physical-space quadrature."""
    par = params_with_k(0.5, 2.0)
    ops = OperatorSet(par, geo_odd, res_small, cache_odd)
    f = zero_field(geo_odd, res_small)
    g = zero_field(geo_odd, res_small)
    lay = layout_for(geo_odd, res_small)
    (k1, k2), (q1, q2) = lay.reps[0], lay.reps[3]
    rf, rg = lay.row[(k1, k2)], lay.row[(q1, q2)]
    f.psi[rf, 0] = 1.0
    f.phi[rf, 0] = 0.5
    g.psi[rg, 1] = 1.0
    # volume integrand G(f) : grad(omega(g)) on the padded physical grid:
    # the tangential factor int e^{i(eta_f - eta_g).x} is evaluated as an
    # actual grid sum (exact for distinct stored modes)
    z = cache_odd.z
    _, Gf = mode_vorticity_gradient(cache_odd, k1, k2, f.psi[rf], f.phi[rf], z)
    _, Gg = mode_vorticity_gradient(cache_odd, q1, q2, g.psi[rg],
                                    np.zeros(res_small.n_poloidal, complex), z)
    M1, M2 = res_small.padded_shape
    x = np.arange(M1) * geo_odd.L1 / M1
    y = np.arange(M2) * geo_odd.L2 / M2
    e1f, e2f = cache_odd.wavenumber(k1, k2)
    e1g, e2g = cache_odd.wavenumber(q1, q2)
    phase = np.exp(1j * ((e1f - e1g) * x[:, None] + (e2f - e2g) * y[None, :]))
    tang = phase.sum() * (geo_odd.L1 / M1) * (geo_odd.L2 / M2)
    zprof = np.sum(cache_odd.w * np.einsum("ijq,ijq->q", Gf, np.conj(Gg)))
    assert abs(tang * zprof) <= 1e-12 * abs(zprof) * geo_odd.area
    # and the assembled machinery agrees: the full-form inner product is zero
    assert ops.form_inner("K_a", f, g) == pytest.approx(0.0, abs=1e-13)


def _wall_pieces(cache, k1, k2, gamma, ct, cp, zw, sgn):
    """(n x omega, n x Gn, d_n u) for one wall, from pointwise profiles."""
    zp = np.array([zw])
    wv, Gt = mode_vorticity_gradient(cache, k1, k2, ct, cp, zp)
    e1, e2 = cache.wavenumber(k1, k2)
    # Gn = sgn*(d_z w + gamma * grad w3) rows 1..3 at the wall
    Gn = sgn * (Gt[:, 2, 0] + gamma * np.array([1j * e1, 1j * e2, 0.0]) * wv[2, 0])
    nxw = np.array([-sgn * wv[1, 0], sgn * wv[0, 0], 0.0])
    nxGn = np.array([-sgn * Gn[1], sgn * Gn[0], 0.0])
    du = mode_velocity_profiles(cache, k1, k2, ct, cp, zp, dmax=1)[1][:, 0]
    return nxw, nxGn, sgn * du


@pytest.mark.parametrize("gamma,k", [(0.0, 0.0), (0.6, 2.5), (-1.0, 1.0)])
def test_strong_form_integration_by_parts(geo_odd, res_small, cache_odd, gamma, k):
    """a(u, w) = int (Lap^2 u) . conj(w) + sum_walls (k n x omega - n x Gn)
    . conj(d_n w) for solenoidal Dirichlet fields (div-free kills the
    grad-div terms).  Left side from the assembled matrices, right side from
    pointwise profiles and an independent quadrature."""
    par = params_with_k(gamma, k)
    ops = OperatorSet(par, geo_odd, res_small, cache_odd)
    k1, k2 = 2, 1
    ct, cp = random_block_coeffs(cache_odd, k1, k2, 61)
    dt_, dp_ = random_block_coeffs(cache_odd, k1, k2, 62)
    bt, bp = pair_forms(ops, k1, k2)
    lhs = 2.0 * np.real(np.vdot(dt_, bt.K_a @ ct) + np.vdot(dp_, bp.K_a @ cp))
    # volume: bilaplacian of the trial against the test velocity
    z2, w2 = gauss_legendre(3 * res_small.Q, geo_odd.H)
    m, Et, Ep = pair_tables(cache_odd, k1, k2, z2, 5)
    e1, e2 = cache_odd.wavenumber(k1, k2)
    t = [Et[d] @ ct for d in range(5)]
    p = [Ep[d] @ cp for d in range(6)]
    LLt = t[4] - 2 * m * t[2] + m * m * t[0]
    DLLp = p[5] - 2 * m * p[3] + m * m * p[1]
    LLp = p[4] - 2 * m * p[2] + m * m * p[0]
    bih = np.stack([1j * e2 * LLt + 1j * e1 * DLLp,
                    -1j * e1 * LLt + 1j * e2 * DLLp,
                    m * LLp])
    wvel = mode_velocity_profiles(cache_odd, k1, k2, dt_, dp_, z2)[0]
    rhs = geo_odd.area * float(np.real(np.sum(w2 * np.einsum(
        "iq,iq->q", bih, np.conj(wvel)))))
    for zw, sgn in ((0.0, -1.0), (geo_odd.H, +1.0)):
        nxw, nxGn, _ = _wall_pieces(cache_odd, k1, k2, gamma, ct, cp, zw, sgn)
        _, _, dnw = _wall_pieces(cache_odd, k1, k2, gamma, dt_, dp_, zw, sgn)
        rhs += geo_odd.area * float(np.real(
            np.vdot(dnw, par.k * nxw - nxGn)))
    assert lhs == pytest.approx(2.0 * rhs, rel=1e-10)


@pytest.mark.parametrize("gamma,k", [(0.3, 1.5)])
def test_bilaplacian_form_integration_by_parts(geo_odd, res_small, cache_odd,
                                               gamma, k):
    """a(u, w) = int Lap u . conj(Lap w) + sum_walls [(k n x omega - n x Gn)
    - Lap u] . conj(d_n w) for solenoidal Dirichlet fields."""
    par = params_with_k(gamma, k)
    ops = OperatorSet(par, geo_odd, res_small, cache_odd)
    k1, k2 = 1, 2
    ct, cp = random_block_coeffs(cache_odd, k1, k2, 71)
    dt_, dp_ = random_block_coeffs(cache_odd, k1, k2, 72)
    bt, bp = pair_forms(ops, k1, k2)
    lhs = 2.0 * np.real(np.vdot(dt_, bt.K_a @ ct) + np.vdot(dp_, bp.K_a @ cp))
    z2, w2 = gauss_legendre(3 * res_small.Q, geo_odd.H)
    m = pair_bases(cache_odd, k1, k2)[0]

    def lap_profiles(a, b, z):
        prof = mode_velocity_profiles(cache_odd, k1, k2, a, b, z, dmax=2)
        return prof[2] - m * prof[0]

    lap_u = lap_profiles(ct, cp, z2)
    lap_w = lap_profiles(dt_, dp_, z2)
    rhs = geo_odd.area * float(np.real(np.sum(w2 * np.einsum(
        "iq,iq->q", lap_u, np.conj(lap_w)))))
    for zw, sgn in ((0.0, -1.0), (geo_odd.H, +1.0)):
        nxw, nxGn, _ = _wall_pieces(cache_odd, k1, k2, gamma, ct, cp, zw, sgn)
        _, _, dnw = _wall_pieces(cache_odd, k1, k2, gamma, dt_, dp_, zw, sgn)
        lap_u_wall = lap_profiles(ct, cp, np.array([zw]))[:, 0]
        rhs += geo_odd.area * float(np.real(
            np.vdot(dnw, par.k * nxw - nxGn - lap_u_wall)))
    assert lhs == pytest.approx(2.0 * rhs, rel=1e-10)


def test_apply_form_examples(setup):
    ops = setup
    bt = pair_forms(ops, 1, 1)[0]
    n = bt.n
    for j in (0, n // 2, n - 1):
        e = np.zeros(n)
        e[j] = 1.0
        assert apply_form(bt.M, e, e).real > 0.0
    rng = np.random.default_rng(3)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # filter form dominates the mass form for alpha > 0
    assert apply_form(bt.M_lambda, u, u).real >= apply_form(bt.M, u, u).real
    # Hermitian symmetry of the a-form
    assert apply_form(bt.K_a, u, v) == pytest.approx(
        np.conj(apply_form(bt.K_a, v, u)), rel=1e-12)
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_form(bt.K_a, u[:-1], v)


def test_mode_operator_invariants(setup):
    ops = setup
    for kk in ((1, 0), (1, 1), (2, -1)):
        for blk in pair_forms(ops, *kk):
            assert np.linalg.eigvalsh(blk.M)[0] > 0.99
            assert np.linalg.eigvalsh(blk.M_lambda)[0] > 0.99
            assert np.linalg.eigvalsh(blk.K_grad)[0] > 0.0
    for blk in pair_forms(ops, 1, 1):
        K = blk.K_a
        assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()


def test_sobolev_norms(setup, geo_odd, res_small):
    ops = setup
    z = zero_field(geo_odd, res_small)
    assert all(ops.form_inner(form, z, z) == 0.0 for form in ("M", "K_grad", "K_bilap"))
    nz = ops.a_scale_norms(z)
    assert all(v == 0.0 for k, v in nz.items() if k != "shift")
    # single eigenvector: ||(A+shift)^{1/2} u|| = sqrt(lam + shift)
    blk = pair_forms(ops, 1, 1)[0]
    lam, V = np.linalg.eigh(blk.K_a)
    f = zero_field(geo_odd, res_small)
    lay = layout_for(geo_odd, res_small)
    f.psi[lay.groups[(1, 1)].start] = V[:, -1] / np.sqrt(2.0)  # unit L2 norm overall
    sn = ops.a_scale_norms(f)
    assert np.sqrt(ops.form_inner("M", f, f)) == pytest.approx(1.0, rel=1e-12)
    assert sn["A_half"] == pytest.approx(np.sqrt(lam[-1] + sn["shift"]), rel=1e-10)
    # Parseval: total L2 from the physical grid equals the form energy
    u = random_field(geo_odd, res_small, seed=21, amplitude=1.7)
    wq = grid_quadrature(ops.cache, res_small)
    U = reconstruct(u, ops.cache)["u"]
    phys = float(np.sum(U**2 * wq))
    assert ops.form_inner("M", u, u) == pytest.approx(phys, rel=1e-12)


def _a_scale_norms_by_block(ops, f, shift):
    """Reference: the watchdog norms accumulated one block group at a time."""
    acc = np.zeros(4)
    for blk, c, mult in block_groups(ops, f):
        lam, V = np.linalg.eigh(blk.K_a)
        d = c @ V
        p = np.abs(d) ** 2
        lam_s = np.maximum(lam + shift, 0.0)
        Ac = (lam_s * d) @ V.T
        acc += mult * np.array([
            p.sum(), (lam_s * p).sum(), (lam_s**2 * p).sum(),
            np.vdot(Ac, Ac @ blk.M_lambda.T).real])
    return np.sqrt(acc)


@pytest.mark.parametrize("res", [Resolution(N1=4, N2=4, P=12),
                                 Resolution(N1=8, N2=6, P=16)],
                         ids=["4x4", "8x6"])
def test_a_scale_norms_match_per_block_loop(geo_odd, res):
    ops = OperatorSet(derive_params(0.2, 0.1, 0.5, 0.05), geo_odd, res)
    for seed in (2, 3, 4):
        f = random_field(geo_odd, res, seed=seed, amplitude=1.3)
        got = ops.a_scale_norms(f)
        ref = _a_scale_norms_by_block(ops, f, got["shift"])
        for name, want in zip(("A0", "A_half", "A1", "A1_lambda"), ref):
            assert got[name] == pytest.approx(want, rel=1e-12, abs=0)


def test_a_scale_norms_overflow_reads_inf(setup, geo_odd, res_small):
    """Finite coefficients whose forms overflow give inf norms, never nan:
    the watchdog's h4_growth signal."""
    for amp in (1e150, 1e300):
        sn = setup.a_scale_norms(random_field(geo_odd, res_small, seed=9, amplitude=amp))
        assert sn["A1"] == sn["A1_lambda"] == np.inf
    assert sn["A0"] == sn["A_half"] == np.inf


def _a_scale_norms_longdouble(ops, f, shift):
    """Reference: the watchdog norms as quadratic forms of the stored K_a and
    K_grad rows, z = (K_a + shift) c, summed in extended precision."""
    s, acc = np.longdouble(shift), np.zeros(4, np.longdouble)
    for p, (c, mult) in enumerate(zip(f.potentials(), (2, 2, 1))):
        blk = ops.blocks[p]
        Ka, Kg = (np.asarray(K[ops.layout.block] if p < 2 else K, np.longdouble)
                  for K in (blk.K_a, blk.K_grad))
        for x in (c.real, c.imag) if p < 2 else (c,):
            x = np.asarray(x, np.longdouble)
            kx = np.einsum("rij,rj->ri", Ka, x)
            z = kx + s * x
            gz = np.einsum("rij,rj->ri", Kg, z)
            acc += mult * np.array([(x * x).sum(), (x * kx).sum(), (z * z).sum(),
                                    (z * gz).sum()])
    a2 = np.longdouble(ops.params.alpha) ** 2
    return np.sqrt([acc[0], acc[1] + s * acc[0], acc[2], acc[2] + a2 * acc[3]])


def test_a_scale_norms_match_extended_precision(geo):
    """At N16/P32 every watchdog norm agrees with the extended-precision
    value of the same quadratic forms to 1e-13, for a random field and for
    it after ten Euler steps."""
    res = Resolution(N1=16, N2=16, P=32)
    ops = OperatorSet(derive_params(0.2, 0.1, -1.0, 0.01), geo, res)
    u0 = random_field(geo, res, seed=3, amplitude=0.2)
    stepped = run_evolution(ops, u0, 0.02, 0.2, cadence=10).final.field
    for f in (u0, stepped):
        got = ops.a_scale_norms(f)
        want = _a_scale_norms_longdouble(ops, f, got["shift"])
        for name, w in zip(("A0", "A_half", "A1", "A1_lambda"), want):
            assert abs(np.longdouble(got[name]) - w) <= 1e-13 * w, name


FORMS = ("M", "M_lambda", "K_a", "K_grad", "K_bilap")
RESOLUTIONS = pytest.mark.parametrize(
    "res", [Resolution(N1=4, N2=4, P=12), Resolution(N1=8, N2=6, P=16)],
    ids=["4x4", "8x6"])


@RESOLUTIONS
def test_form_inner_matches_per_group_loop(geo_odd, res):
    ops = OperatorSet(derive_params(0.2, 0.1, 0.5, 0.05), geo_odd, res)
    u = random_field(geo_odd, res, seed=5, amplitude=1.3)
    v = random_field(geo_odd, res, seed=6, amplitude=0.7)
    for form in FORMS:
        for a, b in ((u, u), (u, v), (v, u)):
            terms = [mult * np.vdot(cb, ca @ getattr(blk, form).T).real
                     for (blk, ca, mult), (_, cb, _) in zip(block_groups(ops, a),
                                                            block_groups(ops, b))]
            got = ops.form_inner(form, a, b)
            assert abs(got - sum(terms)) <= 1e-13 * sum(map(abs, terms))


@RESOLUTIONS
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_energy_identities_of_the_orthonormal_bases(request, geometry, res):
    """M = I, so ||u||^2 = u.dot(u) and <M_L u, u> = ||u||^2 + alpha^2
    <K_grad u, u>: the identities energy_report relies on."""
    g = request.getfixturevalue(geometry)
    par = derive_params(0.2, 0.1, 0.5, 0.05)
    ops = OperatorSet(par, g, res)
    for seed in (7, 8):
        u = random_field(g, res, seed=seed, amplitude=1.3)
        l2sq = u.dot(u)
        assert ops.form_inner("M", u, u) == pytest.approx(l2sq, rel=1e-13, abs=0)
        want = l2sq + par.alpha**2 * ops.form_inner("K_grad", u, u)
        assert ops.form_inner("M_lambda", u, u) == pytest.approx(want, rel=1e-13, abs=0)


def test_mean_block_wall_coupling_can_lose_coercivity(geo):
    # z(H-z)-type profiles make the wall term dominate for large k: the
    # assembled mean block must reproduce the sign change of a(u,u)
    res = Resolution(N1=4, N2=4, P=12)
    for k, positive in ((0.0, True), (5.0, False)):
        ops = OperatorSet(params_with_k(0.0, k), geo, res)
        lam = np.linalg.eigvalsh(ops.blocks[2][0].K_a)
        assert (lam[0] > 0) == positive


ASSEMBLY_RESOLUTIONS = pytest.mark.parametrize(
    "res", [Resolution(N1=4, N2=4, P=12), Resolution(N1=8, N2=6, P=16),
            Resolution(N1=16, N2=16, P=32)], ids=["4x4", "8x6", "16x16"])


@ASSEMBLY_RESOLUTIONS
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_stacked_assembly_matches_per_block_reference(request, geometry, res):
    """Every form and basis of every toroidal, poloidal and mean block of the
    stacks against a per-block Gram assembly from each block's own tables."""
    g = request.getfixturevalue(geometry)
    par = derive_params(0.2, 0.1, 0.5, 0.05)
    ops = OperatorSet(par, g, res)
    checked = 0
    (tor, pol, mean), c = ops.blocks, ops.cache
    groups = ops.layout.groups
    for key in list(groups) + [(0, 0)]:
        forms, bases = reference_forms(par, c, *key)
        b = ops.layout.block[groups[key].start] if key != (0, 0) else None
        blocks, Ws = (({"mean": mean[0]}, {"mean": c.mean_W}) if key == (0, 0) else
                      ({"toroidal": tor[b], "poloidal": pol[b]},
                       {"toroidal": c.W_tor[b], "poloidal": c.W_pol[b]}))
        for name, ref in forms.items():
            for form, want in ref.items():
                got = getattr(blocks[name], form)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), \
                    (key, name, form)
                checked += 1
            W = Ws[name]
            assert np.abs(W - bases[name]).max() <= 1e-13 * np.abs(bases[name]).max()
    assert checked == 5 * (2 * len(groups) + 1)


@ASSEMBLY_RESOLUTIONS
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_toroidal_basis_scales_as_inverse_sqrt_m(request, geometry, res):
    """The toroidal mass is area m G00, so W(m) = W0 / sqrt(area m) with
    W0 = chol(G00)^{-T}, for every block of the stack."""
    g = request.getfixturevalue(geometry)
    cache = BasisCache(g, res)
    T0 = cache.raw_T[0]
    W0 = np.linalg.solve(np.linalg.cholesky((T0.T * cache.w) @ T0).T,
                         np.eye(res.n_toroidal))
    want = W0 / np.sqrt(g.area * cache.m)[:, None, None]
    assert cache.W_tor.shape == want.shape
    assert np.abs(cache.W_tor - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("N1, N2", [(16, 16), (8, 12), (2, 4)])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_one_block_per_distinct_m(request, geometry, N1, N2):
    """Block groups of bitwise-equal m = |eta|^2 share one block: fewer
    blocks than groups on the square box, where (a, b) and (b, a) meet
    (2x4 has one group only), one per group on geo_odd.  Each group's
    bases and forms are bitwise those built for its m alone."""
    g = request.getfixturevalue(geometry)
    par = derive_params(0.2, 0.1, 0.5, 0.05)
    ops = OperatorSet(par, g, Resolution(N1=N1, N2=N2, P=10))
    c, groups = ops.cache, ops.layout.groups
    U, G = len(c.m), len(groups)
    assert U < G if geometry == "geo" and N1 > 2 else U == G
    for r, (k1, k2) in enumerate(ops.layout.k):
        e1, e2 = c.wavenumber(k1, k2)
        assert c.m[ops.layout.block[r]] == e1 * e1 + e2 * e2
    for (k1, k2), rows in groups.items():
        e1, e2 = c.wavenumber(k1, k2)
        m = np.array([e1 * e1 + e2 * e2])
        W_tor, W_pol = c.bases(m)
        b = ops.layout.block[rows.start]
        assert np.array_equal(c.W_tor[b], W_tor[0])
        assert np.array_equal(c.W_pol[b], W_pol[0])
        for got, want in ((ops.blocks[0][b], toroidal_forms(par, c, m, W_tor)[0]),
                          (ops.blocks[1][b], poloidal_forms(par, c, m, W_pol)[0])):
            for form in FORMS:
                assert np.array_equal(getattr(got, form), getattr(want, form)), \
                    ((k1, k2), got.name, form)
