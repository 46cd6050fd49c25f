"""Stationary solves: Galerkin identities, pressure, natural-BC recovery."""

import numpy as np
import pytest

from nsab.basis import legendre_table
from nsab.field import analyze, random_field, synthesize, zero_field
from nsab.operators import OperatorSet
from nsab.params import Resolution, derive_params
from nsab.stationary import (ConsistencyError, recover_pressure, solve_stationary,
                             strong_bc_residual, wall_traction)
from nsab.manufactured import TrigProfile, default_case

from conftest import (block_groups, gradient_forcing, params_with_k,
                      reference_pressure, velocity_dual)


@pytest.fixture(scope="module")
def ops(geo, res_small):
    # k = 1.5; note k = 2/H is the exactly singular wall coefficient of the
    # mean block (see test_kernel_handling), so keep clear of it here
    return OperatorSet(derive_params(0.2, 0.1, 0.3, 0.015), geo, res_small)


def test_zero_forcing_zero_solution(ops, geo, res_small):
    u, rep = solve_stationary(ops, zero_field(geo, res_small))
    assert u.norm_l2() == 0.0
    assert rep.kernel_dim == 0


def test_discrete_manufactured_recovery(ops, geo, res_small):
    """rhs := K_a c* recovers c* through the solve (exact Galerkin inverse)."""
    target = random_field(geo, res_small, seed=31, amplitude=1.0)
    rhs = zero_field(geo, res_small)
    for (blk, c, _), (_, r, _) in zip(block_groups(ops, target),
                                      block_groups(ops, rhs)):
        r[:] = c @ blk.K_a.T
    u, rep = solve_stationary(ops, rhs)
    assert (u - target).norm_l2() <= 1e-10 * target.norm_l2()


def test_galerkin_orthogonality_and_energy(ops, geo, res_small):
    f = random_field(geo, res_small, seed=17, amplitude=1.0)
    rhs = velocity_dual(f, ops)
    u, rep = solve_stationary(ops, rhs)
    # residual of the linear system is the Galerkin-orthogonality defect
    assert rep.residual <= 1e-10 * rep.rhs_norm
    # a(u_h, u_h) = <f, u_h>
    assert ops.form_inner("K_a", u, u) == pytest.approx(rhs.dot(u), rel=1e-12)


def test_gradient_datum_recovers_pressure(ops, geo, res_small):
    """f = grad q drops from the weak problem and returns as the pressure."""
    q = TrigProfile.cosine(np.pi / geo.H)
    z = ops.cache.z
    forc = gradient_forcing(ops, {(1, 0): (q(z).astype(complex),
                                           q(z, 1).astype(complex))})
    rhs = analyze(*forc, ops.cache)
    assert rhs.norm_l2() <= 1e-12          # gradient is orthogonal to the basis
    u, _ = solve_stationary(ops, rhs)
    assert u.norm_l2() <= 1e-12
    press, rep = recover_pressure(u, forc, ops)
    zeta = 2 * z / geo.H - 1
    tab = legendre_table(zeta, press.degree, 0)[0].T
    assert np.abs(tab @ press.coeffs[ops.layout.row[(1, 0)]] - q(z)).max() <= 1e-12
    assert rep.gradient_defect <= 1e-10


@pytest.mark.parametrize("forcing_id", ["manufactured", "random"])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_pressure_fit_matches_per_row_reference(request, geometry, forcing_id):
    """The batched fit against one complex least-squares fit per row, rows
    with k1 = 0 or k2 = 0 included."""
    g = request.getfixturevalue(geometry)
    o = OperatorSet(derive_params(0.2, 0.1, 0.3, 0.015), g,
                    Resolution(N1=6, N2=4, P=12))
    assert (o.layout.k == 0).any(axis=0).all()
    if forcing_id == "manufactured":
        case = default_case(g)
        rhs, forc = case.rhs(o, o.params), case.forcing(o)
    else:
        forc = synthesize(random_field(g, o.resolution, seed=5), o.cache)["u"]
        rhs = analyze(*forc, o.cache)
    u, _ = solve_stationary(o, rhs)
    press, rep = recover_pressure(u, forc, o)
    coeffs, defect = reference_pressure(u, forc, o)
    assert np.abs(press.coeffs - coeffs).max() <= 1e-12 * np.abs(coeffs).max()
    assert abs(rep.gradient_defect - defect) <= 1e-10 * defect


@pytest.fixture(scope="module")
def ops_n16p40(geo):
    """The stationary-n16 benchmark model at its largest passing solve."""
    return OperatorSet(derive_params(0.2, 0.1, -1.0, 0.01), geo,
                       Resolution(N1=16, N2=16, P=40))


def _benchmark_solve(o, forcing_id):
    if forcing_id == "manufactured":
        case = default_case(o.geometry)
        rhs, forc = case.rhs(o, o.params), case.forcing(o)
    else:
        forc = synthesize(random_field(o.geometry, o.resolution, seed=11), o.cache)["u"]
        rhs = analyze(*forc, o.cache)
    return solve_stationary(o, rhs)[0], forc


@pytest.mark.parametrize("forcing_id", ["manufactured", "random"])
def test_pressure_fit_matches_per_row_reference_at_n16p40(ops_n16p40, forcing_id):
    u, forc = _benchmark_solve(ops_n16p40, forcing_id)
    press, rep = recover_pressure(u, forc, ops_n16p40)
    coeffs, defect = reference_pressure(u, forc, ops_n16p40)
    assert np.abs(press.coeffs - coeffs).max() <= 1e-12 * np.abs(coeffs).max()
    assert abs(rep.gradient_defect - defect) <= 1e-10 * defect


def test_pressure_fit_factors_only_the_mode_independent_design(ops_n16p40, monkeypatch):
    """One QR and one SVD serve every row: no stacked factorization or solve."""
    u, forc = _benchmark_solve(ops_n16p40, "random")
    seen = []
    for name in ("qr", "svd", "solve"):
        def recording(a, *args, _f=getattr(np.linalg, name), **kwargs):
            seen.append(max(np.ndim(x) for x in (a, *args)))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    recover_pressure(u, forc, ops_n16p40)
    assert seen and max(seen) == 2


def test_manufactured_solution_and_pressure(geo):
    par = derive_params(0.2, 0.1, 0.0, 0.05)
    res = Resolution(N1=4, N2=4, P=20)
    o = OperatorSet(par, geo, res)
    case = default_case(geo)
    u, rep = solve_stationary(o, case.rhs(o, par))
    press, prep = recover_pressure(u, case.forcing(o), o)
    errs = case.errors(u, press, o)
    assert errs["H2_rel"] <= 1e-5
    assert errs["pressure_L2"] <= 1e-4
    assert rep.residual <= 1e-10 * rep.rhs_norm


@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_relative_errors_divide_by_the_exact_norm(request, geometry):
    """L2_rel, H1_rel and H2_rel are the errors over the norms of u*, which
    are bitwise the errors of the zero field."""
    g = request.getfixturevalue(geometry)
    res = Resolution(N1=4, N2=4, P=12)
    o = OperatorSet(derive_params(0.2, 0.1, 0.3, 0.015), g, res)
    case = default_case(g)
    u, _ = solve_stationary(o, case.rhs(o, o.params))
    errs = case.errors(u, None, o)
    ref = case.errors(zero_field(g, res), None, o)
    for name in ("L2", "H1", "H2"):
        assert errs[name + "_rel"] == errs[name] / ref[name]
        assert ref[name + "_rel"] == 1.0
    assert 0.0 < errs["H2_rel"] < 1e-3


@pytest.mark.parametrize("k1, k2, match", [
    (-1, 1, r"not a representative mode; use \(1, -1\)"),
    (0, -1, r"not a representative mode; use \(0, 1\)"),
    # (2, 0) is the dropped Nyquist mode at N = 4; 3 % 4 would alias onto -1
    (2, 0, r"not stored at N1 = 4, N2 = 4"),
    (3, 1, r"not stored at N1 = 4, N2 = 4"),
    (0, 0, r"not stored at N1 = 4, N2 = 4"),
])
def test_manufactured_case_rejects_modes_without_a_row(ops, k1, k2, match):
    case = default_case(ops.geometry, k1=k1, k2=k2)
    for use in (lambda: case.forcing(ops),
                lambda: case.wall_defect_dual(ops, ops.params),
                lambda: case.errors(zero_field(ops.geometry, ops.resolution),
                                    None, ops)):
        with pytest.raises(ValueError, match=match):
            use()


def test_wall_traction_against_sympy():
    """wall_traction is the tangential part of (grad w + gamma (grad w)^T) n
    - k w, w = curl u, for one Fourier mode of u = curl(psi e3) +
    curl curl(phi e3), with n = -e3 at z = 0 and +e3 at z = H."""
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z", real=True)
    I, Rat = sympy.I, sympy.Rational
    e1, e2, H, gamma, k = Rat(2), Rat(-3, 2), Rat(13, 10), Rat(-7, 10), Rat(19, 10)
    psi_hat = (1 + 2 * I) + (Rat(1, 2) - I) * z + 3 * z**2 - (2 + I) * z**3
    phi_hat = (Rat(-1, 3) + I) + 2 * z - (1 - 3 * I) * z**2 + Rat(5, 4) * z**3 + z**4
    mode = sympy.exp(I * (e1 * x + e2 * y))
    X = (x, y, z)

    def curl(v):
        return [sympy.diff(v[2], y) - sympy.diff(v[1], z),
                sympy.diff(v[0], z) - sympy.diff(v[2], x),
                sympy.diff(v[1], x) - sympy.diff(v[0], y)]

    u = [a + b for a, b in zip(curl([0, 0, psi_hat * mode]),
                               curl(curl([0, 0, phi_hat * mode])))]
    w = curl(u)
    t_jets = [[complex(sympy.diff(psi_hat, z, d).subs(z, zw)) for zw in (0, H)]
             for d in range(4)]
    p_jets = [[complex(sympy.diff(phi_hat, z, d).subs(z, zw)) for zw in (0, H)]
             for d in range(4)]
    m = float(e1**2 + e2**2)
    r1, r2 = wall_traction(float(e1), float(e2), m, np.array(t_jets), np.array(p_jets),
                           float(gamma), float(k))
    for wall, (zw, sgn) in enumerate(((0, -1), (H, 1))):
        for j, r in ((0, r1), (1, r2)):
            # (G n)_j with n = sgn e3: sgn (d_3 w_j + gamma d_j w_3)
            gn = sgn * (sympy.diff(w[j], z) + gamma * sympy.diff(w[2], X[j]))
            ref = complex(sympy.simplify(((gn - k * w[j]) / mode).subs(z, zw)))
            assert r[wall] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_manufactured_gamma_k_sweep(geo):
    # the wall correction absorbs the traction mismatch for any parameters
    res = Resolution(N1=4, N2=4, P=16)
    for gamma, k in ((-1.0, 0.0), (0.5, 3.0), (1.0, 5.0)):
        par = params_with_k(gamma, k)
        o = OperatorSet(par, geo, res)
        case = default_case(geo)
        u, _ = solve_stationary(o, case.rhs(o, par))
        assert case.errors(u, None, o)["H2_rel"] <= 1e-4


def test_strong_bc_residual_refinement(geo):
    """Natural-condition recovery: the traction residual of a plain smooth
    solve drops by >= 10x when P doubles."""
    par = derive_params(0.2, 0.1, 0.3, 0.015)
    vals = {}
    for P in (12, 24):
        res = Resolution(N1=4, N2=4, P=P)
        o = OperatorSet(par, geo, res)
        f = random_field(geo, res, seed=3, amplitude=1.0, decay=1.0)
        u, _ = solve_stationary(o, velocity_dual(f, o))
        bc = strong_bc_residual(u, par, o)
        assert bc.dirichlet_res <= 1e-12 * max(u.norm_l2(), 1e-30)
        vals[P] = bc.wall_eddy_res
    assert vals[12] / vals[24] >= 10.0


def test_k_zero_traction_residual_also_decays(geo):
    par = params_with_k(0.0, 0.0)
    vals = {}
    for P in (12, 24):
        res = Resolution(N1=4, N2=4, P=P)
        o = OperatorSet(par, geo, res)
        f = random_field(geo, res, seed=5, amplitude=1.0, decay=1.0)
        u, _ = solve_stationary(o, velocity_dual(f, o))
        vals[P] = strong_bc_residual(u, par, o).wall_eddy_res
    assert vals[12] / vals[24] >= 10.0


def test_curl_consistency_decreases(geo):
    par = derive_params(0.2, 0.1, 0.0, 0.05)
    case = default_case(geo)
    curls = []
    for P in (10, 14, 18):
        res = Resolution(N1=4, N2=4, P=P)
        o = OperatorSet(par, geo, res)
        u, _ = solve_stationary(o, case.rhs(o, par))
        _, prep = recover_pressure(u, case.forcing(o), o)
        curls.append(prep.curl_residual)
    assert curls[0] > curls[1] > curls[2]
    assert curls[0] / curls[2] > 1e2


def test_kernel_handling(geo):
    """k = 2/H is exactly singular: for the mean parabola U = z(H-z) one has
    a(U, V) = (2 - kH)(V'(0) - V'(H)) for every test profile V, so the mean
    block carries a one-dimensional kernel per component there."""
    res = Resolution(N1=4, N2=4, P=12)
    k_star = 2.0 / geo.H
    o = OperatorSet(params_with_k(0.0, k_star), geo, res)
    lamv, V = np.linalg.eigh(o.blocks[2][0].K_a)
    assert abs(lamv[0]) <= 1e-10 * abs(lamv[-1])   # exact discrete kernel
    assert abs(lamv[1]) > 1e-6 * abs(lamv[-1])     # and it is one-dimensional
    # forcing orthogonal to the kernel: solvable, kernel reported
    rhs = zero_field(geo, res)
    rhs.mean[0] = V[:, 1] + 0.5 * V[:, 2]
    u, rep = solve_stationary(o, rhs)
    assert rep.kernel_dim == 2                     # one per mean component
    assert rep.max_kernel_violation <= 1e-10
    # data along the kernel must be rejected with the violation magnitude
    bad = zero_field(geo, res)
    bad.mean[0] = V[:, 0]
    with pytest.raises(ConsistencyError) as exc:
        solve_stationary(o, bad)
    assert exc.value.magnitude == pytest.approx(1.0, rel=1e-8)
