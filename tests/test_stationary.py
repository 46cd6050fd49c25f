"""Stationary solves: Galerkin identities, pressure, natural-BC recovery."""

import numpy as np
import pytest

from nsab.basis import legendre_table
from nsab.field import random_field, zero_field
from nsab.operators import OperatorSet
from nsab.params import Resolution, derive_params
from nsab.stationary import (ConsistencyError, forcing_from_field,
                             recover_pressure, solve_stationary, strong_bc_residual)
from nsab.manufactured import TrigProfile, default_case

from conftest import (block_groups, gradient_forcing, params_with_k,
                      reference_pressure)


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
    rhs = forcing_from_field(f, ops).dual(ops)
    u, rep = solve_stationary(ops, rhs)
    # residual of the linear system is the Galerkin-orthogonality defect
    assert rep.residual <= 1e-10 * rep.rhs_norm
    # a(u_h, u_h) = <f, u_h>
    assert ops.form_energy("K_a", u) == pytest.approx(rhs.dot(u), rel=1e-12)


def test_gradient_datum_recovers_pressure(ops, geo, res_small):
    """f = grad q drops from the weak problem and returns as the pressure."""
    q = TrigProfile.cosine(np.pi / geo.H)
    z = ops.cache.z
    forc = gradient_forcing(ops, {(1, 0): (q(z).astype(complex),
                                           q(z, 1).astype(complex))})
    rhs = forc.dual(ops)
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
        forc = forcing_from_field(random_field(g, o.resolution, seed=5), o)
        rhs = forc.dual(o)
    u, _ = solve_stationary(o, rhs)
    press, rep = recover_pressure(u, forc, o)
    coeffs, defect = reference_pressure(u, forc, o)
    assert np.abs(press.coeffs - coeffs).max() <= 1e-12 * np.abs(coeffs).max()
    assert abs(rep.gradient_defect - defect) <= 1e-10 * defect


def test_manufactured_solution_and_pressure(geo):
    par = derive_params(0.2, 0.1, 0.0, 0.05)
    res = Resolution(N1=4, N2=4, P=20)
    o = OperatorSet(par, geo, res)
    case = default_case(geo)
    u, rep = solve_stationary(o, case.rhs(o, par))
    press, prep = recover_pressure(u, case.forcing(o), o)
    errs = case.errors(u, press, o)
    ref = case.errors(zero_field(geo, res), None, o)
    assert errs["H2"] <= 1e-5 * ref["H2"]
    assert errs["pressure_L2"] <= 1e-4
    assert rep.residual <= 1e-10 * rep.rhs_norm


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


def test_manufactured_gamma_k_sweep(geo):
    # the wall correction absorbs the traction mismatch for any parameters
    res = Resolution(N1=4, N2=4, P=16)
    for gamma, k in ((-1.0, 0.0), (0.5, 3.0), (1.0, 5.0)):
        par = params_with_k(gamma, k)
        o = OperatorSet(par, geo, res)
        case = default_case(geo)
        u, _ = solve_stationary(o, case.rhs(o, par))
        errs = case.errors(u, None, o)
        ref = case.errors(zero_field(geo, res), None, o)
        assert errs["H2"] <= 1e-4 * ref["H2"]


def test_strong_bc_residual_refinement(geo):
    """Natural-condition recovery: the traction residual of a plain smooth
    solve drops by >= 10x when P doubles."""
    par = derive_params(0.2, 0.1, 0.3, 0.015)
    vals = {}
    for P in (12, 24):
        res = Resolution(N1=4, N2=4, P=P)
        o = OperatorSet(par, geo, res)
        f = random_field(geo, res, seed=3, amplitude=1.0, decay=1.0)
        u, _ = solve_stationary(o, forcing_from_field(f, o).dual(o))
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
        u, _ = solve_stationary(o, forcing_from_field(f, o).dual(o))
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
