"""Nonlinear term, exact propagator, IMEX stepping, monitors, probes."""

import numpy as np
import pytest

from nsab.evolution import (EvolutionState, IMEXStepper, PaddingError,
                            energy_report, linear_propagator_exact,
                            nonlinear_term, run_evolution, uniqueness_probe,
                            vanishing_sweep)
from nsab.field import layout_for, mirror, random_field, zero_field
from nsab.operators import OperatorSet
from nsab.params import Resolution, derive_params
from nsab.spectral import SpectralFactors

from conftest import params_with_k


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


def test_nonlinear_single_mode_support(ops, geo, res_small):
    """A single-mode field interacts only into wavenumbers {0, +-2 eta}:
    verified against a brute-force convolution of the tangential series."""
    lay = layout_for(res_small)
    u = zero_field(geo, res_small)
    i1, i2, k1, k2 = next(r for r in lay.reps if (r[2], r[3]) == (1, 1))
    u.psi[i1, i2, 0] = 0.7 + 0.4j
    u.phi[i1, i2, 0] = 0.2 - 0.1j
    j1, j2 = lay.conj_index(i1, i2)
    u.psi[j1, j2] = np.conj(u.psi[i1, i2])
    u.phi[j1, j2] = np.conj(u.phi[i1, i2])
    N = nonlinear_term(u, ops)
    allowed = {(0, 0), (2 * k1, 2 * k2), (-2 * k1, -2 * k2)}
    top = max(np.abs(N.psi).max(), np.abs(N.phi).max(), np.abs(N.mean).max())
    for (a1, a2, q1, q2) in lay.active:
        if (q1, q2) in allowed:
            continue
        assert np.abs(N.psi[a1, a2]).max() <= 1e-14 * top
        assert np.abs(N.phi[a1, a2]).max() <= 1e-14 * top
    # brute-force tangential convolution of the quadratic interaction:
    # support of products of e^{i eta x} and conjugates
    active = {(k1, k2), (-k1, -k2)}
    conv = {(p1 + q1, p2 + q2) for (p1, p2) in active for (q1, q2) in active}
    assert allowed == conv


def test_nonlinear_padding_refusal(ops, geo, res_small):
    u = random_field(geo, res_small, seed=1)
    object.__setattr__(u.resolution, "pad", 1)  # forge an inconsistent object
    try:
        with pytest.raises(PaddingError, match="need at least"):
            nonlinear_term(u, ops)
    finally:
        object.__setattr__(u.resolution, "pad", 2)


def test_propagator_identity_and_eigen_decay(ops, geo, res_small, par):
    fac = SpectralFactors(ops, include_gradient=True)
    u0 = random_field(geo, res_small, seed=6, amplitude=0.3, decay=1.0)
    assert (linear_propagator_exact(u0, 0.0, ops, fac) - u0).norm_l2() <= 1e-13
    # an eigenvector of D: u = L^{-1/2} e, decays like e^{-mu t} in L norm
    blk = ops.mode_ops(1, 0).blocks["toroidal"]
    fb = fac.block(blk)
    mu = fb.d_eigvals[0]
    e = fb.d_eigvecs[:, 0]
    c0 = fb.inv_sqrt_lambda @ e
    for t in (0.1, 1.0):
        ct = fac.propagate_block(blk, t, c0)
        assert np.allclose(ct, np.exp(-mu * t) * c0, atol=1e-12 * np.abs(c0).max())


def test_semigroup_contraction_bound(ops):
    """||e^{-tD}|| <= e^{-mu_min t}: self-adjoint sharp bound per block."""
    fac = SpectralFactors(ops, include_gradient=False)
    for blk in ops.distinct_blocks():
        fb = fac.block(blk)
        mu_min = fb.d_eigvals[0]
        for t in (0.1, 1.0, 10.0):
            E = fb.d_eigvecs @ np.diag(np.exp(-t * fb.d_eigvals)) @ fb.d_eigvecs.T
            assert np.linalg.norm(E, 2) <= np.exp(-mu_min * t) * (1 + 1e-12)


def test_propagator_constant_forcing(ops, geo, res_small):
    """Duhamel quadrature against the closed form for constant forcing."""
    fac = SpectralFactors(ops, include_gradient=True)
    g = random_field(geo, res_small, seed=9, amplitude=0.2, decay=1.0)
    t = 0.7
    u = linear_propagator_exact(zero_field(geo, res_small), t, ops, fac,
                                forcing=lambda tau: g, panels=8, nodes=10)
    ref = zero_field(geo, res_small)
    for slot, blk, c in ops.field_blocks(g):
        fb = fac.block(blk)
        cc = fb.inv_sqrt_lambda @ c
        d = fb.d_eigvecs.T @ cc
        mu = fb.d_eigvals
        phi = np.where(np.abs(mu) > 1e-12, (1 - np.exp(-mu * t)) / np.where(mu == 0, 1, mu), t)
        ref.coeffs(slot)[:] = fb.inv_sqrt_lambda @ (fb.d_eigvecs @ (phi * d))
    mirror(ref)
    # graded composite Gauss quadrature: stiff-block kernels resolved to ~1e-8
    assert (u - ref).norm_l2() <= 1e-8 * max(ref.norm_l2(), 1e-30)


def test_imex_orders_against_propagator(geo):
    par = derive_params(0.2, 0.1, -1.0, 0.01)
    res = Resolution(N1=4, N2=4, P=12)
    o = OperatorSet(par, geo, res)
    fac = SpectralFactors(o, include_gradient=True)
    u0 = random_field(geo, res, seed=5, amplitude=0.5, decay=2.0)
    T = 0.2
    uT = linear_propagator_exact(u0, T, o, fac)
    dts = [1e-2, 5e-3, 2.5e-3]
    for scheme, expected in (("euler", 1.0), ("cnab2", 2.0)):
        errs = []
        for dt in dts:
            st = EvolutionState(0.0, u0.copy())
            stepper = IMEXStepper(o, dt, scheme, nonlinear=False)
            for _ in range(int(round(T / dt))):
                st = stepper.step(st)
            errs.append((st.field - uT).norm_l2())
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - expected) <= 0.1


def test_zero_state_is_fixed_point(ops, geo, res_small):
    st = EvolutionState(0.0, zero_field(geo, res_small))
    stepper = IMEXStepper(ops, 0.01, "euler")
    for _ in range(3):
        st = stepper.step(st)
    assert st.field.norm_l2() == 0.0


def test_small_amplitude_quadratic_deviation(geo):
    """Nonlinear deviation from the linear flow scales like amplitude^2."""
    par = derive_params(0.2, 0.1, -1.0, 0.01)
    res = Resolution(N1=4, N2=4, P=10)
    o = OperatorSet(par, geo, res)
    fac = SpectralFactors(o, include_gradient=True)
    shape = random_field(geo, res, seed=8, amplitude=1.0, decay=1.5)
    T, dt = 0.1, 2e-3
    devs = []
    for eps in (1e-4, 5e-5):
        u0 = eps * shape
        st = EvolutionState(0.0, u0.copy())
        stepper = IMEXStepper(o, dt, "cnab2", nonlinear=True)
        stl = EvolutionState(0.0, u0.copy())
        steplin = IMEXStepper(o, dt, "cnab2", nonlinear=False)
        for _ in range(int(round(T / dt))):
            st = stepper.step(st)
            stl = steplin.step(stl)
        devs.append((st.field - stl.field).norm_l2())
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
    assert np.array_equal(ra.final.field.psi, rb.final.field.psi)
    assert np.array_equal(ra.final.field.phi, rb.final.field.phi)
    assert np.array_equal(ra.final.field.mean, rb.final.field.mean)
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
    p0 = uniqueness_probe(ops, u0, pert, 0.0, 0.1, 0.01)
    assert np.all(p0.growth == 1.0)
    p8 = uniqueness_probe(ops, u0, pert, 1e-8, 0.2, 0.01)
    p6 = uniqueness_probe(ops, u0, pert, 1e-6, 0.2, 0.01)
    assert abs(p8.growth[-1] - p6.growth[-1]) <= 0.01 * abs(p8.growth[-1])
    # Gronwall envelope: log growth controlled by the H3-proxy integral with
    # a once-fitted constant (regression value with 50% headroom)
    C_REG = 0.5
    mask = p8.times > 0
    assert np.all(np.log(np.maximum(p8.growth[mask], 1e-300))
                  <= C_REG * p8.h3_integral[mask] + 1e-9)


def test_vanishing_sweep_uniform_bounds(geo):
    par = derive_params(0.2, 0.1, 0.0, 0.01)
    res = Resolution(N1=4, N2=4, P=10)
    u0 = random_field(geo, res, seed=3, amplitude=0.1, decay=1.0)
    rows = vanishing_sweep(par, geo, res, u0, 4, T=0.5, dt=0.01)
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
