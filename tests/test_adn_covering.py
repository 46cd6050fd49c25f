"""Half-space decaying solutions and the covering condition: the exact
certificate, and the float oracle of ``covering_oracle`` at sampled eta."""

from fractions import Fraction

import numpy as np
import pytest

from nsab.adn import (DIVERGENCE_FREE, MOMENTUM_ONLY, DNSystem, certify_covering,
                      check_ellipticity, eliminate_boundary_system,
                      ns_alpha_beta_system)
from nsab.polynomial import GaussQ, TriPoly

from conftest import GAMMAS
from covering_oracle import (boundary_system, check_covering, closed_form_family,
                             numeric_stable_subspace, stable_subspace_angle)


def _certify(gamma=0, variant=DIVERGENCE_FREE):
    system = ns_alpha_beta_system(gamma)
    return certify_covering(system, check_ellipticity(system), variant)


def _inv_lam(c, power=1):
    """c / |eta|^power in the certificate's variables x3 = |eta|."""
    return TriPoly({(0, 0, -power): c})


@pytest.mark.parametrize("gamma", GAMMAS)
def test_certificate_divergence_free_family(gamma):
    cert = _certify(gamma)
    assert cert.passed and cert.method == "exact c*|eta|^k determinant"
    assert cert.determinant == _inv_lam(Fraction(3, 2))
    assert cert.residual is None and cert.ode_residual == "0"


@pytest.mark.parametrize("gamma", GAMMAS)
def test_certificate_momentum_only_family(gamma):
    """det B is -1/(2|eta|), but the a0 member leaves exactly
    t e^{-|eta| t}/(2|eta|) in the divergence row."""
    cert = _certify(gamma, MOMENTUM_ONLY)
    assert not cert.passed and cert.method == "nonzero ODE residual"
    assert cert.determinant == _inv_lam(Fraction(-1, 2))
    member, row, coeffs = cert.residual
    assert (member, row) == ("a0", "divergence")
    assert coeffs == [TriPoly.zero(), _inv_lam(Fraction(1, 2)), TriPoly.zero()]


def _certify_rows(B, r):
    """The certificate for the model's interior system with wall rows B."""
    base = ns_alpha_beta_system()
    system = DNSystem(L=base.L, s=base.s, t=base.t, B=B, r=r)
    return certify_covering(system, check_ellipticity(system))


def test_certificate_fails_on_a_vanishing_determinant_form():
    # (xi1 - xi2) times the last row: det B gains the factor i (eta1 - eta2),
    # which vanishes on the diagonal eta1 = eta2 only
    B = ns_alpha_beta_system().B
    factor = TriPoly.var(0) - TriPoly.var(1)
    cert = _certify_rows(B[:4] + [[factor * e for e in B[4]]], (0, 0, 0, 2, 3))
    assert not cert.passed and cert.method == "no exact certificate"
    assert len(cert.determinant.terms) == 2


def test_certificate_fails_on_a_zero_determinant():
    B = ns_alpha_beta_system().B
    cert = _certify_rows(B[:4] + [B[3]], (0, 0, 0, 2, 2))
    assert not cert.passed and cert.method == "zero determinant"
    assert cert.determinant.is_zero


def test_certificate_needs_five_decaying_solutions():
    system = ns_alpha_beta_system()
    ell = check_ellipticity(system)
    ell.sos_exponent = 4
    cert = certify_covering(system, ell)
    assert not cert.passed and cert.determinant is None


def test_divergence_constraints():
    fam = closed_form_family((1.0, 0.0), b1=1.0)
    assert fam.b[2] == pytest.approx(1j)      # b3 = i eta1 b1 / |eta|
    fam2 = closed_form_family((3.0, 4.0), a1=1.0, a2=2.0, b1=0.5, b2=-1.0)
    e1, e2 = fam2.eta
    lam = 5.0
    b3 = 1j * (e1 * 0.5 + e2 * (-1.0)) / lam
    a3 = (1j * (e1 * 1.0 + e2 * 2.0) + b3) / lam
    assert fam2.b[2] == pytest.approx(b3)
    assert fam2.a[2] == pytest.approx(a3)


def test_zero_parameters_give_zero_solution():
    fam = closed_form_family((0.3, -0.2))
    for t in (0.0, 0.7, 2.0):
        assert np.abs(fam.u_at(t)).max() == 0.0
        assert fam.p_at(t) == 0.0


def test_particular_solution_values_at_zero():
    # divergence-free normalization: u(0) = (0, 0, +1/(4|eta|^3));
    # the momentum-only normalization carries the classical minus sign
    fam = closed_form_family((1.0, 0.0), a0=1.0)
    assert np.allclose(fam.u_at(0.0), [0.0, 0.0, 0.25])
    famm = closed_form_family((1.0, 0.0), a0=1.0, variant=MOMENTUM_ONLY)
    assert np.allclose(famm.u_at(0.0), [0.0, 0.0, -0.25])


@pytest.mark.parametrize("eta", [(1.0, 0.0), (0.3, -0.7), (2.0, 1.5)])
def test_family_solves_the_half_space_system(eta):
    rng = np.random.default_rng(8)
    for _ in range(3):
        args = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        fam = closed_form_family(eta, *args)
        scale = max(np.abs(fam.u_at(0.0)).max(), abs(fam.a0), 1.0)
        for t in (0.0, 0.5, 1.0):
            assert fam.ode_residual(t) <= 1e-12 * scale


def test_momentum_only_variant_fails_continuity():
    """The classical normalization solves momentum+pressure but carries
    divergence t e^{-|eta| t}/(2|eta|); kept as an exact regression."""
    fam = closed_form_family((1.0, 0.0), a0=1.0, variant=MOMENTUM_ONLY)
    res = fam.ode_residual(0.5)
    expect = 0.5 * np.exp(-0.5) / 2.0
    assert res == pytest.approx(expect, rel=1e-12)


def test_rejects_zero_eta():
    with pytest.raises(ValueError):
        closed_form_family((0.0, 0.0), a0=1.0)
    with pytest.raises(ValueError):
        boundary_system((0.0, 0.0))
    with pytest.raises(ValueError):
        numeric_stable_subspace((0.0, 0.0))


def test_boundary_system_structure():
    B = boundary_system((1.0, 0.0))
    # Dirichlet rows on the free horizontal amplitudes
    assert np.allclose(B[0], [1, 0, 0, 0, 0])
    assert np.allclose(B[1], [0, 1, 0, 0, 0])
    # frozen determinant regressions (raw traction-row sign convention)
    assert np.linalg.det(B) == pytest.approx(1.5, rel=1e-12)
    Bm = boundary_system((1.0, 0.0), variant=MOMENTUM_ONLY)
    assert np.linalg.det(Bm) == pytest.approx(-0.5, rel=1e-12)


def test_boundary_determinant_gamma_independent():
    eta = (0.8, -1.1)
    dets = [np.linalg.det(boundary_system(eta, gamma=g)) for g in (-1.0, 0.0, 1.0)]
    assert np.ptp(np.abs(dets)) <= 1e-12 * abs(dets[0])


def test_boundary_determinant_homogeneity():
    """det B(c eta) = c^d det B(eta) with a fixed integer exponent d."""
    eta = np.array([0.37, 0.91])
    d0 = np.linalg.det(boundary_system(tuple(eta)))
    exps = []
    for c in (2.0, 3.0, 10.0):
        dc = np.linalg.det(boundary_system(tuple(c * eta)))
        exps.append(np.log(abs(dc / d0)) / np.log(c))
    assert np.allclose(exps, exps[0], atol=1e-9)
    assert exps[0] == pytest.approx(round(exps[0]), abs=1e-9)
    assert round(exps[0]) == -1


def test_covering_examples():
    rep = check_covering((1.0, 0.0))
    assert rep.passed and rep.kernel_dim == 0
    rep = check_covering((0.3, -0.7))
    assert rep.passed


def test_covering_circle_and_magnitudes():
    rng = np.random.default_rng(0)
    for th in rng.uniform(0, 2 * np.pi, 100):
        assert check_covering((np.cos(th), np.sin(th))).passed
    for _ in range(20):
        r = 10.0 ** rng.uniform(-3, 3)
        th = rng.uniform(0, 2 * np.pi)
        assert check_covering((r * np.cos(th), r * np.sin(th))).passed


def test_kernel_dim_rotation_invariant():
    rng = np.random.default_rng(4)
    base = (0.9, 0.4)
    k0 = check_covering(base).kernel_dim
    for th in rng.uniform(0, 2 * np.pi, 10):
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        eta = tuple(R @ np.array(base))
        assert check_covering(eta).kernel_dim == k0


def test_numeric_subspace_dimension_and_agreement():
    sub = numeric_stable_subspace((1.0, 0.0))
    assert sub.dim == 5
    assert stable_subspace_angle((1.0, 0.0)) <= 1e-8
    assert stable_subspace_angle((0.3, -0.7)) <= 1e-8
    assert stable_subspace_angle((4.0, 3.0)) <= 1e-8


def test_subspace_angle_at_large_eta():
    """|eta| ~ 480, where the companion entries reach |eta|^4 ~ 5e10: the
    scaled stable-subspace angle stays far below 1e-8."""
    etas = [(-0.5249048971596284, 0.8511608831107312),
            (-0.9661891324520125, 0.25783436607951876),
            (440.23933710439536, -190.486074588291), (1.0, 0.0), (0.0, 1.0)]
    assert np.hypot(*etas[2]) > 400
    assert max(stable_subspace_angle(eta) for eta in etas) <= 1e-12


def test_numeric_subspace_detects_continuity_defect():
    # jets of the momentum-only family do NOT lie in the decaying solution
    # space: the published normalization is visibly outside it
    assert stable_subspace_angle((1.0, 0.0), variant=MOMENTUM_ONLY) > 0.1


def test_pressure_jets_decay_like_single_exponential():
    for eta in ((1.0, 0.0), (0.5, 1.2)):
        lam = np.hypot(*eta)
        sub = numeric_stable_subspace(eta)
        for j in range(sub.dim):
            Y = sub.jets[:, j]
            assert abs(Y[13] + lam * Y[12]) <= 1e-10 * np.linalg.norm(Y)


def _eliminations(variant=MOMENTUM_ONLY):
    """(gamma, system, elimination record) at every gamma of GAMMAS."""
    for gamma in GAMMAS:
        system = ns_alpha_beta_system(gamma)
        yield gamma, system, eliminate_boundary_system(system, variant=variant)


def test_exact_elimination_classical_constants():
    """The classical identities hold as polynomials, so at every eta != 0."""
    for _, system, rec in _eliminations():
        assert rec.a3_over_a0 == _inv_lam(Fraction(1, 4), 3)   # a3 = a0/(4|eta|^3)
        assert rec.reduced_rows_classical
        assert rec.b_forced_zero
        assert rec.a_and_a0_forced_zero
        assert rec.kernel_trivial
        assert rec.det5 == _inv_lam(Fraction(-1, 2))
        cert = certify_covering(system, check_ellipticity(system), MOMENTUM_ONLY)
        assert rec.det5 == cert.determinant


def test_exact_elimination_gamma_terms_drop():
    (_, _, r0), *others = _eliminations()
    for _, _, rec in others:
        assert rec.det5 == r0.det5
        assert rec.reduced_rows == r0.reduced_rows


def test_exact_elimination_divergence_free_variant():
    for _, system, rec in _eliminations(DIVERGENCE_FREE):
        assert rec.a3_over_a0 == _inv_lam(Fraction(-1, 4), 3)
        assert not rec.reduced_rows_classical     # b3 coefficient flips sign
        assert rec.b_forced_zero and rec.a_and_a0_forced_zero
        assert rec.kernel_trivial
        assert rec.det5 == _inv_lam(Fraction(3, 2))
        assert rec.det5 == certify_covering(system, check_ellipticity(system)).determinant


def test_exact_elimination_matches_numeric_determinant():
    """The record evaluated at integer points (eta1, eta2, |eta|) against
    the float boundary matrix there."""
    for gamma, _, rec in _eliminations():
        assert rec.a3_over_a0.evaluate_exact((3, 4, 5)) == GaussQ.of(Fraction(1, 500))
        assert rec.det5.evaluate_exact((3, 4, 5)) == GaussQ.of(Fraction(-1, 10))
        for point in ((3, 4, 5), (5, 12, 13)):
            exact = rec.det5.evaluate_exact(point)
            det5 = complex(float(exact.re), float(exact.im))
            B = boundary_system(point[:2], gamma=gamma, variant=MOMENTUM_ONLY)
            assert complex(np.linalg.det(B)) == pytest.approx(det5, rel=1e-10)
