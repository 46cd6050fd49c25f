"""Exact symbol calculus: orders, principal symbol, determinant, ellipticity."""

from fractions import Fraction

import numpy as np
import pytest

from nsab.adn import DNSystem, check_ellipticity, ns_alpha_beta_system, symbol_determinant
from nsab.polynomial import GaussQ, TriPoly, norm_sq_poly, poly_determinant


def test_dn_order_validation():
    x1 = TriPoly.var(0)
    with pytest.raises(ValueError, match="degree"):
        DNSystem(L=[[x1**3]], s=(2,), t=(0,))
    DNSystem(L=[[x1**2]], s=(2,), t=(0,))  # admissible


def test_system_orders():
    sys_ = ns_alpha_beta_system()
    assert sys_.s == (4, 4, 4, 1)
    assert sys_.t == (0, 0, 0, -3)
    assert sys_.r == (0, 0, 0, 2, 2)
    # pressure column of the boundary rows must be absent (order r_i - 3 < 0)
    for row in sys_.B:
        assert row[3].is_zero


def _principal_symbol(system, xi):
    """The principal symbol at i xi, xi integer, in exact arithmetic."""
    ixi = [GaussQ.i() * x for x in xi]
    return [[system.principal_entry(i, j).evaluate_exact(ixi) for j in range(system.size)]
            for i in range(system.size)]


def test_principal_symbol_examples():
    sys_ = ns_alpha_beta_system()
    o, i, z = GaussQ.of(1), GaussQ.i(), GaussQ()
    assert _principal_symbol(sys_, (1, 0, 0)) == [[o, z, z, i], [z, o, z, z],
                                                  [z, z, o, z], [i, z, z, z]]
    assert all(e.is_zero for row in _principal_symbol(sys_, (0, 0, 0)) for e in row)
    S3 = _principal_symbol(sys_, (1, 1, 1))
    assert S3[0][0] == S3[1][1] == GaussQ.of(9)     # |xi|^4 = 9


def test_symbol_determinant_exact():
    sys_ = ns_alpha_beta_system(gamma=Fraction(1, 3))
    det = symbol_determinant(sys_)
    assert det == norm_sq_poly() ** 5          # coefficient-by-coefficient
    assert det.evaluate_exact((0, 2, 0)) == GaussQ.of(1024)
    assert det.evaluate_exact((1, 0, 0)) == GaussQ.of(1)


def test_ellipticity_main_system():
    rep = check_ellipticity(ns_alpha_beta_system())
    assert rep.passed
    assert rep.sos_exponent == 5
    assert rep.method == "exact |xi|^2m form"


def test_ellipticity_singular_system():
    sys_ = ns_alpha_beta_system()
    z = TriPoly.zero()
    L = [row[:] for row in sys_.L]
    L[3] = [z, z, z, z]
    rep = check_ellipticity(DNSystem(L=L, s=sys_.s, t=sys_.t))
    assert not rep.passed
    assert rep.witness is not None and any(abs(x) > 0 for x in rep.witness)


def test_ellipticity_hyperbolic_symbol():
    x1, x2 = TriPoly.var(0), TriPoly.var(1)
    rep = check_ellipticity(DNSystem(L=[[x1**2 - x2**2]], s=(2,), t=(0,)))
    assert not rep.passed
    w = rep.witness
    assert w is not None and any(abs(x) > 0 for x in w)
    # the witness is a genuine characteristic direction
    assert abs(w[0] ** 2 - w[1] ** 2) < 1e-10


def test_ellipticity_positive_non_sos_residual():
    # anisotropic but elliptic: xi1^4 + xi2^4 + xi3^4 has no real zeros, and
    # neither has its negative
    x = _x()
    for sign in (1, -1):
        rep = check_ellipticity(DNSystem(L=[[sign * (x[0]**4 + x[1]**4 + x[2]**4)]],
                                         s=(4,), t=(0,)))
        assert rep.passed
        assert rep.method == "exact one-signed even form"
        assert rep.residual_degree == 4 and rep.witness is None


def _x():
    return [TriPoly.var(i) for i in range(3)]


@pytest.mark.parametrize("symbol, method", [
    # vanishes at (sqrt 2, 1, 0), off the integer lattice, yet positive at
    # every sample of a sphere scan: only an exact certificate may pass it
    pytest.param(lambda x: (x[0]**2 - 2 * x[1]**2)**2 + x[2]**4,
                 "no exact certificate", id="irrational-zero"),
    # vanishes on the cone xi1^2 + xi2^2 = 3 xi3^2, which misses the lattice
    pytest.param(lambda x: x[0]**2 + x[1]**2 - 3 * x[2]**2,
                 "no exact certificate", id="cone-off-lattice"),
    # even and one-signed, but without xi1^4 it vanishes at (1, 0, 0)
    pytest.param(lambda x: x[0]**2 * x[1]**2 + x[2]**4,
                 "exact lattice zero", id="pure-power-missing"),
])
def test_ellipticity_without_certificate_fails(symbol, method):
    poly = symbol(_x())
    d = poly.total_degree()
    rep = check_ellipticity(DNSystem(L=[[poly]], s=(d,), t=(0,)))
    assert not rep.passed
    assert rep.method == method
    if rep.witness is not None:
        assert poly.evaluate_exact([Fraction(x) for x in rep.witness]).is_zero


def test_poly_determinant_against_numeric():
    rng = np.random.default_rng(5)
    rows = [[TriPoly.const(int(c)) for c in row]
            for row in rng.integers(-4, 5, (4, 4))]
    det = poly_determinant(rows)
    num = np.linalg.det(np.array([[float(e.evaluate_exact((0, 0, 0)).re)
                                   for e in row] for row in rows]))
    assert float(det.evaluate_exact((0, 0, 0)).re) == pytest.approx(num, rel=1e-10)


def test_exact_division():
    nsq = norm_sq_poly()
    p = nsq ** 3
    q = p.divide_exact(nsq)
    assert q == nsq ** 2
    assert (p + TriPoly.var(0)).divide_exact(nsq) is None


def test_monomial_division_gives_laurent_exponents():
    lam = TriPoly.var(2)
    p = (TriPoly.var(0) + 2 * lam) / (4 * lam ** 2)
    assert p == TriPoly({(1, 0, -2): Fraction(1, 4), (0, 0, -1): Fraction(1, 2)})
    assert p * (4 * lam ** 2) == TriPoly.var(0) + 2 * lam
    assert -p + p == TriPoly.zero()
    with pytest.raises(ValueError, match="monomial"):
        p / norm_sq_poly()


def test_evaluate_exact_divides_for_negative_exponents():
    assert (TriPoly.const(3) / TriPoly.var(2)).evaluate_exact((1, 1, 2)) == GaussQ.of(Fraction(3, 2))
    p = TriPoly({(1, 0, -2): Fraction(1, 4), (0, -1, -1): GaussQ.i()})
    assert p.evaluate_exact((3, 2, 5)) == GaussQ(Fraction(3, 100), Fraction(1, 10))


def test_str_prints_every_exponent_but_one():
    assert str(TriPoly({(0, 0, -1): 1})) == "1*x3^-1"
    assert str(TriPoly({(1, 0, 0): 2, (0, 2, -3): Fraction(-1, 2)})) == "2*x1 + -1/2*x2^2*x3^-3"


def test_symbol_calculus_against_sympy():
    """Apply L(d) to a random polynomial field symbolically and compare with
    the stored operator polynomials term by term."""
    sympy = pytest.importorskip("sympy")
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    xs = (x1, x2, x3)
    rng = np.random.default_rng(12)

    def rand_poly():
        return sum(int(rng.integers(-3, 4)) * x1**a * x2**b * x3**c
                   for a in range(3) for b in range(3) for c in range(3))

    U = [rand_poly() for _ in range(3)]
    p = rand_poly()
    lap = lambda f: sum(sympy.diff(f, v, 2) for v in xs)
    ref = [sympy.expand(lap(lap(U[i])) + sympy.diff(p, xs[i])) for i in range(3)]
    ref.append(sympy.expand(sum(sympy.diff(U[i], xs[i]) for i in range(3))))

    sys_ = ns_alpha_beta_system()

    def apply_poly(entry, f):
        acc = sympy.Integer(0)
        for (a, b, c), coef in entry.terms.items():
            assert coef.im == 0
            g = f
            for v, e in zip(xs, (a, b, c)):
                g = sympy.diff(g, v, e)
            acc += sympy.Rational(coef.re) * g
        return acc

    for i in range(4):
        got = sympy.expand(sum(apply_poly(sys_.L[i][j], (U + [p])[j])
                               for j in range(4)))
        assert sympy.simplify(got - ref[i]) == 0


def test_boundary_rows_against_tensorial_form():
    """The stored traction rows equal the tangential components of
    (grad w + gamma (grad w)^T) n at the flattened bottom wall (n = -e3),
    up to the overall -1 from n."""
    sympy = pytest.importorskip("sympy")
    x1, x2, x3, g = sympy.symbols("x1 x2 x3 gamma")
    xs = (x1, x2, x3)
    rng = np.random.default_rng(21)
    U = [sum(int(rng.integers(-3, 4)) * x1**a * x2**b * x3**c
             for a in range(3) for b in range(3) for c in range(3))
         for _ in range(3)]
    w = [sympy.diff(U[2], x2) - sympy.diff(U[1], x3),
         sympy.diff(U[0], x3) - sympy.diff(U[2], x1),
         sympy.diff(U[1], x1) - sympy.diff(U[0], x2)]
    G = sympy.Matrix(3, 3, lambda i, j: sympy.diff(w[i], xs[j]))
    Gn = (G + g * G.T) @ sympy.Matrix([0, 0, -1])

    gamma_val = sympy.Rational(2, 7)
    sys_ = ns_alpha_beta_system(gamma=Fraction(2, 7))

    def apply_poly(entry, f):
        acc = sympy.Integer(0)
        for (a, b, c), coef in entry.terms.items():
            gg = f
            for v, e in zip(xs, (a, b, c)):
                gg = sympy.diff(gg, v, e)
            acc += sympy.Rational(coef.re) * gg
        return acc

    for row, comp in ((3, 0), (4, 1)):
        got = sum(apply_poly(sys_.B[row][j], U[j]) for j in range(3))
        ref = -Gn[comp].subs(g, gamma_val)
        assert sympy.simplify(sympy.expand(got) - sympy.expand(ref)) == 0
