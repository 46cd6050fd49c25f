"""Exact ellipticity and half-space covering checks for the stationary system.

Interior operator.  The stationary problem couples the bilaplacian momentum
balance with the divergence constraint,

    L(d) (u1, u2, u3, p) = (Lap^2 u + grad p, div u),

a 4x4 operator matrix treated with mixed orders s = (4,4,4,1) for the
equations and t = (0,0,0,-3) for the unknowns, so every entry L_ij has
order at most s_i + t_j.  Entries are stored as exact polynomials in
(xi1, xi2, xi3) representing d^alpha -> xi^alpha; the principal symbol
evaluates the order-exactly-(s_i+t_j) part at i*xi.  Ellipticity demands an
invertible principal symbol for every real xi != 0.  :func:`check_ellipticity`
decides it in exact arithmetic only, passing a symbol just on a certificate:
here the 10th-order determinant is exactly |xi|^10 for every gamma, which
enters the boundary rows alone.

Boundary operator.  Five scalar wall conditions, stored once as the rows
B of :func:`ns_alpha_beta_system`: three Dirichlet rows and the two
tangential components of the vorticity-gradient traction
(grad w + gamma (grad w)^T) n, whose principal parts are
d3 w_1 + gamma d1 w_3 and d3 w_2 + gamma d2 w_3 (w = curl u); boundary row
orders r = (0,0,0,2,2).

Covering condition.  On the flattened half-space (outward normal -e3,
tangential frequency eta != 0) the interior system becomes an ODE in the
wall distance t whose decaying solutions form the five-parameter family

    u(t) = e^{-|eta| t} (a + t b) + a0 * vpart(t),    p(t) = a0 e^{-|eta| t},

with the divergence constraints b3 = i(eta.b_h)/|eta| and
a3 = (i(eta.a_h) + b3)/|eta|.  Two variants of the particular solution
vpart are provided: ``divergence_free`` (third component proportional to
|eta|^2 t^2 + 2|eta| t + 2, an actual solution of the full system, the one
the covering certificate uses) and ``momentum_only`` (third component
proportional to |eta|^2 t^2 - 2|eta| t - 2, which solves the momentum and
pressure equations but carries divergence t e^{-|eta|t}/(2|eta|); it is
kept because the classical elimination constants a3 = +a0/(4|eta|^3) and
the reduced wall rows 2|eta| b_j + i eta_j b3 = 0 belong to this
normalization).  The covering condition holds iff applying the rows of B
to the family (xi1 -> i eta1, xi2 -> i eta2, xi3^c -> the c-th
t-derivative at t = 0) gives an invertible 5x5 system.
:func:`certify_covering` decides it for every eta at once: the family code
is generic over its scalar type and runs over polynomials in eta1, eta2
and |eta| (with 1/|eta| a negative exponent), where det B is exactly
3/(2|eta|) for every gamma (-1/(2|eta|) for the momentum-only variant).
:func:`eliminate_boundary_system` reproduces the conclusion a0 = 0, a = 0,
b = 0 step by step on the same polynomials, so at every eta too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomial import GaussQ, TriPoly, norm_sq_poly, poly_determinant

DIVERGENCE_FREE = "divergence_free"
MOMENTUM_ONLY = "momentum_only"


# ---------------------------------------------------------------------------
# Douglis-Nirenberg systems and ellipticity
# ---------------------------------------------------------------------------

@dataclass
class DNSystem:
    """Mixed-order operator matrix with optional boundary matrix."""

    L: list          # n x n nested list of TriPoly (operator, d^a -> xi^a)
    s: tuple         # row (equation) orders
    t: tuple         # column (unknown) orders
    B: list = None   # nb x n boundary rows, same convention
    r: tuple = ()    # boundary row orders

    def __post_init__(self):
        n = len(self.s)
        if len(self.L) != n or any(len(row) != len(self.t) for row in self.L):
            raise ValueError("operator matrix shape does not match order lists")
        for i, row in enumerate(self.L):
            for j, entry in enumerate(row):
                if not entry.is_zero and entry.total_degree() > self.s[i] + self.t[j]:
                    raise ValueError(
                        f"L[{i}][{j}] has degree {entry.total_degree()} "
                        f"> s_i + t_j = {self.s[i] + self.t[j]}")
        if self.B is not None:
            for i, row in enumerate(self.B):
                for j, entry in enumerate(row):
                    if not entry.is_zero and entry.total_degree() > self.r[i] + self.t[j]:
                        raise ValueError(
                            f"B[{i}][{j}] has degree {entry.total_degree()} "
                            f"> r_i + t_j = {self.r[i] + self.t[j]}")

    @property
    def size(self):
        return len(self.s)

    def principal_entry(self, i, j):
        d = self.s[i] + self.t[j]
        if d < 0:
            return TriPoly.zero()
        return self.L[i][j].homogeneous_part(d)


def ns_alpha_beta_system(gamma=0):
    """The coupled fourth-order system and its five wall conditions.

    gamma is stored exactly (ints, Fractions, or floats via their binary
    expansion) so that symbol computations stay exact.
    """
    g = Fraction(gamma)
    x1, x2, x3 = (TriPoly.var(i) for i in range(3))
    nsq = norm_sq_poly()
    z = TriPoly.zero()
    L = [
        [nsq**2, z, z, x1],
        [z, nsq**2, z, x2],
        [z, z, nsq**2, x3],
        [x1, x2, x3, z],
    ]
    B = [
        [TriPoly.const(1), z, z, z],
        [z, TriPoly.const(1), z, z],
        [z, z, TriPoly.const(1), z],
        # d3 w1 + gamma d1 w3  with w = curl u
        [(-g) * x1 * x2, (-1) * x3**2 + g * x1**2, x2 * x3, z],
        # d3 w2 + gamma d2 w3
        [x3**2 + (-g) * x2**2, g * x1 * x2, (-1) * x1 * x3, z],
    ]
    return DNSystem(L=L, s=(4, 4, 4, 1), t=(0, 0, 0, -3), B=B, r=(0, 0, 0, 2, 2))


def symbol_determinant(system):
    """det of the principal symbol as an exact polynomial.

    Every permutation product has total order K = sum(s) + sum(t), so the
    substitution d -> i xi contributes the single unit i^K, folded into the
    returned coefficients (real whenever K is even).
    """
    n = system.size
    rows = [[system.principal_entry(i, j) for j in range(n)] for i in range(n)]
    det = poly_determinant(rows)
    K = (sum(system.s) + sum(system.t)) % 4
    unit = [GaussQ.of(1), GaussQ.i(), GaussQ.of(-1), -GaussQ.i()][K]
    return unit * det


@dataclass
class EllipticityReport:
    passed: bool
    witness: tuple = None
    determinant: TriPoly = None
    sos_exponent: int = 0        # largest j with det divisible by |xi|^(2j)
    residual_degree: int = None  # degree of the non-SOS residual factor
    method: str = ""


def _real_part_poly(p):
    """Strip the overall i^K unit: returns (real polynomial, ok)."""
    if all(c.im == 0 for c in p.terms.values()):
        return p, True
    if all(c.re == 0 for c in p.terms.values()):
        return TriPoly({m: GaussQ(c.im) for m, c in p.terms.items()}), True
    return p, False


def _one_signed_even_form(P):
    """Exact certificate that the real form P has no zero at real xi != 0:
    every exponent even, one coefficient sign and every pure power xi_i^d,
    d = deg P, present, so that |P(xi)| >= sum_i |c_i| xi_i^d > 0."""
    d = P.total_degree()
    return (len({c.re > 0 for c in P.terms.values()}) == 1
            and all(e % 2 == 0 for mono in P.terms for e in mono)
            and all(tuple(d * (i == j) for j in range(3)) in P.terms for i in range(3)))


def check_ellipticity(system):
    """Decide invertibility of the principal symbol away from xi = 0 exactly.

    The sum-of-squares factor |xi|^2 is divided out of the determinant as
    often as it goes; the residual P then decides.  It passes as a nonzero
    constant (the determinant is c * |xi|^{2m}) or as a one-signed even
    form (:func:`_one_signed_even_form`).  It fails with a witness when the
    determinant is zero or P vanishes on the integer lattice of sup-norm
    at most 4, and otherwise with method "no exact certificate": no
    floating-point search stands in for a proof.
    """
    det = symbol_determinant(system)
    P, ok = _real_part_poly(det)
    if not ok:  # pragma: no cover - cannot occur for integer systems
        raise ValueError("symbol determinant is not real-or-imaginary")
    if P.is_zero:
        return EllipticityReport(False, witness=(1.0, 0.0, 0.0), determinant=det,
                                 method="zero determinant")
    nsq = norm_sq_poly()
    j = 0
    while True:
        q = P.divide_exact(nsq)
        if q is None:
            break
        P = q
        j += 1
    found = dict(determinant=det, sos_exponent=j, residual_degree=P.total_degree())
    if P.total_degree() == 0:
        return EllipticityReport(True, method="exact |xi|^2m form", **found)
    if _one_signed_even_form(P):
        return EllipticityReport(True, method="exact one-signed even form", **found)
    # exact witness hunt on a small lattice, simplest witnesses first
    for norm in range(1, 5):
        shell = [(a, b, c)
                 for a in range(-norm, norm + 1)
                 for b in range(-norm, norm + 1)
                 for c in range(-norm, norm + 1)
                 if max(abs(a), abs(b), abs(c)) == norm]
        shell.sort(key=lambda v: (sum(1 for x in v if x), tuple(-x for x in v)))
        for cand in shell:
            if P.evaluate_exact(cand).is_zero:
                return EllipticityReport(False, witness=tuple(float(x) for x in cand),
                                         method="exact lattice zero", **found)
    return EllipticityReport(False, method="no exact certificate", **found)


# ---------------------------------------------------------------------------
# decaying half-space solutions
# ---------------------------------------------------------------------------

def _expderiv(poly, lam):
    """t-polynomial q with d/dt (e^{-lam t} poly(t)) = e^{-lam t} q(t).

    Works for float/complex and TriPoly scalars alike.
    """
    dpoly = [(i + 1) * c for i, c in enumerate(poly[1:])] + [0 * lam]
    return [d - lam * p for d, p in zip(dpoly, poly)]


def _expjet(coeffs, lam, order):
    """Jet of e^{-lam t} * poly(t) at t = 0 through the given order."""
    poly, jets = list(coeffs), []
    for _ in range(order + 1):
        jets.append(poly[0] if poly else 0 * lam)
        poly = _expderiv(poly, lam)
    return jets


def _particular_polys(eta1, eta2, lam, variant, one=1.0, imag=1j):
    """t-polynomial coefficients of the pressure-forced particular solution."""
    c12 = -imag / (8 * lam * lam)
    zero = 0 * one
    p1 = [zero, zero, eta1 * c12]
    p2 = [zero, zero, eta2 * c12]
    inv8l3 = one / (8 * lam * lam * lam)
    if variant == DIVERGENCE_FREE:
        p3 = [2 * inv8l3, 2 * lam * inv8l3, lam * lam * inv8l3]
    elif variant == MOMENTUM_ONLY:
        p3 = [-2 * inv8l3, -2 * lam * inv8l3, lam * lam * inv8l3]
    else:
        raise ValueError(f"unknown particular-solution variant {variant!r}")
    return [p1, p2, p3]


def _completion(eta1, eta2, lam, imag, a1, a2, b1, b2):
    """A family member's (a, b), with a3 and b3 from the divergence
    constraints b3 = i(eta.b)/|eta| and a3 = (i(eta.a) + b3)/|eta|."""
    b3 = imag * (eta1 * b1 + eta2 * b2) / lam
    return [a1, a2, (imag * (eta1 * a1 + eta2 * a2) + b3) / lam], [b1, b2, b3]


def _member_polys(a, b, a0, part):
    """Per-component t-polynomials multiplying e^{-|eta| t}."""
    return [[a[j] + a0 * part[j][0], b[j] + a0 * part[j][1], a0 * part[j][2]]
            for j in range(3)]


def _family_members(eta1, eta2, lam, variant, one=1.0, imag=1j):
    """Per-component t-polynomials of the five family basis members (unit
    a1, a2, b1, b2, a0 in turn), for any scalar type: floats or TriPoly
    in (eta1, eta2, |eta|)."""
    part = _particular_polys(eta1, eta2, lam, variant, one=one, imag=imag)
    members = []
    for k in range(5):
        free = [0 * one] * 5
        free[k] = one
        a, b = _completion(eta1, eta2, lam, imag, *free[:4])
        members.append(_member_polys(a, b, free[4], part))
    return members


def _ode_residual(eta1, eta2, lam, imag, polys, a0):
    """t-polynomials multiplying e^{-|eta| t} in the four rows of the
    half-space system (momentum 1-3 with the pressure a0 e^{-|eta| t},
    divergence) for the member with component polynomials polys."""
    m = lam * lam
    d = [polys]
    for _ in range(4):
        d.append([_expderiv(p, lam) for p in d[-1]])

    def bih_plus(j, c):  # (d_t^2 - |eta|^2)^2 u_j + c e^{-|eta| t}
        row = [u4 - 2 * m * u2 + m * m * u0 for u0, u2, u4 in zip(d[0][j], d[2][j], d[4][j])]
        return [row[0] + c] + row[1:]

    return [bih_plus(0, imag * eta1 * a0), bih_plus(1, imag * eta2 * a0),
            bih_plus(2, -lam * a0),
            [w + imag * eta1 * u + imag * eta2 * v
             for w, u, v in zip(d[1][2], d[0][0], d[0][1])]]


# ---------------------------------------------------------------------------
# boundary system and covering condition
# ---------------------------------------------------------------------------

def _boundary_matrix(B, eta1, eta2, lam, members, one=1.0, imag=1j):
    """Row-major boundary matrix acting on (a1, a2, b1, b2, a0), for any
    scalar type: entry (r, k) applies the symbol row B[r] to member k at
    t = 0, with xi1 -> i eta1, xi2 -> i eta2 and xi3^c -> the c-th
    t-derivative (the pressure column of B is zero, as the DNSystem orders
    force).  a3 and b3 are eliminated through the divergence constraints
    inside the family.  Each row's factors k (i eta1)^a (i eta2)^b are built
    once, for all members."""
    order = max((m[2] for row in B for entry in row for m in entry.terms), default=0)
    jets = [[_expjet(p, lam, order) for p in member] for member in members]
    ie1, ie2 = imag * eta1, imag * eta2
    rows = [[(j, c, (k.re * one + k.im * imag) * ie1**a * ie2**b)
             for j, entry in enumerate(row) for (a, b, c), k in entry.terms.items()]
            for row in B]
    return [[sum((f * jet[j][c] for j, c, f in terms), 0 * one) for jet in jets]
            for terms in rows]


def _mod_lambda(p):
    """Normal form of p in x1 = eta1, x2 = eta2, x3 = |eta| modulo
    |eta|^2 = eta1^2 + eta2^2: each eta1^2 becomes |eta|^2 - eta2^2, leaving
    eta1 degree at most 1.  The relation is monic in eta1, so the form is
    unique: p vanishes for every eta iff its normal form is zero."""
    swap = TriPoly.var(2, 2) - TriPoly.var(1, 2)
    out = TriPoly()
    for (a, b, c), coef in p.terms.items():
        out = out + TriPoly({(a % 2, b, c): coef}) * swap ** (a // 2)
    return out


#: the certificate's variables x1 = eta1, x2 = eta2, x3 = |eta|, and 1 and i
_ETA = tuple(TriPoly.var(k) for k in range(3))
_ONE, _I = TriPoly.const(1), TriPoly.const(GaussQ.i())
#: the family's free parameters and the half-space system's rows
MEMBERS = ("a1", "a2", "b1", "b2", "a0")
ODE_ROWS = ("momentum 1", "momentum 2", "momentum 3", "divergence")


@dataclass
class CoveringCertificate:
    passed: bool
    method: str
    determinant: TriPoly = None  # det B, normal form in x1 = eta1, x2 = eta2, x3 = |eta|
    residual: tuple = None       # first nonzero ODE residual: (member, row, t-coefficients)

    @property
    def ode_residual(self):
        """The first nonzero ODE residual as text, "0" when there is none."""
        if self.residual is None:
            return "0"
        member, row, coeffs = self.residual
        terms = " + ".join(f"({c})*t^{k}" for k, c in enumerate(coeffs) if not c.is_zero)
        return f"{member} member, {row} row: ({terms})*exp(-x3*t)"


def _half_space(system, variant):
    """The five family members, the boundary matrix of system.B and its
    determinant over TriPoly in x1 = eta1, x2 = eta2, x3 = |eta|, the
    matrix entries and the determinant in normal form."""
    members = _family_members(*_ETA, variant, one=_ONE, imag=_I)
    B = [[_mod_lambda(c) for c in row]
         for row in _boundary_matrix(system.B, *_ETA, members, one=_ONE, imag=_I)]
    return members, B, _mod_lambda(poly_determinant(B))


def _nonzero_everywhere(p):
    """p (in normal form) is one monomial c |eta|^k, c != 0, so it vanishes
    at no eta != 0."""
    return len(p.terms) == 1 and next(iter(p.terms))[:2] == (0, 0)


def certify_covering(system, ellipticity, variant=DIVERGENCE_FREE):
    """Decide the covering condition of system (its wall rows system.B) at
    every eta != 0 at once, exactly.

    The family code and the rows of B run over TriPoly in x1 = eta1,
    x2 = eta2, x3 = |eta| (1/|eta| is the exponent -1), reduced by
    :func:`_mod_lambda`.  It passes on three exact facts:

    * the decaying space has dimension 5: ``ellipticity`` (the report of
      :func:`check_ellipticity` for this system) found the determinant
      c |xi|^10, so det L(eta, tau) = c (|eta|^2 + tau^2)^5 has five roots
      tau = i|eta| in the upper half plane;
    * the five members solve the half-space system: every ODE residual
      reduces to zero;
    * det B reduces to one monomial c |eta|^k, c != 0, nonzero at every
      eta != 0: the members are independent, hence a basis of the decaying
      space, and the boundary map on it is invertible.

    det B is computed whatever the residual.  A determinant that reduces to
    zero fails with "zero determinant", any other form with "no exact
    certificate": no sampled eta stands in for the identity.
    """
    if not (ellipticity.passed and ellipticity.residual_degree == 0
            and ellipticity.sos_exponent == len(MEMBERS)):
        return CoveringCertificate(False, "no decaying space of dimension 5")
    members, _, det = _half_space(system, variant)
    residual = None
    for name, polys, a0 in zip(MEMBERS, members, (0, 0, 0, 0, 1)):
        rows = _ode_residual(*_ETA, _I, polys, a0 * _ONE)
        for row, coeffs in zip(ODE_ROWS, rows):
            coeffs = [_mod_lambda(c) for c in coeffs]
            if residual is None and not all(c.is_zero for c in coeffs):
                residual = (name, row, coeffs)
    found = dict(determinant=det, residual=residual)
    if det.is_zero:
        return CoveringCertificate(False, "zero determinant", **found)
    if not _nonzero_everywhere(det):
        return CoveringCertificate(False, "no exact certificate", **found)
    if residual is not None:
        return CoveringCertificate(False, "nonzero ODE residual", **found)
    return CoveringCertificate(True, "exact c*|eta|^k determinant", **found)

# ---------------------------------------------------------------------------
# exact symbolic elimination of the boundary system
# ---------------------------------------------------------------------------

@dataclass
class EliminationRecord:
    """The elimination's quantities, TriPoly in normal form in x1 = eta1,
    x2 = eta2, x3 = |eta|, valid at every eta != 0."""

    a3_over_a0: TriPoly      # Dirichlet elimination: a3 = (this) * a0
    reduced_rows: list       # 2 x 2 rows on (b1, b2) after eliminating a0
    reduced_rows_classical: bool  # rows equal +-(2|eta| b_j + i eta_j b3(b))
    b_forced_zero: bool
    a_and_a0_forced_zero: bool
    kernel_trivial: bool
    det5: TriPoly


def eliminate_boundary_system(system, variant=MOMENTUM_ONLY):
    """Step-by-step exact elimination of the five wall rows system.B, for
    every eta != 0 at once (the polynomials of :func:`certify_covering`).

    Classical order: the Dirichlet rows pin a1 = a2 = 0 and determine a3
    (hence, via the third row, a0) from b3; eliminating a0 from the
    traction rows leaves a homogeneous 2x2 system on (b1, b2) - for the
    momentum-only normalization exactly the rows
    +-(2|eta| b_j + i eta_j b3) - whose invertibility forces b = 0, after
    which a3 = b3/|eta| = 0 and a0 = 0 follow.  The 2x2 determinant and
    det5 pass, as det B does, only as one monomial c |eta|^k, c != 0.
    """
    members, Bx, det5 = _half_space(system, variant)
    (E1, E2, lam), i = _ETA, _I
    vpart3 = members[4][2][0]  # u_3(0) of the a0 member: vpart_3(0)

    # rows 0,1 must read a1 = 0 and a2 = 0 exactly
    assert Bx[0][0] == 1 and all(Bx[0][j].is_zero for j in (1, 2, 3, 4))
    assert Bx[1][1] == 1 and all(Bx[1][j].is_zero for j in (0, 2, 3, 4))
    a3_over_a0 = -vpart3                  # a3 = -a0 * vpart_3(0)
    a0_over_b3 = -_ONE / (lam * vpart3)   # row 3: b3/|eta| + a0 vpart_3(0) = 0

    # eliminate a0 from the traction rows (columns b1, b2, a0) through the
    # third Dirichlet row: a0 = a0_over_b3 * b3(b), b3(b) = i (eta . b)/|eta|
    def reduce(row):
        return [_mod_lambda(row[2 + j] + row[4] * a0_over_b3 * (i * E / lam))
                for j, E in enumerate((E1, E2))]

    red = [reduce(Bx[3]), reduce(Bx[4])]

    # classical reduced form: +(2|eta| b2 + i eta2 b3), -(2|eta| b1 + i eta1 b3)
    # in the raw traction-row sign convention
    ref4 = [(i * E2) * (i * E1) / lam, 2 * lam + (i * E2) * (i * E2) / lam]
    ref5 = [-(2 * lam + (i * E1) * (i * E1) / lam), -((i * E1) * (i * E2) / lam)]
    classical = all(_mod_lambda(got - ref).is_zero
                    for got, ref in zip(red[0] + red[1], ref4 + ref5))

    det2 = _mod_lambda(red[0][0] * red[1][1] - red[0][1] * red[1][0])
    b_forced_zero = _nonzero_everywhere(det2)
    # with b = 0: b3 = 0, a0 = a0_over_b3 * 0 = 0 and a3 = a3_over_a0 * 0 = 0,
    # whatever a0_over_b3 is
    return EliminationRecord(
        a3_over_a0=a3_over_a0, reduced_rows=red, reduced_rows_classical=classical,
        b_forced_zero=b_forced_zero, a_and_a0_forced_zero=b_forced_zero,
        kernel_trivial=_nonzero_everywhere(det5), det5=det5)
