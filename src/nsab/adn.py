"""Exact ellipticity and half-space covering checks for the stationary system.

Interior operator.  The stationary problem couples the bilaplacian momentum
balance with the divergence constraint,

    L(d) (u1, u2, u3, p) = (Lap^2 u + grad p, div u),

a 4x4 operator matrix treated with mixed orders s = (4,4,4,1) for the
equations and t = (0,0,0,-3) for the unknowns, so every entry L_ij has
order at most s_i + t_j.  Entries are stored as exact polynomials in
(xi1, xi2, xi3) representing d^alpha -> xi^alpha; the principal symbol
evaluates the order-exactly-(s_i+t_j) part at i*xi.  Ellipticity demands an
invertible principal symbol for every real xi != 0 and is decided exactly:
the 10th-order determinant must be a positive multiple of |xi|^10.

Boundary operator.  Five scalar wall conditions: three Dirichlet rows and
the two tangential components of the vorticity-gradient traction
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
|eta|^2 t^2 + 2|eta| t + 2, an actual solution of the full system, used by
every numeric check here) and ``momentum_only`` (third component
proportional to |eta|^2 t^2 - 2|eta| t - 2, which solves the momentum and
pressure equations but carries divergence t e^{-|eta|t}/(2|eta|); it is
kept because the classical elimination constants a3 = +a0/(4|eta|^3) and
the reduced wall rows 2|eta| b_j + i eta_j b3 = 0 belong to this
normalization).  The covering condition holds iff applying the five
boundary rows to the family gives an invertible 5x5 system; both variants
yield a nonzero determinant, and the conclusion a0 = 0, a = 0, b = 0 is
reproduced in exact rational arithmetic by ``eliminate_boundary_system``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def principal_symbol(system, xi):
    """Principal symbol matrix at i*xi (complex entries)."""
    n = system.size
    ixi = (1j * xi[0], 1j * xi[1], 1j * xi[2])
    out = np.zeros((n, n), complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = system.principal_entry(i, j).evaluate(ixi)
    return out


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


def _fibonacci_sphere(n):
    k = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    zc = 1.0 - 2.0 * (k + 0.5) / n
    rc = np.sqrt(1.0 - zc**2)
    return np.stack([rc * np.cos(phi), rc * np.sin(phi), zc], axis=1)


def check_ellipticity(system):
    """Decide invertibility of the principal symbol away from xi = 0.

    Exact fast path: the determinant is c * |xi|^{2m} with c != 0.
    Otherwise the sum-of-squares factor |xi|^2 is divided out exactly as
    often as possible and the residual is screened for real zeros: first an
    exact small-integer lattice, then a sign scan over a deterministic
    spherical sample with bisection to localize a witness.
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
    if P.total_degree() == 0:
        return EllipticityReport(True, determinant=det, sos_exponent=j,
                                 residual_degree=0, method="exact |xi|^2m form")
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
                return EllipticityReport(
                    False, witness=tuple(float(x) for x in cand),
                    determinant=det, sos_exponent=j,
                    residual_degree=P.total_degree(),
                    method="exact lattice zero")
    # deterministic sign scan
    samples = _fibonacci_sphere(400)
    vals = np.array([P.evaluate(s).real for s in samples])
    if vals.min() < 0.0 < vals.max():
        lo = samples[int(np.argmin(vals))]
        hi = samples[int(np.argmax(vals))]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            mid /= np.linalg.norm(mid)
            v = P.evaluate(mid).real
            if v == 0.0:
                break
            if v < 0:
                lo = mid
            else:
                hi = mid
        w = 0.5 * (lo + hi)
        w /= np.linalg.norm(w)
        return EllipticityReport(False, witness=tuple(float(x) for x in w),
                                 determinant=det, sos_exponent=j,
                                 residual_degree=P.total_degree(),
                                 method="sign change")
    return EllipticityReport(True, determinant=det, sos_exponent=j,
                             residual_degree=P.total_degree(),
                             method="sampled positivity")


# ---------------------------------------------------------------------------
# decaying half-space solutions
# ---------------------------------------------------------------------------

def _expjet(coeffs, lam, order):
    """Jet of e^{-lam t} * poly(t) at t = 0 through the given order.

    Works for float/complex and for GaussQ/Fraction scalars alike.
    """
    poly = list(coeffs)
    jets = []
    for _ in range(order + 1):
        jets.append(poly[0] if poly else 0 * lam)
        dpoly = [(i + 1) * poly[i + 1] for i in range(len(poly) - 1)]
        poly = [d - lam * p for d, p in
                zip(dpoly + [0 * lam] * (len(poly) - len(dpoly)), poly)]
    return jets


def _expeval(coeffs, lam, t, order=0):
    """Value of the order-th t-derivative of e^{-lam t} poly(t) at real t."""
    poly = list(coeffs)
    for _ in range(order):
        dpoly = [(i + 1) * poly[i + 1] for i in range(len(poly) - 1)]
        poly = [d - lam * p for d, p in
                zip(dpoly + [0.0] * (len(poly) - len(dpoly)), poly)]
    acc = 0.0j
    for i, c in enumerate(poly):
        acc += c * t**i
    return acc * np.exp(-lam * t)


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


@dataclass
class DecayingSolutionFamily:
    """One member of the decaying half-space solution family."""

    eta: tuple
    a: np.ndarray   # complex 3-vector, horizontal parts free
    b: np.ndarray
    a0: complex
    variant: str = DIVERGENCE_FREE

    @property
    def lam(self):
        return float(np.hypot(self.eta[0], self.eta[1]))

    def component_polys(self):
        """Per-component t-polynomials multiplying e^{-|eta| t}."""
        part = _particular_polys(self.eta[0], self.eta[1], self.lam, self.variant)
        return [[self.a[j] + self.a0 * part[j][0],
                 self.b[j] + self.a0 * part[j][1],
                 self.a0 * part[j][2]] for j in range(3)]

    def u_jet(self, order):
        polys = self.component_polys()
        return np.array([_expjet(p, self.lam, order) for p in polys])

    def p_jet(self, order):
        return np.array(_expjet([self.a0], self.lam, order))

    def u_at(self, t, deriv=0):
        return np.array([_expeval(p, self.lam, t, deriv)
                         for p in self.component_polys()])

    def p_at(self, t, deriv=0):
        return _expeval([self.a0], self.lam, t, deriv)

    def ode_residual(self, t):
        """Max residual of the half-space system at time t (momentum,
        pressure-forced third component, divergence)."""
        e1, e2 = self.eta
        m = self.lam**2
        u = [self.u_at(t, d) for d in range(5)]
        p0 = self.p_at(t)
        p1 = self.p_at(t, 1)
        bih = u[4] - 2 * m * u[2] + m * m * u[0]
        res = [bih[0] + 1j * e1 * p0, bih[1] + 1j * e2 * p0, bih[2] + p1,
               u[1][2] + 1j * e1 * u[0][0] + 1j * e2 * u[0][1]]
        return float(np.max(np.abs(res)))


def closed_form_family(eta, a1=0.0, a2=0.0, b1=0.0, b2=0.0, a0=0.0,
                       variant=DIVERGENCE_FREE):
    """Member of the decaying family: completes a3, b3 from the divergence
    constraints b3 = i(eta.b)/|eta| and a3 = (i(eta.a) + b3)/|eta|."""
    e1, e2 = float(eta[0]), float(eta[1])
    lam = np.hypot(e1, e2)
    if lam == 0.0:
        raise ValueError("eta must be nonzero")
    b3 = 1j * (e1 * b1 + e2 * b2) / lam
    a3 = (1j * (e1 * a1 + e2 * a2) + b3) / lam
    return DecayingSolutionFamily((e1, e2), np.array([a1, a2, a3], complex),
                                  np.array([b1, b2, b3], complex),
                                  complex(a0), variant)


def family_basis(eta, variant=DIVERGENCE_FREE):
    """The five canonical family members (unit a1, a2, b1, b2, a0)."""
    out = []
    for k in range(5):
        args = [0.0] * 5
        args[k] = 1.0
        out.append(closed_form_family(eta, *args, variant=variant))
    return out


# ---------------------------------------------------------------------------
# boundary system and covering condition
# ---------------------------------------------------------------------------

def _boundary_rows(eta1, eta2, jets, gamma, imag=1j):
    """Apply the five principal boundary rows to a component jet table.

    jets[j][c] is the c-th t-derivative of u_j at t=0.  Rows follow the
    raw traction components d3 w_1 + gamma d1 w_3 and d3 w_2 + gamma d2 w_3
    transcribed with d_t -> i eta_t tangentially.
    """
    ie1 = imag * eta1
    ie2 = imag * eta2
    r4 = (ie2 * jets[2][1] - jets[1][2]
          + gamma * (eta1 * eta2 * jets[0][0] - eta1 * eta1 * jets[1][0]))
    r5 = (jets[0][2] - ie1 * jets[2][1]
          + gamma * (eta2 * eta2 * jets[0][0] - eta1 * eta2 * jets[1][0]))
    return [jets[0][0], jets[1][0], jets[2][0], r4, r5]


def boundary_system(eta, gamma=0.0, variant=DIVERGENCE_FREE):
    """5x5 matrix of the boundary conditions acting on (a1, a2, b1, b2, a0).

    Dirichlet rows plus the two tangential traction rows; a3, b3 are
    eliminated through the divergence constraints inside the family.  The
    gamma terms act on u(0) and drop out after the Dirichlet rows, so the
    determinant and kernel are gamma-independent.
    """
    if np.hypot(*eta) == 0.0:
        raise ValueError("eta must be nonzero")
    cols = []
    for fam in family_basis(eta, variant):
        jets = fam.u_jet(2)
        cols.append(_boundary_rows(eta[0], eta[1], jets, gamma))
    return np.array(cols, complex).T


@dataclass
class CoveringReport:
    eta: tuple
    det: complex
    kernel_dim: int
    passed: bool
    sigma_ratio: float


def check_covering(eta, gamma=0.0):
    """Covering condition of the divergence-free system at one tangential
    frequency.

    The kernel dimension is decided on the row/column-equilibrated matrix
    (the raw matrix has columns scaling like |eta|^0, |eta|^-1, |eta|^-3,
    so equilibration keeps the singular-value test meaningful across
    magnitudes): singular values below 1e-8 of the largest."""
    B = boundary_system(eta, gamma=gamma)
    det = complex(np.linalg.det(B))
    Bs = B / np.linalg.norm(B, axis=0, keepdims=True)
    Bs = Bs / np.linalg.norm(Bs, axis=1, keepdims=True)
    sv = np.linalg.svd(Bs, compute_uv=False)
    ratio = float(sv[-1] / sv[0])
    kdim = int(np.sum(sv <= 1e-8 * sv[0]))
    return CoveringReport(tuple(float(x) for x in eta), det, kdim, kdim == 0, ratio)


# ---------------------------------------------------------------------------
# numeric stable subspace (independent of the closed form)
# ---------------------------------------------------------------------------

@dataclass
class StableSubspace:
    eta: tuple
    dim: int
    jets: np.ndarray  # (14, dim): u-jets through order 3, then p(0), p'(0)


def _companion_matrix(eta):
    e1, e2 = eta
    m = e1 * e1 + e2 * e2
    C = np.zeros((14, 14), complex)
    for i in range(9):
        C[i, i + 3] = 1.0
    C[9, 6] = 2 * m
    C[9, 0] = -(m * m)
    C[9, 12] = -1j * e1
    C[10, 7] = 2 * m
    C[10, 1] = -(m * m)
    C[10, 12] = -1j * e2
    C[11, 8] = 2 * m
    C[11, 2] = -(m * m)
    C[11, 13] = -1.0
    C[12, 13] = 1.0
    C[13, 12] = m
    return C


def jet_scale(eta):
    """(14,) |eta|-scaling of the jet coordinates (u, u', u'', u''', p, p'):
    |eta|^-d on the d-th derivative of u, |eta|^-3 on p and |eta|^-4 on p'.
    The decaying solutions are O(1) in every scaled coordinate, and the
    scaled companion matrix has entries O(|eta|) where the raw one reaches
    |eta|^4; at |eta| = 1 the scaling is the identity."""
    order = np.array([0] * 3 + [1] * 3 + [2] * 3 + [3] * 3 + [3, 4], float)
    return np.hypot(*eta) ** -order


def numeric_stable_subspace(eta):
    """Decaying solution jets computed generically from the first-order form.

    State vector (u, u', u'', u''', p, p').  The ordered Schur form isolates
    the invariant subspace of eigenvalues with negative real part (dimension
    7: Jordan chains at -|eta| plus the pressure root); imposing the two
    divergence jets div(0) = div'(0) = 0 cuts it to the physical dimension 5.
    The subspace is computed in the scaled coordinates of :func:`jet_scale`,
    so its error does not grow with |eta|; the jets are returned unscaled.
    """
    if np.hypot(*eta) == 0.0:
        raise ValueError("eta must be nonzero")
    # imported here, not at module level, so that importing nsab (and the
    # CLI) does not load scipy.linalg; only these verify-adn checks use it
    import scipy.linalg as sla

    d = jet_scale(eta)
    C = d[:, None] * _companion_matrix(eta) / d
    try:
        T, Z, sdim = sla.schur(C, output="complex", sort=lambda z: z.real < 0)
    except Exception as exc:  # pragma: no cover - defensive
        raise RuntimeError(f"Schur decomposition failed for eta={eta}: {exc}")
    if sdim != 7:
        raise RuntimeError(f"expected a 7-dimensional decaying subspace, got {sdim}")
    Z7 = Z[:, :7]
    e1, e2 = eta
    Acon = np.zeros((2, 14), complex)
    Acon[0, 5] = 1.0
    Acon[0, 0] = 1j * e1
    Acon[0, 1] = 1j * e2
    Acon[1, 8] = 1.0
    Acon[1, 3] = 1j * e1
    Acon[1, 4] = 1j * e2
    M = (Acon / d) @ Z7
    _, sv, Vh = np.linalg.svd(M)
    null = Vh.conj().T[:, 2:]
    jets = (Z7 @ null) / d[:, None]
    return StableSubspace(tuple(eta), jets.shape[1], jets)


def closed_form_jets(eta, variant=DIVERGENCE_FREE):
    """(14, 5) jet matrix of the closed-form family, companion layout."""
    cols = []
    for fam in family_basis(eta, variant):
        uj = fam.u_jet(3)   # (3, 4): components x derivative order
        pj = fam.p_jet(1)
        cols.append(np.concatenate([uj.T.ravel(), pj]))
    return np.array(cols, complex).T


def stable_subspace_angle(eta, variant=DIVERGENCE_FREE):
    """Largest principal angle between numeric and closed-form jet spaces,
    both in the scaled coordinates of :func:`jet_scale`, where the angle
    stays at roundoff for every |eta| (in raw coordinates the |eta|^4
    companion entries lift it to ~5e-8 at |eta| ~ 480)."""
    import scipy.linalg as sla

    d = jet_scale(eta)[:, None]
    num = numeric_stable_subspace(eta)
    cf = closed_form_jets(eta, variant)
    ang = sla.subspace_angles(d * num.jets, d * cf)
    return float(np.max(ang)) if ang.size else 0.0


# ---------------------------------------------------------------------------
# exact symbolic elimination of the boundary system
# ---------------------------------------------------------------------------

def _int_sqrt(n):
    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass
class EliminationRecord:
    eta: tuple
    variant: str
    a3_over_a0: GaussQ       # Dirichlet elimination: a3 = (this) * a0
    a0_over_b3: GaussQ       # third Dirichlet row: a0 = (this) * b3
    wall_rows: list          # raw 2 x 3 GaussQ rows acting on (b1, b2, a0)
    reduced_rows: list       # 2 x 2 rows on (b1, b2) after eliminating a0
    reduced_rows_classical: bool  # rows equal +-(2|eta| b_j + i eta_j b3(b))
    b_forced_zero: bool
    a_and_a0_forced_zero: bool
    kernel_trivial: bool
    det5: GaussQ


def _exact_family_jets(eta, variant):
    """Exact jets of the five family basis members (integer |eta| required)."""
    e1, e2 = eta
    lam_int = _int_sqrt(e1 * e1 + e2 * e2)
    if lam_int is None:
        raise ValueError("exact elimination needs integer |eta|")
    lam = GaussQ.of(lam_int)
    one = GaussQ.of(1)
    i = GaussQ.i()
    E1, E2 = GaussQ.of(e1), GaussQ.of(e2)
    part = _particular_polys(E1, E2, lam, variant, one=one, imag=i)
    cols = []
    for k in range(5):
        free = [GaussQ.of(0)] * 5
        free[k] = one
        a1, a2, b1, b2, a0 = free
        b3 = i * (E1 * b1 + E2 * b2) / lam
        a3 = (i * (E1 * a1 + E2 * a2) + b3) / lam
        a = [a1, a2, a3]
        b = [b1, b2, b3]
        polys = [[a[j] + a0 * part[j][0], b[j] + a0 * part[j][1],
                  a0 * part[j][2]] for j in range(3)]
        jets = [_expjet(p, lam, 2) for p in polys]
        cols.append(jets)
    return cols, lam, i, E1, E2


def _gauss_det(rows):
    """Exact determinant by fraction division (GaussQ is a field)."""
    n = len(rows)
    rows = [list(r) for r in rows]
    det = GaussQ.of(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if not rows[r][c].is_zero), None)
        if piv is None:
            return GaussQ.of(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = GaussQ.of(1) / rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            for cc in range(c, n):
                rows[r][cc] = rows[r][cc] - f * rows[c][cc]
    return det


def eliminate_boundary_system(eta, gamma=0, variant=MOMENTUM_ONLY):
    """Step-by-step exact elimination of the five boundary conditions.

    Classical order: the Dirichlet rows pin a1 = a2 = 0 and determine a3
    (hence, via the third row, a0) from b3; eliminating a0 from the
    traction rows leaves a homogeneous 2x2 system on (b1, b2) - for the
    momentum-only normalization exactly the rows
    +-(2|eta| b_j + i eta_j b3) - whose invertibility forces b = 0, after
    which a3 = b3/|eta| = 0 and a0 = 0 follow.
    """
    jets, lam, i, E1, E2 = _exact_family_jets(eta, variant)
    g = GaussQ(Fraction(gamma))
    rows = [_boundary_rows(E1, E2, jets[k], g, imag=i) for k in range(5)]
    Bx = [[rows[k][r] for k in range(5)] for r in range(5)]  # 5x5, row-major
    det5 = _gauss_det(Bx)

    # rows 0,1 must read a1 = 0 and a2 = 0 exactly
    assert Bx[0][0] == GaussQ.of(1) and all(Bx[0][j].is_zero for j in (1, 2, 3, 4))
    assert Bx[1][1] == GaussQ.of(1) and all(Bx[1][j].is_zero for j in (0, 2, 3, 4))
    part = _particular_polys(E1, E2, lam, variant, one=GaussQ.of(1), imag=i)
    a3_over_a0 = -part[2][0]              # a3 = -a0 * vpart_3(0)
    a0_over_b3 = -(GaussQ.of(1)) / (lam * part[2][0])  # row 3: b3/|eta| + a0 vpart_3(0) = 0

    # traction rows with a1 = a2 = 0: columns (b1, b2, a0)
    wall = [[Bx[r][2], Bx[r][3], Bx[r][4]] for r in (3, 4)]

    # eliminate a0 through the third Dirichlet row: a0 = a0_over_b3 * b3(b),
    # b3(b) = i (eta . b)/|eta|
    def reduce(row):
        s1 = row[2] * a0_over_b3 * (i * E1 / lam)
        s2 = row[2] * a0_over_b3 * (i * E2 / lam)
        return [row[0] + s1, row[1] + s2]

    red = [reduce(wall[0]), reduce(wall[1])]

    # classical reduced form: +(2|eta| b2 + i eta2 b3), -(2|eta| b1 + i eta1 b3)
    # in the raw traction-row sign convention
    two_lam = GaussQ.of(2) * lam
    ref4 = [(i * E2) * (i * E1) / lam, two_lam + (i * E2) * (i * E2) / lam]
    ref5 = [-(two_lam + (i * E1) * (i * E1) / lam), -((i * E1) * (i * E2) / lam)]
    classical = (red[0][0] == ref4[0] and red[0][1] == ref4[1]
                 and red[1][0] == ref5[0] and red[1][1] == ref5[1])

    det2 = red[0][0] * red[1][1] - red[0][1] * red[1][0]
    b_forced_zero = not det2.is_zero
    # with b = 0: b3 = 0, a0 = a0_over_b3 * 0 = 0, a3 = a3_over_a0 * 0 = 0
    a_forced = b_forced_zero and not a0_over_b3.is_zero

    return EliminationRecord(
        eta=tuple(eta), variant=variant, a3_over_a0=a3_over_a0,
        a0_over_b3=a0_over_b3, wall_rows=wall, reduced_rows=red,
        reduced_rows_classical=classical, b_forced_zero=b_forced_zero,
        a_and_a0_forced_zero=a_forced,
        kernel_trivial=not det5.is_zero, det5=det5)
