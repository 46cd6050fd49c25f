"""Floating-point oracle for the covering condition.

nsab decides the covering condition exactly (``nsab.adn.certify_covering``).
The tests cross-check that verdict here with two float computations at
sampled tangential frequencies eta:

* the closed-form family evaluated in complex floats (the same generic family
  code, run over floats), with the kernel dimension of its 5x5 boundary
  matrix decided by an SVD rule at 1e-8 (:func:`check_covering`);
* a generic decaying subspace computed from the first-order companion form
  by an ordered Schur decomposition (:func:`numeric_stable_subspace`), which
  knows nothing of the closed form, compared with it through principal
  angles (:func:`stable_subspace_angle`).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from nsab.adn import (DIVERGENCE_FREE, _boundary_matrix, _completion, _expderiv,
                      _expjet, _family_members, _member_polys, _particular_polys,
                      ns_alpha_beta_system)


def _expeval(coeffs, lam, t, order=0):
    """Value of the order-th t-derivative of e^{-lam t} poly(t) at real t."""
    poly = list(coeffs)
    for _ in range(order):
        poly = _expderiv(poly, lam)
    return sum((c * t**i for i, c in enumerate(poly)), 0.0j) * np.exp(-lam * t)


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
        return _member_polys(self.a, self.b, self.a0, part)

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
    """Member of the decaying family, a3 and b3 completed by the
    divergence constraints."""
    e1, e2 = float(eta[0]), float(eta[1])
    lam = np.hypot(e1, e2)
    if lam == 0.0:
        raise ValueError("eta must be nonzero")
    a, b = _completion(e1, e2, lam, 1j, a1, a2, b1, b2)
    return DecayingSolutionFamily((e1, e2), np.array(a, complex), np.array(b, complex),
                                  complex(a0), variant)


def _members(eta, variant):
    lam = float(np.hypot(*eta))
    if lam == 0.0:
        raise ValueError("eta must be nonzero")
    return lam, _family_members(eta[0], eta[1], lam, variant)


def boundary_system(eta, gamma=0.0, variant=DIVERGENCE_FREE):
    """Complex 5x5 boundary matrix acting on (a1, a2, b1, b2, a0) at one eta:
    the wall rows of ``ns_alpha_beta_system(gamma)`` applied in floats."""
    lam, members = _members(eta, variant)
    B = ns_alpha_beta_system(gamma).B
    return np.array(_boundary_matrix(B, eta[0], eta[1], lam, members), complex)


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
    d = jet_scale(eta)
    C = d[:, None] * _companion_matrix(eta) / d
    T, Z, sdim = sla.schur(C, output="complex", sort=lambda z: z.real < 0)
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
    lam, members = _members(eta, variant)
    cols = []
    for polys, a0 in zip(members, (0.0, 0.0, 0.0, 0.0, 1.0)):
        uj = np.array([_expjet(p, lam, 3) for p in polys])   # (3, 4)
        cols.append(np.concatenate([uj.T.ravel(), _expjet([a0], lam, 1)]))
    return np.array(cols, complex).T


def stable_subspace_angle(eta, variant=DIVERGENCE_FREE):
    """Largest principal angle between numeric and closed-form jet spaces,
    both in the scaled coordinates of :func:`jet_scale`, where the angle
    stays at roundoff for every |eta| (in raw coordinates the |eta|^4
    companion entries lift it to ~5e-8 at |eta| ~ 480)."""
    d = jet_scale(eta)[:, None]
    num = numeric_stable_subspace(eta)
    cf = closed_form_jets(eta, variant)
    ang = sla.subspace_angles(d * num.jets, d * cf)
    return float(np.max(ang)) if ang.size else 0.0
