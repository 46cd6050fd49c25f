"""Physical parameters, channel geometry and resolution bookkeeping.

The model couples a bulk filter length ``alpha`` with a wall-eddy length
``beta`` (``alpha > beta > 0``), a dimensionless coefficient ``gamma`` with
``|gamma| <= 1`` weighting the transposed vorticity-gradient in the boundary
traction, and a length ``ell > 0``.  The combination ``k = ell / beta**2``
is the coefficient of the boundary term in the stationary bilinear form and
is stored precomputed.

The domain is a channel, periodic in x and y with periods ``L1`` and ``L2``
and solid walls at ``z = 0`` and ``z = H``.  The outward unit normal is
``-e3`` at the bottom wall and ``+e3`` at the top wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """A physical or resolution parameter violates its admissibility range."""


@dataclass(frozen=True)
class ModelParams:
    alpha: float
    beta: float
    gamma: float
    ell: float
    k: float  # ell / beta**2, set by derive_params

    def __post_init__(self):
        _validate_model(self.alpha, self.beta, self.gamma, self.ell)
        if self.k != self.ell / self.beta**2:
            raise ParameterError("k must equal ell / beta**2 exactly")


def _validate_model(alpha, beta, gamma, ell):
    if not all(math.isfinite(x) for x in (alpha, beta, gamma, ell)):
        raise ParameterError("alpha, beta, gamma, ell must be finite")
    if beta <= 0.0:
        raise ParameterError("beta must be positive")
    if alpha <= beta:
        raise ParameterError("alpha must exceed beta")
    if abs(gamma) > 1.0:
        raise ParameterError("|gamma| <= 1 required")
    if ell <= 0.0:
        raise ParameterError("ell must be positive")


def derive_params(alpha, beta, gamma, ell):
    """Validate (alpha, beta, gamma, ell) and attach the derived k = ell/beta**2."""
    _validate_model(alpha, beta, gamma, ell)
    return ModelParams(alpha=float(alpha), beta=float(beta), gamma=float(gamma),
                       ell=float(ell), k=float(ell) / float(beta) ** 2)


@dataclass(frozen=True)
class ChannelGeometry:
    L1: float = 2.0 * math.pi
    L2: float = 2.0 * math.pi
    H: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0.0 for x in (self.L1, self.L2, self.H)):
            raise ParameterError("L1, L2, H must be finite and positive")

    @property
    def area(self):
        """Tangential cell area; every per-mode form carries this factor."""
        return self.L1 * self.L2


@dataclass(frozen=True)
class Resolution:
    """Mode counts and wall-normal degrees.

    N1, N2   even tangential Fourier mode counts (wavenumbers k in [-N/2, N/2);
             Nyquist columns are kept in storage but pinned to zero),
    P        wall-normal polynomial degree,
    Q        Gauss-Legendre node count; Q >= ceil((3P+1)/2) so that triple
             products of degree-P polynomials are integrated exactly,
    pad      tangential padding factor; pad*N >= 3N/2 makes quadratic
             convolution integrals exact on the padded grid.
    """

    N1: int = 16
    N2: int = 16
    P: int = 32
    Q: int = 0  # 0 means "minimal admissible", resolved in __post_init__
    pad: int = 2

    def __post_init__(self):
        if self.N1 < 2 or self.N2 < 2 or self.N1 % 2 or self.N2 % 2:
            raise ParameterError("N1, N2 must be even and >= 2")
        if self.P < 6:
            raise ParameterError("wall-normal degree P must be at least 6")
        if self.Q == 0:
            object.__setattr__(self, "Q", min_quadrature_nodes(self.P))
        if self.Q < min_quadrature_nodes(self.P):
            raise ParameterError(
                f"Q={self.Q} too small: need Q >= ceil((3P+1)/2) = "
                f"{min_quadrature_nodes(self.P)} for exact triple products")
        if self.pad * self.N1 < (3 * self.N1) // 2 or self.pad * self.N2 < (3 * self.N2) // 2:
            raise ParameterError("padding factor must give a grid of at least 3N/2")

    @property
    def n_toroidal(self):
        """Dimension of the degree-P Dirichlet (value-pinned) basis."""
        return self.P - 1

    @property
    def n_poloidal(self):
        """Dimension of the degree-P clamped (value- and slope-pinned) basis."""
        return self.P - 3

    @property
    def padded_shape(self):
        return (self.pad * self.N1, self.pad * self.N2)


def min_quadrature_nodes(P):
    return math.ceil((3 * P + 1) / 2)
