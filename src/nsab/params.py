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


#: relative tolerance on T / dt being a whole number of steps
STEP_RTOL = 1e-9


def step_count(T, dt):
    """Number of time steps dt in the horizon T.

    Raises ParameterError unless T is a positive whole multiple of dt (to
    STEP_RTOL relative), so that a run ends exactly at T.
    """
    steps = T / dt if dt > 0 else math.nan  # inf for a subnormal dt
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(n * dt - T) > STEP_RTOL * T:
        raise ParameterError(f"T = {T!r} is not a whole multiple of dt = {dt!r}")
    return n


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
    # products, not powers: a float power that overflows raises OverflowError
    if not math.isfinite(alpha * alpha):
        raise ParameterError(f"alpha^2 must be finite, got alpha = {alpha!r}")
    if beta * beta == 0.0 or not math.isfinite(ell / (beta * beta)):
        raise ParameterError("k = ell / beta^2 must be finite")


def derive_params(alpha, beta, gamma, ell):
    """Validate (alpha, beta, gamma, ell) and attach the derived k = ell/beta**2."""
    _validate_model(alpha, beta, gamma, ell)
    return ModelParams(alpha=float(alpha), beta=float(beta), gamma=float(gamma),
                       ell=float(ell), k=float(ell) / float(beta) ** 2)


#: admissible channel lengths; far outside, the block forms (polynomials in
#: m = |eta|^2 with powers of 1/H) leave the float64 range
LENGTH_RANGE = (1e-6, 1e6)


@dataclass(frozen=True)
class ChannelGeometry:
    L1: float = 2.0 * math.pi
    L2: float = 2.0 * math.pi
    H: float = 1.0

    def __post_init__(self):
        lo, hi = LENGTH_RANGE
        for name in ("L1", "L2", "H"):
            x = getattr(self, name)
            if not lo <= x <= hi:
                raise ParameterError(f"{name} = {x!r} is outside the admissible "
                                     f"lengths [{lo:g}, {hi:g}]")

    @property
    def area(self):
        """Tangential cell area; every per-mode form carries this factor."""
        return self.L1 * self.L2


@dataclass(frozen=True)
class Resolution:
    """Mode counts and wall-normal degrees.

    N1, N2   even tangential Fourier mode counts (wavenumbers k in [-N/2, N/2);
             Nyquist wavenumbers -N/2 are not stored),
    P        wall-normal polynomial degree; the Gauss rule has Q = ceil((3P+1)/2)
             nodes, the fewest that integrate degree-P triple products exactly.

    The padded tangential grid is fixed by the 3/2 rule (Orszag 1971): in
    each direction it has the smallest even point count M >= 3N/2.  The
    stored wavenumbers satisfy |k| <= K = N/2 - 1, so M >= 3K + 1 and
    quadratic products are dealiased exactly; a larger grid would change
    the cost only.
    """

    N1: int = 16
    N2: int = 16
    P: int = 32

    def __post_init__(self):
        if self.N1 < 2 or self.N2 < 2 or self.N1 % 2 or self.N2 % 2:
            raise ParameterError("N1, N2 must be even and >= 2")
        if self.P < 6:
            raise ParameterError("wall-normal degree P must be at least 6")

    @property
    def Q(self):
        """Gauss-Legendre node count ceil((3P+1)/2)."""
        return min_quadrature_nodes(self.P)

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
        """(M1, M2), each the smallest even M >= 3N/2."""
        return tuple(3 * N // 2 + (3 * N // 2) % 2 for N in (self.N1, self.N2))


def min_quadrature_nodes(P):
    return math.ceil((3 * P + 1) / 2)
