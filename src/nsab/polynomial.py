"""Exact trivariate polynomials with Gaussian-rational coefficients.

Supports the symbol calculus of the ellipticity and covering checks:
cofactor determinants, homogeneous-part extraction, exact evaluation,
exact single-divisor division (a single generator is a Groebner basis of
the principal ideal it generates, so reduction has zero remainder iff the
dividend is a multiple), and division by a monomial, which may leave
negative (Laurent) exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussQ:
    """Exact complex number with rational real/imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(v):
        if isinstance(v, GaussQ):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussQ(Fraction(v), Fraction(0))
        raise TypeError(f"cannot coerce {type(v)} to GaussQ")

    @staticmethod
    def i():
        return GaussQ(Fraction(0), Fraction(1))

    def __add__(self, o):
        if not isinstance(o, (GaussQ, int, Fraction)):
            return NotImplemented
        o = GaussQ.of(o)
        return GaussQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        if not isinstance(o, (GaussQ, int, Fraction)):
            return NotImplemented
        o = GaussQ.of(o)
        return GaussQ(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __mul__(self, o):
        if not isinstance(o, (GaussQ, int, Fraction)):
            return NotImplemented
        o = GaussQ.of(o)
        return GaussQ(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = GaussQ.of(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussQ")
        return GaussQ((self.re * o.re + self.im * o.im) / d,
                      (self.im * o.re - self.re * o.im) / d)

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


_VARS = ("x1", "x2", "x3")


class TriPoly:
    """Polynomial in three variables over GaussQ, stored as exponent->coeff."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = GaussQ.of(c) if not isinstance(c, GaussQ) else c
                if not c.is_zero:
                    self.terms[tuple(mono)] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): GaussQ.of(c)})

    @classmethod
    def var(cls, i, power=1):
        mono = [0, 0, 0]
        mono[i] = power
        return cls({tuple(mono): GaussQ.of(1)})

    # -- ring operations ----------------------------------------------------

    def _combine(self, other, sign):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono, GaussQ()) + (c if sign > 0 else -c)
            if acc.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = acc
        p = TriPoly()
        p.terms = out
        return p

    def __add__(self, other):
        return self._combine(self._coerce(other), +1)

    def __sub__(self, other):
        return self._combine(self._coerce(other), -1)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                acc = out.get(mono, GaussQ()) + c1 * c2
                if acc.is_zero:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        p = TriPoly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __neg__(self):
        p = TriPoly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __truediv__(self, other):
        """Division by a monomial: exponents subtract, so they may turn
        negative.  Any other divisor raises ValueError."""
        other = self._coerce(other)
        if len(other.terms) != 1:
            raise ValueError(f"TriPoly divides by a monomial only, not by {other}")
        (dm, dc), = other.terms.items()
        p = TriPoly()
        p.terms = {tuple(e - d for e, d in zip(m, dm)): c / dc
                   for m, c in self.terms.items()}
        return p

    def __pow__(self, n):
        out = TriPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _coerce(v):
        if isinstance(v, TriPoly):
            return v
        return TriPoly.const(v)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Largest monomial degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def homogeneous_part(self, d):
        return TriPoly({m: c for m, c in self.terms.items() if sum(m) == d})

    def __eq__(self, other):
        other = self._coerce(other)
        return self.terms == other.terms

    # -- evaluation ---------------------------------------------------------

    def evaluate_exact(self, xi):
        """Exact evaluation at a triple of ints/Fractions/GaussQ; a negative
        exponent divides by the value."""
        acc = GaussQ()
        xi = [v if isinstance(v, GaussQ) else GaussQ.of(v) for v in xi]
        for (a, b, c), coef in self.terms.items():
            term = coef
            for v, e in zip(xi, (a, b, c)):
                for _ in range(abs(e)):
                    term = term * v if e > 0 else term / v
            acc = acc + term
        return acc

    # -- division -----------------------------------------------------------

    def _leading(self):
        mono = max(self.terms)  # lex order on exponent tuples
        return mono, self.terms[mono]

    def divide_exact(self, divisor):
        """Return q with self == q * divisor, or None if not divisible."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        r = TriPoly(dict(self.terms))
        q = TriPoly()
        dm, dc = divisor._leading()
        while not r.is_zero:
            rm, rc = r._leading()
            if any(rm[i] < dm[i] for i in range(3)):
                return None
            mono = tuple(rm[i] - dm[i] for i in range(3))
            coef = rc / dc
            t = TriPoly({mono: coef})
            q = q + t
            r = r - t * divisor
        return q

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            body = "*".join(f"{v}^{e}" if e != 1 else v
                            for v, e in zip(_VARS, mono) if e)
            parts.append(f"{c}" + (f"*{body}" if body else ""))
        return " + ".join(parts)

    __repr__ = __str__


def poly_determinant(rows):
    """Cofactor-expansion determinant of a square matrix (n <= 6) over any
    ring with ``is_zero``: TriPoly or GaussQ entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = rows[0][0] * 0
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        cof = rows[0][j] * poly_determinant(minor)
        det = det + cof if j % 2 == 0 else det - cof
    return det


def norm_sq_poly():
    """xi1^2 + xi2^2 + xi3^2."""
    return (TriPoly.var(0, 2) + TriPoly.var(1, 2) + TriPoly.var(2, 2))
