"""Exact p-adic valuations, precision-tracked p-adic integers, unit-root lifting.

Only Z_p for odd p is supported.  A ``PAdic`` stores a residue modulo p^M
together with the precision M; arithmetic propagates the minimum precision of
the operands, so a result never claims digits that were not certified.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotOrdinary, PrecisionInsufficient
from .primes import int_valuation, require_odd_prime

INFINITY = math.inf


def valuation(x, p: int):
    """ord_p of a rational number (int or Fraction); INFINITY iff x = 0."""
    require_odd_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


class PAdic:
    """Element of Z_p known modulo p^precision.

    A residue that is 0 mod p^precision has *unknown* valuation >= precision;
    ``valuation()`` refuses to report a number for it.
    """

    __slots__ = ("p", "precision", "residue")

    def __init__(self, p: int, residue: int, precision: int):
        if precision < 1:
            raise PrecisionInsufficient(f"precision must be positive, got {precision}")
        self.p = p
        self.precision = precision
        self.residue = residue % (p**precision)

    @classmethod
    def from_rational(cls, x, p: int, precision: int) -> "PAdic":
        """Convert a p-integral rational; raises on negative valuation."""
        x = Fraction(x)
        den = x.denominator
        if den % p == 0:
            raise ValueError(f"{x} is not p-integral at p={p}")
        m = p**precision
        return cls(p, x.numerator * pow(den, -1, m), precision)

    @property
    def is_zero_to_precision(self) -> bool:
        return self.residue == 0

    def valuation(self) -> int:
        """Certified ord_p; raises if the residue vanishes to precision."""
        if self.residue == 0:
            raise PrecisionInsufficient(
                f"valuation >= {self.precision} is not certified at precision {self.precision}"
            )
        return int_valuation(self.residue, self.p)

    def valuation_lower_bound(self) -> int:
        return self.precision if self.residue == 0 else int_valuation(self.residue, self.p)

    def _coerce(self, other) -> "PAdic":
        if isinstance(other, PAdic):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        return PAdic.from_rational(other, self.p, self.precision)

    def __add__(self, other) -> "PAdic":
        other = self._coerce(other)
        m = min(self.precision, other.precision)
        return PAdic(self.p, self.residue + other.residue, m)

    __radd__ = __add__

    def __neg__(self) -> "PAdic":
        return PAdic(self.p, -self.residue, self.precision)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other) -> "PAdic":
        other = self._coerce(other)
        m = min(self.precision, other.precision)
        return PAdic(self.p, self.residue * other.residue, m)

    __rmul__ = __mul__

    def inverse(self) -> "PAdic":
        if self.residue % self.p == 0:
            raise PrecisionInsufficient("cannot invert a non-unit in Z_p")
        return PAdic(self.p, pow(self.residue, -1, self.p**self.precision), self.precision)

    def __truediv__(self, other) -> "PAdic":
        other = self._coerce(other)
        v = other.valuation()  # raises if divisor vanishes to precision
        m = min(self.precision, other.precision) - v
        if m <= 0:
            raise PrecisionInsufficient(f"division by valuation-{v} element exhausts precision")
        if v:
            if self.valuation_lower_bound() < v:
                raise PrecisionInsufficient("quotient would leave Z_p")
            num = self.residue // self.p**v
        else:
            num = self.residue
        unit = other.residue // self.p**v
        return PAdic(self.p, num * pow(unit, -1, self.p**m), m)

    def at_precision(self, precision: int) -> "PAdic":
        """Reduce to a smaller precision (never extend)."""
        if precision > self.precision:
            raise PrecisionInsufficient("cannot raise precision")
        return PAdic(self.p, self.residue, precision)

    def __eq__(self, other) -> bool:
        """Equality of residues at the shared precision."""
        if not isinstance(other, (PAdic, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        m = min(self.precision, other.precision)
        return (self.residue - other.residue) % self.p**m == 0

    def __hash__(self):
        raise TypeError("PAdic values are approximate; not hashable")

    def __repr__(self):
        return f"PAdic({self.residue} mod {self.p}^{self.precision})"


def unit_root(a_p: int, p: int, precision: int) -> PAdic:
    """The unit root of x^2 - a_p x + p, by Newton/Hensel lifting from a_p mod p.

    The seed a_p is a simple root mod p because the derivative 2x - a_p is
    a unit there; lifting doubles the certified precision each step.
    """
    require_odd_prime(p)
    if a_p % p == 0:
        raise NotOrdinary(f"a_p = {a_p} is divisible by p = {p}")
    prec = 1
    x = a_p % p
    while prec < precision:
        prec = min(2 * prec, precision)
        m = p**prec
        fx = (x * x - a_p * x + p) % m
        dfx = (2 * x - a_p) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    root = PAdic(p, x, precision)
    if (x * x - a_p * x + p) % p**precision:
        raise RuntimeError(f"unit root of x^2 - {a_p} x + {p} fails its check mod {p}^{precision}")
    return root
