"""Exact p-adic valuations and the unit root mod p^precision.

Only Z_p for odd p is supported.  The unit root is returned as its residue,
an integer in [0, p^precision); the stabilized elements are exact elements
built from an integer lift of its inverse (elements.MazurTateTower.stabilized).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotOrdinary
from .primes import int_valuation, require_odd_prime

INFINITY = math.inf


def valuation(x, p: int):
    """ord_p of a rational number (int or Fraction); INFINITY iff x = 0."""
    require_odd_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def unit_root(a_p: int, p: int, precision: int) -> int:
    """The unit root of x^2 - a_p x + p mod p^precision, as its residue in [0, p^precision).

    Newton/Hensel lifting from a_p mod p: the seed is a simple root mod p
    because the derivative 2x - a_p is a unit there, and each step doubles
    the certified precision.
    """
    require_odd_prime(p)
    if precision < 1:
        raise ValueError(f"precision must be positive, got {precision}")
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
    if (x * x - a_p * x + p) % p**precision:
        raise RuntimeError(f"unit root of x^2 - {a_p} x + {p} fails its check mod {p}^{precision}")
    return x
