"""Primes by trial division: primality, factorization and the ascending walk,
the divisors and Euler's phi built from the factorization, the odd-prime
guard and ord_p of an integer.

Callers pass levels below the index bound, Hecke primes below the Sturm
bound and the prime p.  Trial division is exact and quick for those; its
work grows with the square root of the input, so callers bound huge inputs
first (see build_space).
"""
from __future__ import annotations

import math
from itertools import count


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime."""
    if not (is_prime(p) and p % 2 == 1):
        raise ValueError(f"p must be an odd prime, got {p}")


def primes():
    """2, 3, 5, 7, ... without end."""
    return (n for n in count(2) if is_prime(n))


def prime_factors(n: int):
    """[(prime, exponent), ...] in ascending order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for q, e in prime_factors(n):
        out += [d * q**k for k in range(1, e + 1) for d in out]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    for q, _ in prime_factors(n):
        out = out // q * (q - 1)
    return out


def int_valuation(n: int, p: int):
    """ord_p of an integer; math.inf for 0."""
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
