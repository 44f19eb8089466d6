"""Primes by trial division: primality, factorization and the ascending walk.

Callers pass levels below the index bound, Hecke primes below the Sturm
bound and the prime p.  Trial division is exact and quick for those; its
work grows with the square root of the input, so callers bound huge inputs
first (see build_space).
"""
from __future__ import annotations

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
