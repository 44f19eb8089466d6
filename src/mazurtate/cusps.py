"""Cusp classification for Gamma_0(N) and the boundary-symbol matrix.

A reduced cusp a/c (c >= 0, infinity = 1/0) has the class key
(d, a c/d mod gcd(d, N/d)) with d = gcd(c, N), and two cusps are Gamma_0(N)-
equivalent iff their keys agree: the criterion s c' = s' c mod gcd(cc', N),
s a = 1 mod c, reads so since gcd(cc', N) = d gcd(d, N/d) when d = d'.  Class
representatives are the standard x/d for d | N with x running over units
modulo gcd(d, N/d), lifted coprime to d.
"""
from __future__ import annotations

import math

from .modsym import as_cusp, cusp_count
from .primes import divisors


def _cusp_key(N: int, a: int, c: int):
    """Class key of a/c; only a mod gcd(c, N) and c mod N matter."""
    d = math.gcd(c, N)
    return d, a * (c // d) % math.gcd(d, N // d)


def _class_representatives(N: int):
    reps = []
    for d in divisors(N):
        g = math.gcd(d, N // d)
        for x in range(1, g + 1):
            if math.gcd(x, g) != 1:
                continue
            # lift x to something coprime to d
            y = x
            while math.gcd(y, d) != 1:
                y += g
            reps.append(as_cusp((y, d)))
    return reps


class CuspClassTable:
    """Complete classification of the cusps of X_0(N)."""

    def __init__(self, N: int):
        self.N = N
        self.representatives = _class_representatives(N)
        expected = cusp_count(N)
        if len(self.representatives) != expected:
            raise RuntimeError(f"{len(self.representatives)} cusp classes at level {N}, expected {expected}")
        self._index = {_cusp_key(N, a, c): k for k, (a, c) in enumerate(self.representatives)}
        if len(self._index) != expected:
            raise RuntimeError(f"two cusp class representatives share a key at level {N}")

    def __len__(self):
        return len(self.representatives)

    def classify(self, cusp) -> int:
        """Index of the class of the given cusp (Fraction, (a,c) pair or inf)."""
        return self._index[_cusp_key(self.N, *as_cusp(cusp))]

    def class_of_infinity(self) -> int:
        return self.classify((1, 0))


def boundary_space_matrix(space, p: int):
    """Matrix of the boundary pairing mod p.

    Row per Manin generator (its divisor {g.0}-{g.inf}), column per cusp
    class; the entry is the indicator difference.  A function psi on cusp
    classes induces the boundary symbol whose generator values are B.psi;
    constants lie in the kernel since every row sums to zero.
    """
    N = space.N
    table = CuspClassTable(N)
    rows = []
    for c, d in space.p1:
        # any lift [[a, b], [c, d]] in SL_2(Z) has a = d^-1 mod c and b = -c^-1 mod d
        row = [0] * len(table)
        row[table._index[_cusp_key(N, -pow(c, -1, math.gcd(d, N)), d)]] += 1  # g.0 = b/d
        row[table._index[_cusp_key(N, pow(d, -1, math.gcd(c, N)), c)]] -= 1  # g.inf = a/c
        rows.append([x % p for x in row])
    return rows, table
