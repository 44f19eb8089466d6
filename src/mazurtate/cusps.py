"""Cusp classification for Gamma_0(N) and the boundary-symbol matrix.

Cusps a/c and a'/c' (reduced, c >= 0, infinity = 1/0) are Gamma_0(N)-
equivalent iff s c' = s' c mod gcd(cc', N), where s a = 1 mod c.  Class
representatives are the standard x/d for d | N with x running over units
modulo gcd(d, N/d), lifted coprime to d.
"""
from __future__ import annotations

import math

from .modsym import as_cusp, _euler_phi, _xgcd


def _cusps_equivalent(N: int, c1, c2) -> bool:
    u1, v1 = c1
    u2, v2 = c2
    s1 = _xgcd(u1, v1)[0]  # s1*u1 = 1 mod v1
    s2 = _xgcd(u2, v2)[0]
    g = math.gcd(v1 * v2, N)
    return (s1 * v2 - s2 * v1) % g == 0


def _class_representatives(N: int):
    reps = []
    divisors = sorted(k for k in range(1, N + 1) if N % k == 0)
    for d in divisors:
        g = math.gcd(d, N // d)
        seen_units = set()
        for x in range(1, g + 1):
            if math.gcd(x, g) != 1:
                continue
            if x % g in seen_units:
                continue
            seen_units.add(x % g)
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
        expected = sum(_euler_phi(math.gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
        if len(self.representatives) != expected:
            raise RuntimeError(f"{len(self.representatives)} cusp classes at level {N}, expected {expected}")
        self._cache = {}

    def __len__(self):
        return len(self.representatives)

    def classify(self, cusp) -> int:
        """Index of the class of the given cusp (Fraction, (a,c) pair or inf)."""
        cusp = as_cusp(cusp)
        if cusp in self._cache:
            return self._cache[cusp]
        for k, rep in enumerate(self.representatives):
            if _cusps_equivalent(self.N, cusp, rep):
                self._cache[cusp] = k
                return k
        raise RuntimeError(f"cusp {cusp} matched no class at level {self.N}")

    def class_of_infinity(self) -> int:
        return self.classify((1, 0))

def cusp_classes(N: int) -> CuspClassTable:
    return CuspClassTable(N)


def boundary_space_matrix(space, p: int):
    """Matrix of the boundary pairing mod p.

    Row per Manin generator (its divisor {g.0}-{g.inf}), column per cusp
    class; the entry is the indicator difference.  A function psi on cusp
    classes induces the boundary symbol whose generator values are B.psi;
    constants lie in the kernel since every row sums to zero.
    """
    table = CuspClassTable(space.N)
    rows = []
    for i in range(len(space.p1)):
        zero_cusp, inf_cusp = space.generator_divisor_pair(i)
        row = [0] * len(table)
        row[table.classify(zero_cusp)] += 1
        row[table.classify(inf_cusp)] -= 1
        rows.append([x % p for x in row])
    return rows, table
