"""Weight-2 modular symbols for Gamma_0(N) via Manin symbols.

The space is presented as the free Q-module on P^1(Z/N) modulo the two-term
and three-term relations of Manin; every generator carries a sparse expression
over a chosen quotient basis, and arbitrary divisors are evaluated through the
continued-fraction (Manin) trick.  The generator indexed by (c:d), with
SL_2(Z) lift g having bottom row (c,d), stands for the divisor {g.0}-{g.inf}.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import LevelTooLarge
from .linalg import echelon, mat_vec
from .primes import prime_factors

INFINITY = math.inf

DEFAULT_MAX_INDEX = 20000


def _xgcd(a: int, b: int):
    if b == 0:
        return (1, 0, a) if a >= 0 else (-1, 0, -a)
    x, y, g = _xgcd(b, a % b)
    return y, x - y * (a // b), g


def _lift_unit(n: int, d: int, a: int) -> int:
    """Lift a unit a mod d (d | n) to a unit mod n."""
    u, v = 1, n
    g = math.gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = math.gcd(v, g)
    x, y, _ = _xgcd(u, v)
    return (u * x + a * y * v) % n


class P1List:
    """Canonical representatives of P^1(Z/N) with index lookup."""

    def __init__(self, N: int):
        self.N = N
        if N == 1:
            self._list = [(0, 0)]
        else:
            # every class has a representative (g, v) with g = gcd(u, N), so
            # one divisor at a time, in ascending order, yields the sorted list
            self._list = [(0, 1)] + [(1, v) for v in range(N)]
            for g in range(2, N):
                if N % g == 0:
                    self._list += [(g, v) for v in range(N)
                                   if math.gcd(v, g) == 1 and self.normalize(g, v) == (g, v)]
        self._index = {r: i for i, r in enumerate(self._list)}

    def normalize(self, u: int, v: int):
        """Canonical form of (u:v), or None if the pair is not primitive mod N."""
        N = self.N
        if N == 1:
            return (0, 0)
        u %= N
        v %= N
        if u == 0:
            return (0, 1) if math.gcd(v, N) == 1 else None
        _, s, g = _xgcd(N, u)
        if math.gcd(g, v) > 1:
            return None
        s = _lift_unit(N, N // g, s % (N // g))
        v = (s * v) % N
        if g == 1:
            return (1, v)
        v = min((v * t) % N for t in range(1, N, N // g) if math.gcd(N, t) == 1)
        return (g, v)

    def index(self, u: int, v: int) -> int:
        r = self.normalize(u, v)
        if r is None:
            raise ValueError(f"({u}:{v}) is not primitive mod {self.N}")
        return self._index[r]

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]


def lift_to_sl2z(c: int, d: int, N: int):
    """An SL_2(Z) matrix with bottom row congruent to (c,d) mod N."""
    if N == 1:
        return (1, 0, 0, 1)
    c %= N
    d %= N
    if c == 0 and d == 0:
        raise ValueError("not a projective point")
    # adjust within the class so that gcd(c,d)=1 as integers
    if c == 0:
        c = N
    g = math.gcd(c, d)
    if g > 1:
        # replace d by d + kN coprime to c
        k = 1
        while math.gcd(c, d + k * N) > 1:
            k += 1
        d += k * N
    x, y, g = _xgcd(c, d)
    if g != 1:
        raise RuntimeError(f"lifted bottom row ({c}, {d}) has gcd {g}, not 1")
    # bottom row (c,d); top row solves a*d - b*c = 1
    return (y, -x, c, d)


# --- standard index, elliptic point and cusp counting for X_0(N) ---


def psi_index(N: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z)."""
    out = N
    for p, _ in prime_factors(N):
        out = out // p * (p + 1)
    return out


def _euler_phi(n: int) -> int:
    out = n
    for p, _ in prime_factors(n):
        out = out // p * (p - 1)
    return out


def cusp_count(N: int) -> int:
    total = 0
    d = 1
    while d * d <= N:
        if N % d == 0:
            total += _euler_phi(math.gcd(d, N // d))
            if d != N // d:
                total += _euler_phi(math.gcd(N // d, d))
        d += 1
    return total


def elliptic_point_counts(N: int):
    """(nu_2, nu_3) for Gamma_0(N)."""
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p, _ in prime_factors(N):
            if p == 2:
                continue
            nu2 *= 1 + (1 if p % 4 == 1 else -1)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p, _ in prime_factors(N):
            if p == 3:
                continue
            nu3 *= 1 + (1 if p % 3 == 1 else -1)
    return nu2, nu3


def genus_x0(N: int) -> int:
    nu2, nu3 = elliptic_point_counts(N)
    g = Fraction(1) + Fraction(psi_index(N), 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusp_count(N), 2)
    if g.denominator != 1:
        raise RuntimeError(f"genus formula gives {g} at level {N}, not an integer")
    return int(g)


# --- cusps and divisors ---


def as_cusp(x):
    """Normalize to a reduced pair (a, c) with c >= 0; infinity is (1, 0)."""
    if x is INFINITY:
        return (1, 0)
    if isinstance(x, tuple):
        a, c = x
    else:
        f = Fraction(x)
        a, c = f.numerator, f.denominator
    if c == 0:
        return (1, 0)
    if c < 0:
        a, c = -a, -c
    g = math.gcd(abs(a), c)
    if g > 1:
        a, c = a // g, c // g
    return (a, c)


def scale_cusp(m: int, cusp):
    a, c = cusp
    return as_cusp((m * a, c))


def apply_matrix_to_cusp(mat, cusp):
    a, b, c, d = mat
    u, v = cusp
    return as_cusp((a * u + b * v, c * u + d * v))


class Divisor:
    """Degree-0 formal sum of cusps."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        acc = {}
        for coeff, cusp in terms:
            cusp = as_cusp(cusp)
            acc[cusp] = acc.get(cusp, 0) + coeff
        self.terms = tuple((c, pt) for pt, c in sorted(acc.items()) if c)
        if sum(c for c, _ in self.terms) != 0:
            raise ValueError("divisor must have degree 0")

    @classmethod
    def difference(cls, r, s):
        """{r} - {s}"""
        return cls([(1, r), (-1, s)])

    def apply_matrix(self, mat):
        return Divisor([(c, apply_matrix_to_cusp(mat, pt)) for c, pt in self.terms])

    def scale(self, m: int):
        return Divisor([(c, scale_cusp(m, pt)) for c, pt in self.terms])

    def __repr__(self):
        return " + ".join(f"{c}*{{{a}/{d}}}" for c, (a, d) in self.terms) or "0"


def convergent_symbol_pairs(cusp):
    """Bottom rows (q_k, +-q_{k-1}) of the unimodular path matrices joining the
    continued-fraction convergents of the cusp to infinity."""
    a, b = cusp
    if b == 0:
        return []
    out = []
    q_km2, q_km1 = 1, 0  # q_{-2}, q_{-1}
    num, den = a, b
    k = 0
    while den != 0:
        digit = num // den
        num, den = den, num - digit * den
        q_k = digit * q_km1 + q_km2
        sign = 1 if k % 2 == 1 else -1
        out.append((q_k, sign * q_km1))
        q_km2, q_km1 = q_km1, q_k
        k += 1
    return out


class ManinSymbolSpace:
    """Quotient presentation of the weight-2 modular symbols on Gamma_0(N)."""

    def __init__(self, N, p1, basis, expressions, sigma, tau):
        self.N = N
        self.p1 = p1
        self.basis = basis          # P^1 indices of the free generators
        self.expressions = expressions  # per P^1 index: sorted (coordinate, Fraction) pairs
        self.sigma = sigma          # index action of the order-2 relation matrix
        self.tau = tau              # index action of the order-3 relation matrix
        self.dimension = len(basis)
        self._involution = None

    def generator_matrix(self, i: int):
        c, d = self.p1[i]
        return lift_to_sl2z(c, d, self.N)

    def generator_divisor_pair(self, i: int):
        """Cusp pair (g.0, g.inf) whose difference the generator represents."""
        a, b, c, d = self.generator_matrix(i)
        return as_cusp((b, d)), as_cusp((a, c))

    def involution_index(self, i: int) -> int:
        c, d = self.p1[i]
        return self.p1.index(-c, d)

    def involution_matrix(self):
        """Matrix of the sign involution on basis coordinates."""
        if self._involution is None:
            self._involution = [self.coordinate_row([self.involution_index(b)]) for b in self.basis]
        return self._involution

    def coordinate_row(self, indices):
        """Dense basis coordinates of the sum of the generators at these P^1 indices."""
        row = [Fraction(0)] * self.dimension
        for i in indices:
            for t, c in self.expressions[i]:
                row[t] += c
        return row

    def symbol(self, coords, sign=None) -> "ModularSymbol":
        return ModularSymbol(self, coords, sign)

    def zero_symbol(self) -> "ModularSymbol":
        return ModularSymbol(self, [Fraction(0)] * self.dimension)


def build_space(N: int, max_index: int = DEFAULT_MAX_INDEX) -> ManinSymbolSpace:
    """Construct the Manin-symbol presentation at level N.

    Two-term relations are folded in combinatorially (they pair generators up
    to sign); the remaining three-term relations go through linalg.echelon,
    the sparse elimination over Q.
    """
    if N < 1:
        raise ValueError("level must be positive")
    if N > max_index:  # psi(N) >= N; checked first so a huge N is never factored
        raise LevelTooLarge(f"level {N} exceeds the index bound {max_index}")
    if psi_index(N) > max_index:
        raise LevelTooLarge(f"index {psi_index(N)} of Gamma_0({N}) exceeds bound {max_index}")
    p1 = P1List(N)
    m = len(p1)
    index = p1.index
    sigma = [index(d, -c) for c, d in p1]
    tau = [index(d, -c - d) for c, d in p1]

    # x + x.S = 0: fixed points die, otherwise pair with a sign.
    zero = [False] * m
    rep = list(range(m))
    rep_sign = [1] * m
    for i in range(m):
        j = sigma[i]
        if j == i:
            zero[i] = True
        elif j > i:
            rep[j] = i
            rep_sign[j] = -1

    def as_term(i):
        if zero[i]:
            return None
        return rep[i], rep_sign[i]

    # x + x.T + x.T^2 = 0, one relation per tau-orbit
    rows = []
    seen = [False] * m
    for i in range(m):
        if seen[i]:
            continue
        orbit = [i, tau[i], tau[tau[i]]]
        for j in orbit:
            seen[j] = True
        row = {}
        for j in orbit:
            t = as_term(j)
            if t is None:
                continue
            var, sgn = t
            row[var] = row.get(var, 0) + sgn
        rows.append(row)

    pivots = echelon(rows)

    variables = [i for i in range(m) if not zero[i] and rep[i] == i]
    free = sorted(v for v in variables if v not in pivots)
    dim = len(free)
    pos = {b: t for t, b in enumerate(free)}

    var_expr = {v: ((pos[v], Fraction(1)),) for v in free}
    for v, row in pivots.items():
        var_expr[v] = tuple(sorted((pos[k], c) for k, c in row.items()))
    expressions = []
    for i in range(m):
        if zero[i]:
            expressions.append(())
        else:
            base = var_expr[rep[i]]
            expressions.append(base if rep_sign[i] == 1 else tuple((t, -c) for t, c in base))

    expected = 2 * genus_x0(N) + cusp_count(N) - 1 if N > 1 else 0
    if dim != expected:
        raise RuntimeError(f"dimension {dim} at level {N} disagrees with 2g+c-1 = {expected}")

    return ManinSymbolSpace(N, p1, free, expressions, sigma, tau)


class ModularSymbol:
    """Rational modular symbol stored as coordinates over the quotient basis."""

    def __init__(self, space: ManinSymbolSpace, coords, sign=None):
        self.space = space
        self.coords = tuple(Fraction(c) for c in coords)
        if len(self.coords) != space.dimension:
            raise ValueError("coordinate length does not match space dimension")
        self.sign = sign
        self._generator_values = None
        self._table = None      # generator values, ints when all are integral
        self._cusp_memo = None  # u*N + v -> value on (u:v), filled as cusps are evaluated
        self._is_plus = None

    # -- linear structure --

    def __add__(self, other):
        if other.space is not self.space:
            raise ValueError("symbols live on different spaces")
        return ModularSymbol(self.space, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if other.space is not self.space:
            raise ValueError("symbols live on different spaces")
        return ModularSymbol(self.space, [a - b for a, b in zip(self.coords, other.coords)])

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return ModularSymbol(self.space, [scalar * c for c in self.coords], self.sign)

    def __neg__(self):
        return Fraction(-1) * self

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    # -- values --

    def generator_values(self):
        """Values on every Manin generator (index-aligned with P^1)."""
        if self._generator_values is None:
            coords = self.coords
            self._generator_values = tuple(
                sum((c * coords[t] for t, c in expr), Fraction(0)) for expr in self.space.expressions
            )
        return self._generator_values

    def value_infinity_minus(self, r):
        """phi({inf} - {r}) by the Manin trick.

        An int when every generator value is integral (0 at infinity), a
        Fraction otherwise.  Each symbol memoizes its value per (u mod N,
        v mod N), so P^1 normalization runs once per pair it meets.
        """
        memo = self._cusp_memo
        if memo is None:
            vals = self.generator_values()
            if all(v.denominator == 1 for v in vals):
                vals = tuple(v.numerator for v in vals)
            self._table = vals
            memo = self._cusp_memo = {}
        N = self.space.N
        total = 0
        for qk, qk1 in convergent_symbol_pairs(as_cusp(r)):
            u, v = qk % N, qk1 % N
            value = memo.get(u * N + v)
            if value is None:
                value = memo[u * N + v] = self._table[self.space.p1.index(u, v)]
            total += value
        return total

    def value(self, divisor: Divisor):
        return sum((-c) * self.value_infinity_minus(pt) for c, pt in divisor.terms)

    def scaled(self, m: int) -> "ScaledSymbol":
        """Divisor-level evaluator for phi | [[m,0],[0,1]]."""
        return ScaledSymbol(self, m)

    # -- sign involution --

    def is_plus(self) -> bool:
        """Exact J-invariance: the value on (c:d) equals the value on (-c:d) for every generator.

        Then phi({inf}-{-r}) = phi({inf}-{r}) for every cusp r.  Decided from
        the values alone, whatever the sign label says.
        """
        if self._is_plus is None:
            vals = self.generator_values()
            involution_index = self.space.involution_index
            self._is_plus = all(v == vals[involution_index(i)] for i, v in enumerate(vals))
        return self._is_plus

    def involution(self) -> "ModularSymbol":
        new = mat_vec(self.space.involution_matrix(), list(self.coords))
        return ModularSymbol(self.space, new)

    def plus_part(self) -> "ModularSymbol":
        s = self + self.involution()
        return ModularSymbol(self.space, [c / 2 for c in s.coords], sign="+")

    def minus_part(self) -> "ModularSymbol":
        s = self - self.involution()
        return ModularSymbol(self.space, [c / 2 for c in s.coords], sign="-")

    def split(self):
        return self.plus_part(), self.minus_part()

    def __repr__(self):
        return f"ModularSymbol(level={self.space.N}, coords={self.coords})"


class ScaledSymbol:
    """phi | [[m,0],[0,1]] as a divisor-level evaluator."""

    def __init__(self, symbol: ModularSymbol, m: int):
        self.symbol = symbol
        self.m = m

    def value_infinity_minus(self, r):
        return self.symbol.value_infinity_minus(scale_cusp(self.m, as_cusp(r)))

    def is_plus(self) -> bool:
        # diag(m, 1) commutes with J = diag(-1, 1)
        return self.symbol.is_plus()

    def value(self, divisor: Divisor):
        return self.symbol.value(divisor.scale(self.m))
