"""Weight-2 modular symbols for Gamma_0(N) via Manin symbols.

The space is presented as the free Q-module on P^1(Z/N) modulo the two-term
and three-term relations of Manin; every generator carries a sparse expression
over a chosen quotient basis, and a symbol's value phi({inf} - {r}) at a cusp
r is summed along the continued fraction of r (the Manin trick).  Operators
(the sign involution, and T_ell in hecke) are lists of sparse rows.  The
generator indexed by (c:d), with SL_2(Z) lift g having bottom row (c,d),
stands for the divisor {g.0}-{g.inf}.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import LevelTooLarge
from .linalg import echelon, exact
from .primes import divisors, euler_phi, prime_factors

INFINITY = math.inf

MAX_INDEX = 20000


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
            for g in divisors(N)[1:-1]:
                self._list += [(g, v) for v in range(N)
                               if math.gcd(v, g) == 1 and self.normalize(g, v) == (g, v)]
        self._index = {r: i for i, r in enumerate(self._list)}

    def normalize(self, u: int, v: int):
        """Canonical form of (u:v), or None if the pair is not primitive mod N.

        That is (g, v') with g = gcd(u, N) and v' the least of v t mod N over
        the units t = 1 + k N/g that fix g, after scaling u to g.
        """
        N = self.N
        if N == 1:
            return (0, 0)
        u %= N
        v %= N
        if u == 0:
            return (0, 1) if math.gcd(v, N) == 1 else None
        g = math.gcd(u, N)
        if math.gcd(g, v) > 1:
            return None
        # with s = (u/g)^-1 mod M, the units t = 1 + kM send s' v, for any unit
        # lift s' of s, onto exactly the w = s v mod M that are coprime to g
        # (CRT, one prime of N at a time), so v' is the least such w
        M = N // g
        w = pow(u // g, -1, M) * v % M
        while math.gcd(w, g) > 1:
            w += M
        return (g, w)

    def index(self, u: int, v: int) -> int:
        r = self.normalize(u, v)
        if r is None:
            raise ValueError(f"({u}:{v}) is not primitive mod {self.N}")
        return self._index[r]

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]


# --- standard index, elliptic point and cusp counting for X_0(N) ---


def psi_index(N: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z)."""
    out = N
    for p, _ in prime_factors(N):
        out = out // p * (p + 1)
    return out


def cusp_count(N: int) -> int:
    return sum(euler_phi(math.gcd(d, N // d)) for d in divisors(N))


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


def quotient_dimension(N: int) -> int:
    """2g + c - 1, the dimension of the Manin-symbol quotient at level N."""
    return 2 * genus_x0(N) + cusp_count(N) - 1 if N > 1 else 0


# --- cusps ---


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


def _indices(xs, bound) -> bool:
    """Every entry is an int in range(bound)."""
    return all(type(x) is int and 0 <= x < bound for x in xs)


class ManinSymbolSpace:
    """Quotient presentation of the weight-2 modular symbols on Gamma_0(N)."""

    def __init__(self, N, p1, basis, expressions, sigma, tau):
        self.N = N
        self.p1 = p1
        self.basis = basis          # P^1 indices of the free generators
        self.expressions = expressions  # per P^1 index: sorted (coordinate, value) pairs, values in the exact format
        self.sigma = sigma          # index action of the order-2 relation matrix
        self.tau = tau              # index action of the order-3 relation matrix
        self.dimension = len(basis)
        self._involution = None

    def involution_index(self, i: int) -> int:
        c, d = self.p1[i]
        return self.p1.index(-c, d)

    def involution_matrix(self):
        """Sparse rows of the sign involution on basis coordinates, one per basis generator."""
        if self._involution is None:
            self._involution = [self.coordinate_row([self.involution_index(b)]) for b in self.basis]
        return self._involution

    def coordinate_row(self, indices):
        """Sparse basis coordinates {coordinate: value} of the sum of the generators at these P^1 indices."""
        row = {}
        for i in indices:
            for t, c in self.expressions[i]:
                row[t] = row.get(t, 0) + c
        return {t: c for t, c in row.items() if c}

    def presents_quotient(self) -> bool:
        """Exact certificate that the expressions are the quotient map of build_space.

        sigma and tau must be permutations matching the relation matrices on
        P^1 (by the cross-product test: primitive (c:d) = (c':d') iff
        c d' = c' d mod N), every two-term relation must vanish (the two
        expressions of a sigma-pair are each other's negation, entry by entry,
        as build_space writes them) and so must every three-term relation, each
        basis generator's expression must be its own unit coordinate, and the
        dimension must be 2g + c - 1.  The map then factors through the
        quotient and sends the basis to the unit vectors of a space of the
        quotient's dimension, so it is the one quotient map.  Every index must
        be an int in range, so that evaluating the map cannot fail.
        """
        N, p1, sigma, tau = self.N, self.p1, self.sigma, self.tau
        expressions, dim = self.expressions, self.dimension
        m = len(p1)
        if not (len(expressions) == len(sigma) == len(tau) == m == len(set(sigma)) == len(set(tau))
                and _indices(sigma, m) and _indices(tau, m) and _indices(self.basis, m)
                and _indices((t for e in expressions for t, _ in e), dim)):
            return False
        for (c, d), i, j in zip(p1, sigma, tau):
            (c1, d1), (c2, d2) = p1[i], p1[j]
            # against (d : -c) and (d : -c-d), the images under the order-2 and order-3 matrices
            if (d * d1 + c * c1) % N or (d * d2 + (c + d) * c2) % N:
                return False
        if dim != quotient_dimension(N) or any(expressions[b] != ((t, 1),) for t, b in enumerate(self.basis)):
            return False
        for i, j in enumerate(sigma):
            if i <= j and expressions[j] != tuple((t, -c) for t, c in expressions[i]):
                return False
        for i, j in enumerate(tau):
            k = tau[j]
            if i <= j and i <= k and self.coordinate_row([i, j, k]):  # one test per tau-orbit
                return False
        return True


def check_level(N: int) -> None:
    """Refuse a level whose index psi(N) exceeds MAX_INDEX."""
    if N > MAX_INDEX:  # psi(N) >= N; checked first so a huge N is never factored
        raise LevelTooLarge(f"level {N} exceeds the index bound {MAX_INDEX}")
    if psi_index(N) > MAX_INDEX:
        raise LevelTooLarge(f"index {psi_index(N)} of Gamma_0({N}) exceeds bound {MAX_INDEX}")


def build_space(N: int) -> ManinSymbolSpace:
    """Construct the Manin-symbol presentation at level N.

    Two-term relations are folded in combinatorially (they pair generators up
    to sign); the remaining three-term relations go through linalg.echelon,
    the sparse elimination over Q.
    """
    if N < 1:
        raise ValueError("level must be positive")
    check_level(N)
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

    var_expr = {v: ((pos[v], 1),) for v in free}
    for v, row in pivots.items():
        var_expr[v] = tuple(sorted((pos[k], c) for k, c in row.items()))
    expressions = []
    for i in range(m):
        if zero[i]:
            expressions.append(())
        else:
            base = var_expr[rep[i]]
            expressions.append(base if rep_sign[i] == 1 else tuple((t, -c) for t, c in base))

    expected = quotient_dimension(N)
    if dim != expected:
        raise RuntimeError(f"dimension {dim} at level {N} disagrees with 2g+c-1 = {expected}")

    return ManinSymbolSpace(N, p1, free, expressions, sigma, tau)


class ModularSymbol:
    """Rational modular symbol stored as coordinates over the quotient basis."""

    def __init__(self, space: ManinSymbolSpace, coords, sign=None):
        self.space = space
        self.coords = tuple(exact(Fraction(c)) for c in coords)
        if len(self.coords) != space.dimension:
            raise ValueError("coordinate length does not match space dimension")
        self.sign = sign
        self._generator_values = None
        self._cusp_memo = {}  # u*N + v -> value on (u:v), filled as cusps are evaluated
        self._is_plus = None

    def __rmul__(self, scalar):
        scalar = exact(Fraction(scalar))
        out = ModularSymbol(self.space, [scalar * c for c in self.coords], self.sign)
        if self._generator_values is not None:  # scaled along, not summed over P^1 again
            out._generator_values = tuple(exact(scalar * v) for v in self._generator_values)
        return out

    # -- values --

    def generator_values(self):
        """Values on every Manin generator (index-aligned with P^1), each an int when integral, else a Fraction."""
        if self._generator_values is None:
            coords = self.coords
            self._generator_values = tuple(exact(sum(c * coords[t] for t, c in expr))
                                           for expr in self.space.expressions)
        return self._generator_values

    def value_infinity_minus(self, r):
        """phi({inf} - {r}) by the Manin trick.

        The continued fraction of r is walked inline: the path matrices joining
        consecutive convergents to infinity have bottom rows (q_k, +-q_{k-1}),
        and their generator values are summed.  An int when integral, a
        Fraction otherwise (0 at infinity), so an int for an integral symbol.
        Each symbol memoizes its value per (u mod N, v mod N), so P^1
        normalization runs once per pair it meets.
        """
        num, den = as_cusp(r)
        memo = self._cusp_memo
        N = self.space.N
        total = 0
        q_km2, q_km1 = 1, 0  # q_{-2}, q_{-1}
        sign = -1  # the sign of q_{k-1} in the bottom row alternates, starting at k = 0
        while den:
            digit = num // den
            num, den = den, num - digit * den
            q_k = digit * q_km1 + q_km2
            u, v = q_k % N, sign * q_km1 % N
            value = memo.get(u * N + v)
            if value is None:
                value = memo[u * N + v] = self.generator_values()[self.space.p1.index(u, v)]
            total += value
            q_km2, q_km1 = q_km1, q_k
            sign = -sign
        return exact(total)

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

    def __repr__(self):
        return f"ModularSymbol(level={self.space.N}, coords={self.coords})"

