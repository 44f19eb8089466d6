"""Weight-2 modular symbols for Gamma_0(N) via Manin symbols.

The space is presented as the free Q-module on P^1(Z/N) modulo the two-term
and three-term relations of Manin; the plus quotient, which every command
works in, adds the relation x_(J i) = x_i of the sign involution J: (c:d) ->
(-c:d).  Every generator carries a sparse expression over a chosen quotient
basis (quotient_basis reads the full quotient's basis off the forward fold
alone), and a symbol's values phi({inf} - {a/q}) at a list of cusps are
summed along their continued fractions (the Manin trick) in one loop,
ModularSymbol.values_at.  P1List.index reads the index of a pair with a unit
first entry off a table of inverses built with the list, and normalizes only
the other pairs, so every stage takes the same route.  Operators (T_ell in
hecke) are lists of sparse rows.
The generator indexed by (c:d), with SL_2(Z) lift g having bottom row (c,d),
stands for the divisor {g.0}-{g.inf}.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import LevelTooLarge
from .linalg import echelon, exact, fold
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
        # u^-1 mod N at each unit u < N, 0 elsewhere; the index of each
        # non-unit pair met, keyed by u N + v with u, v reduced mod N
        self.inverses = [pow(u, -1, N) if math.gcd(u, N) == 1 else 0 for u in range(N)]
        self._memo = {}

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
        """The position of (u:v) in the list.

        A unit u gives (u:v) = (1 : v u^-1), at position 1 + v u^-1 mod N,
        read off the inverse table; a non-unit pair is normalized once and
        its position memoized.
        """
        N = self.N
        u %= N
        w = self.inverses[u]
        if w:
            return 1 + v * w % N
        key = u * N + v % N
        i = self._memo.get(key)
        if i is None:
            r = self.normalize(u, v)
            if r is None:
                raise ValueError(f"({u}:{v}) is not primitive mod {N}")
            i = self._memo[key] = self._index[r]
        return i

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


def plus_dimension(N: int) -> int:
    """g + c_J - 1, the dimension of the plus quotient at level N.

    The +1 part of J is g-dimensional on the cuspidal symbols, and
    (c_J - 1)-dimensional on the boundary, the degree-0 divisors on the cusp
    classes, which J permutes.  J sends the class keyed (d, x) (see cusps) to
    (d, -x), x a unit mod gcd(d, N/d), so c_J, the number of its orbits,
    counts x and -x once.
    """
    orbits = 0
    for d in divisors(N):
        units = euler_phi(math.gcd(d, N // d))
        orbits += units if units == 1 else units // 2  # -x = x only mod 1 and 2
    return genus_x0(N) + orbits - 1


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


def _involution(p1: P1List):
    """Index action of J: (c:d) -> (-c:d)."""
    return [p1.index(-c, d) for c, d in p1]


class ManinSymbolSpace:
    """Quotient presentation of the weight-2 modular symbols on Gamma_0(N), or of their plus quotient."""

    def __init__(self, N, p1, basis, expressions, plus=False):
        self.N = N
        self.p1 = p1
        self.basis = basis          # P^1 indices of the free generators
        self.expressions = expressions  # per P^1 index: sorted (coordinate, value) pairs, values in the exact format
        self.plus = plus            # whether x_(J i) = x_i is a relation too
        self.dimension = len(basis)

    def coordinate_row(self, indices):
        """Sparse basis coordinates {coordinate: value} of the sum of the generators at these P^1 indices."""
        row = {}
        for i in indices:
            for t, c in self.expressions[i]:
                row[t] = row.get(t, 0) + c
        return {t: c for t, c in row.items() if c}


def check_level(N: int) -> None:
    """Refuse a level whose index psi(N) exceeds MAX_INDEX."""
    if N > MAX_INDEX:  # psi(N) >= N; checked first so a huge N is never factored
        raise LevelTooLarge(f"level {N} exceeds the index bound {MAX_INDEX}")
    if psi_index(N) > MAX_INDEX:
        raise LevelTooLarge(f"index {psi_index(N)} of Gamma_0({N}) exceeds bound {MAX_INDEX}")


def _relations(N: int, plus: bool):
    """The relations at level N, with the two-term ones folded in.

    Two-term relations, and on the plus quotient x_(J i) = x_i, are folded in
    combinatorially: each <sigma, J>-orbit is one generator up to sign, or
    zero if its signs clash.  Returns (p1, zero, rep, rep_sign, rows): the
    generator at P^1 index i is zero, or rep_sign[i] times the generator
    rep[i], and rows holds the three-term relations, one per tau-orbit, in
    the generators i with rep[i] = i.
    """
    if N < 1:
        raise ValueError("level must be positive")
    check_level(N)
    p1 = P1List(N)
    m = len(p1)
    index = p1.index
    sigma = [index(d, -c) for c, d in p1]
    tau = [index(d, -c - d) for c, d in p1]

    # x + x.S = 0 and x = x.J: an orbit {i, Si, Ji, SJi} (J commutes with S)
    # folds onto its least index i with signs +, -, +, -, and dies if one of
    # its generators gets both signs (J is the identity on the full quotient)
    involution = _involution(p1) if plus else range(m)
    zero = [False] * m
    rep = list(range(m))
    rep_sign = [1] * m
    for i in range(m):
        if rep[i] < i:  # folded with a lesser index already
            continue
        j = involution[i]
        clash = sigma[i] in (i, j)  # i = Si, or Ji = Si and so i = SJi
        for k, sgn in ((i, 1), (sigma[i], -1), (j, 1), (sigma[j], -1)):
            zero[k] = clash
            rep[k] = i
            rep_sign[k] = sgn

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
            if not zero[j]:
                row[rep[j]] = row.get(rep[j], 0) + rep_sign[j]
        rows.append(row)
    return p1, zero, rep, rep_sign, rows


def _free_generators(N: int, plus: bool, zero, rep, pivots):
    """The generators that are neither zero, folded nor pivots, ascending,
    checked against the dimension of the quotient."""
    free = [v for v in range(len(rep)) if not zero[v] and rep[v] == v and v not in pivots]
    expected = plus_dimension(N) if plus else quotient_dimension(N)
    if len(free) != expected:
        formula = "g+c_J-1" if plus else "2g+c-1"
        raise RuntimeError(f"dimension {len(free)} at level {N} disagrees with {formula} = {expected}")
    return free


def build_space(N: int, plus: bool = True) -> ManinSymbolSpace:
    """Construct the presentation of the plus quotient at level N, or with
    plus=False of the full Manin-symbol quotient.

    The two-term relations, and x_(J i) = x_i, are folded in by _relations;
    the three-term rows go through linalg.echelon, the sparse elimination
    over Q.
    """
    p1, zero, rep, rep_sign, rows = _relations(N, plus)
    pivots = echelon(rows)
    free = _free_generators(N, plus, zero, rep, pivots)
    pos = {b: t for t, b in enumerate(free)}

    var_expr = {v: ((pos[v], 1),) for v in free}
    for v, row in pivots.items():
        var_expr[v] = tuple(sorted((pos[k], c) for k, c in row.items()))
    negated = {}  # one negated expression per representative, shared by its sign -1 generators
    expressions = []
    for i in range(len(p1)):
        if zero[i]:
            expressions.append(())
        elif rep_sign[i] == 1:
            expressions.append(var_expr[rep[i]])
        else:
            r = rep[i]
            if r not in negated:
                negated[r] = tuple((t, -c) for t, c in var_expr[r])
            expressions.append(negated[r])
    return ManinSymbolSpace(N, p1, free, expressions, plus)


def quotient_basis(N: int) -> list:
    """The basis of build_space(N, plus=False), from the forward fold alone.

    Back-substitution never changes the pivot set, so linalg.fold gives the
    same free generators as linalg.echelon; the dimension is checked against
    2g + c - 1 as in build_space.
    """
    _, zero, rep, _, rows = _relations(N, plus=False)
    return _free_generators(N, False, zero, rep, fold(rows))


class ModularSymbol:
    """Rational modular symbol stored as coordinates over the quotient basis."""

    def __init__(self, space: ManinSymbolSpace, coords, sign=None):
        self.space = space
        self.coords = tuple(exact(Fraction(c)) for c in coords)
        if len(self.coords) != space.dimension:
            raise ValueError("coordinate length does not match space dimension")
        self.sign = sign
        self._generator_values = None
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

    def values_at(self, q: int, nums) -> list:
        """phi({inf} - {a/q}) for each a in nums (q >= 0; q = 0 is infinity, where phi is 0).

        The Manin trick, one continued-fraction loop for every cusp: the path
        matrices joining consecutive convergents of a/q to infinity have
        bottom rows (q_k, +-q_{k-1}), and their generator values are summed.
        The digits come from (num, den), so the q_k are carried mod N only,
        and a/q need not be reduced (scaling num and den keeps every digit).
        A unit q_k reads its index off P1List.inverses inline, any other
        pair goes through P1List.index.  Each value is an int when integral,
        a Fraction otherwise, so an int for an integral symbol.
        """
        p1 = self.space.p1
        N, inverses, index = p1.N, p1.inverses, p1.index
        vals = self.generator_values()
        out = []
        for num in nums:
            den, total = q, 0
            q_km2, q_km1 = 1, 0  # q_{-2}, q_{-1} mod N
            sign = -1  # the sign of q_{k-1} in the bottom row alternates, starting at k = 0
            while den:
                digit = num // den
                num, den = den, num - digit * den
                u = (digit * q_km1 + q_km2) % N
                w = inverses[u]
                total += vals[1 + sign * q_km1 * w % N if w else index(u, sign * q_km1)]
                q_km2, q_km1 = q_km1, u
                sign = -sign
            out.append(exact(total))
        return out

    def value_infinity_minus(self, r):
        """phi({inf} - {r}): values_at for the one cusp r (0 at infinity)."""
        num, den = as_cusp(r)
        return self.values_at(den, (num,))[0]

    # -- sign involution --

    def is_plus(self) -> bool:
        """Exact J-invariance: the value on (c:d) equals the value on (-c:d) for every generator.

        Then phi({inf}-{-r}) = phi({inf}-{r}) for every cusp r.  Decided from
        the values alone, whatever the sign label says.
        """
        if self._is_plus is None:
            vals = self.generator_values()
            self._is_plus = all(v == vals[j] for v, j in zip(vals, _involution(self.space.p1)))
        return self._is_plus

    def __repr__(self):
        return f"ModularSymbol(level={self.space.N}, coords={self.coords})"

