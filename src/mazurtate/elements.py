"""Mazur-Tate elements of a modular symbol, p-stabilization, norm relations.

The raw values of level n are a dict {a: phi({inf}-{a/p^n})} keyed by the
units a mod p^n; theta_{n-1} is their image in the ring of the degree-p^(n-1)
layer, indexed by powers of gamma: the units are walked in generator order
(groupring.layer_units), so no discrete logarithm is taken.  One
MazurTateTower per (symbol, p) holds every level up to n_max; the
module-level functions are thin calls into it.
Stabilized elements are p-adic, residues at the precision of the unit root
alpha, and each is built by one route; the norm relation that
certifies the route is an exact identity over Q.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import BoundExceeded
from .groupring import GroupLevel, GroupRingElement, layer_units
from .padics import PAdic
from .primes import int_valuation
from .records import Record

DEFAULT_GUARD_DIGITS = 20
MAX_LAYER_DEGREE = 10_000  # p^n_max above this is refused before any evaluation
MAX_WALKED_LEVEL = 100_000  # so is p^(n_max+1), the modulus of the top level of cusps walked


def working_precision(n_max: int, mu_floor: int = 0) -> int:
    return n_max + abs(mu_floor) + DEFAULT_GUARD_DIGITS


def raw_mazur_tate(sym, p: int, n: int) -> dict:
    """Level-n raw values {a: phi({inf}-{a/p^n})} over the units a mod p^n (n >= 1).

    sym needs value_infinity_minus; if it also has is_plus() and that exact
    test holds, only a < p^n/2 is evaluated and the value at p^n - a is
    copied, since phi({inf}-{-a/q}) = phi({inf}-{a/q}) and z -> z+1 lies in
    Gamma_0(N).  Every other symbol is evaluated at every unit a.
    """
    if n < 1:
        raise ValueError("raw elements start at level 1")
    q = p**n
    is_plus = getattr(sym, "is_plus", None)
    if is_plus is not None and is_plus():
        values = {a: sym.value_infinity_minus((a, q)) for a in range(1, q // 2 + 1) if a % p}
        values.update([(q - a, v) for a, v in reversed(values.items())])
    else:
        values = {a: sym.value_infinity_minus((a, q)) for a in range(1, q) if a % p}
    return values


class MazurTateTower:
    """theta_0 .. theta_{n_max} of one symbol at p, each cusp evaluated once.

    The levels are walked upward with raw_mazur_tate, keeping at most two
    consecutive levels of raw values alive.  Beside theta_n, each layer keeps
    S_n, the exact divisor-level sums of phi|[[p,0],[0,1]]: its value at
    a/p^(n+1) is phi({inf}-{a/p^n}), which equals the level-n value at
    (a mod p^n)/p^n because z -> z+1 lies in Gamma_0(N) and fixes infinity.
    S_n serves the stabilized element at every level, and the norm relation
    S_n = cor(theta_{n-1}) is checked exactly.  Layer n sums the values at
    the units that groupring.layer_units sends to each gamma^k, while S_n
    looks the level below up at a mod p^n, so that check also tests the
    walk's indexing.  Values are in the
    linalg.exact format (an int when integral), so for an integral symbol
    the sums run in ints, and GroupRingElement keeps them as integers over
    one denominator.  Only exact elements are stored, so the stabilized
    elements can be rebuilt at any precision.  sym needs value_infinity_minus,
    and is_plus if a plus symbol is to be evaluated at half the cusps.
    """

    def __init__(self, sym, p: int, n_max: int):
        if n_max < 0:
            raise ValueError("levels start at 0")
        # 2^bit_length exceeds each bound, so capping the exponent there is exact
        # for p >= 2 and no huge power of p is formed for a huge n_max
        if p ** min(n_max, MAX_LAYER_DEGREE.bit_length()) > MAX_LAYER_DEGREE:
            raise BoundExceeded(f"p^n_max = {p}^{n_max} exceeds the layer-degree bound {MAX_LAYER_DEGREE}")
        if p ** min(n_max + 1, MAX_WALKED_LEVEL.bit_length()) > MAX_WALKED_LEVEL:
            raise BoundExceeded(f"p^(n_max+1) = {p}^{n_max + 1} exceeds the walked-level bound {MAX_WALKED_LEVEL}")
        self.p = p
        self.phi0 = sym.value_infinity_minus(0)
        self.thetas = []  # theta_n, exact
        self.scaled = []  # S_n per layer, the sums of phi|[[p,0],[0,1]], exact
        below = None
        for n in range(n_max + 1):
            top = raw_mazur_tate(sym, p, n + 1)
            level = GroupLevel(p, n)
            units = layer_units(p, n)
            q = p**n
            self.thetas.append(GroupRingElement(level, [sum(top[a] for a in us) for us in units]))
            self.scaled.append(GroupRingElement(
                level, [sum(below[a % q] for a in us) for us in units] if n else [(p - 1) * self.phi0]))
            below = top

    def stabilized(self, alpha: PAdic, n: int) -> GroupRingElement:
        """theta_n(phi^alpha) = theta_n(phi) - alpha^{-1} S_n for every n >= 0.

        This is theta_n of phi^alpha = phi - alpha^{-1} phi|[[p,0],[0,1]]; for
        n >= 1 it equals theta_n(phi) - alpha^{-1} cor(theta_{n-1}(phi)), since
        S_n = cor(theta_{n-1}) (norm_relation).  Both exact elements are taken
        mod p^precision, the precision of alpha, and combined as residues.
        """
        precision = alpha.precision
        return (self.thetas[n].to_padic(precision)
                - self.scaled[n].to_padic(precision).scale(alpha.inverse()))

    def norm_relation(self, alpha: PAdic, n: int) -> ResidualReport:
        """S_n = cor(theta_{n-1}), checked exactly over Q.

        The two routes to theta_n(phi^alpha) differ by alpha^{-1} times
        d = S_n - cor(theta_{n-1}); alpha is a unit, so each floor
        min(ord_p(d_k), precision) is the one their p-adic comparison gives.
        With S_n = S / d_S and theta_{n-1} = T / d_T over common denominators,
        d_k = (S_k d_T - T_(k mod p^(n-1)) d_S) / (d_S d_T) exactly.
        """
        if n < 1:
            raise ValueError("the norm relation compares levels n and n-1; need n >= 1")
        alpha.inverse()  # refuses a non-unit alpha
        p, precision = self.p, alpha.precision
        S, d_S = self.scaled[n].ints, self.scaled[n].den
        T, d_T = self.thetas[n - 1].ints, self.thetas[n - 1].den
        q = len(T)
        den = int_valuation(d_S * d_T, p)
        floors = tuple(min(int_valuation(s * d_T - T[k % q] * d_S, p) - den, precision) for k, s in enumerate(S))
        return ResidualReport(n, all(f == precision for f in floors), floors)

    def theta0_identity(self, curve) -> bool:
        """Exact test of theta_0 = (a_p - eps - 1) phi({inf}-{0}) sigma_1."""
        expected = Fraction(theta0_interpolation_factor(curve, self.p)) * self.phi0
        return self.thetas[0].coeffs == (expected,)


def mazur_tate(sym, p: int, n: int) -> GroupRingElement:
    """Level-n Mazur-Tate element (n >= 0) on the degree-p^n layer."""
    return MazurTateTower(sym, p, n).thetas[n]


def stabilized_mazur_tate(sym, alpha: PAdic, p: int, n: int) -> GroupRingElement:
    """theta_n of the p-stabilized symbol (MazurTateTower.stabilized)."""
    return MazurTateTower(sym, p, n).stabilized(alpha, n)


class ResidualReport(Record, frozen=True):
    """Valuation floors of a residual, coefficient by coefficient, capped at the
    working precision; passed when every coefficient vanishes to precision."""

    level_n: int
    passed: bool
    residual_valuation_floors: tuple


def check_norm_relation(sym, alpha: PAdic, p: int, n: int) -> ResidualReport:
    """The norm relation at level n, exactly over Q (MazurTateTower.norm_relation)."""
    if n < 1:
        raise ValueError("the norm relation compares levels n and n-1; need n >= 1")
    return MazurTateTower(sym, p, n).norm_relation(alpha, n)


def theta0_interpolation_factor(curve, p: int) -> int:
    """a_p - eps(p) - 1 with eps(p) = 1 at good reduction and 0 at bad.

    theta_0 equals this factor times phi({inf}-{0}) sigma_1; at good primes it
    is the familiar a_p - 2.
    """
    eps = 1 if curve.conductor % p != 0 else 0
    return curve.a_ell(p) - eps - 1


def check_theta0_identity(sym, curve, p: int) -> bool:
    """Exact test of theta_0 = (a_p - eps - 1) phi({inf}-{0}) sigma_1."""
    return MazurTateTower(sym, p, 0).theta0_identity(curve)
