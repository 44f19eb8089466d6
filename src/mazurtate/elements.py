"""Mazur-Tate elements of a modular symbol, p-stabilization, norm relations.

The levels of one symbol at p are walked once, upward (walk_levels); one
MazurTateTower per (symbol, p) stores what the walk yields up to n_max, and
the module-level functions are thin calls into it.  level_rows reads the
per-level invariants off a tower, as `analyze` and `invariants` report them.
Every element is exact.  A stabilized element is theta_n - a S_n for an
integer a = alpha^{-1} mod p^P, where MazurTateTower.stabilized_precision
computes P from the exact tower; its invariants are those of
theta_n - alpha^{-1} S_n, and it is built by one route, which an exact norm
relation certifies.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import BoundExceeded, ZeroElement
from .groupring import GroupLevel, GroupRingElement
from .padics import valuation
from .primes import int_valuation

MAX_LAYER_DEGREE = 10_000  # p^n_max above this is refused before any evaluation
MAX_WALKED_LEVEL = 100_000  # so is p^(n_max+1), the modulus of the top level of cusps walked


def raw_mazur_tate(sym, p: int, n: int) -> list:
    """Level-n raw values: entry a is phi({inf}-{a/p^n}) at each unit a mod p^n, None elsewhere (n >= 1).

    The level is one call of sym.values_at.  If sym also has is_plus() and
    that exact test holds, only a < p^n/2 is evaluated and the value fills a
    and p^n - a, since phi({inf}-{-a/q}) = phi({inf}-{a/q}) and z -> z+1
    lies in Gamma_0(N).  Every other symbol is evaluated at every unit a.
    """
    if n < 1:
        raise ValueError("raw elements start at level 1")
    q = p**n
    is_plus = getattr(sym, "is_plus", None)
    half = is_plus is not None and is_plus()
    units = [a for a in range(1, q // 2 + 1 if half else q) if a % p]
    values = [None] * q
    for a, v in zip(units, sym.values_at(q, units)):
        values[a] = values[q - a if half else a] = v
    return values


def check_levels(p: int, n_max: int):
    """Refuse n_max < 0, p^n_max above MAX_LAYER_DEGREE and p^(n_max+1) above MAX_WALKED_LEVEL."""
    if n_max < 0:
        raise ValueError("levels start at 0")
    # 2^bit_length exceeds each bound, so capping the exponent there is exact
    # for p >= 2 and no huge power of p is formed for a huge n_max
    if p ** min(n_max, MAX_LAYER_DEGREE.bit_length()) > MAX_LAYER_DEGREE:
        raise BoundExceeded(f"p^n_max = {p}^{n_max} exceeds the layer-degree bound {MAX_LAYER_DEGREE}")
    if p ** min(n_max + 1, MAX_WALKED_LEVEL.bit_length()) > MAX_WALKED_LEVEL:
        raise BoundExceeded(f"p^(n_max+1) = {p}^{n_max + 1} exceeds the walked-level bound {MAX_WALKED_LEVEL}")


def walk_levels(sym, p: int, n_max: int):
    """Walk the cusps of one symbol at p once, upward: yield (below, top, theta_n, S_n), n = 0 .. n_max.

    n_max is checked (check_levels) before any evaluation.  below and top are
    the raw values of levels n and n+1 (raw_mazur_tate); below is seeded by
    [phi({inf}-{0})], so below[a % p^n] = phi({inf}-{a/p^n}) at every level,
    and at most two consecutive raw levels are alive.  The units mod p^(n+1)
    sent to gamma^k of the degree-p^n layer are w (1+p)^k, w running over the
    Teichmuller lifts b^(p^n) of b = 1 .. p - 1, so theta_n is summed lift by
    lift over the p^n powers of 1 + p and no discrete logarithm is taken.  S_n
    sums phi|[[p,0],[0,1]] over the same units: its value at a/p^(n+1) is
    phi({inf}-{a/p^n}) = below[a % p^n], as z -> z+1 lies in Gamma_0(N) and
    fixes infinity, so the norm relation S_n = cor(theta_{n-1}) also tests the
    walk's indexing.  Values are in the linalg.exact format (an int when
    integral), so for an integral symbol the sums run in ints.  sym needs
    values_at, and is_plus if a plus symbol is to be evaluated at half the
    cusps.
    """
    check_levels(p, n_max)
    below = sym.values_at(1, (0,))
    for n in range(n_max + 1):
        top = raw_mazur_tate(sym, p, n + 1)
        q, modulus = p**n, p ** (n + 1)
        gammas = [1]  # (1+p)^k mod p^(n+1), k < p^n
        for _ in range(q - 1):
            gammas.append(gammas[-1] * (1 + p) % modulus)
        theta, scaled = [0] * q, [0] * q
        for b in range(1, p):
            w = pow(b, q, modulus)
            theta = [t + top[w * g % modulus] for t, g in zip(theta, gammas)]
            scaled = [s + below[w * g % q] for s, g in zip(scaled, gammas)]
        level = GroupLevel(p, n)
        yield below, top, GroupRingElement(level, theta), GroupRingElement(level, scaled)
        below = top


class MazurTateTower:
    """theta_0 .. theta_{n_max} of one symbol at p and the sums S_n, from one walk_levels.

    S_n serves the stabilized element at every level, and the norm relation
    S_n = cor(theta_{n-1}) is checked exactly.  Only exact elements are
    stored, so a stabilized element can be built from a lift at any precision.
    """

    def __init__(self, sym, p: int, n_max: int):
        walk = walk_levels(sym, p, n_max)
        below, _, theta, scaled = next(walk)
        self.p, self.phi0 = p, below[0]
        self.thetas, self.scaled = [theta], [scaled]  # theta_n and S_n, exact
        for _, _, theta, scaled in walk:
            self.thetas.append(theta)
            self.scaled.append(scaled)

    def stabilized(self, inverse: int, n: int) -> GroupRingElement:
        """theta_n(phi) - inverse * S_n, the exact element standing for theta_n(phi^alpha), n >= 0.

        theta_n(phi^alpha) = theta_n(phi) - alpha^{-1} S_n is theta_n of
        phi^alpha = phi - alpha^{-1} phi|[[p,0],[0,1]]; for n >= 1 it equals
        theta_n(phi) - alpha^{-1} cor(theta_{n-1}(phi)), since
        S_n = cor(theta_{n-1}) (norm_relation).  inverse is any integer with
        inverse = alpha^{-1} mod p^P, P = stabilized_precision(a_p); the
        element then has the mu and lambda of theta_n(phi^alpha), whichever
        lift is taken (see stabilized_precision).
        """
        return self.thetas[n] - self.scaled[n].scale(inverse)

    def stabilized_precision(self, a_p: int) -> int:
        """P = max over n of 1 + min_k ord_p(N_k): every stabilized mu and lambda is certified mod p^P.

        Here theta_n = T / d_T and S_n = S / d_S over common denominators,
        (x_k, y_k) = (T_k d_S, S_k d_T) and N_k = p x_k^2 - a_p x_k y_k + y_k^2;
        the k-th coefficient of theta_n - alpha^{-1} S_n is (alpha x_k - y_k) / (alpha d_S d_T).
        With beta = p / alpha in pZ_p, (alpha x - y)(beta x - y) = p x^2 - a_p x y + y^2,
        a positive definite form as a_p^2 < 4p, so N_k is a nonzero integer unless
        x_k = y_k = 0, and ord_p(alpha x_k - y_k) <= ord_p(N_k), so the least of
        these valuations, v_n, is below P.  For an integer a = alpha^{-1} mod p^P
        the numerators x_k - a y_k of stabilized(a, n) agree with
        x_k - alpha^{-1} y_k mod p^P, so their least valuation is v_n too and
        their quotients by p^v_n agree mod p, as v_n + 1 <= P; the element's mu
        (v_n - ord_p(d_S d_T)) and lambda (read off those quotients mod p) are
        those of theta_n(phi^alpha).  min_k ord_p(N_k) is ord_p(gcd_k N_k); a
        level with theta_n = S_n = 0 is a ZeroElement.
        """
        p = self.p
        if a_p * a_p >= 4 * p:
            raise ValueError(f"a_p = {a_p} is outside the Hasse bound for p = {p}")
        precision = 1
        for n, (theta, scaled) in enumerate(zip(self.thetas, self.scaled)):
            pairs = ((t * scaled.den, s * theta.den) for t, s in zip(theta.ints, scaled.ints))
            g = math.gcd(*(p * x * x - a_p * x * y + y * y for x, y in pairs))
            if g == 0:
                raise ZeroElement(f"theta_{n} = S_{n} = 0: the stabilized element has no invariants")
            precision = max(precision, int_valuation(g, p) + 1)
        return precision

    def norm_relation(self, n: int) -> ResidualReport:
        """S_n = cor(theta_{n-1}), checked exactly over Q.

        With S_n = S / d_S and theta_{n-1} = T / d_T over common denominators,
        the k-th coefficient of the difference is
        (S_k d_T - T_(k mod p^(n-1)) d_S) / (d_S d_T); each floor is its exact
        ord_p, math.inf where it is 0, and the report passes when every one is.
        """
        if n < 1:
            raise ValueError("the norm relation compares levels n and n-1; need n >= 1")
        S, d_S = self.scaled[n].ints, self.scaled[n].den
        T, d_T = self.thetas[n - 1].ints, self.thetas[n - 1].den
        den = int_valuation(d_S * d_T, self.p)
        floors = tuple(int_valuation(s * d_T - T[k % len(T)] * d_S, self.p) - den for k, s in enumerate(S))
        return ResidualReport(n, all(f == math.inf for f in floors), floors)

    def theta0_identity(self, curve) -> bool:
        """Exact test of theta_0 = (a_p - eps - 1) phi({inf}-{0}) sigma_1."""
        expected = Fraction(theta0_interpolation_factor(curve, self.p)) * self.phi0
        return self.thetas[0].coeffs == (expected,)


def normalization_shift(scalar, p: int) -> int:
    """ord_p of the Neron scalar from hecke.normalize, 0 for None (cohomological mode): mu moves by this much."""
    return 0 if scalar is None else int(valuation(scalar, p))


def level_rows(tower: MazurTateTower, shift: int) -> list:
    """Per-level invariants of theta_0 .. theta_{n_max}, as a report's `per_level` rows.

    mu is mu_coh + shift, the operative normalization; is_maximal is lambda = p^n - 1, integral is mu >= 0.
    """
    rows = []
    for n, theta in enumerate(tower.thetas):
        inv = theta.iwasawa_invariants()
        mu = inv.mu + shift
        rows.append({"n": n, "mu_coh": inv.mu, "mu": mu, "lambda": inv.lam,
                     "is_maximal": inv.lam == tower.p**n - 1, "integral": mu >= 0})
    return rows


def mazur_tate(sym, p: int, n: int) -> GroupRingElement:
    """Level-n Mazur-Tate element (n >= 0) on the degree-p^n layer."""
    return MazurTateTower(sym, p, n).thetas[n]


def stabilized_mazur_tate(sym, inverse: int, p: int, n: int) -> GroupRingElement:
    """theta_n of the p-stabilized symbol, through a lift of alpha^{-1} (MazurTateTower.stabilized)."""
    return MazurTateTower(sym, p, n).stabilized(inverse, n)


class ResidualReport(namedtuple("ResidualReport", "level_n passed residual_valuation_floors")):
    """Exact ord_p of a residual, coefficient by coefficient (math.inf for a
    zero coefficient); passed when every coefficient is 0."""

    __slots__ = ()


def check_norm_relation(sym, p: int, n: int) -> ResidualReport:
    """The norm relation at level n, exactly over Q (MazurTateTower.norm_relation)."""
    if n < 1:
        raise ValueError("the norm relation compares levels n and n-1; need n >= 1")
    return MazurTateTower(sym, p, n).norm_relation(n)


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
