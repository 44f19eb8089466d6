"""Finite-level group-ring calculus and Iwasawa mu/lambda invariants.

Elements of K[G_n] (G_n cyclic of order p^n, generated by the image gamma of
sigma_{1+p}) are stored as coefficient arrays on powers of gamma.  The
invariants are those of the coefficients in the T = gamma - 1 basis, but they
are read without building that basis: the binomial change of basis gamma ->
1 + T is unitriangular over Z, so mu is the least valuation of the gamma-
coefficients, and lambda is the first nonzero T-coefficient of their Taylor
shift mod p, whose base-p digits Lucas's theorem lets us find one at a time,
top digit first.  Elements are exact: an element stores its coefficients as
one tuple of integers over a common denominator.  No p-adic kind is needed,
as a stabilized element is the exact element built from an integer lift of
alpha^{-1} (elements.MazurTateTower.stabilized).

The generator is fixed, so a layer is just (p, n).  The raw values that feed
it (elements.raw_mazur_tate) are a list indexed by the units a mod p^{n+1};
the units w (1+p)^k, w a Teichmuller lift, add up to the coefficient of
gamma^k (elements.walk_levels).
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import NotAGenerator, ZeroElement
from .primes import int_valuation, require_odd_prime


class GroupLevel(namedtuple("GroupLevel", "p n")):
    """Level-n layer: G_n cyclic of order p^n with gamma = image of sigma_{1+p}."""

    __slots__ = ()

    def __new__(cls, p: int, n: int):
        require_odd_prime(p)
        if n < 0:
            raise ValueError("level must be nonnegative")
        return super().__new__(cls, p, n)

    @property
    def order(self) -> int:
        return self.p**self.n

    def below(self) -> "GroupLevel":
        if self.n == 0:
            raise ValueError("no layer below level 0")
        return GroupLevel(self.p, self.n - 1)

    def above(self) -> "GroupLevel":
        return GroupLevel(self.p, self.n + 1)


def _taylor_shift_by_one(coeffs):
    """Coefficients of f(x+1) from those of f(x), in-place Horner additions."""
    c = list(coeffs)
    m = len(c)
    for i in range(m - 1):
        for j in range(m - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _lambda_mod_p(coeffs, p: int) -> int:
    """Least k with a nonzero coefficient of f(x+1) mod p, for len(coeffs) = p^n
    and coeffs not all divisible by p; found by descent on the base-p digits of k.

    By Lucas's theorem C(i, k) = prod_d C(i_d, k_d) mod p over the base-p
    digits.  Cut the coefficients into p blocks by the top digit of i, B_0 ..
    B_{p-1}, each of length p^{n-1}; the shift is then the p-point shift of the
    block polynomial F(y) = sum_j B_j y^j followed by the shift of length
    p^{n-1} on each of its coefficients g_t = sum_{j >= t} C(j, t) B_j, and the
    latter is invertible.  So the top digit of k is the least t with g_t != 0,
    and the lower digits are those of g_t.  Each g_t is the value at 1 of the
    t-th quotient of F by y - 1 (synthetic division, in place), so finding the
    top digit t takes (p - 1) + ... + (p - 1 - t) block additions, at most
    about p^{n+1}/2 residue additions over all digits.
    """
    c = [x % p for x in coeffs]
    lam = 0
    m = len(c)
    while m > 1:
        m //= p
        blocks = [c[j:j + m] for j in range(0, len(c), m)]
        t = 0
        while True:
            for j in range(len(blocks) - 2, -1, -1):
                blocks[j] = [(x + y) % p for x, y in zip(blocks[j], blocks[j + 1])]
            if any(blocks[0]):
                break
            del blocks[0]
            t += 1
        lam += t * m
        c = blocks[0]
    return lam


IwasawaInvariants = namedtuple("IwasawaInvariants", "mu lam")


class GroupRingElement:
    """Element of K[G_n] as coefficients c_0 .. c_{p^n - 1} on gamma^0 .. gamma^{p^n - 1}.

    They are stored as one tuple ``ints`` over a common denominator: c_i =
    ints[i] / den with den > 0 and gcd(den, ints) = 1, so equal elements
    store equal integers.  ``coeffs`` rebuilds the Fractions.
    """

    __slots__ = ("level", "ints", "den")

    def __init__(self, level: GroupLevel, coeffs):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(coeffs) != level.order:
            raise ValueError(f"need exactly {level.order} coefficients, got {len(coeffs)}")
        den = math.lcm(*(c.denominator for c in coeffs))
        F = self._of(level, [c.numerator * (den // c.denominator) for c in coeffs], den)
        self.level, self.ints, self.den = F.level, F.ints, F.den

    @classmethod
    def _of(cls, level: GroupLevel, ints, den=1) -> "GroupRingElement":
        """ints over den, reduced to gcd 1."""
        g = math.gcd(den, *ints)
        if g != 1:
            ints, den = [b // g for b in ints], den // g
        F = cls.__new__(cls)
        F.level, F.ints, F.den = level, tuple(ints), den
        return F

    def _like(self, ints, level: GroupLevel | None = None) -> "GroupRingElement":
        return GroupRingElement._of(level or self.level, ints, self.den)

    # -- constructors --

    @classmethod
    def zero(cls, level: GroupLevel) -> "GroupRingElement":
        return cls._of(level, [0] * level.order)

    @classmethod
    def identity(cls, level: GroupLevel) -> "GroupRingElement":
        return cls._of(level, [1] + [0] * (level.order - 1))

    @classmethod
    def from_t_coefficients(cls, level: GroupLevel, t_coeffs) -> "GroupRingElement":
        """The element sum_k t_k T^k, T = gamma - 1.

        Its gamma^j coefficient is (-1)^j sum_k C(k, j) (-1)^k t_k: the Taylor
        shift of ``t_coefficients`` between two sign alternations.
        """
        t = cls(level, t_coeffs)
        shifted = _taylor_shift_by_one([-b if k % 2 else b for k, b in enumerate(t.ints)])
        return t._like([-b if j % 2 else b for j, b in enumerate(shifted)])

    # -- basic structure --

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(b, self.den) for b in self.ints)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if other.level != self.level:
            raise ValueError("levels differ")
        den = math.lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        return self._of(self.level, [a * u + b * v for a, b in zip(self.ints, other.ints)], den)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + -other

    def __neg__(self):
        return self._like([-b for b in self.ints])

    def scale(self, scalar) -> "GroupRingElement":
        """scalar * self, for a rational scalar."""
        scalar = Fraction(scalar)
        return self._of(self.level, [b * scalar.numerator for b in self.ints], self.den * scalar.denominator)

    def augmentation(self) -> Fraction:
        return Fraction(sum(self.ints), self.den)

    # -- the T-basis and invariants --

    def t_coefficients(self):
        """Coefficients of F as a polynomial in T = gamma - 1 of degree < p^n.

        a_k = sum_i C(i,k) c_i, computed exactly as the Taylor shift gamma ->
        1 + T by Horner's scheme on ``ints``.  With the signs of c_i and a_k
        alternated it is the inverse transform (see ``from_t_coefficients``).
        That is p^n(p^n - 1)/2 big-integer additions; ``iwasawa_invariants``
        does not need them.
        """
        return list(self._like(_taylor_shift_by_one(self.ints)).coeffs)

    def iwasawa_invariants(self) -> IwasawaInvariants:
        """mu = min ord_p over T-coefficients, lambda = least index attaining it.

        Both are read off ``ints``.  The change of basis to T is unitriangular
        over Z, so it keeps the least valuation v of the ints; mu is
        v - ord_p(den), and lambda is the first nonzero coefficient of the
        Taylor shift of ints / p^v mod p, read digit by digit
        (``_lambda_mod_p``) without forming the shift.  So both depend only
        on the ints mod p^(v+1) and on ord_p(den).
        """
        if self.is_zero():
            raise ZeroElement("invariants of the zero element are undefined")
        p = self.level.p
        v = int_valuation(math.gcd(*self.ints), p)
        unit = p**v
        mu = v - int_valuation(self.den, p)
        return IwasawaInvariants(mu, _lambda_mod_p([b // unit for b in self.ints], p))

    # -- maps between layers --

    def corestriction(self) -> "GroupRingElement":
        """Trace to the layer above: gamma_{n-1}^j maps to the sum of its p preimages."""
        return self._like(self.ints * self.level.p, self.level.above())

    def project(self) -> "GroupRingElement":
        """Natural projection to the layer below, accumulating coefficients."""
        stride = self.level.order // self.level.p
        return self._like([sum(self.ints[j::stride]) for j in range(stride)], self.level.below())

    def reindexed_by_generator_power(self, t: int) -> "GroupRingElement":
        """Coefficients with respect to gamma' = gamma^t (t coprime to p)."""
        m = self.level.order
        if self.level.n >= 1 and math.gcd(t, self.level.p) != 1:
            raise NotAGenerator(f"gamma^{t} does not generate a group of order {m}")
        return self._like([self.ints[j * t % m] for j in range(m)])

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (self.level, self.ints, self.den) == (other.level, other.ints, other.den)

    def __repr__(self):
        return f"GroupRingElement(p={self.level.p}, n={self.level.n}, coeffs={self.coeffs})"


def invariants_with_generator(F: GroupRingElement, t: int) -> IwasawaInvariants:
    """Invariants computed with respect to the alternative generator gamma^t."""
    return F.reindexed_by_generator_power(t).iwasawa_invariants()


SumCancellationReport = namedtuple(
    "SumCancellationReport", "hypothesis_met sum_invariants left_invariants right_invariants conclusion_holds")


def sum_cancellation_check(F1: GroupRingElement, F2: GroupRingElement) -> SumCancellationReport:
    """Checks the drop-in-lambda implication for a sum.

    Whenever lambda(F1+F2) < min(lambda(F1), lambda(F2)), the leading terms
    must have cancelled p-adically, forcing mu(F1+F2) > mu(F1) = mu(F2) and
    lambda(F1) = lambda(F2).
    """
    total = F1 + F2
    if total.is_zero():
        raise ZeroElement("F1 + F2 = 0 has no invariants")
    inv1 = F1.iwasawa_invariants()
    inv2 = F2.iwasawa_invariants()
    inv_sum = total.iwasawa_invariants()
    met = inv_sum.lam < min(inv1.lam, inv2.lam)
    if not met:
        return SumCancellationReport(False, inv_sum, inv1, inv2, None)
    holds = inv_sum.mu > inv1.mu and inv1.mu == inv2.mu and inv1.lam == inv2.lam
    return SumCancellationReport(True, inv_sum, inv1, inv2, holds)
