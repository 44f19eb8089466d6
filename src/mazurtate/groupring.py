"""Finite-level group-ring calculus and Iwasawa mu/lambda invariants.

Elements of K[G_n] (G_n cyclic of order p^n, generated by the image gamma of
sigma_{1+p}) are stored as coefficient arrays on powers of gamma.  The
invariants are those of the coefficients in the T = gamma - 1 basis, but they
are read without building that basis: the binomial change of basis gamma ->
1 + T is unitriangular over Z, so mu is the least valuation of the gamma-
coefficients, and lambda is the first nonzero T-coefficient of their Taylor
shift mod p, whose base-p digits Lucas's theorem lets us find one at a time,
top digit first.  Coefficients are uniformly exact rationals or uniformly
precision-tracked p-adics; the two kinds never mix.

The generator is fixed, so a layer is just (p, n).  The raw values that feed
it (elements.raw_mazur_tate) are a dict keyed by the units a mod p^{n+1};
layer_units says which of them add up to the coefficient of gamma^k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAGenerator, PrecisionInsufficient, ZeroElement
from .padics import PAdic
from .primes import int_valuation, require_odd_prime


def layer_units(p: int, n: int):
    """The units mod p^{n+1} by their image in the level-n layer: entry k lists
    omega(b) (1+p)^k mod p^{n+1} for b = 1 .. p - 1, the units sent to gamma^k.

    omega(b) = b^{p^n} mod p^{n+1} is the Teichmuller lift of b, so each unit
    in entry k is sent to gamma^k; no discrete logarithm is taken.
    """
    modulus = p ** (n + 1)
    lifts = [pow(b, p**n, modulus) for b in range(1, p)]
    out = []
    g = 1
    for _ in range(p**n):
        out.append([w * g % modulus for w in lifts])
        g = g * (1 + p) % modulus
    return out


@dataclass(frozen=True)
class GroupLevel:
    """Level-n layer: G_n cyclic of order p^n with gamma = image of sigma_{1+p}."""

    p: int
    n: int

    def __post_init__(self):
        require_odd_prime(self.p)
        if self.n < 0:
            raise ValueError("level must be nonnegative")

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


@dataclass(frozen=True)
class IwasawaInvariants:
    mu: int
    lam: int

    def as_tuple(self):
        return (self.mu, self.lam)


class GroupRingElement:
    """Element of K[G_n] as coefficients on gamma^0 .. gamma^{p^n - 1}."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: GroupLevel, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != level.order:
            raise ValueError(f"need exactly {level.order} coefficients, got {len(coeffs)}")
        kinds = {isinstance(c, PAdic) for c in coeffs}
        if len(kinds) > 1:
            raise ValueError("rational and p-adic coefficients must not mix")
        if not kinds.pop():
            coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        self.level = level
        self.coeffs = coeffs

    # -- constructors --

    @classmethod
    def zero(cls, level: GroupLevel) -> "GroupRingElement":
        return cls(level, [Fraction(0)] * level.order)

    @classmethod
    def identity(cls, level: GroupLevel) -> "GroupRingElement":
        c = [Fraction(0)] * level.order
        c[0] = Fraction(1)
        return cls(level, c)

    @classmethod
    def norm_element(cls, level: GroupLevel) -> "GroupRingElement":
        return cls(level, [Fraction(1)] * level.order)

    @classmethod
    def from_t_coefficients(cls, level: GroupLevel, t_coeffs) -> "GroupRingElement":
        """The element sum_k t_k T^k, T = gamma - 1.

        Its gamma^j coefficient is (-1)^j sum_k C(k, j) (-1)^k t_k, so the
        inverse transform is ``t_coefficients`` between two sign alternations.
        P-adic results are at the least precision of the input.
        """
        alternated = cls(level, [-c if k % 2 else c for k, c in enumerate(t_coeffs)])
        return cls(level, [-c if j % 2 else c for j, c in enumerate(alternated.t_coefficients())])

    # -- basic structure --

    @property
    def is_padic(self) -> bool:
        return isinstance(self.coeffs[0], PAdic) if self.coeffs else False

    def is_zero(self) -> bool:
        if self.is_padic:
            return all(c.is_zero_to_precision for c in self.coeffs)
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if other.level != self.level:
            raise ValueError("levels differ")
        return GroupRingElement(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        if other.level != self.level:
            raise ValueError("levels differ")
        return GroupRingElement(self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return GroupRingElement(self.level, [-c for c in self.coeffs])

    def scale(self, scalar) -> "GroupRingElement":
        return GroupRingElement(self.level, [scalar * c for c in self.coeffs])

    def to_padic(self, precision: int) -> "GroupRingElement":
        if self.is_padic:
            return GroupRingElement(self.level, [c.at_precision(min(precision, c.precision)) for c in self.coeffs])
        p = self.level.p
        return GroupRingElement(self.level, [PAdic.from_rational(c, p, precision) for c in self.coeffs])

    def augmentation(self):
        total = self.coeffs[0]
        for c in self.coeffs[1:]:
            total = total + c
        return total

    # -- the T-basis and invariants --

    def _integer_coefficients(self):
        """Integers B_i and a scale: c_i = B_i / den exactly, den the lcm of the
        denominators; or, for p-adic coefficients, c_i = B_i mod p^prec at the
        least precision prec."""
        if self.is_padic:
            prec = min(c.precision for c in self.coeffs)
            modulus = self.level.p**prec
            return [c.residue % modulus for c in self.coeffs], prec
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    def t_coefficients(self):
        """Coefficients of F as a polynomial in T = gamma - 1 of degree < p^n.

        a_k = sum_i C(i,k) c_i, computed exactly as the Taylor shift gamma ->
        1 + T by Horner's scheme on integers (denominators cleared first).
        With the signs of c_i and a_k alternated it is the inverse transform
        (see ``from_t_coefficients``).
        That is p^n(p^n - 1)/2 big-integer additions; ``iwasawa_invariants``
        does not need them.
        """
        ints, scale = self._integer_coefficients()
        shifted = _taylor_shift_by_one(ints)
        if self.is_padic:
            return [PAdic(self.level.p, r, scale) for r in shifted]
        return [Fraction(r, scale) for r in shifted]

    def iwasawa_invariants(self) -> IwasawaInvariants:
        """mu = min ord_p over T-coefficients, lambda = least index attaining it.

        Both are read off the integers B_i of ``_integer_coefficients``.  The
        change of basis to T is unitriangular over Z, invertible also over
        Z/p^prec, so it keeps the least valuation v of the B_i; lambda is the
        first nonzero coefficient of the Taylor shift of B_i / p^v mod p, read
        digit by digit (``_lambda_mod_p``) without forming the shift.
        """
        if self.is_zero():
            if self.is_padic:
                raise PrecisionInsufficient("all coefficients vanish to working precision")
            raise ZeroElement("invariants of the zero element are undefined")
        p = self.level.p
        ints, scale = self._integer_coefficients()
        if self.is_padic:
            if not any(ints):
                raise PrecisionInsufficient("all T-coefficients vanish to working precision")
            den_valuation = 0
        else:
            den_valuation = int_valuation(scale, p)
        v = int_valuation(math.gcd(*ints), p)
        unit = p**v
        return IwasawaInvariants(v - den_valuation, _lambda_mod_p([b // unit for b in ints], p))

    # -- maps between layers --

    def corestriction(self) -> "GroupRingElement":
        """Trace to the layer above: gamma_{n-1}^j maps to the sum of its p preimages."""
        level_up = self.level.above()
        stride = self.level.order
        out = [None] * level_up.order
        for j, c in enumerate(self.coeffs):
            for m in range(self.level.p):
                out[j + m * stride] = c
        return GroupRingElement(level_up, out)

    def project(self) -> "GroupRingElement":
        """Natural projection to the layer below, accumulating coefficients."""
        level_dn = self.level.below()
        stride = level_dn.order
        out = [None] * stride
        for i, c in enumerate(self.coeffs):
            j = i % stride
            out[j] = c if out[j] is None else out[j] + c
        return GroupRingElement(level_dn, out)

    def reindexed_by_generator_power(self, t: int) -> "GroupRingElement":
        """Coefficients with respect to gamma' = gamma^t (t coprime to p)."""
        m = self.level.order
        if self.level.n >= 1 and math.gcd(t, self.level.p) != 1:
            raise NotAGenerator(f"gamma^{t} does not generate a group of order {m}")
        out = [None] * m
        for j in range(m):
            out[j] = self.coeffs[j * t % m]
        return GroupRingElement(self.level, out)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __repr__(self):
        return f"GroupRingElement(p={self.level.p}, n={self.level.n}, coeffs={self.coeffs})"


def invariants_with_generator(F: GroupRingElement, t: int) -> IwasawaInvariants:
    """Invariants computed with respect to the alternative generator gamma^t."""
    return F.reindexed_by_generator_power(t).iwasawa_invariants()


@dataclass(frozen=True)
class SumCancellationReport:
    hypothesis_met: bool
    sum_invariants: IwasawaInvariants | None
    left_invariants: IwasawaInvariants
    right_invariants: IwasawaInvariants
    conclusion_holds: bool | None


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
