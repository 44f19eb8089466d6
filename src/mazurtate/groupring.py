"""Finite-level group-ring calculus and Iwasawa mu/lambda invariants.

Elements of K[G_n] (G_n cyclic of order p^n, generated by the image gamma of
sigma_{1+p}) are stored as coefficient arrays on powers of gamma.  The
invariants are those of the coefficients in the T = gamma - 1 basis, but they
are read without building that basis: the binomial change of basis gamma ->
1 + T is unitriangular over Z, so mu is the least valuation of the gamma-
coefficients, and lambda is the first nonzero T-coefficient of their Taylor
shift mod p, which Lucas's theorem splits into one p-point shift per base-p
digit.  Coefficients are uniformly exact rationals or uniformly
precision-tracked p-adics; the two kinds never mix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotAGenerator, PrecisionInsufficient, ZeroElement
from .padics import PAdic, int_valuation
from .primes import is_prime


@lru_cache(maxsize=64)
def _one_unit_dlog_table(p: int, n: int):
    """dlog base (1+p) on the 1-units of Z/p^{n+1}: maps (1+p)^k -> k."""
    modulus = p ** (n + 1)
    table = {}
    x = 1
    for k in range(p**n):
        table[x] = k
        x = x * (1 + p) % modulus
    return table


def one_unit_exponent(a: int, p: int, n: int) -> int:
    """e with <a> = (1+p)^e mod p^{n+1}, for a unit a (Teichmuller part dropped).

    Raising to the (p-1)-st power kills the Teichmuller component, and the
    result is (1+p)^{e(p-1)}; one table lookup plus division by p-1 recovers e.
    """
    if n == 0:
        return 0
    modulus = p ** (n + 1)
    if a % p == 0:
        raise ValueError(f"{a} is not a unit mod {p}^{n + 1}")
    x = pow(a, p - 1, modulus)
    k = _one_unit_dlog_table(p, n)[x]
    return k * pow(p - 1, -1, p**n) % p**n


@dataclass(frozen=True)
class GroupLevel:
    """Level-n layer: G_n cyclic of order p^n with gamma = image of sigma_u."""

    p: int
    n: int
    generator_unit: int = 0  # 0 means the default 1+p

    def __post_init__(self):
        if not (is_prime(self.p) and self.p % 2 == 1):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.n < 0:
            raise ValueError("level must be nonnegative")
        u = self.generator_unit or (1 + self.p)
        object.__setattr__(self, "generator_unit", u)
        if self.n >= 1:
            e = one_unit_exponent(u, self.p, self.n)
            if e % self.p == 0:
                raise NotAGenerator(f"sigma_{u} does not generate the level-{self.n} layer")

    @property
    def order(self) -> int:
        return self.p**self.n

    def exponent_of(self, a: int) -> int:
        """k with sigma_a restricting to gamma^k on this layer."""
        if self.n == 0:
            return 0
        e = one_unit_exponent(a, self.p, self.n)
        if self.generator_unit != 1 + self.p:
            e = e * pow(one_unit_exponent(self.generator_unit, self.p, self.n), -1, self.order) % self.order
        return e

    def below(self) -> "GroupLevel":
        if self.n == 0:
            raise ValueError("no layer below level 0")
        return GroupLevel(self.p, self.n - 1, self.generator_unit)

    def above(self) -> "GroupLevel":
        return GroupLevel(self.p, self.n + 1, self.generator_unit)


def _taylor_shift_by_one(coeffs):
    """Coefficients of f(x+1) from those of f(x), in-place Horner additions."""
    c = list(coeffs)
    m = len(c)
    for i in range(m - 1):
        for j in range(m - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _taylor_shift_mod_p(coeffs, p: int):
    """Coefficients of f(x+1) mod p from those of f(x), for len(coeffs) = p^n.

    By Lucas's theorem C(i, k) = prod_d C(i_d, k_d) mod p over the base-p
    digits of i and k, so the shift is one p-point shift per digit.  Each pass
    applies Horner's scheme mod p to every block of p consecutive entries
    (only the lowest digit varies within a block), then lists the entries
    lowest digit first (the slices c[j::p]), which rotates the digits one
    place; after n passes every digit has been shifted once and the order is
    restored.  That is n p^{n-1} p(p-1)/2 additions of residues instead of
    p^n(p^n - 1)/2 additions of growing integers.
    """
    c = [x % p for x in coeffs]
    m = len(c)
    while m > 1:
        m //= p
        for start in range(0, len(c), p):
            for i in range(start, start + p - 1):
                for j in range(start + p - 2, i - 1, -1):
                    c[j] = (c[j] + c[j + 1]) % p
        c = [x for j in range(p) for x in c[j::p]]
    return c


@dataclass(frozen=True)
class IwasawaInvariants:
    mu: int
    lam: int
    normalization_shift: int = 0

    @property
    def shifted_mu(self) -> int:
        return self.mu + self.normalization_shift

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
            coeffs = tuple(Fraction(c) for c in coeffs)
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
        """Inverse binomial transform: T^k = sum_j C(k,j)(-1)^{k-j} gamma^j."""
        m = level.order
        t_coeffs = list(t_coeffs)
        coeffs = []
        for j in range(m):
            acc = sum(
                ((-1) ** (k - j)) * math.comb(k, j) * t_coeffs[k]
                for k in range(j, m)
                if t_coeffs[k]
            )
            coeffs.append(acc if acc else Fraction(0))
        return cls(level, coeffs)

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
            return [c.residue % self.level.p**prec for c in self.coeffs], prec
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    def t_coefficients(self):
        """Coefficients of F as a polynomial in T = gamma - 1 of degree < p^n.

        a_k = sum_i C(i,k) c_i, computed exactly as the Taylor shift gamma ->
        1 + T by Horner's scheme on integers (denominators cleared first).
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
        first nonzero coefficient of the Taylor shift of B_i / p^v mod p.
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
        shifted = _taylor_shift_mod_p([b // unit for b in ints], p)
        lam = next(k for k, a in enumerate(shifted) if a)
        return IwasawaInvariants(v - den_valuation, lam)

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

    # -- serialization --

    def to_dict(self) -> dict:
        if self.is_padic:
            raise ValueError("only exact-rational elements serialize")
        return {
            "p": self.level.p,
            "n": self.level.n,
            "generator_exponent": self.level.generator_unit,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GroupRingElement":
        level = GroupLevel(int(d["p"]), int(d["n"]), int(d["generator_exponent"]))
        return cls(level, [Fraction(s) for s in d["coeffs"]])

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
