"""Elliptic curves over Q: Weierstrass quantities, point counts, a_ell.

The conductor is a required input (no Tate's algorithm here); it is validated
against the discriminant, and a_ell at a bad ell refuses an exponent above
the largest any elliptic curve over Q has.  Good-reduction eigenvalues come
from brute-force point counting; at bad primes a_ell = ell - #E^ns(F_ell),
which covers the split/nonsplit/additive trichotomy uniformly (including
ell = 2, 3 where the quadratic-residue test on -c6 breaks down).  A singular cubic has exactly one
singular point, and it is affine, so #E^ns(F_ell) = #E(F_ell) - 1 and
a_ell = ell + 1 - #E(F_ell) at every ell.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import BoundExceeded, InputError
from .primes import int_valuation, is_prime
from .records import Record

ELL_BOUND = 100000
# the largest conductor exponent of an elliptic curve over Q at 2 and 3
# (Brumer-Kramer); at every ell >= 5 it is 2
MAX_CONDUCTOR_EXPONENT = {2: 8, 3: 5}
MAX_LRATIO_EXPONENT = 4300  # CPython's default cap on the digits of an int read from a string
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _legendre(a: int, ell: int) -> int:
    a %= ell
    if a == 0:
        return 0
    return 1 if pow(a, (ell - 1) // 2, ell) == 1 else -1


def parse_lratio(text) -> Fraction:
    """L(E,1)/Omega_E from a decimal or num/den string (or a JSON number); an
    exponent above MAX_LRATIO_EXPONENT in magnitude is refused before any
    Fraction is built, as Fraction("1e100000") builds 10^100000."""
    text = str(text)
    exponent = _EXPONENT.search(text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(MAX_LRATIO_EXPONENT)) or int(digits or 0) > MAX_LRATIO_EXPONENT:
        raise BoundExceeded(f"the exponent of the L-ratio exceeds the bound {MAX_LRATIO_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed L-ratio {text!r}: {exc}") from exc


def _strip_primes_of(n: int, m: int) -> int:
    """n with every prime factor of m divided out; no factoring."""
    g = math.gcd(n, m)
    while g > 1:
        n //= g
        g = math.gcd(n, m)
    return n


def _integer_field(d: dict, key: str) -> int:
    """An integer or integer string; floats and booleans are refused, not truncated."""
    value = d[key]
    if isinstance(value, (bool, float)):
        raise InputError(f"malformed curve record: {key} must be an integer, got {value!r}")
    return int(value)


class EllipticCurve(Record):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str | None = None
    lratio: Fraction | None = None  # L(E,1)/Omega_E, supplied (Neron normalization)
    lratio_source: str | None = None

    def __post_init__(self):
        self._ap_cache = {}  # a_ell memo; not a field, so equality ignores it
        if self.discriminant == 0:
            raise InputError("singular Weierstrass model")
        if self.conductor < 1:
            raise InputError("conductor must be positive")
        if _strip_primes_of(abs(self.discriminant), self.conductor) != 1:
            raise InputError(
                f"the discriminant has a prime factor that does not divide the stated conductor {self.conductor}"
            )
        if _strip_primes_of(self.conductor, self.discriminant) != 1:
            raise InputError(
                f"the stated conductor {self.conductor} has a prime factor that does not divide the discriminant"
            )

    # -- classical b/c quantities --

    @property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self):
        return (
            self.a1 * self.a1 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 * self.a3
            - self.a4 * self.a4
        )

    @property
    def c6(self):
        return -(self.b2**3) + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def discriminant(self):
        return -self.b2 * self.b2 * self.b8 - 8 * self.b4**3 - 27 * self.b6 * self.b6 + 9 * self.b2 * self.b4 * self.b6

    # -- point counts and eigenvalues --

    def count_points(self, ell: int) -> int:
        """#E(F_ell) counting every projective point of the reduced model."""
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        cnt = 1  # point at infinity
        if ell == 2:
            for x in range(2):
                for y in range(2):
                    if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                        cnt += 1
            return cnt
        for x in range(ell):
            b = (a1 * x + a3) % ell
            f = (x**3 + a2 * x * x + a4 * x + a6) % ell
            cnt += 1 + _legendre(b * b + 4 * f, ell)
        return cnt

    def a_ell(self, ell: int) -> int:
        """Hecke eigenvalue a_ell, cached."""
        if ell in self._ap_cache:
            return self._ap_cache[ell]
        if ell > ELL_BOUND:  # before is_prime, which trial-divides up to sqrt(ell)
            raise BoundExceeded(f"ell = {ell} exceeds the point-counting bound {ELL_BOUND}")
        if not is_prime(ell):
            raise InputError(f"{ell} is not prime")
        # at bad ell this is ell - #E^ns(F_ell): +-1 multiplicative, 0 additive
        a = ell + 1 - self.count_points(ell)
        if self.conductor % ell != 0:
            if a * a > 4 * ell:
                raise InputError(f"a_{ell} = {a} violates the Hasse bound; bad input model")
        else:
            exponent = int_valuation(self.conductor, ell)
            bound = MAX_CONDUCTOR_EXPONENT.get(ell, 2)
            if exponent > bound:
                raise InputError(
                    f"conductor exponent {exponent} at {ell} exceeds {bound}, the most any curve has; bad input model"
                )
            # the model's reduction (0 additive, +-1 multiplicative) must match the conductor
            if (a == 0) != (exponent >= 2):
                raise InputError(
                    f"a_{ell} = {a} does not fit the conductor exponent {exponent} at {ell}; bad input model"
                )
            # cross-check against the quadratic-residue criterion on -c6
            if ell >= 5 and exponent == 1 and a != _legendre(-self.c6, ell):
                raise InputError(f"split/nonsplit criteria disagree at {ell}; bad input model")
        self._ap_cache[ell] = a
        return a

    # -- JSON interchange --

    @classmethod
    def from_dict(cls, d: dict) -> "EllipticCurve":
        if not isinstance(d, dict):
            raise InputError(f"malformed curve record: expected an object, got {type(d).__name__}")
        try:
            lratio = None
            if d.get("lratio") is not None:
                lratio = parse_lratio(d["lratio"])
            return cls(
                **{key: _integer_field(d, key) for key in ("a1", "a2", "a3", "a4", "a6", "conductor")},
                label=d.get("label"),
                lratio=lratio,
                lratio_source=d.get("lratio_source"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed curve record: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "EllipticCurve":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d = {
            "a1": self.a1,
            "a2": self.a2,
            "a3": self.a3,
            "a4": self.a4,
            "a6": self.a6,
            "conductor": self.conductor,
        }
        if self.label:
            d["label"] = self.label
        if self.lratio is not None:
            d["lratio"] = str(self.lratio)
        if self.lratio_source:
            d["lratio_source"] = self.lratio_source
        return d
