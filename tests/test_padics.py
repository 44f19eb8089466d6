import math
import random
from fractions import Fraction

import pytest

from mazurtate.errors import NotOrdinary
from mazurtate.padics import unit_root, valuation


def test_valuation_examples():
    assert valuation(Fraction(1, 7), 7) == -1
    assert valuation(Fraction(0), 5) == math.inf
    assert valuation(Fraction(50, 4), 5) == 2


def test_valuation_rejects_non_prime():
    with pytest.raises(ValueError):
        valuation(Fraction(1), 6)
    with pytest.raises(ValueError):
        valuation(Fraction(1), 2)


def test_valuation_multiplicative():
    rng = random.Random(0)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        x = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        y = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_unit_root_mod_p_is_ap():
    assert unit_root(1, 5, 1) == 1


def test_unit_root_matches_brute_force_scan():
    # oracle: scan every residue mod 5^4 for roots of x^2 - x + 5
    # congruent to a_p = 1 mod 5
    m = 5**4
    roots = [x for x in range(m) if (x * x - x + 5) % m == 0 and x % 5 == 1]
    assert len(roots) == 1
    assert unit_root(1, 5, 4) == roots[0]


def test_unit_root_not_ordinary():
    with pytest.raises(NotOrdinary):
        unit_root(5, 5, 3)
    with pytest.raises(ValueError, match="precision must be positive"):
        unit_root(1, 5, 0)


def test_unit_root_precision_coherence():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        a_p = rng.randint(-2 * p, 2 * p)
        if a_p % p == 0:
            continue
        big = unit_root(a_p, p, 9)
        for smaller in (1, 3, 6):
            assert big % p**smaller == unit_root(a_p, p, smaller)
        # a residue mod p^9, a unit, and a root to that precision
        assert 0 <= big < p**9 and big % p
        assert (big * big - a_p * big + p) % p**9 == 0
