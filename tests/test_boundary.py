import random
from fractions import Fraction

import pytest

from mazurtate.boundary import boundary_congruence
from mazurtate.classify import maximality_criterion
from mazurtate.cusps import CuspClassTable, boundary_space_matrix
from mazurtate.modsym import INFINITY, as_cusp

from .conftest import divisor_value, zero_symbol


def certificate_holds(refutation, p, matrix, rhs) -> bool:
    """The combination of a refutation sums the rows of matrix to 0 and those of rhs to its nonzero value, mod p."""
    ncols = len(matrix[0])
    acc = [0] * ncols
    val = 0
    for i, c in refutation["combination"]:
        for j in range(ncols):
            acc[j] = (acc[j] + c * matrix[i][j]) % p
        val = (val + c * rhs[i]) % p
    return all(x == 0 for x in acc) and val == refutation["inconsistent_value"] and val != 0


def test_26b1_witness_two_valued_with_expected_pairing(eigensymbols):
    res = boundary_congruence(eigensymbols["26b1"], 7)
    assert res["solvable"]
    assert res["boundary_rank"] == 3
    table = CuspClassTable(26)
    v = res["witness"]
    zero_cls, inf_cls = table.classify(0), table.classify(INFINITY)
    half_cls, thirteenth_cls = table.classify(Fraction(1, 2)), table.classify(Fraction(1, 13))
    assert len({zero_cls, inf_cls, half_cls, thirteenth_cls}) == 4
    # the stated pattern up to an F_7 scalar and an additive constant:
    # equal on {0, 1/13}, equal on {inf, 1/2}, and the two values differ
    assert v[zero_cls] == v[thirteenth_cls]
    assert v[inf_cls] == v[half_cls]
    assert v[zero_cls] != v[inf_cls]


def test_26b1_witness_reproduces_symbol_mod_p(eigensymbols):
    # psi induces {r} - {s} -> psi(class r) - psi(class s), which must be phi mod p
    res = boundary_congruence(eigensymbols["26b1"], 7)
    table, psi = CuspClassTable(26), res["witness"]
    rng = random.Random(13)
    for _ in range(60):
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        s = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        induced = psi[table.classify(as_cusp(r))] - psi[table.classify(as_cusp(s))]
        assert induced % 7 == divisor_value(eigensymbols["26b1"], r, s) % 7


def test_174b1_refutation_with_verifiable_certificate(eigensymbols):
    sym = eigensymbols["174b1"]
    res = boundary_congruence(sym, 7)
    assert not res["solvable"]
    matrix, _ = boundary_space_matrix(sym.space, 7)
    rhs = [int(v) % 7 for v in sym.generator_values()]
    assert certificate_holds(res["refutation"], 7, matrix, rhs)


def test_11a_refuted_at_7_solvable_at_5(eigensymbols):
    assert not boundary_congruence(eigensymbols["11a"], 7)["solvable"]
    assert boundary_congruence(eigensymbols["11a"], 5)["solvable"]


def test_50b1_congruent_to_boundary_symbol_at_5(eigensymbols):
    assert boundary_congruence(eigensymbols["50b1"], 5)["solvable"]


def test_zero_symbol_trivially_solvable(spaces):
    res = boundary_congruence(zero_symbol(spaces[11]), 5)
    assert res["solvable"]
    assert all(x == 0 for x in res["witness"])


def test_non_integral_symbol_rejected(eigensymbols):
    bad = Fraction(1, 3) * eigensymbols["11a"]
    with pytest.raises(ValueError):
        boundary_congruence(bad, 5)


def test_witness_gauge_fixed_at_infinity(eigensymbols):
    res = boundary_congruence(eigensymbols["26b1"], 7)
    assert res["witness"][CuspClassTable(26).class_of_infinity()] == 0


def test_boundary_congruence_implies_scaling_criterion(eigensymbols):
    # whenever a witness exists, the symbol values along the p-power tower
    # repeat mod p, which is the t = 1 scaling congruence
    for label, p in (("11a", 5), ("26b1", 7), ("50b1", 5)):
        assert boundary_congruence(eigensymbols[label], p)["solvable"]
        rep = maximality_criterion(eigensymbols[label], p, 2, t=1)
        assert rep.holds
        assert rep.conclusions_verified
