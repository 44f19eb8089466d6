import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from mazurtate.errors import LevelTooLarge
from mazurtate.modsym import (
    INFINITY,
    Divisor,
    P1List,
    ModularSymbol,
    apply_matrix_to_cusp,
    as_cusp,
    build_space,
    convergent_symbol_pairs,
    cusp_count,
    genus_x0,
    psi_index,
)


def random_gamma0(N, rng, steps=8):
    """Random word in the standard parabolic generators of Gamma_0(N)."""
    m = (1, 0, 0, 1)
    for _ in range(steps):
        if rng.random() < 0.5:
            k = rng.randint(-3, 3)
            g = (1, k, 0, 1)
        else:
            k = rng.randint(-2, 2)
            g = (1, 0, k * N, 1)
        a, b, c, d = m
        e, f, gg, h = g
        m = (a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h)
    return m


def rank_mod_q(rows, ncols, q):
    """Row rank over F_q by plain elimination; independent of the Q path."""
    mat = [[x % q for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, q)
        mat[rank] = [x * inv % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def full_relation_matrix(N):
    """The raw two- and three-term relation rows on P^1(Z/N)."""
    p1 = P1List(N)
    m = len(p1)
    idx = p1.index
    rows = []
    for i, (c, d) in enumerate(p1):
        row = [0] * m
        row[i] += 1
        row[idx(d, -c)] += 1
        rows.append(row)
        row = [0] * m
        row[i] += 1
        row[idx(d, -c - d)] += 1
        row[idx(-c - d, c)] += 1
        rows.append(row)
    return rows, m


@pytest.mark.parametrize("N,expected_dim", [(11, 3), (1, 0), (26, 7)])
def test_dimension_against_independent_rank(N, expected_dim):
    space = build_space(N)
    assert space.dimension == expected_dim
    rows, m = full_relation_matrix(N)
    # oracle: rank of the raw relation matrix over two large prime fields
    for q in (1000003, 999983):
        assert m - rank_mod_q(rows, m, q) == expected_dim


def test_dimension_formula_for_all_levels_up_to_60_and_samples():
    for N in list(range(1, 61)) + [89, 98, 100, 121, 144, 174, 200]:
        space = build_space(N)
        expected = 2 * genus_x0(N) + cusp_count(N) - 1 if N > 1 else 0
        assert space.dimension == expected


def test_n26_cusp_count_is_4():
    assert cusp_count(26) == 4
    assert build_space(26).dimension == 2 * genus_x0(26) + 4 - 1


def test_level_too_large():
    with pytest.raises(LevelTooLarge):
        build_space(5000, max_index=100)


def test_huge_level_is_refused_before_factoring():
    start = time.perf_counter()
    with pytest.raises(LevelTooLarge):
        build_space(11000000000000000000033)
    assert time.perf_counter() - start < 1


# sha256 of (basis, expressions) as recorded before the relation elimination
# moved into linalg.echelon; the quotient presentation must not change
SPACE_DIGESTS = {
    11: "5ad9458ca15820b02eb3e943eb6aa313aaabb086c22abf26b11e283f0f2ecf1b",
    26: "86bcc480629b9b3e9bc08eaaa60f5cf2f2772158ff14ac51541357ce9c27cbf8",
    174: "eb5b0bf2d8f53660b24cd7d6012a47cca1a7902d49690d98d1d06bd2fc8d7530",
    389: "a822b5fa160635dc1e3b0afd6bce9c459b58e55c08dd7c9eb3df04a9a4624f52",
    681: "c940883d8a72a87e8ef7f58900822bf6f44e3aa9306d2d6d5ae747778989f0c4",
}


@pytest.mark.parametrize("N", sorted(SPACE_DIGESTS))
def test_space_presentation_is_pinned(N):
    sp = build_space(N)
    payload = json.dumps([list(sp.basis), [[[t, str(c)] for t, c in e] for e in sp.expressions]])
    assert hashlib.sha256(payload.encode()).hexdigest() == SPACE_DIGESTS[N]


def dense(expr, dim):
    """The (coordinate, value) pairs of one expression as a dense row."""
    row = [Fraction(0)] * dim
    for t, c in expr:
        row[t] += c
    return row


def test_relations_hold_identically_on_expressions():
    for N in (11, 26, 45, 50):
        sp = build_space(N)
        e = [dense(expr, sp.dimension) for expr in sp.expressions]
        for i in range(len(sp.p1)):
            s = [a + b for a, b in zip(e[i], e[sp.sigma[i]])]
            assert all(x == 0 for x in s)
            t = [a + b + c for a, b, c in zip(e[i], e[sp.tau[i]], e[sp.tau[sp.tau[i]]])]
            assert all(x == 0 for x in t)


def test_expressions_are_sorted_nonzero_pairs():
    for N in (11, 26, 45, 50):
        sp = build_space(N)
        for i, expr in enumerate(sp.expressions):
            coords = [t for t, _ in expr]
            assert coords == sorted(set(coords))
            assert all(c for _, c in expr)
            assert sp.coordinate_row([i]) == dense(expr, sp.dimension)
        basis_rows = [sp.coordinate_row([b]) for b in sp.basis]
        assert basis_rows == [[Fraction(int(s == t)) for t in range(sp.dimension)] for s in range(sp.dimension)]


def brute_force_p1(N):
    """P^1(Z/N) over all N^2 pairs: primitive pairs modulo units, each class
    named by its least pair, which is met first in this scan."""
    units = [t for t in range(N) if math.gcd(t, N) == 1]
    seen = bytearray(N * N)
    reps = []
    for x in range(N * N):
        if seen[x]:
            continue
        u, v = divmod(x, N)
        if math.gcd(u, v, N) == 1:
            for t in units:
                seen[t * u % N * N + t * v % N] = 1
            reps.append((u, v))
    return reps


def test_p1_list_matches_brute_force():
    for N in list(range(1, 301)) + [681]:
        p1 = P1List(N)
        assert list(p1) == brute_force_p1(N), N
        assert len(p1) == psi_index(N)


def test_psi_index_multiplicative_structure():
    assert psi_index(11) == 12
    assert psi_index(26) == 42
    assert psi_index(174) == 360


@pytest.fixture(scope="module")
def random_symbol():
    sp = build_space(11)
    rng = random.Random(9)
    return sp.symbol([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(sp.dimension)])


def test_degree_zero_identity(random_symbol):
    r = Fraction(3, 7)
    assert random_symbol.value(Divisor.difference(r, r)) == 0


def test_divisor_requires_degree_zero():
    with pytest.raises(ValueError):
        Divisor([(1, Fraction(1, 2))])


def test_additivity(random_symbol):
    rng = random.Random(2)
    for _ in range(60):
        r, s, t = (Fraction(rng.randint(-25, 25), rng.randint(1, 25)) for _ in range(3))
        left = random_symbol.value(Divisor.difference(r, s)) + random_symbol.value(Divisor.difference(s, t))
        assert left == random_symbol.value(Divisor.difference(r, t))


def test_gamma_invariance_100_cases(random_symbol):
    rng = random.Random(3)
    for _ in range(100):
        g = random_gamma0(11, rng)
        r = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        s = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        D = Divisor.difference(r, s)
        assert random_symbol.value(D.apply_matrix(g)) == random_symbol.value(D)


def test_involution_split(random_symbol):
    plus, minus = random_symbol.split()
    assert (plus + minus).coords == random_symbol.coords
    assert plus.involution().coords == plus.coords
    assert minus.involution().coords == tuple(-c for c in minus.coords)
    # an already-even symbol splits as (itself, 0)
    again_plus, again_minus = plus.split()
    assert again_plus.coords == plus.coords
    assert all(c == 0 for c in again_minus.coords)
    # {inf}-{0} is fixed by the involution, so the odd part vanishes there
    assert minus.value_infinity_minus(0) == 0


def test_sign_symmetry_of_parts(random_symbol):
    plus, minus = random_symbol.split()
    rng = random.Random(4)
    for _ in range(40):
        r = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        assert plus.value_infinity_minus(-r) == plus.value_infinity_minus(r)
        assert minus.value_infinity_minus(-r) == -minus.value_infinity_minus(r)


def test_scaled_evaluator(random_symbol):
    assert random_symbol.scaled(1).value_infinity_minus(Fraction(3, 25)) == random_symbol.value_infinity_minus(Fraction(3, 25))
    scaled = random_symbol.scaled(5)
    for a, n in [(2, 2), (7, 3), (1, 1)]:
        assert scaled.value_infinity_minus(Fraction(a, 5**n)) == random_symbol.value_infinity_minus(Fraction(a, 5 ** (n - 1)))


def test_cusp_normalization():
    assert as_cusp(INFINITY) == (1, 0)
    assert as_cusp(Fraction(-4, 6)) == (-2, 3)
    assert as_cusp((2, -4)) == (-1, 2)
    assert apply_matrix_to_cusp((1, 1, 0, 1), (1, 0)) == (1, 0)


def test_zero_symbol_evaluates_to_zero():
    sp = build_space(26)
    z = sp.zero_symbol()
    assert z.value_infinity_minus(Fraction(5, 49)) == 0


def reference_value(sym, r):
    """phi({inf}-{r}) as a Fraction sum over the Manin path, without the memo."""
    vals = sym.generator_values()
    N = sym.space.N
    pairs = convergent_symbol_pairs(as_cusp(r))
    return sum((vals[sym.space.p1.index(qk % N, qk1 % N)] for qk, qk1 in pairs), Fraction(0))


def random_cusps(rng, count=60):
    return [Fraction(rng.randint(-400, 400), rng.randint(1, 400)) for _ in range(count)]


@pytest.mark.parametrize("label", ["11a", "26b1", "174b1"])
def test_integral_symbol_values_are_ints(eigensymbols, label):
    sym = eigensymbols[label]
    assert all(v.denominator == 1 for v in sym.generator_values())
    for r in random_cusps(random.Random(label)) + [0, INFINITY]:
        value = sym.value_infinity_minus(r)
        assert type(value) is int
        assert value == reference_value(sym, r)
    # a second pass reads the memo and must agree
    for r in random_cusps(random.Random(label)):
        assert sym.value_infinity_minus(r) == reference_value(sym, r)


@pytest.mark.parametrize("label", ["11a", "26b1", "174b1"])
def test_non_integral_symbol_values_are_fractions(eigensymbols, label):
    sym = eigensymbols[label]
    rng = random.Random(7)
    random_sym = sym.space.symbol([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in sym.coords])
    for phi in (Fraction(1, 7) * sym, random_sym):
        assert any(v.denominator != 1 for v in phi.generator_values())
        for r in random_cusps(rng):
            value = phi.value_infinity_minus(r)
            assert type(value) is Fraction
            assert value == reference_value(phi, r)


def test_is_plus_reads_the_values_not_the_label(eigensymbols, random_symbol):
    plus, minus = random_symbol.split()
    assert plus.is_plus() and plus.scaled(5).is_plus()
    assert not minus.is_plus() and not random_symbol.is_plus()
    # a forged label does not make a symbol J-invariant
    forged = ModularSymbol(random_symbol.space, random_symbol.coords, sign="+")
    assert not forged.is_plus() and not forged.scaled(5).is_plus()
    # the zero symbol is J-invariant, and so is every stored eigensymbol
    assert random_symbol.space.zero_symbol().is_plus()
    assert all(sym.is_plus() for sym in eigensymbols.values())
