import random
from fractions import Fraction

import pytest

from mazurtate.linalg import (
    MODULUS,
    _slot_bytes,
    _unpack,
    echelon,
    exact,
    fold,
    fold_mod,
    kernel,
    line_mod,
    nullspace,
    rational_reconstruction,
    residue_row,
    rref_mod_p,
    solve_mod_p,
)


def dense_rref(matrix):
    """Nonzero rows of the reduced row echelon form, by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m[:r]


def random_matrix(rng, nrows, ncols, rank):
    """Integer matrix of rank at most `rank`, entries mostly zero."""
    base = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):  # one coefficient per base row, so each row is in their span
        coeffs = [rng.randint(-2, 2) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
    return rows


def sparse(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def pivot_matrix(pivots, ncols):
    """Dense rows e_v - sum c e_column, one per pivot: the equations the pivots state."""
    rows = []
    for v, row in pivots.items():
        dense = [Fraction(0)] * ncols
        dense[v] = Fraction(1)
        for k, c in row.items():
            dense[k] -= c
        rows.append(dense)
    return rows


CASES = [(seed, nrows, ncols, rank)
         for seed, (nrows, ncols, rank) in enumerate(
             [(1, 1, 1), (3, 3, 3), (4, 6, 2), (6, 4, 4), (7, 7, 3), (5, 9, 5), (9, 5, 1), (8, 8, 0)] * 5)]


@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_random_matrix_rank_is_at_most_rank(seed, nrows, ncols, rank):
    assert len(dense_rref(random_matrix(random.Random(seed), nrows, ncols, rank))) <= rank


@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_echelon_matches_dense_reference(seed, nrows, ncols, rank):
    rng = random.Random(seed)
    matrix = random_matrix(rng, nrows, ncols, rank)
    pivots = echelon(sparse(matrix))
    reference = dense_rref(matrix)
    assert len(pivots) == len(reference)
    # same row space: the pivot equations have the reference's RREF
    assert dense_rref(pivot_matrix(pivots, ncols)) == reference
    # every pivot row is in non-pivot columns only
    assert all(k not in pivots for row in pivots.values() for k in row)


@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_nullspace_matches_dense_reference(seed, nrows, ncols, rank):
    rng = random.Random(seed)
    matrix = random_matrix(rng, nrows, ncols, rank)
    basis = nullspace(matrix, ncols)
    assert len(basis) == ncols - len(dense_rref(matrix))
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in matrix)
    assert len(dense_rref(basis)) == len(basis)


@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_two_batches_fold_like_one(seed, nrows, ncols, rank):
    rng = random.Random(seed)
    rows = sparse(random_matrix(rng, nrows, ncols, rank))
    cut = rng.randint(0, len(rows))
    once = echelon(rows)
    twice = echelon(rows[cut:], echelon(rows[:cut]))
    assert twice == once
    assert list(twice) == list(once)  # same insertion order


@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_fold_fixes_the_pivot_set_of_echelon(seed, nrows, ncols, rank):
    rng = random.Random(seed)
    matrix = random_matrix(rng, nrows, ncols, rank)
    folded = fold(sparse(matrix))
    pivots = echelon(sparse(matrix))
    assert list(folded) == list(pivots)  # the same pivots, in the same insertion order
    # the same row space, and a pivot row holds no older pivot column
    assert dense_rref(pivot_matrix(folded, ncols)) == dense_rref(matrix)
    order = list(folded)
    assert all(order.index(k) > r for r, v in enumerate(order) for k in folded[v] if k in folded)
    # echelon back-substitutes what fold left; passing in fold's pivots changes nothing else
    assert echelon([], folded) == pivots


def test_integer_rows_give_fraction_entries():
    # only the non-integral entry is a Fraction; the integral one stays an int
    pivots = echelon([{0: 2, 1: 3}, {2: 4, 3: -2}])
    assert pivots == {0: {1: Fraction(-3, 2)}, 3: {2: 2}}
    assert type(pivots[0][1]) is Fraction and type(pivots[3][2]) is int


@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_echelon_entries_are_ints_exactly_when_integral(seed, nrows, ncols, rank):
    rng = random.Random(seed)
    matrix = random_matrix(rng, nrows, ncols, rank)
    # the same rows, with every entry an integral Fraction, fold to the same ints
    for rows in (sparse(matrix), [{j: Fraction(2 * x, 2) for j, x in row.items()} for row in sparse(matrix)]):
        pivots = echelon(rows)
        assert pivots == echelon(sparse(matrix))
        entries = [c for row in pivots.values() for c in row.values()]
        entries += [x for v in kernel(pivots, ncols) for x in v]
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in entries)


def test_exact_keeps_integral_values_as_ints():
    assert [exact(x) for x in (3, -2, Fraction(4, 2), Fraction(0), Fraction(-3, 2))] == [3, -2, 2, 0, Fraction(-3, 2)]
    assert [type(exact(x)) for x in (3, Fraction(4, 2), Fraction(-3, 2))] == [int, int, Fraction]


def test_kernel_of_no_rows_is_the_identity():
    assert nullspace([], 3) == [[Fraction(int(i == j)) for i in range(3)] for j in range(3)]
    assert kernel({}, 0) == []


def test_solve_mod_p_reports_rank_and_verifiable_certificate():
    rng = random.Random(3)
    p = 7
    for _ in range(30):
        matrix = [[x % p for x in row] for row in random_matrix(rng, 8, 5, 3)]
        rhs = [rng.randrange(p) for _ in matrix]
        solution, cert, rank = solve_mod_p(matrix, rhs, p)
        assert rank == len(rref_mod_p(matrix, p)[1])
        if solution is None:
            assert cert == sorted(cert) and all(c % p for _, c in cert)
            combined = [sum(c * matrix[i][j] for i, c in cert) % p for j in range(5)]
            assert combined == [0] * 5
            assert sum(c * rhs[i] for i, c in cert) % p != 0
        else:
            assert [sum(a * x for a, x in zip(row, solution)) % p for row in matrix] == rhs


# --- the packed fold mod a prime ---


def pivot_matrix_mod(pivots, ncols, q):
    """Dense rows e_c - sum pivot[k] e_k mod q, one per fold_mod pivot, unpacked."""
    size = _slot_bytes(q, ncols)
    rows = []
    for c, x in pivots.items():
        dense = [(-s) % q for s in _unpack(x, c, size)] + [0] * (ncols - c)
        dense[c] = 1
        rows.append(dense)
    return rows


def holds_lower_columns_only(pivots, ncols, q):
    """Whether every pivot c is a packed row of residues in columns below c."""
    size = _slot_bytes(q, ncols)
    return all(x >> (8 * size * c) == 0 and all(s < q for s in _unpack(x, c, size)) for c, x in pivots.items())


def residues(matrix, q):
    return [{j: x % q for j, x in enumerate(row) if x % q} for row in matrix]


def folded_rows(matrix, ncols, q):
    """The rows fold_mod folds: up to the first that leaves rank ncols - 1 mod q, else all."""
    for stop in range(len(matrix) + 1):
        if len(rref_mod_p(matrix[:stop], q)[1]) >= ncols - 1:
            return matrix[:stop]
    return matrix


@pytest.mark.parametrize("q", [MODULUS, 7])
@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_echelon_mod_matches_dense_reference(seed, nrows, ncols, rank, q):
    # fold_mod, the packed fold that replaced echelon_mod, against rref_mod_p
    # of the rows it folds before it stops at a line
    rng = random.Random(seed)
    matrix = random_matrix(rng, nrows, ncols, rank)
    pivots = fold_mod(residues(matrix, q), ncols, q)
    folded = folded_rows(matrix, ncols, q)
    reference, reference_pivots, _ = rref_mod_p(folded, q)
    assert len(pivots) == len(reference_pivots)
    # same row space: the pivot equations have the reference's RREF
    assert rref_mod_p(pivot_matrix_mod(pivots, ncols, q), q)[0][:len(pivots)] == reference[:len(pivots)]
    assert holds_lower_columns_only(pivots, ncols, q)
    if len(pivots) == ncols - 1:
        v = line_mod(pivots, ncols, q)
        assert v[min(set(range(ncols)) - set(pivots))] == 1
        assert all(sum(a * x for a, x in zip(row, v)) % q == 0 for row in folded)


@pytest.mark.parametrize("seed,nrows,ncols,rank", CASES)
def test_echelon_mod_over_the_large_prime_has_the_rank_over_q(seed, nrows, ncols, rank):
    # one spare column, so fold_mod cannot stop at a line before it has the rank
    rng = random.Random(seed)
    matrix = random_matrix(rng, nrows, ncols, rank)
    assert len(fold_mod(residues(matrix, MODULUS), ncols + 1, MODULUS)) == len(dense_rref(matrix))


def test_echelon_mod_stops_at_the_requested_rank():
    # fold_mod stops at a line; a second batch extends the same pivots
    rows = residues([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], MODULUS)
    pivots = fold_mod(rows[:2], 4, MODULUS)
    assert sorted(pivots) == [0, 1]
    assert fold_mod(rows[2:], 4, MODULUS, pivots) is pivots  # extends the same pivots
    assert sorted(pivots) == [0, 1, 2]  # e_3 is not folded
    assert line_mod(pivots, 4, MODULUS) == [0, 0, 0, 1]
    assert fold_mod(rows[:1], 1, MODULUS) == {}  # one column is already a line


@pytest.mark.parametrize(("q", "ncols"), [(3, 66), (7, 9), (MODULUS, 67)])
def test_fold_mod_slots_hold_the_worst_case(q, ncols):
    # Pivots at ncols - 1, ..., 2, each with every lower entry q - 1, and a
    # row whose leading entry is q - 1 at each of them: its slots 0 and 1
    # take ncols - 2 additions of (q - 1)^2, as many as a fold that stops at
    # ncols - 1 pivots allows.  At these ncols the sum needs every byte of
    # the slot, so a slot one bit narrower than the bound would carry.
    size = _slot_bytes(q, ncols)
    assert ((q - 1) + (ncols - 2) * (q - 1) ** 2).bit_length() > 8 * (size - 1)
    matrix = [[int(k <= c) for k in range(ncols)] for c in range(ncols - 1, 1, -1)]
    worst = [(q - 1 - (ncols - 1 - c)) % q for c in range(ncols)]
    worst[ncols - 1] = worst[0] = q - 1
    worst[1] = q - 1 if (q - 1 + ncols - 2) % q else q - 2  # nonzero at the last step
    matrix.append(worst)
    pivots = fold_mod(residues(matrix, q), ncols, q)
    assert sorted(pivots) == list(range(1, ncols))
    assert pivots[ncols - 1] == sum((q - 1) << (8 * size * k) for k in range(ncols - 1))
    reference, reference_pivots, _ = rref_mod_p(matrix, q)
    assert len(reference_pivots) == ncols - 1
    assert rref_mod_p(pivot_matrix_mod(pivots, ncols, q), q)[0] == reference
    v = line_mod(pivots, ncols, q)
    assert all(sum(a * x for a, x in zip(row, v)) % q == 0 for row in matrix)


def test_residue_row():
    q = MODULUS
    row = {0: Fraction(3, 2), 1: 0, 2: -1, 3: Fraction(q), 4: Fraction(-5)}
    assert residue_row(row, q) == {0: 3 * pow(2, -1, q) % q, 2: q - 1, 4: q - 5}
    assert residue_row({0: 1, 1: Fraction(1, 2 * q)}, q) is None
    assert residue_row({0: Fraction(1, 3)}, 7) == {0: 5}


def test_rational_reconstruction_recovers_small_fractions():
    rng = random.Random(11)
    bound = 2**30  # below sqrt(MODULUS / 2)
    for _ in range(300):
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        a = x.numerator * pow(x.denominator, -1, MODULUS) % MODULUS
        assert rational_reconstruction(a, MODULUS) == x
    assert rational_reconstruction(0, MODULUS) == 0
    assert rational_reconstruction(MODULUS - 1, MODULUS) == -1


def test_rational_reconstruction_refuses_large_values():
    # 2^60 is beyond the bound sqrt(q/2), so it never comes back as itself
    assert rational_reconstruction(2**60, MODULUS) != 2**60
    # mod 7 the bound is 1, so only 0, 1 and -1 lift; 3 does not
    assert rational_reconstruction(3, 7) is None
    assert [rational_reconstruction(a, 7) for a in (0, 1, 6)] == [0, 1, -1]
