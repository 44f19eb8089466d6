import random
from fractions import Fraction

import pytest

from mazurtate.linalg import echelon, kernel, nullspace, rref_mod_p, solve_mod_p


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
    return [[sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(ncols)] for _ in range(nrows)]


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


def test_integer_rows_give_fraction_entries():
    pivots = echelon([{0: 2, 1: 3}, {2: 4, 3: -2}])
    assert pivots == {0: {1: Fraction(-3, 2)}, 3: {2: Fraction(2)}}
    assert all(isinstance(c, Fraction) for row in pivots.values() for c in row.values())


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
