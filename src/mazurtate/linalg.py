"""Small dense exact linear algebra over Q (Fraction entries) and over F_p.

Matrices are lists of row lists.  Sizes here are tiny (at most a few hundred
columns), so plain Gaussian elimination is enough; everything stays exact.
"""
from __future__ import annotations

from fractions import Fraction


def zeros(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(n, cols)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(ai[j] * v[j] for j in range(len(v)) if v[j]) for ai in a]


def rref(matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, as a list of column vectors."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    if not matrix:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def column_stack(vectors):
    n = len(vectors[0])
    return [[v[i] for v in vectors] for i in range(n)]


# --- F_p versions (entries plain ints reduced mod p) ---


def rref_mod_p(matrix, p, track_combinations=False):
    """RREF over F_p.  With track_combinations, also row-reduces an identity
    block so each output row is tagged with its expression in the input rows."""
    m = [[x % p for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    combo = identity_mod(nrows) if track_combinations else None
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if combo is not None:
            combo[r], combo[pivot] = combo[pivot], combo[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        if combo is not None:
            combo[r] = [x * inv % p for x in combo[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
                if combo is not None:
                    combo[i] = [(a - f * b) % p for a, b in zip(combo[i], combo[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, combo


def identity_mod(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def solve_mod_p(matrix, rhs, p):
    """Solve matrix @ x = rhs over F_p.

    Returns (solution, None) when consistent, else (None, certificate) where
    the certificate is a list of (row_index, coefficient) whose combination of
    input equations reads 0 = nonzero.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    red, pivots, combo = rref_mod_p(aug, p, track_combinations=True)
    if ncols in pivots:
        bad = pivots.index(ncols)
        cert = [(j, combo[bad][j]) for j in range(nrows) if combo[bad][j]]
        return None, cert
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x, None
