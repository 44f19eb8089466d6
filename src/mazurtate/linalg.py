"""Exact linear algebra: sparse elimination over Q and mod a prime, dense over F_p.

Over Q, rows are sparse dicts {column: value}, as are the sign involution
and Hecke operators.  Every exact rational on the symbol path, from these
rows to a symbol's value table, is stored by one rule (`exact`): an int when
it is integral, a Fraction only otherwise.  `echelon` folds rows into pivot
rows, each stating a pivot variable as a combination of non-pivot columns;
`kernel` reads a kernel basis off those pivots.  The Manin-symbol relation
quotient is computed this way, and so is the Hecke eigenline when its fast
path cannot be certified.

The fast path works modulo the 61-bit prime MODULUS: `residue_row` reduces a
rational row (None if a denominator is divisible by the prime), `echelon_mod`
folds residue rows with the same insertion-rank scheme as `echelon`,
`kernel_mod` reads kernel vectors off its pivots, and
`rational_reconstruction` lifts a residue back to a small fraction.  Nothing
computed mod the prime is a result by itself: the caller certifies the lift
over Q.  Dense F_p matrices are lists of row lists of plain ints.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, isqrt

MODULUS = 2**61 - 1  # a Mersenne prime


def exact(x):
    """The exact rational x (an int or a Fraction) as an int when it is integral, else as a Fraction."""
    return x.numerator if x.denominator == 1 else x


def mat_mul(a, b):
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in range(n)]
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


def echelon(rows, pivots=None):
    """Fold sparse rows {column: value} into pivot rows; returns the pivots.

    pivots[v] = {column: c} states x_v = sum c * x_column over non-pivot
    columns, for every solution x of the rows folded in so far; passing in
    earlier pivots extends them.  Each incoming row has its pivot columns
    cleared oldest pivot first (a pivot row never holds an older pivot
    column, so each pivot is eliminated at most once), then pivots on its
    entry of least (denominator, |numerator|, column).  One back-substitution
    in reverse insertion order, after the batch, leaves every pivot row in
    non-pivot columns only, its entries in the `exact` format.
    """
    if pivots is None:
        pivots = {}
    order = list(pivots)
    rank = {v: r for r, v in enumerate(order)}
    for row in rows:
        row = {k: x for k, x in row.items() if x}
        heap = [rank[k] for k in row if k in rank]
        heap.sort()
        while heap:
            v = order[heappop(heap)]
            a = row.pop(v)
            if not a:
                continue
            for k, c in pivots[v].items():
                if k in row:
                    row[k] += a * c
                else:
                    row[k] = a * c
                    if k in rank:
                        heappush(heap, rank[k])
        row = {k: x for k, x in row.items() if x}
        if not row:
            continue
        piv = min(row, key=lambda k: (row[k].denominator, abs(row[k].numerator), k))
        c = -row.pop(piv)
        pivots[piv] = ({k: x * c for k, x in row.items()} if c == 1 or c == -1 else
                       {k: exact(Fraction(x) / c) for k, x in row.items()})
        rank[piv] = len(order)
        order.append(piv)
    for v in reversed(order):
        row = pivots[v]
        for k in [k for k in row if k in pivots]:
            a = row.pop(k)
            for k2, c in pivots[k].items():
                row[k2] = row.get(k2, 0) + a * c
        pivots[v] = {k: exact(x) for k, x in row.items() if x}
    return pivots


def kernel(pivots, ncols):
    """Kernel basis of echelon pivots, one vector per non-pivot column, ascending."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for piv, row in pivots.items():
            if f in row:
                v[piv] = row[f]
        basis.append(v)
    return basis


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, as a list of column vectors."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    return kernel(echelon({j: x for j, x in enumerate(row) if x} for row in matrix), ncols)


# --- sparse rows mod a large prime q (residues are ints in [0, q)) ---


def residue_row(row, q):
    """Sparse {column: rational} row reduced mod q, or None if a denominator is divisible by q."""
    out = {}
    for k, x in row.items():
        den = x.denominator  # 1 for an int
        if den % q == 0:
            return None
        x = x.numerator % q if den == 1 else x.numerator * pow(den, -1, q) % q
        if x:
            out[k] = x
    return out


def echelon_mod(rows, q, pivots=None, until=None):
    """Fold sparse residue rows mod the prime q into pivot rows; returns the pivots.

    The fold is that of `echelon`, on ints mod q: each incoming row has its
    pivot columns cleared oldest pivot first, then pivots on its greatest
    column (on Hecke rows this fills in far less than the least column: 4x
    fewer updates at level 5077).  There is no back-substitution, so a pivot
    row may still hold newer pivot columns (never older ones); `kernel_mod`
    resolves them.  Folding stops before the next row once `until` pivots
    exist.
    """
    if pivots is None:
        pivots = {}
    order = list(pivots)
    rank = {v: r for r, v in enumerate(order)}
    for row in rows:
        if until is not None and len(order) >= until:
            break
        row = dict(row)
        heap = [rank[k] for k in row if k in rank]
        heap.sort()
        while heap:
            v = order[heappop(heap)]
            a = row.pop(v) % q
            if not a:
                continue
            for k, c in pivots[v].items():
                if k in row:
                    row[k] += a * c
                else:
                    row[k] = a * c
                    if k in rank:
                        heappush(heap, rank[k])
        row = {k: r for k, x in row.items() if (r := x % q)}
        if not row:
            continue
        piv = max(row)
        c = q - pow(row.pop(piv), -1, q)
        pivots[piv] = {k: x * c % q for k, x in row.items()}
        rank[piv] = len(order)
        order.append(piv)
    return pivots


def kernel_mod(pivots, ncols, q):
    """Kernel basis mod q of echelon_mod pivots, one vector per non-pivot column, ascending.

    Pivot values are resolved newest pivot first, since a pivot row holds
    only non-pivot columns and newer pivots.
    """
    order = list(reversed(pivots))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for piv in order:
            v[piv] = sum(c * v[k] for k, c in pivots[piv].items()) % q
        basis.append(v)
    return basis


def rational_reconstruction(a, m):
    """The fraction n/d with n = a d mod m, |n| and 0 < d at most sqrt(m/2); None if none exists.

    Extended Euclid on (m, a), stopped at the first remainder within the
    bound (Wang's method; see Monagan, ISSAC 2004).  Such a fraction is
    unique when it exists.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        t = r0 // r1
        r0, r1 = r1, r0 - t * r1
        s0, s1 = s1, s0 - t * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


# --- F_p (entries plain ints reduced mod p) ---


def rref_mod_p(matrix, p):
    """RREF over F_p; returns (rref_rows, pivot_columns, combinations).

    combinations[r] is a sparse {input_row: coefficient} with
    rref_rows[r] = sum coefficient * matrix[input_row] mod p.
    """
    m = [[x % p for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    combo = [{i: 1} for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        combo[r], combo[pivot] = combo[pivot], combo[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        combo[r] = {j: x * inv % p for j, x in combo[r].items()}
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
                ci, cr = combo[i], combo[r]
                combo[i] = {j: y for j in ci.keys() | cr.keys() if (y := (ci.get(j, 0) - f * cr.get(j, 0)) % p)}
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, combo


def solve_mod_p(matrix, rhs, p):
    """Solve matrix @ x = rhs over F_p; returns (solution, certificate, rank).

    solution is None when the system is inconsistent; the certificate is then
    a list of (row_index, coefficient) whose combination of input equations
    reads 0 = nonzero.  rank is the rank of matrix mod p.
    """
    ncols = len(matrix[0]) if matrix else 0
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    red, pivots, combo = rref_mod_p(aug, p)
    if ncols in pivots:
        bad = pivots.index(ncols)
        return None, sorted(combo[bad].items()), bad
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x, None, len(pivots)
