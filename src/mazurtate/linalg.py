"""Exact linear algebra: sparse elimination over Q and mod a prime, dense over F_p.

Over Q, rows are sparse dicts {column: value}, as are the Hecke operators.
Every exact rational on the symbol path, from these rows to a symbol's value
table, is stored by one rule (`exact`): an int when it is integral, a
Fraction only otherwise.  `fold` folds rows into pivot rows,
which fixes the pivot set and so the free columns; `echelon` then
back-substitutes, so each pivot row states a pivot variable as a
combination of non-pivot columns, and `kernel` reads a kernel basis off
those pivots.  The Manin-symbol relation quotient is computed this way (its
basis alone needs only the fold), and so is the Hecke eigenline when its
fast path cannot be certified.

The fast path works modulo the 61-bit prime MODULUS: `residue_row` reduces a
rational row (None if a denominator is divisible by the prime), `fold_mod`
folds residue rows into pivot rows packed one int each, down to a line,
`line_mod` resolves that line's vector, and `rational_reconstruction` lifts a
residue back to a small fraction.  Nothing computed mod the prime is a
result by itself: the caller certifies the lift over Q.  Dense F_p matrices are lists of row lists of plain ints.
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


def fold(rows, pivots=None):
    """Fold sparse rows {column: value} into pivot rows; returns the pivots.

    Each incoming row has its pivot columns cleared oldest pivot first (a
    pivot row never holds an older pivot column, so each pivot is eliminated
    at most once), then pivots on its entry of least (denominator,
    |numerator|, column).  A pivot row may still hold newer pivot columns;
    `echelon` resolves them.  The pivot set, and so the set of free columns,
    is final here.
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
    return pivots


def echelon(rows, pivots=None):
    """`fold` the rows, then back-substitute; returns the pivots.

    pivots[v] = {column: c} states x_v = sum c * x_column over non-pivot
    columns, for every solution x of the rows folded in so far; passing in
    earlier pivots extends them.  One back-substitution in reverse insertion
    order, after the batch, leaves every pivot row in non-pivot columns
    only, its entries in the `exact` format; it never changes the pivot set.
    """
    pivots = fold(rows, pivots)
    for v in reversed(pivots):
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


def _slot_bytes(q, ncols):
    """Bytes per column of a packed row mod q in ncols columns: enough for (q - 1) + (ncols - 1) (q - 1)^2."""
    return -(-((q - 1) + (ncols - 1) * (q - 1) ** 2).bit_length() // 8)


def _unpack(x, count, size):
    """The lowest count slots of the packed row x, size bytes each, lowest column first."""
    b = x.to_bytes(count * size, "little")
    return [int.from_bytes(b[i:i + size], "little") for i in range(0, count * size, size)]


def fold_mod(rows, ncols, q, pivots=None):
    """Fold sparse residue rows mod the prime q into packed pivot rows, down to a line; returns the pivots.

    A packed row is one int, column k in bits [k w, (k + 1) w) for
    w = 8 _slot_bytes(q, ncols).  A row is reduced by its leading (greatest
    nonzero) column c, read by shift and cleared: by (slot mod q) times the
    pivot at c, or else its lower slots are reduced mod q and scaled by
    -1/(slot mod q), and it becomes the pivot at c, stating
    x_c = sum pivot[k] x_k over k < c.  So a pivot holds lower columns only
    and is added to a row at most once: a slot stays at most
    (q - 1) + (ncols - 1) (q - 1)^2 and never carries into the next.  On
    Hecke rows the greatest column fills in far less than the least.
    Folding stops before the next row once ncols - 1 pivots exist, so the
    kernel is a line; passing in earlier pivots extends them.
    """
    if pivots is None:
        pivots = {}
    size = _slot_bytes(q, ncols)
    w = 8 * size
    for row in rows:
        if len(pivots) >= ncols - 1:
            break
        x = sum(r << (k * w) for k, r in row.items())
        while x:
            c = (x.bit_length() - 1) // w
            raw = x >> (c * w)
            x ^= raw << (c * w)
            a = raw % q
            if not a:
                continue
            pivot = pivots.get(c)
            if pivot is not None:
                x += a * pivot
                continue
            f = q - pow(a, -1, q)
            pivots[c] = int.from_bytes(b"".join((s * f % q).to_bytes(size, "little")
                                                for s in _unpack(x, c, size)), "little")
            break
    return pivots


def line_mod(pivots, ncols, q):
    """The kernel vector mod q of ncols - 1 fold_mod pivots, 1 at the free column.

    Columns are resolved in ascending order, one pivot unpacked at a time,
    since pivot c holds only columns below c; those below the free column
    are all pivots and resolve to 0.
    """
    size = _slot_bytes(q, ncols)
    free = next(k for k in range(ncols) if k not in pivots)
    v = [0] * ncols
    v[free] = 1
    for c in range(free + 1, ncols):
        v[c] = sum(s * y for s, y in zip(_unpack(pivots[c], c, size), v)) % q
    return v


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
