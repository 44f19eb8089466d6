"""Hecke operators on Manin symbols and eigensymbol extraction.

T_ell (ell coprime to the level) acts through Merel's matrices of determinant
ell as a list of sparse rows {coordinate: value}.  T_ell commutes with the
sign involution J, so it acts on the plus quotient (modsym), where every
functional is J-invariant: the eigenline of a rational newform there is the
plus-eigensymbol, cut out by one sparse elimination of the rows of
T_ell - a_ell for good primes ell ascending up to the Sturm bound
(`_equations`), until the kernel is a line.

The elimination runs first modulo the prime linalg.MODULUS: the rows of the
first good T_ell - a_ell are folded, and each later good T_ell - a_ell acts
on the kernel mod the prime, until it is a line.  Its vector, 1 at a free
column, is lifted by rational reconstruction and certified exactly over Q:
it must satisfy T_ell v = a_ell v for every ell whose rows were folded.
The rank mod a prime is at most the rank over Q, so a line mod the prime
and these checks prove that the Q-kernel is the line through v.  If a
denominator is divisible by the prime, the kernel mod the prime is still
wider than a line at the Sturm bound, a reconstruction fails or a check
fails, the exact elimination over Q (linalg.echelon) runs instead; only it
raises EigenspaceNotOneDimensional or InconsistentEigenvalues.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .curves import EllipticCurve
from .errors import EigenspaceNotOneDimensional, InconsistentEigenvalues, RankPositive
from .linalg import MODULUS, echelon, echelon_mod, kernel, kernel_mod, rational_reconstruction, residue_row
from .modsym import ManinSymbolSpace, ModularSymbol, psi_index
from .primes import primes
from .records import Record


def merel_matrices(n: int):
    """Merel's set of determinant-n integer matrices a > b >= 0, d > c >= 0."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield a, b, 0, d
                for c in range(1, d):
                    yield a, 0, c, d
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield a, b, bc // b, d


def hecke_matrix(space: ManinSymbolSpace, ell: int):
    """Sparse rows of T_ell on basis coordinates, one per basis generator (ell must not divide the level)."""
    if space.N % ell == 0:
        raise ValueError(f"T_{ell} via Merel matrices requires ell coprime to the level")
    index = space.p1.index
    rows = []
    for b in space.basis:
        c, d = space.p1[b]
        rows.append(space.coordinate_row(index(c * p + d * r, c * q + d * s)
                                         for p, q, r, s in merel_matrices(ell)))
    return rows


def _shifted_rows(matrix, a):
    """Sparse rows of matrix - a * identity."""
    for i, row in enumerate(matrix):
        row = dict(row)
        row[i] = row.get(i, 0) - a
        yield row


def sturm_bound(space: ManinSymbolSpace) -> int:
    return -(-psi_index(space.N) // 6)


def _equations(space: ManinSymbolSpace, curve: EllipticCurve, matrix):
    """(ell, rows of T_ell - a_ell) in folding order: good ell ascending up to the Sturm bound."""
    bound = sturm_bound(space)
    for ell in primes():
        if ell > bound:
            return
        if space.N % ell:
            yield ell, list(_shifted_rows(matrix(ell), curve.a_ell(ell)))


def eigensymbol(space: ManinSymbolSpace, curve: EllipticCurve) -> ModularSymbol:
    """The plus-eigensymbol of the curve, cohomologically normalized.

    Folds the equations of T_ell - a_ell on the plus quotient prime by prime,
    until the kernel is one-dimensional: mod a prime with an exact
    certificate, or else exactly over Q.
    """
    if curve.conductor != space.N:
        raise ValueError("curve conductor does not match the space level")
    if not space.plus:
        raise ValueError("the eigensymbol is cut out on the plus quotient")
    matrix = functools.cache(lambda ell: hecke_matrix(space, ell))  # shared by both paths
    coords = _certified_eigenline(space, curve, matrix)
    if coords is None:
        coords = _exact_eigenline(space, curve, matrix)
    return _content_one(ModularSymbol(space, coords, sign="+"))


def _certified_eigenline(space: ManinSymbolSpace, curve: EllipticCurve, matrix):
    """Integer coordinates of the eigenline, found mod MODULUS and certified over Q.

    The rows of the first good T_ell - a_ell are folded by echelon_mod.
    While the kernel mod the prime is wider than a line, each later good
    T_ell - a_ell acts on a basis K of it (`_restrict`), so a later prime
    costs a system in dim K columns, not a fold of its rows into the full
    pivots; it cuts out the same subspace.  K keeps the identity on some free
    columns of the first fold, so the line has a coordinate 1, as the free
    column of kernel_mod's vector.

    None whenever the certificate cannot be had; the caller then runs the
    exact elimination.  Folding stops at the first row that leaves the kernel
    mod the prime a line, so a kernel that would shrink to 0 is caught by the
    exact check, which covers every row of every matrix touched: those of
    T_ell up to the first good ell at least, as the exact path folds them.
    """
    q = MODULUS
    basis = None  # of the kernel mod q, once the first good ell is folded
    folded = []  # exact sparse rows of every matrix touched, for the certificate
    for _, rows in _equations(space, curve, matrix):
        folded.extend(rows)
        residues = [residue_row(row, q) for row in rows]
        if None in residues:
            return None
        if basis is None:
            basis = kernel_mod(echelon_mod(residues, q, until=space.dimension - 1), space.dimension, q)
        else:
            basis = _restrict(residues, basis, q)
        if len(basis) == 1:
            break
    else:
        return None
    (vector,) = basis
    coords = [rational_reconstruction(x, q) for x in vector]
    if None in coords:
        return None
    den = math.lcm(*(c.denominator for c in coords))
    coords = [int(c * den) for c in coords]
    return coords if _annihilates(folded, coords) else None


def _restrict(rows, basis, q):
    """Basis mod q of the vectors of span(basis) that the residue rows annihilate, down to a line.

    Row r acts on span(basis) as the k entries r . basis[j], which are folded
    by echelon_mod in k columns, stopping once the kernel there is a line,
    as the fold of r into the full pivots would.  The images are made lazily,
    each by one big-int multiply-add: coordinate c of the basis is packed
    into one int, basis[j][c] in bits [j w, (j + 1) w).  Entries are in
    [0, q) and a row has at most n = len(basis[0]) of them, so slot j of the
    image is at most n (q - 1)^2 < 2^w and no slot carries into the next
    (w = 129 bits for q = 2^61 - 1 and n = 78, at level 681).
    """
    k, n = len(basis), len(basis[0])
    width = (n * (q - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    columns = list(zip(*basis))
    packed = [sum(x << (j * width) for j, x in enumerate(column)) for column in columns]

    def images():
        for row in rows:
            x = sum(a * packed[c] for c, a in row.items())
            yield {j: r for j in range(k) if (r := (x >> (j * width) & mask) % q)}

    pivots = echelon_mod(images(), q, until=k - 1)
    return [[sum(a * b for a, b in zip(w, column)) % q for column in columns]
            for w in kernel_mod(pivots, k, q)]


def _annihilates(rows, coords) -> bool:
    """Whether every sparse row vanishes on coords, exactly."""
    return not any(sum(x * coords[k] for k, x in row.items()) for row in rows)


def fits_first_equations(space: ManinSymbolSpace, curve: EllipticCurve, coords) -> bool:
    """Whether coords are nonzero with T_ell v = a_ell v for the least good ell.

    Both eigenline paths fold at least these rows, and every vector on the
    plus quotient is J-invariant, so a stored vector that fails them is not
    the eigenline.  Passing is not a certificate of the line: that needs the
    rank, which costs as much as the eigenline.
    """
    first = itertools.islice(_equations(space, curve, lambda ell: hecke_matrix(space, ell)), 1)
    return any(coords) and all(_annihilates(rows, coords) for _, rows in first)


def _exact_eigenline(space: ManinSymbolSpace, curve: EllipticCurve, matrix):
    """The eigenline by the exact elimination over Q, with its coded errors."""
    dim = space.dimension
    if dim == 0:
        raise InconsistentEigenvalues("plus-subspace is trivial")
    pivots = {}
    for ell, rows in _equations(space, curve, matrix):
        echelon(rows, pivots)
        if len(pivots) == dim:
            raise InconsistentEigenvalues(f"no symbol matches the eigenvalue system at ell = {ell}")
        if len(pivots) == dim - 1:
            return kernel(pivots, dim)[0]
    raise EigenspaceNotOneDimensional(f"eigenspace still {dim - len(pivots)}-dimensional "
                                      f"past the Sturm bound {sturm_bound(space)}")


def _content_one(sym: ModularSymbol) -> ModularSymbol:
    """Rescale so all generator values are integers of collective gcd 1.

    Sign convention: the value at {inf}-{0} is made positive when nonzero,
    otherwise the first nonzero generator value is.
    """
    vals = sym.generator_values()
    nonzero = [v for v in vals if v]
    if not nonzero:
        return sym
    den = math.lcm(*(v.denominator for v in nonzero))
    scale = Fraction(den, math.gcd(*(v.numerator * (den // v.denominator) for v in nonzero)))
    anchor = sym.value_infinity_minus(0)
    lead = anchor if anchor else nonzero[0]
    if lead * scale < 0:
        scale = -scale
    if scale == 1:
        return sym
    return scale * sym


class NormalizationData(Record, frozen=True):
    mode: str                      # "cohomological" | "neron"
    scalar: Fraction | None = None  # c with c * phi_stored = phi_Neron (neron mode)


def normalize(sym: ModularSymbol, curve: EllipticCurve, mode: str = "cohomological"):
    """Apply the requested normalization; returns (symbol, NormalizationData).

    The stored symbol is always the content-one integral one.  Neron mode does
    not rescale the coordinates: it records the scalar c with
    c * phi({inf}-{0}) = L(E,1)/Omega_E, and downstream reports shift
    mu-invariants by ord_p(c).
    """
    sym = _content_one(sym)
    if mode == "cohomological":
        return sym, NormalizationData("cohomological")
    if mode != "neron":
        raise ValueError(f"unknown normalization mode {mode!r}")
    if curve.lratio is None:
        raise RankPositive("neron mode requires the L(E,1)/Omega_E ratio")
    if curve.lratio == 0:
        raise RankPositive("neron normalization undefined: L(E,1)/Omega_E = 0")
    phi0 = sym.value_infinity_minus(0)
    if phi0 == 0:
        raise RankPositive("neron normalization undefined: phi({inf}-{0}) = 0")
    return sym, NormalizationData("neron", curve.lratio / phi0)
