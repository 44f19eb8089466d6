"""Hecke operators on Manin symbols and eigensymbol extraction.

T_ell (ell coprime to the level) acts through Merel's family of integral
matrices of determinant ell.  The one-dimensional eigenspace attached to a
rational newform is cut out by one sparse elimination: the rows of J - 1
(J the sign involution) go in first, then the rows of T_ell - a_ell for good
primes ell in ascending order up to the Sturm bound, until the kernel is a
line.

The elimination runs first modulo the prime linalg.MODULUS, and stops as
soon as the kernel mod the prime is a line.  Its vector, 1 at the free
column, is lifted by rational reconstruction and certified exactly over Q:
it must satisfy J v = v and T_ell v = a_ell v for every ell whose rows were
folded.  The rank mod a prime is at most the rank over Q, so a line mod the
prime and these checks prove that the Q-kernel is the line through v.  If a
denominator is divisible by the prime, the kernel mod the prime is still
wider than a line at the Sturm bound, a reconstruction fails or a check
fails, the exact elimination over Q (linalg.echelon) runs instead; only it
raises EigenspaceNotOneDimensional or InconsistentEigenvalues.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .curves import EllipticCurve
from .errors import EigenspaceNotOneDimensional, InconsistentEigenvalues, RankPositive
from .linalg import MODULUS, echelon, echelon_mod, kernel, kernel_mod, rational_reconstruction, residue_row
from .modsym import ManinSymbolSpace, ModularSymbol, psi_index
from .primes import primes


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
    """Matrix of T_ell on basis coordinates (ell must not divide the level)."""
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
    """Sparse rows of matrix - a * identity, integral entries as ints."""
    for i, row in enumerate(matrix):
        row = {k: x.numerator if x.denominator == 1 else x for k, x in enumerate(row) if x}
        row[i] = row.get(i, 0) - a
        yield row


def sturm_bound(space: ManinSymbolSpace) -> int:
    return -(-psi_index(space.N) // 6)


def eigensymbol(space: ManinSymbolSpace, curve: EllipticCurve) -> ModularSymbol:
    """The plus-eigensymbol of the curve, cohomologically normalized.

    Folds the equations of the +1-eigenspace of the sign involution, then
    those of T_ell - a_ell prime by prime, until the kernel is one-dimensional:
    mod a prime with an exact certificate, or else exactly over Q.
    """
    if curve.conductor != space.N:
        raise ValueError("curve conductor does not match the space level")
    matrix = functools.cache(lambda ell: hecke_matrix(space, ell))  # shared by both paths
    coords = _certified_eigenline(space, curve, matrix)
    if coords is None:
        coords = _exact_eigenline(space, curve, matrix)
    return _content_one(ModularSymbol(space, coords, sign="+"))


def _certified_eigenline(space: ManinSymbolSpace, curve: EllipticCurve, matrix):
    """Integer coordinates of the eigenline, found mod MODULUS and certified over Q.

    None whenever the certificate cannot be had; the caller then runs the
    exact elimination.  Folding stops at the first row that leaves the kernel
    mod the prime a line, so a kernel that would shrink to 0 is caught by the
    exact check, which covers every row of every matrix touched: those of J,
    and those of T_ell up to the first good ell at least, as the exact path
    folds them.
    """
    q = MODULUS
    dim = space.dimension
    line = dim - 1
    pivots = {}
    folded = []  # exact sparse rows of every matrix touched, for the certificate

    def fold(operator, a):
        rows = list(_shifted_rows(operator, a))
        folded.extend(rows)
        residues = [residue_row(row, q) for row in rows]
        if None in residues:
            return False
        echelon_mod(residues, q, pivots, until=line)
        return True

    if not fold(space.involution_matrix(), 1):
        return None
    bound = sturm_bound(space)
    for ell in (ell for ell in primes() if space.N % ell):
        if ell > bound or not fold(matrix(ell), curve.a_ell(ell)):
            return None
        if len(pivots) == line:
            break
    (vector,) = kernel_mod(pivots, dim, q)
    coords = [rational_reconstruction(x, q) for x in vector]
    if None in coords:
        return None
    den = math.lcm(*(c.denominator for c in coords))
    coords = [int(c * den) for c in coords]
    if any(sum(x * coords[k] for k, x in row.items()) for row in folded):
        return None
    return coords


def _exact_eigenline(space: ManinSymbolSpace, curve: EllipticCurve, matrix):
    """The eigenline by the exact elimination over Q, with its coded errors."""
    dim = space.dimension
    pivots = echelon(_shifted_rows(space.involution_matrix(), 1))  # kernel: the plus subspace
    if len(pivots) == dim:
        raise InconsistentEigenvalues("plus-subspace is trivial")
    bound = sturm_bound(space)
    for ell in (ell for ell in primes() if space.N % ell):
        if ell > bound:
            raise EigenspaceNotOneDimensional(
                f"eigenspace still {dim - len(pivots)}-dimensional past the Sturm bound {bound}"
            )
        echelon(_shifted_rows(matrix(ell), curve.a_ell(ell)), pivots)
        if len(pivots) == dim:
            raise InconsistentEigenvalues(
                f"no symbol matches the eigenvalue system at ell = {ell}"
            )
        if len(pivots) == dim - 1:
            break
    return kernel(pivots, dim)[0]


def _content_one(sym: ModularSymbol) -> ModularSymbol:
    """Rescale so all generator values are integers of collective gcd 1.

    Sign convention: the value at {inf}-{0} is made positive when nonzero,
    otherwise the first nonzero generator value is.
    """
    vals = sym.generator_values()
    nonzero = [v for v in vals if v]
    if not nonzero:
        return sym
    den = 1
    for v in nonzero:
        den = den * v.denominator // math.gcd(den, v.denominator)
    num = 0
    for v in nonzero:
        num = math.gcd(num, abs(v.numerator * (den // v.denominator)))
    scale = Fraction(den, num)
    anchor = sym.value_infinity_minus(0)
    lead = anchor if anchor else nonzero[0]
    if lead * scale < 0:
        scale = -scale
    if scale == 1:
        return sym
    return ModularSymbol(sym.space, [scale * c for c in sym.coords], sign=sym.sign)


@dataclass(frozen=True)
class NormalizationData:
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
