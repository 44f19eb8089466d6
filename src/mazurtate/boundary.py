"""Congruence of a modular symbol with a boundary symbol mod p.

A function psi on cusp classes (mod constants) induces the modular symbol
{r}-{s} -> psi(class r) - psi(class s).  The symbol phi is congruent mod p to
a boundary symbol iff the F_p system B.psi = (values of phi on the Manin
generators) is solvable, B being the indicator-difference matrix.  An
unsolvable system yields a short certificate: a combination of generator
equations reading 0 = nonzero.
"""
from __future__ import annotations

from .cusps import boundary_space_matrix
from .linalg import solve_mod_p
from .records import Record


class BoundarySymbol(Record, frozen=True):
    """Function on cusp classes mod p, modulo constants; evaluable on divisors."""

    p: int
    table: object  # CuspClassTable
    values: tuple  # per cusp class, gauge-fixed so the class of infinity is 0

    def value(self, divisor) -> int:
        total = 0
        for coeff, cusp in divisor.terms:
            total += coeff * self.values[self.table.classify(cusp)]
        return total % self.p


class RefutationCertificate(Record, frozen=True):
    """Combination sum(coeff * row_i) of generator equations that is 0 = nonzero."""

    p: int
    combination: tuple  # ((generator_index, coefficient), ...)
    inconsistent_value: int

    def verify(self, matrix, rhs) -> bool:
        p = self.p
        ncols = len(matrix[0])
        acc = [0] * ncols
        val = 0
        for i, c in self.combination:
            for j in range(ncols):
                acc[j] = (acc[j] + c * matrix[i][j]) % p
            val = (val + c * rhs[i]) % p
        return all(x == 0 for x in acc) and val == self.inconsistent_value and val != 0


class BoundaryCongruenceResult(Record, frozen=True):
    p: int
    solvable: bool
    witness: BoundarySymbol | None
    certificate: RefutationCertificate | None
    boundary_rank: int
    class_representatives: tuple

    def to_dict(self) -> dict:
        d = {
            "p": self.p,
            "solvable": self.solvable,
            "boundary_rank": self.boundary_rank,
            "cusp_classes": [f"{a}/{c}" for a, c in self.class_representatives],
        }
        if self.witness is not None:
            d["witness"] = list(self.witness.values)
        if self.certificate is not None:
            d["refutation"] = {
                "combination": [[i, c] for i, c in self.certificate.combination],
                "inconsistent_value": self.certificate.inconsistent_value,
            }
        return d


def boundary_congruence(sym, p: int) -> BoundaryCongruenceResult:
    """Witness psi with phi = psi-induced boundary symbol mod p, or a refutation.

    The symbol must be integral (cohomologically normalized): its generator
    values reduce mod p and the comparison happens generator by generator,
    which suffices since unimodular-path divisors span all degree-0 divisors.
    """
    space = sym.space
    vals = sym.generator_values()
    if any(v.denominator != 1 for v in vals):
        raise ValueError("boundary congruence needs an integrally normalized symbol")
    rhs = [v % p for v in vals]
    matrix, table = boundary_space_matrix(space, p)
    solution, cert, rank = solve_mod_p(matrix, rhs, p)
    if solution is None:
        val = 0
        for i, c in cert:
            val = (val + c * rhs[i]) % p
        certificate = RefutationCertificate(p, tuple(cert), val)
        return BoundaryCongruenceResult(p, False, None, certificate, rank, tuple(table.representatives))
    gauge = solution[table.class_of_infinity()]
    values = tuple((x - gauge) % p for x in solution)
    witness = BoundarySymbol(p, table, values)
    return BoundaryCongruenceResult(p, True, witness, None, rank, tuple(table.representatives))
