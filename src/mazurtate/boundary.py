"""Congruence of a modular symbol with a boundary symbol mod p.

A function psi on cusp classes (mod constants) induces the modular symbol
{r}-{s} -> psi(class r) - psi(class s).  The symbol phi is congruent mod p to
a boundary symbol iff the F_p system B.psi = (values of phi on the Manin
generators) is solvable, B being the indicator-difference matrix.  An
unsolvable system yields a short certificate: a combination of generator
equations reading 0 = nonzero.  boundary_congruence returns either as the
JSON-ready dict `boundary` renders.
"""
from __future__ import annotations

from .cusps import boundary_space_matrix
from .linalg import solve_mod_p


def boundary_congruence(sym, p: int) -> dict:
    """Witness psi with phi = psi-induced boundary symbol mod p, or a refutation; returns the `boundary` payload.

    The symbol must be integral (cohomologically normalized): its generator
    values reduce mod p and the comparison happens generator by generator,
    which suffices since unimodular-path divisors span all degree-0 divisors.
    witness is psi per class of cusps.CuspClassTable, gauge-fixed so the class
    of infinity is 0; refutation's combination [[generator, coefficient], ...]
    of generator equations reads 0 = inconsistent_value mod p.
    """
    space = sym.space
    vals = sym.generator_values()
    if any(v.denominator != 1 for v in vals):
        raise ValueError("boundary congruence needs an integrally normalized symbol")
    rhs = [v % p for v in vals]
    matrix, table = boundary_space_matrix(space, p)
    solution, cert, rank = solve_mod_p(matrix, rhs, p)
    report = {"p": p, "solvable": solution is not None, "boundary_rank": rank,
              "cusp_classes": [f"{a}/{c}" for a, c in table.representatives]}
    if solution is None:
        report["refutation"] = {"combination": [[i, c] for i, c in cert],
                                "inconsistent_value": sum(c * rhs[i] for i, c in cert) % p}
    else:
        gauge = solution[table.class_of_infinity()]
        report["witness"] = [(x - gauge) % p for x in solution]
    return report
