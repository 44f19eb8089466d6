"""Exact computation of Mazur-Tate elements and their Iwasawa invariants.

Pipeline: Weierstrass model -> Hecke eigensymbol on Manin symbols for
Gamma_0(N) -> finite-level group-ring elements -> mu/lambda invariants,
dichotomy classification and boundary-symbol congruences.
"""
