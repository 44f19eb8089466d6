from fractions import Fraction

import pytest

from mazurtate.curves import EllipticCurve
from mazurtate.errors import EigenspaceNotOneDimensional, InconsistentEigenvalues, RankPositive
from mazurtate.hecke import eigensymbol, hecke_matrix, merel_matrices, normalize, sturm_bound
from mazurtate.linalg import mat_mul, mat_vec, nullspace
from mazurtate.modsym import build_space

from .conftest import make_curve


def test_merel_matrices_have_determinant_n():
    for n in (2, 3, 5, 7):
        mats = list(merel_matrices(n))
        assert all(a * d - b * c == n for a, b, c, d in mats)
        assert len(mats) == len(set(mats))


def test_hecke_rejects_bad_ell():
    sp = build_space(26)
    with pytest.raises(ValueError):
        hecke_matrix(sp, 13)


def test_charpoly_root_at_level_11():
    sp = build_space(11)
    T2 = hecke_matrix(sp, 2)
    # -2 is the 11a eigenvalue of T_2; the shifted operator must be singular
    M = [row[:] for row in T2]
    for i in range(sp.dimension):
        M[i][i] += 2
    assert len(nullspace(M)) >= 1
    # the Eisenstein eigenvalue ell + 1 = 3 appears too
    M = [row[:] for row in T2]
    for i in range(sp.dimension):
        M[i][i] -= 3
    assert len(nullspace(M)) >= 1


def test_hecke_operators_commute():
    sp = build_space(26)
    T3 = hecke_matrix(sp, 3)
    T5 = hecke_matrix(sp, 5)
    T7 = hecke_matrix(sp, 7)
    assert mat_mul(T3, T5) == mat_mul(T5, T3)
    assert mat_mul(T3, T7) == mat_mul(T7, T3)


def test_hecke_trace_is_rational():
    sp = build_space(26)
    T3 = hecke_matrix(sp, 3)
    tr = sum(T3[i][i] for i in range(sp.dimension))
    assert isinstance(tr, Fraction)
    assert tr.denominator <= 2**10


def test_eigensymbol_11a_exact_eigen_property(spaces, curves):
    sym = eigensymbol(spaces[11], curves["11a"])
    for ell in (2, 3, 5, 7, 13):
        T = hecke_matrix(spaces[11], ell)
        assert mat_vec(T, list(sym.coords)) == [curves["11a"].a_ell(ell) * c for c in sym.coords]


def test_eigensymbol_26b1_up_to_20(spaces, curves):
    sym = eigensymbol(spaces[26], curves["26b1"])
    for ell in (3, 5, 7, 11, 17, 19):
        T = hecke_matrix(spaces[26], ell)
        assert mat_vec(T, list(sym.coords)) == [curves["26b1"].a_ell(ell) * c for c in sym.coords]


def test_eigensymbol_is_plus_eigenvector(eigensymbols):
    for sym in eigensymbols.values():
        assert sym.involution().coords == sym.coords


def test_divisor_level_tp_relation(eigensymbols, curves):
    # a_p phi({inf}-{0}) = phi({inf}-{0}) + sum_{u=0}^{p-1} phi({inf}-{u/p}),
    # the three-term Hecke identity evaluated on actual divisors
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 7)):
        sym = eigensymbols[label]
        phi0 = sym.value_infinity_minus(0)
        total = phi0 + sum(sym.value_infinity_minus(Fraction(u, p)) for u in range(p))
        assert curves[label].a_ell(p) * phi0 == total
        assert phi0 != 0


def test_hecke_commutes_with_involution(spaces):
    J = spaces[11].involution_matrix()
    T3 = hecke_matrix(spaces[11], 3)
    assert mat_mul(J, T3) == mat_mul(T3, J)


def test_wrong_eigenvalues_raise():
    sp = build_space(11)
    curve = make_curve("11a")
    curve._ap_cache.update({2: 1, 3: 2})  # deliberately wrong
    with pytest.raises(InconsistentEigenvalues) as exc:
        eigensymbol(sp, curve)
    assert str(exc.value) == "no symbol matches the eigenvalue system at ell = 2"


def test_eisenstein_system_never_cuts_to_dimension_one():
    # a fake all-Eisenstein eigenvalue system a_ell = ell + 1 at level 26
    # keeps a multi-dimensional cut past the Sturm bound
    sp = build_space(26)
    curve = make_curve("26b1")
    curve._ap_cache.update({ell: ell + 1 for ell in (3, 5, 7, 11, 17, 19, 23, 29, 31, 37, 41, 43)})
    with pytest.raises(EigenspaceNotOneDimensional) as exc:
        eigensymbol(sp, curve)
    assert str(exc.value) == "eigenspace still 3-dimensional past the Sturm bound 7"


@pytest.mark.parametrize("eigenvalues,error,message", [
    ({5: 0}, InconsistentEigenvalues, "no symbol matches the eigenvalue system at ell = 5"),
    ({ell: ell + 1 for ell in (5, 7, 11, 13, 17, 19, 23, 31, 37, 41, 43, 47, 53, 59)},
     EigenspaceNotOneDimensional, "eigenspace still 7-dimensional past the Sturm bound 60"),
])
def test_eigensymbol_errors_at_level_174(spaces, eigenvalues, error, message):
    # a wrong a_5, and a fake Eisenstein system up to the Sturm bound
    curve = make_curve("174b1")
    curve._ap_cache.update(eigenvalues)
    with pytest.raises(error) as exc:
        eigensymbol(spaces[174], curve)
    assert str(exc.value) == message


def test_conductor_level_mismatch():
    with pytest.raises(ValueError):
        eigensymbol(build_space(11), make_curve("26b1"))


def test_sturm_bound():
    assert sturm_bound(build_space(11)) == 2
    assert sturm_bound(build_space(26)) == 7


def test_cohomological_normalization_content_one(eigensymbols):
    import math

    for sym in eigensymbols.values():
        vals = [v for v in sym.generator_values() if v]
        assert all(v.denominator == 1 for v in vals)
        assert math.gcd(*[abs(int(v)) for v in vals]) == 1


def test_normalize_idempotent(eigensymbols, curves):
    sym = eigensymbols["26b1"]
    once, _ = normalize(sym, curves["26b1"], "cohomological")
    twice, _ = normalize(once, curves["26b1"], "cohomological")
    assert once.coords == twice.coords


def test_neron_scalar_relation(eigensymbols, curves):
    from mazurtate.padics import valuation

    sym, data = normalize(eigensymbols["26b1"], curves["26b1"], "neron")
    assert data.scalar * sym.value_infinity_minus(0) == curves["26b1"].lratio
    assert valuation(data.scalar * sym.value_infinity_minus(0), 7) == -1
    sym, data = normalize(eigensymbols["174b1"], curves["174b1"], "neron")
    assert valuation(data.scalar * sym.value_infinity_minus(0), 7) == 0


def test_neron_requires_nonvanishing_central_value():
    # rank-one curve 37a: phi({inf}-{0}) = 0, so neron mode must refuse
    curve = EllipticCurve(0, 0, 1, -1, 0, conductor=37, label="37a", lratio=Fraction(0))
    sp = build_space(37)
    sym = eigensymbol(sp, curve)
    assert sym.value_infinity_minus(0) == 0
    with pytest.raises(RankPositive):
        normalize(sym, curve, "neron")


def test_neron_refuses_a_zero_lratio(eigensymbols, curves):
    # 11a has phi({inf}-{0}) != 0, so only the stated ratio can be at fault
    curve = EllipticCurve(**{**curves["11a"].to_dict(), "lratio": Fraction(0)})
    with pytest.raises(RankPositive, match="L\\(E,1\\)/Omega_E = 0"):
        normalize(eigensymbols["11a"], curve, "neron")
    sym, data = normalize(eigensymbols["11a"], curve, "cohomological")
    assert data.mode == "cohomological" and sym.value_infinity_minus(0) != 0
