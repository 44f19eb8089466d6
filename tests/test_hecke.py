import random
from fractions import Fraction
from functools import partial

import pytest

from mazurtate import hecke
from mazurtate.curves import EllipticCurve
from mazurtate.errors import EigenspaceNotOneDimensional, InconsistentEigenvalues, RankPositive
from mazurtate.hecke import eigensymbol, hecke_matrix, merel_matrices, normalize, sturm_bound
from mazurtate.linalg import MODULUS, fold_mod, line_mod, mat_mul, nullspace, rref_mod_p
from mazurtate.modsym import ModularSymbol, build_space

from .conftest import curve_record, involution_matrix, make_curve
from .test_linalg import pivot_matrix_mod, random_matrix, residues


def densify(rows, dim):
    """Sparse rows {column: value} as dense Fraction rows."""
    return [[row.get(j, Fraction(0)) for j in range(dim)] for row in rows]


def mat_vec(a, v):
    return [sum(ai[j] * v[j] for j in range(len(v)) if v[j]) for ai in a]


def test_merel_matrices_have_determinant_n():
    for n in (2, 3, 5, 7):
        mats = list(merel_matrices(n))
        assert all(a * d - b * c == n for a, b, c, d in mats)
        assert len(mats) == len(set(mats))


def test_hecke_matrix_lists_the_merel_matrices_once_per_call(monkeypatch):
    sp = build_space(26)
    expected = {ell: hecke_matrix(sp, ell) for ell in (3, 5, 7)}
    original = hecke.merel_matrices
    calls = []

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(hecke, "merel_matrices", counted)
    for ell, rows in expected.items():
        calls.clear()
        assert hecke_matrix(sp, ell) == rows
        assert calls == [ell]  # not once per basis row
    assert sp.dimension > 1


def test_hecke_rejects_bad_ell():
    sp = build_space(26)
    with pytest.raises(ValueError):
        hecke_matrix(sp, 13)


def test_charpoly_root_at_level_11():
    sp = build_space(11)
    T2 = densify(hecke_matrix(sp, 2), sp.dimension)
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
    T3, T5, T7 = (densify(hecke_matrix(sp, ell), sp.dimension) for ell in (3, 5, 7))
    assert mat_mul(T3, T5) == mat_mul(T5, T3)
    assert mat_mul(T3, T7) == mat_mul(T7, T3)


def test_hecke_trace_is_rational():
    sp = build_space(26, plus=False)
    T3 = densify(hecke_matrix(sp, 3), sp.dimension)
    tr = sum(T3[i][i] for i in range(sp.dimension))
    assert isinstance(tr, Fraction)
    assert tr.denominator <= 2**10


def test_eigensymbol_11a_exact_eigen_property(spaces, curves):
    sym = eigensymbol(spaces[11], curves["11a"])
    for ell in (2, 3, 5, 7, 13):
        T = densify(hecke_matrix(spaces[11], ell), spaces[11].dimension)
        assert mat_vec(T, list(sym.coords)) == [curves["11a"].a_ell(ell) * c for c in sym.coords]


def test_eigensymbol_26b1_up_to_20(spaces, curves):
    sym = eigensymbol(spaces[26], curves["26b1"])
    for ell in (3, 5, 7, 11, 17, 19):
        T = densify(hecke_matrix(spaces[26], ell), spaces[26].dimension)
        assert mat_vec(T, list(sym.coords)) == [curves["26b1"].a_ell(ell) * c for c in sym.coords]


def test_eigensymbol_is_plus_eigenvector(eigensymbols):
    for sym in eigensymbols.values():
        assert sym.space.plus and sym.is_plus()


def test_eigensymbol_needs_the_plus_quotient():
    with pytest.raises(ValueError, match="plus quotient"):
        eigensymbol(build_space(11, plus=False), make_curve("11a"))


def test_divisor_level_tp_relation(eigensymbols, curves):
    # a_p phi({inf}-{0}) = phi({inf}-{0}) + sum_{u=0}^{p-1} phi({inf}-{u/p}),
    # the three-term Hecke identity evaluated on actual divisors
    for label, p in (("11a", 5), ("26b1", 7), ("174b1", 7)):
        sym = eigensymbols[label]
        phi0 = sym.value_infinity_minus(0)
        total = phi0 + sum(sym.value_infinity_minus(Fraction(u, p)) for u in range(p))
        assert curves[label].a_ell(p) * phi0 == total
        assert phi0 != 0


def test_hecke_commutes_with_involution(full_spaces):
    # so T_ell acts on the plus quotient, where the eigenline is cut out
    for sp in full_spaces.values():
        J = densify(involution_matrix(sp), sp.dimension)
        for ell in (3, 5):
            T = densify(hecke_matrix(sp, ell), sp.dimension)
            assert mat_mul(J, T) == mat_mul(T, J)


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

    sym, scalar = normalize(eigensymbols["26b1"], curves["26b1"], "neron")
    assert scalar * sym.value_infinity_minus(0) == curves["26b1"].lratio
    assert valuation(scalar * sym.value_infinity_minus(0), 7) == -1
    sym, scalar = normalize(eigensymbols["174b1"], curves["174b1"], "neron")
    assert valuation(scalar * sym.value_infinity_minus(0), 7) == 0


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
    curve = EllipticCurve(**{**curve_record(curves["11a"]), "lratio": Fraction(0)})
    with pytest.raises(RankPositive, match="L\\(E,1\\)/Omega_E = 0"):
        normalize(eigensymbols["11a"], curve, "neron")
    sym, scalar = normalize(eigensymbols["11a"], curve, "cohomological")
    assert scalar is None and sym.value_infinity_minus(0) != 0


# --- the certified mod-q eigenline against the exact elimination over Q ---

LEVEL_CURVES = {  # label: (a1, a2, a3, a4, a6, conductor), beyond the conftest fixtures
    "37a1": (0, 0, 1, -1, 0, 37),
    "389a1": (0, 1, 1, -2, 0, 389),
    "571a1": (0, -1, 1, -929, -10595, 571),
    "681b1": (1, 1, 0, -1154, -15345, 681),
}
EIGENLINE_LABELS = ["11a", "26b1", "50b1", "174b1", "37a1", "389a1", "571a1", "681b1"]


@pytest.fixture(scope="module")
def level_cases(spaces, curves):
    """label -> (space, curve, content-one coordinates from the exact elimination)."""
    cases = {label: (spaces[curve.conductor], curve) for label, curve in curves.items()}
    for label, (*coeffs, N) in LEVEL_CURVES.items():
        cases[label] = (build_space(N), EllipticCurve(*coeffs, conductor=N, label=label))
    return {
        label: (space, curve, _content_one_coords(space, hecke._exact_eigenline(space, curve, partial(hecke_matrix, space))))
        for label, (space, curve) in cases.items()
    }


def _content_one_coords(space, coords):
    return hecke._content_one(ModularSymbol(space, coords, sign="+")).coords


def _count_exact_runs(monkeypatch):
    calls = []
    exact = hecke.echelon

    def counted(*args, **kwargs):
        calls.append(1)
        return exact(*args, **kwargs)

    monkeypatch.setattr(hecke, "echelon", counted)
    return calls


@pytest.mark.parametrize("label", EIGENLINE_LABELS)
def test_certified_eigenline_matches_the_exact_one(level_cases, label):
    space, curve, expected = level_cases[label]
    coords = hecke._certified_eigenline(space, curve, partial(hecke_matrix, space))
    assert coords is not None and all(isinstance(c, int) for c in coords)
    assert _content_one_coords(space, coords) == expected
    assert eigensymbol(space, curve).coords == expected


@pytest.mark.parametrize("label", ["11a", "26b1", "50b1", "174b1", "389a1", "571a1", "681b1"])
def test_tiny_modulus_falls_back_to_the_exact_elimination(level_cases, label, monkeypatch):
    # mod 3 these kernels are wider than a line, or their vectors do not lift
    monkeypatch.setattr(hecke, "MODULUS", 3)
    calls = _count_exact_runs(monkeypatch)
    space, curve, expected = level_cases[label]
    assert eigensymbol(space, curve).coords == expected
    assert calls


def test_tiny_modulus_may_still_certify(level_cases, monkeypatch):
    # 37a1's eigenline lifts from mod 3 and passes the exact check: no fallback
    monkeypatch.setattr(hecke, "MODULUS", 3)
    calls = _count_exact_runs(monkeypatch)
    space, curve, expected = level_cases["37a1"]
    assert eigensymbol(space, curve).coords == expected
    assert not calls


@pytest.mark.parametrize("label", ["26b1", "389a1", "681b1"])
def test_perturbed_reconstruction_is_refused(level_cases, label, monkeypatch):
    lifted = []
    reconstruct = hecke.rational_reconstruction

    def perturb_one(a, m):
        x = reconstruct(a, m)
        lifted.append(x)
        return x + 1 if len(lifted) == 1 else x

    monkeypatch.setattr(hecke, "rational_reconstruction", perturb_one)
    space, curve, expected = level_cases[label]
    assert hecke._certified_eigenline(space, curve, partial(hecke_matrix, space)) is None
    calls = _count_exact_runs(monkeypatch)
    lifted.clear()
    assert eigensymbol(space, curve).coords == expected
    assert calls and len(lifted) == space.dimension


def test_shared_hecke_matrices_are_built_once(monkeypatch):
    # the fake Eisenstein system sends both paths to the Sturm bound
    built = []
    monkeypatch.setattr(hecke, "hecke_matrix", lambda space, ell: built.append(ell) or hecke_matrix(space, ell))
    curve = make_curve("26b1")
    curve._ap_cache.update({ell: ell + 1 for ell in (3, 5, 7)})
    with pytest.raises(EigenspaceNotOneDimensional):
        eigensymbol(build_space(26), curve)
    assert built == [3, 5, 7]


@pytest.mark.parametrize(("label", "trail"), [
    ("681b1", [5, 5, 1]),  # T_2, T_5, T_7
    ("174b1", [9, 1]),
    ("389a1", [1]),  # T_2 already leaves a line
])
def test_later_primes_act_on_the_kernel(level_cases, monkeypatch, label, trail):
    # the kernel dimension mod q after each good ell: every prime is folded
    # into the same pivots, so a later one only cuts the kernel further
    dims = []

    def fold(rows, ncols, q, pivots):
        pivots = fold_mod(rows, ncols, q, pivots)
        dims.append(ncols - len(pivots))
        return pivots

    monkeypatch.setattr(hecke, "fold_mod", fold)
    space, curve, expected = level_cases[label]
    coords = hecke._certified_eigenline(space, curve, partial(hecke_matrix, space))
    assert _content_one_coords(space, coords) == expected
    assert dims == trail


@pytest.mark.parametrize("ell", [5, 7])
def test_the_certificate_covers_the_later_primes(level_cases, ell):
    # at 681 the kernel after T_2 is 5-dimensional: a wrong a_5 or a_7 acts
    # only on it, and the exact check of its rows still refuses the line
    space = level_cases["681b1"][0]
    *coeffs, N = LEVEL_CURVES["681b1"]
    curve = EllipticCurve(*coeffs, conductor=N, label="681b1")
    curve._ap_cache[ell] = curve.a_ell(ell) + 1
    assert hecke._certified_eigenline(space, curve, partial(hecke_matrix, space)) is None
    with pytest.raises(InconsistentEigenvalues) as exc:
        eigensymbol(space, curve)
    assert str(exc.value) == f"no symbol matches the eigenvalue system at ell = {ell}"


def rank_mod(rows, q):
    return len(rref_mod_p(rows, q)[1])


@pytest.mark.parametrize("q", [MODULUS, 7])
@pytest.mark.parametrize("seed", range(20))
def test_restriction_matches_the_full_fold(seed, q):
    # a second batch folded onto the pivots of the first, as a later Hecke
    # prime is, cuts out the kernel of both batches, stopping at a line
    rng = random.Random(seed)
    ncols = rng.randint(3, 9)
    nrows = rng.randint(0, ncols - 2)  # so the kernel of the first batch is at least a plane
    first = random_matrix(rng, nrows, ncols, nrows)
    second = random_matrix(rng, rng.randint(1, 6), ncols, rng.randint(1, ncols))
    pivots = fold_mod(residues(first, q), ncols, q)
    assert len(pivots) <= ncols - 2
    fold_mod(residues(second, q), ncols, q, pivots)
    assert pivots == fold_mod(residues(first + second, q), ncols, q)
    # the rows folded: all of the first batch, the second up to a line
    stop = next((i for i in range(len(second) + 1) if rank_mod(first + second[:i], q) >= ncols - 1), len(second))
    folded = first + second[:stop]
    assert len(pivots) == rank_mod(folded, q)
    if len(pivots) == ncols - 1:
        v = line_mod(pivots, ncols, q)
        assert any(v) and all(sum(a * x for a, x in zip(row, v)) % q == 0 for row in folded)


@pytest.mark.parametrize("q", [MODULUS, 7])
def test_restriction_stops_at_a_line_within_a_batch(q):
    # e_1 and -e_2 leave the line through e_3 on the kernel of e_0; the fold
    # stops there, so 5 e_3 and e_1 + e_2 are not folded
    first = [{0: 1}]
    second = [{1: 1}, {2: q - 1}, {3: 5}, {1: 1, 2: 1}]
    pivots = fold_mod(second, 4, q, fold_mod(first, 4, q))
    assert sorted(pivots) == [0, 1, 2]
    assert line_mod(pivots, 4, q) == [0, 0, 0, 1]
    # e_1 + e_2 alone leaves the plane through e_1 - e_2 and e_3: no line yet
    pivots = fold_mod(second[3:], 4, q, fold_mod(first, 4, q))
    assert sorted(pivots) == [0, 2]
    for v in ([0, 1, q - 1, 0], [0, 0, 0, 1]):
        assert all(sum(a * x for a, x in zip(row, v)) % q == 0 for row in pivot_matrix_mod(pivots, 4, q))
