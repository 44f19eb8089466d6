import time

import pytest

from mazurtate.curves import EllipticCurve
from mazurtate.classify import MTRequest, _require_good_ordinary, classify
from mazurtate.errors import BoundExceeded, InputError, NotGoodOrdinary
from mazurtate.primes import prime_factors

from .conftest import curve_record, make_curve


def brute_force_count(curve, ell):
    """Oracle: enumerate every affine point pair plus infinity."""
    cnt = 1
    for x in range(ell):
        for y in range(ell):
            lhs = y * y + curve.a1 * x * y + curve.a3 * y
            rhs = x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6
            if (lhs - rhs) % ell == 0:
                cnt += 1
    return cnt


def test_11a_a5_equals_1_by_direct_count():
    curve = make_curve("11a")
    assert 5 + 1 - brute_force_count(curve, 5) == 1
    assert curve.a_ell(5) == 1


def test_11a_split_multiplicative_at_11():
    curve = make_curve("11a")
    assert curve.a_ell(11) == 1  # split multiplicative
    # the quadratic-residue criterion on -c6 agrees
    assert pow(-curve.c6 % 11, (11 - 1) // 2, 11) == 1


def brute_force_singular_points(curve, ell):
    """Oracle: affine points where the cubic and both partial derivatives vanish."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    return [
        (x, y)
        for x in range(ell)
        for y in range(ell)
        if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % ell == 0
        and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % ell == 0
        and (2 * y + a1 * x + a3) % ell == 0
    ]


def test_bad_prime_eigenvalue_is_ell_minus_the_nonsingular_count():
    curves = [make_curve(label) for label in ("11a", "26b1", "50b1", "174b1")]
    curves += [EllipticCurve(0, 0, 1, -1, 0, conductor=37), EllipticCurve(0, 0, 1, 0, -7, conductor=27),
               EllipticCurve(0, 0, 0, 0, 1, conductor=36)]
    for curve in curves:
        for ell in (2, 3, 5, 7, 11, 13, 29, 37):
            if curve.conductor % ell == 0:
                assert len(brute_force_singular_points(curve, ell)) == 1, (curve, ell)
                nonsingular = brute_force_count(curve, ell) - 1
                assert curve.a_ell(ell) == ell - nonsingular, (curve, ell)


def test_bad_prime_eigenvalue_at_a_large_level_is_fast():
    start = time.perf_counter()
    assert EllipticCurve(0, 0, 1, -7, 6, conductor=5077).a_ell(5077) == -1
    assert time.perf_counter() - start < 2


def test_hasse_bound_good_primes():
    for label in ("11a", "26b1", "50b1", "174b1"):
        curve = make_curve(label)
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if curve.conductor % ell == 0:
                continue
            a = curve.a_ell(ell)
            assert a * a <= 4 * ell


def test_point_count_matches_oracle_on_samples():
    curve = make_curve("26b1")
    for ell in (3, 5, 7, 11, 17):
        assert curve.count_points(ell) == brute_force_count(curve, ell)


def test_reduction_types_of_fixtures():
    # a_ell at a bad prime is 1 split, -1 nonsplit, 0 additive
    assert make_curve("26b1").a_ell(2) == 1
    assert make_curve("26b1").a_ell(13) == -1
    assert make_curve("50b1").a_ell(5) == 0
    assert make_curve("50b1").a_ell(2) == 1
    assert make_curve("174b1").a_ell(29) == 1


def test_torsion_congruence_signatures():
    # rational p-torsion forces a_ell = ell + 1 mod p at good ell
    for label, p in (("11a", 5), ("26b1", 7), ("50b1", 5), ("174b1", 7)):
        curve = make_curve(label)
        for ell in range(2, 50):
            if not all(ell % d for d in range(2, ell)) or ell == 1:
                continue
            if curve.conductor % ell == 0:
                continue
            assert (curve.a_ell(ell) - ell - 1) % p == 0, (label, ell)


def test_good_ordinary_detection():
    _require_good_ordinary(make_curve("11a"), 5)
    _require_good_ordinary(make_curve("26b1"), 7)
    for label, p in (("50b1", 5), ("11a", 2), ("11a", 11)):
        with pytest.raises(NotGoodOrdinary, match="not a good odd prime"):
            _require_good_ordinary(make_curve(label), p)
    # a_19 = 0: 19 is a good prime of 11a, but supersingular
    with pytest.raises(NotGoodOrdinary, match="not ordinary"):
        _require_good_ordinary(make_curve("11a"), 19)


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        make_curve("11a").a_ell(100003)


def test_bound_is_checked_before_primality(monkeypatch):
    # is_prime trial-divides up to sqrt(ell): a Mersenne prime of 89 bits
    # would keep it busy for hours, so the bound must refuse it first
    from mazurtate import curves

    def refuse(n):
        raise AssertionError(f"is_prime({n}) ran before the bound")

    monkeypatch.setattr(curves, "is_prime", refuse)
    with pytest.raises(BoundExceeded):
        make_curve("11a").a_ell(2**89 - 1)
    with pytest.raises(BoundExceeded):
        classify(MTRequest(make_curve("11a"), 2**89 - 1))


def test_input_validation():
    with pytest.raises(InputError):
        EllipticCurve(0, 0, 0, 0, 0, conductor=11)  # singular
    with pytest.raises(InputError):
        EllipticCurve(0, -1, 1, -10, -20, conductor=7)  # 11 | disc but not 7


def test_equality_ignores_the_eigenvalue_memo():
    a, b = make_curve("11a"), make_curve("11a")
    assert a == b
    assert a.a_ell(3) == -1
    assert a == b
    assert "_ap_cache" not in repr(a)
    b.lratio = None
    assert a != b


def test_conductor_must_fit_the_model():
    with pytest.raises(InputError, match="conductor 77"):
        EllipticCurve(0, -1, 1, -10, -20, conductor=77)  # 7 does not divide the discriminant -11^5
    # exponent 2 at 11, but the model is multiplicative there (a_11 = 1)
    curve = EllipticCurve(0, -1, 1, -10, -20, conductor=121)
    with pytest.raises(InputError, match="a_11"):
        curve.a_ell(11)
    # exponent 1 at 5, but the model is additive there (a_5 = 0)
    curve = EllipticCurve(1, 1, 1, -3, 1, conductor=10)  # the 50b1 model
    with pytest.raises(InputError, match="a_5"):
        curve.a_ell(5)


# (coefficients, conductor): the fixtures, every curve the benchmark and the
# test suite run by coefficients, the large levels the roadmap names, and
# curves additive at 2 and 3 (27a1, 36a1, 64a1, 243a1 with f_3 = 5)
ACCEPTED_CURVES = [
    ("0,-1,1,-10,-20", 11), ("1,-1,1,-3,3", 26), ("1,1,1,-3,1", 50), ("-5,-18,-18,0,0", 174),
    ("1,0,1,-5,-8", 26), ("0,0,1,-1,0", 37), ("0,1,1,-2,0", 389), ("0,-1,1,-929,-10595", 571),
    ("1,1,0,-1154,-15345", 681), ("0,0,1,-7,6", 5077), ("0,1,1,-4,-1", 5021), ("0,-1,1,-4,1", 5197),
    ("0,-1,1,-24,54", 997), ("1,1,0,-10,9", 2017), ("1,0,1,0,-7", 19927), ("0,0,1,0,-7", 27),
    ("0,0,0,0,1", 36), ("0,0,0,-4,0", 64), ("0,0,0,-1,0", 32), ("0,0,1,0,-1", 243),
]


@pytest.mark.parametrize("coeffs, conductor", ACCEPTED_CURVES)
def test_known_curves_pass_every_bad_prime_check(coeffs, conductor):
    curve = EllipticCurve(*map(int, coeffs.split(",")), conductor=conductor)
    for ell, _ in prime_factors(conductor):
        curve.a_ell(ell)


def test_conductor_exponent_above_the_brumer_kramer_bound_is_refused():
    # f_2 <= 8, f_3 <= 5 and f_ell <= 2 for ell >= 5: an exponent at the bound
    # passes this check, one above it is refused, whatever the model
    for coeffs, ell, bound, other in (("0,0,0,-1,0", 2, 8, 1), ("0,0,1,0,-7", 3, 5, 1), ("1,1,1,-3,1", 5, 2, 2)):
        model = [int(a) for a in coeffs.split(",")]
        EllipticCurve(*model, conductor=ell**bound * other).a_ell(ell)
        curve = EllipticCurve(*model, conductor=ell ** (bound + 1) * other)
        with pytest.raises(InputError, match=f"conductor exponent {bound + 1} at {ell} exceeds {bound}"):
            curve.a_ell(ell)


def test_validation_does_not_factor_the_discriminant():
    # the discriminant has a 13-digit prime factor; stripping gcds with the
    # conductor decides without factoring
    start = time.perf_counter()
    with pytest.raises(InputError):
        EllipticCurve(0, 0, 0, -1, 10**12 + 39, conductor=1)
    assert time.perf_counter() - start < 1
    curve = make_curve("174b1")
    assert EllipticCurve(curve.a1, curve.a2, curve.a3, curve.a4, curve.a6, conductor=174).conductor == 174
    with pytest.raises(InputError):
        EllipticCurve(curve.a1, curve.a2, curve.a3, curve.a4, curve.a6, conductor=58)  # 3 | disc


def test_json_roundtrip(tmp_path):
    curve = make_curve("26b1")
    path = tmp_path / "c.json"
    path.write_text(__import__("json").dumps(curve_record(curve)))
    loaded = EllipticCurve.from_json_file(path)
    assert curve_record(loaded) == curve_record(curve)
    assert loaded.lratio == curve.lratio


def test_discriminants():
    assert make_curve("11a").discriminant == -(11**5)
    assert make_curve("26b1").discriminant == -(2**7) * 13
    assert make_curve("50b1").discriminant == -(2**5) * 5**2
    assert abs(make_curve("174b1").discriminant) == 2**7 * 3**7 * 29


CURVE_11A = {"a1": 0, "a2": -1, "a3": 1, "a4": -10, "a6": -20, "conductor": 11}


@pytest.mark.parametrize("key", ["a1", "a2", "a3", "a4", "a6", "conductor"])
@pytest.mark.parametrize("bad", [-1.4, 11.9, 0.0, 11.0, True, False])
def test_from_dict_refuses_floats_and_booleans(key, bad):
    with pytest.raises(InputError, match=key):
        EllipticCurve.from_dict({**CURVE_11A, key: bad})


def test_from_dict_accepts_integer_strings():
    curve = EllipticCurve.from_dict({key: str(value) for key, value in CURVE_11A.items()})
    assert curve_record(curve) == CURVE_11A


@pytest.mark.parametrize("record", [
    [0, -1, 1, -10, -20, 11],
    "11a",
    None,
    {**CURVE_11A, "a4": None},
    {**CURVE_11A, "lratio": "1/0"},
    {**CURVE_11A, "lratio": [1, 5]},
])
def test_from_dict_malformed_records_are_input_errors(record):
    with pytest.raises(InputError):
        EllipticCurve.from_dict(record)


@pytest.mark.parametrize("label", ["11a", "26b1", "50b1", "174b1"])
def test_shipped_fixtures_load_unchanged(label):
    from importlib import resources

    path = resources.files("mazurtate").joinpath("fixtures", f"{label}.json")
    loaded = EllipticCurve.from_json_file(path)
    assert curve_record(loaded) == {**curve_record(make_curve(label)), "lratio_source": loaded.lratio_source}
