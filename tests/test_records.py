"""Record semantics: constructors, equality, hashing, frozen fields, defaults."""
import pytest

from mazurtate.curves import EllipticCurve
from mazurtate.groupring import GroupLevel, GroupRingElement

from .conftest import make_curve


def test_a_frozen_record_refuses_writes():
    level = GroupLevel(5, 1)
    with pytest.raises(AttributeError):
        level.n = 2
    with pytest.raises(AttributeError):
        del level.p
    with pytest.raises(AttributeError):
        level.extra = 0
    assert (level.p, level.n) == (5, 1)


def test_equal_levels_are_equal_and_hash_equal():
    a, b = GroupLevel(5, 1), GroupLevel(p=5, n=1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, GroupLevel(5, 2)}) == 2
    assert a != GroupLevel(5, 2) and a != GroupLevel(7, 1)
    # GroupRingElement equality compares the levels
    assert GroupRingElement(a, [1] * 5) == GroupRingElement(b, [1] * 5)


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(EllipticCurve(0, -1, 1, -10, -20, 11))
    with pytest.raises(TypeError):
        hash(make_curve("11a"))


def test_constructor_arguments_and_defaults():
    curve = EllipticCurve(0, -1, 1, -10, -20, 11)
    assert curve == EllipticCurve(a1=0, a2=-1, a3=1, a4=-10, a6=-20, conductor=11,
                                  label=None, lratio=None, lratio_source=None)
    assert repr(curve) == ("EllipticCurve(a1=0, a2=-1, a3=1, a4=-10, a6=-20, conductor=11, "
                           "label=None, lratio=None, lratio_source=None)")
    with pytest.raises(TypeError):
        EllipticCurve(0, -1, 1, -10, -20)
    with pytest.raises(TypeError):
        EllipticCurve(0, -1, 1, -10, -20, 11, "11a", None, None, 0)
    with pytest.raises(TypeError):
        EllipticCurve(0, -1, 1, -10, -20, 11, a1=0)
    with pytest.raises(TypeError):
        EllipticCurve(0, -1, 1, -10, -20, 11, unknown=0)
    with pytest.raises(TypeError):
        GroupLevel(5)


def test_post_init_checks_still_run():
    # classify's own argument checks are in tests/test_classify.py
    with pytest.raises(ValueError):
        GroupLevel(4, 1)
    with pytest.raises(ValueError):
        GroupLevel(2, 1)
    with pytest.raises(ValueError):
        GroupLevel(5, -1)
