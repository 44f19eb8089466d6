"""Record semantics: constructors, equality, hashing, frozen fields, defaults."""
import pytest

from mazurtate.classify import DichotomyReport, StabilizedRow
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
    assert a != (5, 1)
    # GroupRingElement equality compares the levels
    assert GroupRingElement(a, [1] * 5) == GroupRingElement(b, [1] * 5)


def test_mutable_records_are_unhashable():
    report = DichotomyReport("11a", 5, 1, "neron", "CaseA")
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(TypeError):
        hash(make_curve("11a"))


def test_default_lists_are_not_shared():
    first = DichotomyReport("11a", 5, 1, "neron", "CaseA")
    second = DichotomyReport("11a", 5, 1, "neron", "CaseA")
    first.per_level.append(1)
    first.stabilized.append(2)
    first.diagnostics.append("note")
    assert second.per_level == second.stabilized == second.diagnostics == []
    assert first != second


def test_constructor_arguments_and_defaults():
    row = StabilizedRow(2, -1, 3)
    assert row == StabilizedRow(n=2, mu=-1, lam=3, settled=False)
    assert repr(row) == "StabilizedRow(n=2, mu=-1, lam=3, settled=False)"
    with pytest.raises(TypeError):
        StabilizedRow(2, -1)
    with pytest.raises(TypeError):
        StabilizedRow(2, -1, 3, True, 0)
    with pytest.raises(TypeError):
        StabilizedRow(2, -1, 3, n=2)
    with pytest.raises(TypeError):
        StabilizedRow(2, -1, 3, unknown=0)


def test_post_init_checks_still_run():
    # classify's own argument checks are in tests/test_classify.py
    with pytest.raises(ValueError):
        GroupLevel(4, 1)
    with pytest.raises(ValueError):
        GroupLevel(2, 1)
    with pytest.raises(ValueError):
        GroupLevel(5, -1)
