"""Set representation and the defining predicates."""

import copy
import operator
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schreier.sets import _in_family

from schreier import BFile, FiniteSet, GapSet, Ratio, VerifyReport


def test_min_max_len_and_str():
    assert FiniteSet([3, 1, 2]).elements == (1, 2, 3)
    fs = FiniteSet([2, 5, 9])
    assert (fs.min, fs.max, len(fs)) == (2, 9, 3)
    assert str(fs) == "{2,5,9}"
    assert list(fs) == [2, 5, 9]
    assert 5 in fs and 4 not in fs


def test_ratio_prints_and_scales():
    r = Ratio(1, 2)
    assert str(r) == "1/2"
    assert r.scaled(3) == Ratio(3, 6)


@pytest.mark.parametrize(
    "make,fields,text",
    [
        (
            lambda: FiniteSet([9, 2, 5]),
            {"elements": (2, 5, 9)},
            "FiniteSet(elements=(2, 5, 9))",
        ),
        (lambda: Ratio(1, 2), {"p": 1, "q": 2}, "Ratio(p=1, q=2)"),
        (
            lambda: BFile(((1, 1), (2, 3))),
            {"entries": ((1, 1), (2, 3))},
            "BFile(entries=((1, 1), (2, 3)))",
        ),
        (
            lambda: GapSet(7, Ratio(1, 3), [5, 4, 5]),
            {"n": 7, "ratio": Ratio(1, 3), "members": (4, 5)},
            "GapSet(n=7, ratio=Ratio(p=1, q=3), members=(4, 5))",
        ),
        (
            lambda: VerifyReport("formula", "1<=n<=2", 2, ("n=2: 1 != 2",)),
            {
                "suite": "formula",
                "grid": "1<=n<=2",
                "cases": 2,
                "failures": ("n=2: 1 != 2",),
            },
            "VerifyReport(suite='formula', grid='1<=n<=2', cases=2,"
            " failures=('n=2: 1 != 2',))",
        ),
        (
            lambda: VerifyReport("formula", "1<=n<=2", 2),
            {"suite": "formula", "grid": "1<=n<=2", "cases": 2, "failures": ()},
            "VerifyReport(suite='formula', grid='1<=n<=2', cases=2, failures=())",
        ),
        (
            lambda: BFile([[1, 1], [2, 3]]),  # stored as the tuple-built record
            {"entries": ((1, 1), (2, 3))},
            "BFile(entries=((1, 1), (2, 3)))",
        ),
    ],
)
def test_value_classes_are_frozen_records(make, fields, text):
    # the value types compare, hash and print by their fields, refuse
    # changes, and survive pickle and deepcopy
    value, twin, values = make(), make(), tuple(fields.values())
    assert value is not twin and value == twin and not value != twin
    assert value.__eq__(values) is NotImplemented and value != values
    assert hash(value) == hash(twin) == hash(values)
    assert repr(value) == text
    for name, field in fields.items():
        assert getattr(value, name) == field
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == text


def test_finite_sets_order_by_their_element_sequence():
    order = (operator.lt, operator.le, operator.gt, operator.ge)
    low, high = FiniteSet([1, 5]), FiniteSet([2, 3])
    assert [op(low, high) for op in order] == [True, True, False, False]
    assert [op(low, FiniteSet([5, 1])) for op in order] == [False, True, False, True]
    assert FiniteSet([1, 2]) < FiniteSet([1, 2, 3])
    for op in order:
        with pytest.raises(TypeError):
            op(low, (1, 5))
        with pytest.raises(TypeError):
            op(Ratio(1, 2), Ratio(1, 3))  # a ratio has no order


def test_schreier_predicate_examples():
    assert _in_family(FiniteSet([2, 3]).elements, Ratio(1, 1), 3)
    assert not _in_family(FiniteSet([1, 2, 3]).elements, Ratio(1, 1), 3)
    assert _in_family(FiniteSet([1, 2]).elements, Ratio(1, 2), 2)


def test_family_membership_examples():
    assert _in_family(FiniteSet([2, 3]).elements, Ratio(1, 1), 3)
    assert not _in_family(FiniteSet([2, 3]).elements, Ratio(1, 1), 4)
    assert _in_family(FiniteSet([2, 3, 4]).elements, Ratio(1, 2), 4)


finite_sets = st.builds(
    FiniteSet, st.sets(st.integers(min_value=1, max_value=40), min_size=1)
)
ratios = st.builds(
    Ratio, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)
)


@given(finite_sets, ratios, st.integers(min_value=1, max_value=5))
def test_predicate_is_scale_invariant(fs, ratio, k):
    assert _in_family(fs.elements, ratio, fs.max) == _in_family(
        fs.elements, ratio.scaled(k), fs.max
    )


@given(finite_sets, ratios)
def test_membership_at_own_max_reduces_to_the_predicate(fs, ratio):
    assert _in_family(fs.elements, ratio, fs.max) == (
        ratio.q * fs.min >= ratio.p * len(fs)
    )
