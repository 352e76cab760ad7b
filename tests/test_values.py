"""Value semantics of the frozen primitives: copies, pickling, equality, hash, repr.

Classes made by lattice arithmetic are built without the constructor's
checks, so they appear here beside directly constructed ones.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from ulrich_lab import BundleNumerics, DivisorClass, NumericClassData

X = DivisorClass(4, (1, 1, 1, 1, 0))
Y = DivisorClass(2, (1, 0, 1, 0, 0))

VALUES = [
    pytest.param(X, id="DivisorClass"),
    pytest.param(X + Y, id="DivisorClass-sum"),
    pytest.param(X - Y, id="DivisorClass-difference"),
    pytest.param(-X, id="DivisorClass-negative"),
    pytest.param(3 * X, id="DivisorClass-multiple"),
    pytest.param(BundleNumerics(2, X, 4), id="BundleNumerics"),
    pytest.param(NumericClassData(2, 16, 10, 5), id="NumericClassData"),
]


@pytest.mark.parametrize("value", VALUES)
def test_copies_are_equal_values(value):
    clones = [pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value),
              dataclasses.replace(value)]
    for clone in clones:
        assert type(clone) is type(value)
        assert clone == value
        assert hash(clone) == hash(value)
        assert repr(clone) == repr(value)


@pytest.mark.parametrize("value", VALUES)
def test_assignment_is_refused(value):
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1


def test_replace_runs_the_checks():
    assert dataclasses.replace(X, b=[0, 0, 0, 0, 1]) == DivisorClass(4, (0, 0, 0, 0, 1))
    with pytest.raises(TypeError):
        dataclasses.replace(X + Y, a=True)
    with pytest.raises(ValueError):
        dataclasses.replace(BundleNumerics(2, X, 4), rank=0)
    with pytest.raises(TypeError):
        dataclasses.replace(NumericClassData(2, 16, 10, 5), c2=5.0)


def test_list_and_tuple_coordinates_make_one_value():
    from_list = DivisorClass(4, [1, 1, 1, 1, 0])
    assert type(from_list.b) is tuple
    assert from_list == X
    assert hash(from_list) == hash(X)
    assert BundleNumerics(2, from_list, 4) == BundleNumerics(2, X, 4)
    assert hash(BundleNumerics(2, from_list, 4)) == hash(BundleNumerics(2, X, 4))
    assert len({from_list, X, Y + (X - Y)}) == 1


def test_repr():
    assert repr(X) == "DivisorClass(a=4, b=(1, 1, 1, 1, 0))"
    assert repr(-Y) == "DivisorClass(a=-2, b=(-1, 0, -1, 0, 0))"
    assert repr(BundleNumerics(2, X, 4)) == (
        "BundleNumerics(rank=2, c1=DivisorClass(a=4, b=(1, 1, 1, 1, 0)), c2=4)"
    )
    assert repr(NumericClassData(2, 16, 10, 5)) == (
        "NumericClassData(rank=2, c1_sq=16, c1_dot_h=10, c2=5)"
    )
