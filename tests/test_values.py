"""Value semantics of the frozen primitives: copies, pickling, equality, hash, repr.

Classes made by lattice arithmetic, and the results of the Chern, syzygy and
cubic functions, are built without the constructors' checks, so they appear
here beside directly constructed ones.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_lab import (
    BundleNumerics,
    DivisorClass,
    NumericClassData,
    StableSumDecomposition,
    TraceEntry,
    checks,
    closed_syzygy_chern_numeric,
    decompose_stable_sum,
    direct_sum,
    dual,
    iterate_syzygy,
    make_surface,
    permute_exceptionals,
    rank_two_table_chern,
    reduce_numerics,
    syzygy_numerics,
    tables,
    tensor,
    tensor_line,
    twist_by_h,
    twisted_cubics,
)
from ulrich_lab.chern import _trusted_bundle, _trusted_numeric
from ulrich_lab.cubic import _trusted_decomposition
from ulrich_lab.picard import _trusted
from ulrich_lab.syzygy import _trusted_entry

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


def _twin(value):
    """The same value built through the public constructors, field by field."""
    if type(value) is tuple:
        return tuple(_twin(item) for item in value)
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value)(**{f.name: _twin(getattr(value, f.name)) for f in fields})
    return value


SEEDS = checks.default_seeds()


@st.composite
def trusted_results(draw):
    """One result of every function that builds its values without re-checking."""
    d = draw(st.integers(min_value=3, max_value=8))
    surface = make_surface(d)
    t = surface.num_exceptional
    coords = st.integers(min_value=-9, max_value=9)
    f, g = (BundleNumerics(draw(st.integers(min_value=1, max_value=5)),
                           DivisorClass(draw(coords), draw(st.tuples(*[coords] * t))),
                           draw(st.integers(min_value=-20, max_value=20)))
            for _ in range(2))
    line_f, line_g = BundleNumerics(1, f.c1, 0), BundleNumerics(1, g.c1, 0)
    m = draw(st.integers(min_value=-4, max_value=4))
    perm = draw(st.permutations(range(1, t + 1)))
    seed_surface, seed = draw(st.sampled_from(SEEDS))
    k = 0 if seed_surface.degree == 3 else draw(st.integers(min_value=0, max_value=6))
    entry = iterate_syzygy(seed, seed_surface, k).entries[-1]
    row = draw(st.sampled_from(tables.MODULI_DIM_ROWS))
    reduced_seed = seed if isinstance(seed, NumericClassData) else reduce_numerics(seed)
    cubics = twisted_cubics()
    t1, t2 = draw(st.sampled_from(cubics)).divisor, draw(st.sampled_from(cubics)).divisor
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    results = [
        tensor(f, g), tensor(line_f, line_g), tensor(line_f, g), tensor(f, line_g),
        tensor_line(f, g.c1), dual(f), dual(reduce_numerics(f)), direct_sum([f, g, line_f]),
        reduce_numerics(f), twist_by_h(reduce_numerics(f), m, surface),
        syzygy_numerics(f, f.rank + 1 + abs(m)), syzygy_numerics(reduce_numerics(f), f.rank + 1),
        entry.as_numeric(), entry.as_bundle(),
        closed_syzygy_chern_numeric(reduced_seed, seed_surface, k),
        rank_two_table_chern(row.degree, row.c1_sq, row.c2, k),
        permute_exceptionals(f.c1, perm),
        checks._random_class(rng, t), checks._random_bundle(rng, t),
        *decompose_stable_sum(t1 + t2, 2),
    ]
    return [value for value in results if value is not None]


@given(trusted_results())
@settings(max_examples=60, deadline=None)
def test_trusted_results_are_ordinary_values(results):
    for value in results:
        names = {f.name for f in dataclasses.fields(value)}
        assert set(vars(value)) == names  # before hash() or str() fill in a memo
        twin = _twin(value)
        assert type(twin) is type(value)
        assert value == twin and twin == value
        assert hash(value) == hash(twin)
        assert repr(value) == repr(twin)
        assert dataclasses.asdict(value) == dataclasses.asdict(twin)
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      dataclasses.replace(value)):
            assert type(clone) is type(value) and clone == value
            assert hash(clone) == hash(value) and repr(clone) == repr(value)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))


T1, T2 = twisted_cubics()[0], twisted_cubics()[1]

# (trusted build, checked build, a replace() its field checks refuse or None
# where the type has no field checks, the exception).
BUILDERS = [
    pytest.param(lambda: _trusted(4, (1, 1, 1, 1, 0)), lambda: DivisorClass(4, (1, 1, 1, 1, 0)),
                 {"a": True}, TypeError, id="_trusted"),
    pytest.param(lambda: _trusted_bundle(2, X, 4), lambda: BundleNumerics(2, X, 4),
                 {"rank": 0}, ValueError, id="_trusted_bundle"),
    pytest.param(lambda: _trusted_numeric(2, 16, 10, 5), lambda: NumericClassData(2, 16, 10, 5),
                 {"c2": 5.0}, TypeError, id="_trusted_numeric"),
    pytest.param(lambda: _trusted_entry(0, 6, -X, 12, -8, 8),
                 lambda: TraceEntry(0, 6, -X, 12, -8, 8), {"k": -2}, ValueError,
                 id="_trusted_entry"),
    pytest.param(lambda: _trusted_decomposition(T1.divisor + T2.divisor, (T1, T2)),
                 lambda: StableSumDecomposition(T1.divisor + T2.divisor, (T1, T2)),
                 None, None, id="_trusted_decomposition"),
]


@pytest.mark.parametrize("trusted,checked,bad,error", BUILDERS)
def test_builder_writes_the_constructor_dict(trusted, checked, bad, error):
    value, twin = trusted(), checked()
    assert type(value) is type(twin)
    assert list(vars(value).items()) == list(vars(twin).items())  # keys in field order
    assert [f.name for f in dataclasses.fields(value)] == list(vars(value))
    for name in vars(twin):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value == twin
        assert list(vars(clone).items()) == list(vars(twin).items())
    assert dataclasses.replace(value) == twin
    if bad is not None:
        with pytest.raises(error):
            dataclasses.replace(value, **bad)
