"""Value semantics of the frozen primitives: copies, pickling, equality, hash, repr.

Classes made by lattice arithmetic, and the results of the Chern, syzygy and
cubic functions, are built without the constructors' checks, so they appear
here beside directly constructed ones.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
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
    TwistedCubicClass,
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
F = BundleNumerics(2, X, 4)

VALUES = [
    pytest.param(X, id="DivisorClass"),
    pytest.param(X + Y, id="DivisorClass-sum"),
    pytest.param(X - Y, id="DivisorClass-difference"),
    pytest.param(-X, id="DivisorClass-negative"),
    pytest.param(3 * X, id="DivisorClass-multiple"),
    pytest.param(F, id="BundleNumerics"),
    pytest.param(tensor(F, F), id="BundleNumerics-tensor"),
    pytest.param(NumericClassData(2, 16, 10, 5), id="NumericClassData"),
    pytest.param(reduce_numerics(F), id="NumericClassData-reduced"),
    pytest.param(TraceEntry(0, 6, -X, 12, -8, 8), id="TraceEntry"),
    pytest.param(iterate_syzygy(F, make_surface(4), 2).entries[-1], id="TraceEntry-read"),
    pytest.param(twisted_cubics()[5], id="TwistedCubicClass"),
    pytest.param(decompose_stable_sum(DivisorClass(6, (2,) * 6), 2)[0],
                 id="StableSumDecomposition"),
]


def _field_items(value):
    """(name, value) of every field, in field order; reading an unset slot raises."""
    return [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]


def _assert_slotted(value):
    """No instance dict, the fields first among the slots and all set, and
    every other slot (a class's hash, text and repr memos) unset."""
    assert not hasattr(value, "__dict__")
    names = [f.name for f in dataclasses.fields(value)]
    slots = type(value).__slots__
    assert list(slots[:len(names)]) == names
    _field_items(value)
    for name in slots[len(names):]:
        assert not hasattr(value, name)


@pytest.mark.parametrize("value", VALUES)
def test_copies_are_equal_values(value):
    clones = [*(pickle.loads(pickle.dumps(value, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
              copy.deepcopy(value), copy.copy(value), dataclasses.replace(value)]
    for clone in clones:
        assert type(clone) is type(value)
        _assert_slotted(clone)
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
        _assert_slotted(value)  # before hash(), str() or repr() fill in a memo
        twin = _twin(value)
        assert type(twin) is type(value)
        assert _field_items(value) == _field_items(twin)
        assert value == twin and twin == value
        assert hash(value) == hash(twin)
        assert repr(value) == repr(twin)
        assert dataclasses.asdict(value) == dataclasses.asdict(twin)
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      dataclasses.replace(value)):
            assert type(clone) is type(value) and clone == value
            _assert_slotted(clone)
            assert hash(clone) == hash(value) and repr(clone) == repr(value)
        for name in (f.name for f in dataclasses.fields(value)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))


T1, T2 = twisted_cubics()[0], twisted_cubics()[1]

# (trusted builder, its class, positional field values, a replace() its field
# checks refuse, the exception).
BUILDERS = [
    pytest.param(_trusted, DivisorClass, (4, (1, 1, 1, 1, 0)), {"a": True}, TypeError,
                 id="_trusted"),
    pytest.param(_trusted_bundle, BundleNumerics, (2, X, 4), {"rank": 0}, ValueError,
                 id="_trusted_bundle"),
    pytest.param(_trusted_numeric, NumericClassData, (2, 16, 10, 5), {"c2": 5.0}, TypeError,
                 id="_trusted_numeric"),
    pytest.param(_trusted_entry, TraceEntry, (0, 6, -X, 12, -8, 8), {"k": -2}, ValueError,
                 id="_trusted_entry"),
    pytest.param(_trusted_decomposition, StableSumDecomposition,
                 (T1.divisor + T2.divisor, (T1, T2)), {"parts": (3,)}, TypeError,
                 id="_trusted_decomposition"),
]


@pytest.mark.parametrize("builder,cls,args,bad,error", BUILDERS)
def test_builder_sets_the_constructor_slots(builder, cls, args, bad, error):
    value, twin = builder(*args), cls(*args)
    assert type(value) is type(twin)
    _assert_slotted(value)
    _assert_slotted(twin)
    assert _field_items(value) == _field_items(twin)  # field by field, in field order
    # The builder takes the fields by name too, in field order.
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(builder).parameters) == names
    by_name = builder(**dict(zip(names, args)))
    assert type(by_name) is cls and _field_items(by_name) == _field_items(value)
    for name, field_value in _field_items(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, field_value)
    for name in type(value).__slots__[len(dataclasses.fields(value)):]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0)
    clones = [*(pickle.loads(pickle.dumps(value, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
              copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)]
    for clone in clones:
        assert type(clone) is type(value) and clone == value == twin
        _assert_slotted(clone)
        assert _field_items(clone) == _field_items(twin)
    with pytest.raises(error):
        dataclasses.replace(value, **bad)


# pickle.dumps((X, BundleNumerics(2, X, 4), NumericClassData(2, 16, 10, 5), a trace
# row, a twisted cubic, a decomposition), protocol) from the code that kept each
# value's fields in an instance dict (X was hashed and printed first; the memos
# did not travel).  The state is the same dict of fields, so these still load,
# and the same values still dump to these bytes.
DICT_LAYOUT_PICKLES = {
    0: (
        b'(ccopy_reg\n_reconstructor\np0\n(culrich_lab.picard\nDivisorClass\np1\nc__builti'
        b'n__\nobject\np2\nNtp3\nRp4\n(dp5\nVa\np6\nI4\nsVb\np7\n(I1\nI1\nI1\nI1\nI0\ntp8'
        b'\nsbg0\n(culrich_lab.chern\nBundleNumerics\np9\ng2\nNtp10\nRp11\n(dp12\nVrank\np'
        b'13\nI2\nsVc1\np14\ng4\nsVc2\np15\nI4\nsbg0\n(culrich_lab.chern\nNumericClassData'
        b'\np16\ng2\nNtp17\nRp18\n(dp19\ng13\nI2\nsVc1_sq\np20\nI16\nsVc1_dot_h\np21\nI10'
        b'\nsg15\nI5\nsbg0\n(culrich_lab.syzygy\nTraceEntry\np22\ng2\nNtp23\nRp24\n(dp25\n'
        b'Vk\np26\nI1\nsg13\nI10\nsg14\ng0\n(g1\ng2\nNtp27\nRp28\n(dp29\ng6\nI16\nsg7\n(I5'
        b'\nI5\nI5\nI5\nI4\ntp30\nsbsg20\nI140\nsg21\nI24\nsg15\nI68\nsbg0\n(culrich_lab.c'
        b'ubic\nTwistedCubicClass\np31\ng2\nNtp32\nRp33\n(dp34\nVtype_tag\np35\nVB\np36\ns'
        b'Vdivisor\np37\ng0\n(g1\ng2\nNtp38\nRp39\n(dp40\ng6\nI2\nsg7\n(I0\nI1\nI0\nI0\nI1'
        b'\nI1\ntp41\nsbsbg0\n(culrich_lab.cubic\nStableSumDecomposition\np42\ng2\nNtp43\n'
        b'Rp44\n(dp45\nVtarget\np46\ng0\n(g1\ng2\nNtp47\nRp48\n(dp49\ng6\nI6\nsg7\n(I2\nI2'
        b'\nI2\nI2\nI2\nI2\ntp50\nsbsVparts\np51\n(g0\n(g31\ng2\nNtp52\nRp53\n(dp54\ng35\n'
        b'VA\np55\nsg37\ng0\n(g1\ng2\nNtp56\nRp57\n(dp58\ng6\nI1\nsg7\n(I0\nI0\nI0\nI0\nI0'
        b'\nI0\ntp59\nsbsbg0\n(g31\ng2\nNtp60\nRp61\n(dp62\ng35\nVE\np63\nsg37\ng0\n(g1\ng'
        b'2\nNtp64\nRp65\n(dp66\ng6\nI5\nsg7\n(I2\nI2\nI2\nI2\nI2\nI2\ntp67\nsbsbtp68\nsbt'
        b'p69\n.'
    ),
    5: (
        b'\x80\x05\x95M\x02\x00\x00\x00\x00\x00\x00(\x8c\x11ulrich_lab.picard\x94\x8c\x0cD'
        b'ivisorClass\x94\x93\x94)\x81\x94}\x94(\x8c\x01a\x94K\x04\x8c\x01b\x94(K\x01K\x01'
        b'K\x01K\x01K\x00t\x94ub\x8c\x10ulrich_lab.chern\x94\x8c\x0eBundleNumerics\x94\x93'
        b'\x94)\x81\x94}\x94(\x8c\x04rank\x94K\x02\x8c\x02c1\x94h\x03\x8c\x02c2\x94K\x04ub'
        b'h\x08\x8c\x10NumericClassData\x94\x93\x94)\x81\x94}\x94(h\rK\x02\x8c\x05c1_sq'
        b'\x94K\x10\x8c\x08c1_dot_h\x94K\nh\x0fK\x05ub\x8c\x11ulrich_lab.syzygy\x94\x8c\nT'
        b'raceEntry\x94\x93\x94)\x81\x94}\x94(\x8c\x01k\x94K\x01h\rK\nh\x0eh\x02)\x81\x94}'
        b'\x94(h\x05K\x10h\x06(K\x05K\x05K\x05K\x05K\x04t\x94ubh\x14K\x8ch\x15K\x18h\x0fKD'
        b'ub\x8c\x10ulrich_lab.cubic\x94\x8c\x11TwistedCubicClass\x94\x93\x94)\x81\x94}'
        b'\x94(\x8c\x08type_tag\x94\x8c\x01B\x94\x8c\x07divisor\x94h\x02)\x81\x94}\x94(h'
        b'\x05K\x02h\x06(K\x00K\x01K\x00K\x00K\x01K\x01t\x94ububh\x1f\x8c\x16StableSumDeco'
        b'mposition\x94\x93\x94)\x81\x94}\x94(\x8c\x06target\x94h\x02)\x81\x94}\x94(h\x05K'
        b'\x06h\x06(K\x02K\x02K\x02K\x02K\x02K\x02t\x94ub\x8c\x05parts\x94h!)\x81\x94}\x94'
        b'(h$\x8c\x01A\x94h&h\x02)\x81\x94}\x94(h\x05K\x01h\x06(K\x00K\x00K\x00K\x00K\x00K'
        b'\x00t\x94ububh!)\x81\x94}\x94(h$\x8c\x01E\x94h&h\x02)\x81\x94}\x94(h\x05K\x05h'
        b'\x06(K\x02K\x02K\x02K\x02K\x02K\x02t\x94ubub\x86\x94ubt\x94.'
    ),
}


def _dict_layout_values():
    """The six values pickled in ``DICT_LAYOUT_PICKLES``."""
    cubics = {t.divisor: t for t in twisted_cubics()}
    a, e = cubics[DivisorClass(1, (0,) * 6)], cubics[DivisorClass(5, (2,) * 6)]
    return (
        X,
        BundleNumerics(2, X, 4),
        NumericClassData(2, 16, 10, 5),
        TraceEntry(1, 10, DivisorClass(16, (5, 5, 5, 5, 4)), 140, 24, 68),
        TwistedCubicClass("B", DivisorClass(2, (0, 1, 0, 0, 1, 1))),
        StableSumDecomposition(DivisorClass(6, (2,) * 6), (a, e)),
    )


@pytest.mark.parametrize("protocol", sorted(DICT_LAYOUT_PICKLES))
def test_pickling_writes_the_dict_layout(protocol):
    assert pickle.dumps(_dict_layout_values(), protocol) == DICT_LAYOUT_PICKLES[protocol]


@pytest.mark.parametrize("protocol", sorted(DICT_LAYOUT_PICKLES))
def test_pickles_of_the_dict_layout_load(protocol):
    expected = _dict_layout_values()
    loaded = pickle.loads(DICT_LAYOUT_PICKLES[protocol])
    assert loaded == expected
    for value, twin in zip(loaded, expected):
        assert type(value) is type(twin)
        _assert_slotted(value)
        assert _field_items(value) == _field_items(twin)
        assert hash(value) == hash(twin) and repr(value) == repr(twin)
