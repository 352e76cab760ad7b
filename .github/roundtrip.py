"""Round trip of every slotted value type and of a syzygy trace, without pytest.

Each value, checked or built by the library without re-checking, goes
through pickle at every protocol, copy.copy, copy.deepcopy and
dataclasses.replace.  Every clone must be of the same type, equal, with the
same hash and repr, with no instance __dict__ and its memo slots unset.
Assigning to a field or to any other name must raise FrozenInstanceError.
Four SyzygyTrace values, whose rows are built when read, go through the
same clones: from an exact and a reduced seed with every row read, one
with no row read and one with only its last row read.  Each clone must be
equal, hash the same and print the same, and so must its rows; each
trace's pickles must keep their size once every row is read.

Usage: python3 .github/roundtrip.py   (with ulrich_lab importable, e.g.
after `pip install .` or with PYTHONPATH=src; needs only the standard
library; exits non-zero on the first failure)
"""

import copy
import dataclasses
import pickle
import sys

from ulrich_lab import (
    BundleNumerics,
    DivisorClass,
    NumericClassData,
    SyzygyTrace,
    decompose_stable_sum,
    iterate_syzygy,
    make_surface,
    reduce_numerics,
    tensor,
    twisted_cubics,
)


def expect(ok, what):
    if not ok:
        sys.exit(f"roundtrip: {what}")


def check_slots(value, what):
    expect(not hasattr(value, "__dict__"), f"{what} has an instance __dict__")
    names = [field.name for field in dataclasses.fields(value)]
    slots = type(value).__slots__
    expect(list(slots[:len(names)]) == names, f"{what}: fields are not the first slots")
    for name in slots[len(names):]:
        expect(not hasattr(value, name), f"{what}: memo slot {name} is set")


x = DivisorClass(4, (1, 1, 1, 1, 0))
f = BundleNumerics(2, x, 4)
values = [
    x,
    x + DivisorClass(2, (1, 0, 1, 0, 0)),
    f,
    tensor(f, f),
    NumericClassData(2, 16, 10, 5),
    reduce_numerics(f),
    iterate_syzygy(f, make_surface(4), 2).entries[-1],
    twisted_cubics()[5],
    decompose_stable_sum(DivisorClass(6, (2,) * 6), 2)[0],
]
clones = 0
for value in values:
    what = type(value).__name__
    check_slots(value, what)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies = [pickle.loads(pickle.dumps(value, protocol))]
        if protocol == 0:
            copies += [copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)]
        for clone in copies:
            expect(type(clone) is type(value), f"{what}: a clone changed type")
            check_slots(clone, f"{what} clone")
            expect(clone == value and value == clone, f"{what}: a clone is not equal")
            expect(hash(clone) == hash(value), f"{what}: a clone hashes differently")
            expect(repr(clone) == repr(value), f"{what}: a clone prints differently")
            clones += 1
    for name in [field.name for field in dataclasses.fields(value)] + ["extra"]:
        try:
            setattr(value, name, 0)
        except dataclasses.FrozenInstanceError:
            continue
        sys.exit(f"roundtrip: {what}.{name} = 0 did not raise FrozenInstanceError")

# Traces with every row, no row and only the last row read before cloning:
# pickles carry the columns, not the rows built so far, so reading every row
# leaves their size as it was.
traces = []
for seed, read in ((f, "every row"), (reduce_numerics(f), "every row"),
                   (reduce_numerics(f), "no row"), (f, "the last row")):
    trace = iterate_syzygy(seed, make_surface(4), 7)
    if read == "every row":
        tuple(trace.entries)
    elif read == "the last row":
        trace.entries[-1]
    what = f"SyzygyTrace of {trace.seed!r} with {read} read"
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    sizes = [len(pickle.dumps(trace, protocol)) for protocol in protocols]
    copies = [pickle.loads(pickle.dumps(trace, protocol)) for protocol in protocols]
    copies += [copy.copy(trace), copy.deepcopy(trace), dataclasses.replace(trace)]
    rows = tuple(trace.entries)
    for clone in copies:
        expect(type(clone) is SyzygyTrace, f"{what}: a clone changed type")
        expect(clone == trace and trace == clone, f"{what}: a clone is not equal")
        expect(hash(clone) == hash(trace), f"{what}: a clone hashes differently")
        expect(repr(clone) == repr(trace), f"{what}: a clone prints differently")
        expect(clone.entries == rows and hash(clone.entries) == hash(rows)
               and repr(clone.entries) == repr(rows), f"{what}: clone rows differ from the tuple")
        clones += 1
    after = [len(pickle.dumps(trace, protocol)) for protocol in protocols]
    expect(after == sizes, f"{what}: pickle sizes {sizes} became {after} once every row was read")
    traces.append(trace)
print(f"roundtrip: {len(values)} values, {len(traces)} traces, {clones} clones, "
      f"Python {sys.version.split()[0]}: ok")
