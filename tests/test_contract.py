"""The public-API contract: bad input never escapes as a raw error.

``CALLS`` holds one valid call for every callable name in
``ulrich_lab.__all__``; the table must cover ``__all__``.  Each argument of
each call is then replaced, in turn, by each of ten values of the wrong kind.
The call may accept the value, or refuse it with an ``UlrichLabError``, a
``ValueError`` or a ``TypeError``; a ``TypeError`` must name the argument.
Any other exception is a raw error, and there must be none.  Every value
type checks its fields when built: ``None`` in any one field of its call is
refused, but in the fields of ``TAKES_NONE``.  Each name is declared once,
in the ``__all__`` of the layer module that defines it, and the package
re-exports exactly their union.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import re

import pytest

import ulrich_lab
from ulrich_lab import (
    CUBIC_SURFACE,
    BundleNumerics,
    NumericClassData,
    PolarizedData,
    UlrichLabError,
    cubic_moduli_pair,
    decompose_stable_sum,
    iterate_syzygy,
    make_surface,
    parse_divisor,
    reduce_numerics,
    twisted_cubics,
)

S4, S5 = make_surface(4), make_surface(5)
T_A = parse_divisor("(1;0,0,0,0,0,0)")
TWO_H = parse_divisor("(6;2,2,2,2,2,2)")
F = BundleNumerics(2, parse_divisor("(4;2,1,1,1,1,0)"), 3)
WITNESS = BundleNumerics(2, parse_divisor("(4;1,1,1,1,0)"), 4)
SEED = NumericClassData(2, 16, 10, 5)
P = PolarizedData(2, 4, -4)
TRACE = iterate_syzygy(SEED, S5, 2)
DECOMPOSITION = decompose_stable_sum(TWO_H, 2)[0]
CUBIC = twisted_cubics()[0]

# The ten wrong-kind values of the public-API sweep.
WRONG_KINDS = [("none", None), ("int", 3), ("str", "x"), ("float", 1.5), ("bool", True),
               ("object", object()), ("list", []), ("surface", CUBIC_SURFACE),
               ("class", T_A), ("bundle", F)]

# One valid call, as positional arguments, per callable name of __all__.
CALLS = {
    **{name: ("message",) for name in (
        "BadPermutation", "BadSeedFile", "DegreeOutOfRange", "EmptySum", "LatticeMismatch",
        "NoKernel", "NonIntegerResult", "NotUlrich", "NotUlrichCompatible",
        "OutOfTheoremScope", "ParityViolation", "UlrichLabError")},
    "ParseError": ("message", 3),
    "BundleNumerics": (2, T_A, 3),
    "DelPezzoSurface": (4,),
    "DivisorClass": (1, (0, 0)),
    "NumericClassData": (2, 16, 10, 5),
    "PolarizedData": (2, 4, -4),
    "QuadraticNumber": (1, 1, 5),
    "StableSumDecomposition": (DECOMPOSITION.target, DECOMPOSITION.parts),
    "SyzygyTrace": (S5, SEED, TRACE.entries),
    "TraceEntry": (0, 6, None, 12, -8, 8),
    "TwistedCubicClass": (CUBIC.type_tag, CUBIC.divisor),
    "butler_semistability_criterion": (P,),
    "chi_pair_closed_form": (2, [1]),
    "chi_pair_oracle": (F, T_A, CUBIC_SURFACE),
    "closed_syzygy_chern": (WITNESS, S4, 2),
    "closed_syzygy_chern_numeric": (SEED, S5, 2),
    "coprime_stability_criterion": (P,),
    "cubic_moduli_pair": (BundleNumerics(2, TWO_H, 5),),
    "curve_section_genus": (P,),
    "decompose_stable_sum": (TWO_H, 2, False),
    "decomposition_to_dict": (TWO_H, 2, [DECOMPOSITION]),
    "direct_sum": ([F, F],),
    "discriminant": (F,),
    "discriminant_drift": (TRACE,),
    "dual": (F,),
    "euler_char": (F, CUBIC_SURFACE),
    "expected_moduli_dim": (F,),
    "format_divisor": (T_A,),
    "intersect": (T_A, T_A, CUBIC_SURFACE),
    "is_twisted_cubic": (T_A,),
    "is_ulrich_candidate": (F, CUBIC_SURFACE),
    "iterate_syzygy": (SEED, S5, 2),
    "kernel_bundle_of_cubic": (T_A,),
    "koszul_criterion": (P,),
    "make_surface": (4,),
    "parse_divisor": ("(1;0,0,0,0,0,0)", CUBIC_SURFACE),
    "permute_exceptionals": (T_A, (2, 1, 3, 4, 5, 6)),
    "polarized_data_for": (S4,),
    "prioritary_polarization_check": (S4,),
    "rank_by_recurrence": (5, 2, 3),
    "rank_closed_form": (5, 2, 3),
    "rank_two_table_chern": (5, 16, 5, 3),
    "reduce_numerics": (F,),
    "slope": (F, CUBIC_SURFACE),
    "syzygy_numerics": (SEED, 8),
    "tensor": (F, F),
    "tensor_line": (F, T_A),
    "twist_by_h": (reduce_numerics(F), 1, CUBIC_SURFACE),
    "twist_partner": (cubic_moduli_pair(BundleNumerics(2, TWO_H, 5))[0], T_A),
    "twisted_cubic_representative": ("A",),
    "twisted_cubics": (),
    "ulrich_c2": (2, 16, S5),
    "ulrich_profile": (2, P),
}
NOT_CALLED = {"CUBIC_SURFACE": "a constant"}
# Guards written before the sweep name some arguments by their mathematical
# symbol; the sweep keeps those messages as they are.
ALSO_NAMED = {
    ("DivisorClass", "b"): "coordinate",
    ("PolarizedData", "hk"): "H^(n-1).K",
    ("ulrich_c2", "c1_sq"): "c1^2",
}
# The one field that may be empty: the exact c1 of a row of a reduced seed.
TAKES_NONE = {("TraceEntry", "c1")}
VALUE_TYPES = sorted(name for name in CALLS if dataclasses.is_dataclass(getattr(ulrich_lab, name)))


def parameter_names(function, count: int) -> list[str]:
    try:
        names = list(inspect.signature(function).parameters)
    except ValueError:  # an exception class that keeps the builtin constructor
        names = [f"args[{i}]" for i in range(count)]
    return names[:count]


def test_table_covers_all():
    assert not set(CALLS) & set(NOT_CALLED)
    assert sorted({**CALLS, **NOT_CALLED}) == sorted(ulrich_lab.__all__)


# Each layer declares the public names it defines in its own __all__; the
# package re-exports their union.  The one public name that is neither a
# function nor a class is a module constant of the layer that builds it.
LAYERS = ("picard", "chern", "ulrich", "syzygy", "cubic", "errors")
LAYER_CONSTANTS = {"cubic": {"CUBIC_SURFACE"}}


def defines(module, value) -> bool:
    """Whether ``value`` is a function or class written in ``module``."""
    value = inspect.unwrap(value)  # a functools.cache wrapper names its function
    return ((inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__)


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_lists_exactly_the_public_names_it_defines(layer):
    module = importlib.import_module(f"ulrich_lab.{layer}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    constants = LAYER_CONSTANTS.get(layer, set())
    for name in listed:
        value = getattr(module, name)
        assert value is getattr(ulrich_lab, name)
        assert defines(module, value) or name in constants, name
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and defines(module, value)}
    assert set(listed) == defined | constants


def test_package_reexports_the_union_of_the_layer_lists():
    lists = [importlib.import_module(f"ulrich_lab.{layer}").__all__ for layer in LAYERS]
    union = [name for names in lists for name in names]
    assert len(set(union)) == len(union), "a name is exported by two layers"
    assert ulrich_lab.__all__ == sorted(union) == sorted({**CALLS, **NOT_CALLED})
    namespace: dict = {}
    exec("from ulrich_lab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ulrich_lab.__all__
    assert all(value is getattr(ulrich_lab, name) for name, value in namespace.items())


@pytest.mark.parametrize("name", sorted(CALLS))
def test_wrong_kinds_are_refused_cleanly(name):
    function, arguments = getattr(ulrich_lab, name), CALLS[name]
    function(*arguments)  # the valid call itself succeeds
    faults = []
    for position, parameter in enumerate(parameter_names(function, len(arguments))):
        names = [parameter, ALSO_NAMED.get((name, parameter), parameter)]
        for label, value in WRONG_KINDS:
            call = list(arguments)
            call[position] = value
            try:
                function(*call)
            except (UlrichLabError, ValueError):
                pass
            except TypeError as error:
                if not any(re.search(rf"(?<!\w){re.escape(word)}(?!\w)", str(error))
                           for word in names):
                    faults.append(f"{parameter}={label}: TypeError not naming it: {error}")
            except Exception as error:  # noqa: BLE001 - a raw error is the finding
                faults.append(f"{parameter}={label}: raw {type(error).__name__}: {error}")
    assert faults == []


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_every_field_is_checked_when_built(name):
    cls, arguments = getattr(ulrich_lab, name), CALLS[name]
    fields = [field.name for field in dataclasses.fields(cls)]
    assert len(fields) == len(arguments)
    accepted = set()
    for position, field in enumerate(fields):
        call = list(arguments)
        call[position] = None
        try:
            cls(*call)
        except (UlrichLabError, ValueError, TypeError):
            continue
        accepted.add((name, field))
    assert accepted == {key for key in TAKES_NONE if key[0] == name}


@pytest.mark.parametrize("call,name", [
    (lambda: parse_divisor(None), "text"),
    (lambda: parse_divisor(b"(1;0)"), "text"),
    (lambda: ulrich_lab.DivisorClass(1, 3), "b"),
    (lambda: ulrich_lab.permute_exceptionals(T_A, None), "p"),
    (lambda: ulrich_lab.direct_sum(3), "summands"),
    (lambda: ulrich_lab.decomposition_to_dict(TWO_H, 2, 1.5), "decs"),
    (lambda: ulrich_lab.chi_pair_closed_form(2, None), "pairings"),
])
def test_new_guards_name_the_argument(call, name):
    with pytest.raises(TypeError, match=rf"^{name} must be"):
        call()


def test_iterables_of_any_kind_are_still_taken():
    assert ulrich_lab.direct_sum(iter([F, F])) == ulrich_lab.direct_sum([F, F])
    assert ulrich_lab.chi_pair_closed_form(3, iter([1, 0])) == ulrich_lab.chi_pair_closed_form(3, [1, 0])
    assert ulrich_lab.permute_exceptionals(T_A, range(1, 7)) == T_A
    assert ulrich_lab.decomposition_to_dict(TWO_H, 2, iter([DECOMPOSITION])) == (
        ulrich_lab.decomposition_to_dict(TWO_H, 2, [DECOMPOSITION]))
