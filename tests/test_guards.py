"""Integer arguments refuse bool, float and str with each function's own exception;
operands of the wrong type are refused with TypeError.

One row per guarded public entry point.  ``make_surface`` and the seed-file
loader have their own parametrized tests (``test_picard.py`` and
``test_cli.py``); the rows below cover every other guarded argument.
"""

from __future__ import annotations

import pytest

from ulrich_lab import (
    CUBIC_SURFACE,
    BadPermutation,
    BundleNumerics,
    DegreeOutOfRange,
    DelPezzoSurface,
    DivisorClass,
    LatticeMismatch,
    NumericClassData,
    OutOfTheoremScope,
    PolarizedData,
    QuadraticNumber,
    StableSumDecomposition,
    SyzygyTrace,
    TraceEntry,
    butler_semistability_criterion,
    chi_pair_closed_form,
    chi_pair_oracle,
    closed_syzygy_chern,
    closed_syzygy_chern_numeric,
    coprime_stability_criterion,
    cubic_moduli_pair,
    curve_section_genus,
    decompose_stable_sum,
    decomposition_to_dict,
    direct_sum,
    discriminant,
    discriminant_drift,
    dual,
    euler_char,
    expected_moduli_dim,
    format_divisor,
    intersect,
    is_twisted_cubic,
    is_ulrich_candidate,
    iterate_syzygy,
    kernel_bundle_of_cubic,
    koszul_criterion,
    make_surface,
    parse_divisor,
    permute_exceptionals,
    polarized_data_for,
    prioritary_polarization_check,
    rank_by_recurrence,
    rank_closed_form,
    rank_two_table_chern,
    reduce_numerics,
    slope,
    syzygy_numerics,
    tensor,
    tensor_line,
    twist_by_h,
    twist_partner,
    twisted_cubic_representative,
    ulrich_c2,
    ulrich_profile,
)

S4 = make_surface(4)
S5 = make_surface(5)
SEED = NumericClassData(2, 16, 10, 5)
WITNESS = BundleNumerics(2, parse_divisor("(4;1,1,1,1,0)"), 4)
POLARIZATION = PolarizedData(2, 4, -4)
TWO_H = parse_divisor("(6;2,2,2,2,2,2)", CUBIC_SURFACE)

# (name, call with the argument under test, exception, whether 0 is in range).
# False is fed only where the range admits 0; elsewhere the bound refuses it.
ROWS = [
    ("PolarizedData-n", lambda v: PolarizedData(v, 4, -4), ValueError, False),
    ("PolarizedData-hn", lambda v: PolarizedData(2, v, -4), ValueError, False),
    ("PolarizedData-hk", lambda v: PolarizedData(2, 4, v), TypeError, True),
    ("ulrich_profile-rank", lambda v: ulrich_profile(v, POLARIZATION), ValueError, False),
    ("ulrich_c2-rank", lambda v: ulrich_c2(v, 16, S5), ValueError, False),
    ("ulrich_c2-c1_sq", lambda v: ulrich_c2(2, v, S5), TypeError, True),
    ("QuadraticNumber-radicand", lambda v: QuadraticNumber(1, 1, v), ValueError, False),
    ("QuadraticNumber-a", lambda v: QuadraticNumber(v, 1, 5), TypeError, True),
    ("QuadraticNumber-b", lambda v: QuadraticNumber(1, v, 5), TypeError, True),
    ("rank_by_recurrence-d", lambda v: rank_by_recurrence(v, 2, 3), DegreeOutOfRange, False),
    ("rank_by_recurrence-r", lambda v: rank_by_recurrence(5, v, 3), ValueError, False),
    ("rank_by_recurrence-k", lambda v: rank_by_recurrence(5, 2, v), ValueError, True),
    ("rank_closed_form-d", lambda v: rank_closed_form(v, 2, 3), DegreeOutOfRange, False),
    ("rank_closed_form-r", lambda v: rank_closed_form(5, v, 3), ValueError, False),
    ("rank_closed_form-k", lambda v: rank_closed_form(5, 2, v), ValueError, True),
    ("syzygy_numerics-h0", lambda v: syzygy_numerics(SEED, v), TypeError, True),
    ("iterate_syzygy-k_max", lambda v: iterate_syzygy(SEED, S5, v), ValueError, True),
    ("closed_syzygy_chern-k", lambda v: closed_syzygy_chern(WITNESS, S4, v), ValueError, True),
    ("closed_syzygy_chern_numeric-k", lambda v: closed_syzygy_chern_numeric(SEED, S5, v),
     ValueError, True),
    ("rank_two_table_chern-d", lambda v: rank_two_table_chern(v, 16, 5, 3),
     OutOfTheoremScope, False),
    ("rank_two_table_chern-k", lambda v: rank_two_table_chern(5, 16, 5, v), ValueError, True),
    ("decompose_stable_sum-r", lambda v: decompose_stable_sum(TWO_H, v), ValueError, False),
    ("chi_pair_closed_form-j", lambda v: chi_pair_closed_form(v, []), ValueError, False),
    ("chi_pair_closed_form-pairings", lambda v: chi_pair_closed_form(2, [v]), TypeError, True),
    ("twist_by_h-m-reduced", lambda v: twist_by_h(SEED, v, S5), TypeError, True),
    ("twist_by_h-m-exact", lambda v: twist_by_h(WITNESS, v, S4), TypeError, True),
    ("exceptional_class-i", CUBIC_SURFACE.exceptional_class, LatticeMismatch, False),
    ("permute_exceptionals-image", lambda v: permute_exceptionals(TWO_H, (v, 2, 3, 4, 5, 6)),
     BadPermutation, False),
]

# A list, not a dict: True == 1 == 1.0 would collide as keys.
VALUES = [("true", True), ("false", False), ("float", 1.0), ("str", "1")]

CASES = [
    pytest.param(call, value, error, id=f"{name}-{label}")
    for name, call, error, admits_zero in ROWS
    for label, value in VALUES
    if admits_zero or value is not False
]


@pytest.mark.parametrize("call,value,error", CASES)
def test_non_integer_is_refused(call, value, error):
    with pytest.raises(error) as info:
        call(value)
    # The guard itself raised, naming the rejected value.
    assert str(info.value).endswith(f", got {value!r}")


# A bool operand is refused by the operator itself, so Python raises TypeError.
ROOT = QuadraticNumber(1, 1, 5)
BOOL_OPERANDS = [
    ("class*bool", lambda: DivisorClass(1, (2,)) * True),
    ("bool*class", lambda: False * DivisorClass(1, (2,))),
    ("number**bool", lambda: ROOT ** True),
    ("number+bool", lambda: ROOT + True),
    ("bool+number", lambda: True + ROOT),
    ("number-bool", lambda: ROOT - True),
    ("bool-number", lambda: True - ROOT),
    ("number*bool", lambda: ROOT * False),
    ("bool*number", lambda: True * ROOT),
    ("number/bool", lambda: ROOT / True),
]


@pytest.mark.parametrize("operation", [pytest.param(op, id=name) for name, op in BOOL_OPERANDS])
def test_bool_operand_is_refused(operation):
    with pytest.raises(TypeError):
        operation()


# A value of the wrong type where the library expects numerics or a class is
# refused with TypeError naming the argument, before any field of it is read.
F = BundleNumerics(2, parse_divisor("(4;2,1,1,1,1,0)"), 3)
N = reduce_numerics(F)
T_A = parse_divisor("(1;0,0,0,0,0,0)")
PARTNER = cubic_moduli_pair(BundleNumerics(2, TWO_H, 5))[0]
DECOMPOSITION = decompose_stable_sum(TWO_H, 2)[0]
# The ten wrong-kind values of the public-API sweep.
WRONG_KINDS = [("none", None), ("int", 3), ("str", "x"), ("float", 1.5), ("bool", True),
               ("object", object()), ("list", []), ("surface", CUBIC_SURFACE),
               ("class", T_A), ("bundle", F)]
# (name, argument, call with the value under test, expected type).
DIVISOR_ARGUMENTS = [
    ("intersect-x", "x", lambda v: intersect(v, T_A), DivisorClass),
    ("intersect-y", "y", lambda v: intersect(T_A, v), DivisorClass),
    ("format_divisor", "x", format_divisor, DivisorClass),
    ("is_twisted_cubic", "x", is_twisted_cubic, DivisorClass),
    ("kernel_bundle_of_cubic", "t", kernel_bundle_of_cubic, DivisorClass),
    ("discriminant_drift", "trace", discriminant_drift, SyzygyTrace),
    ("decomposition_to_dict", "decs[0]", lambda v: decomposition_to_dict(TWO_H, 2, [v]),
     StableSumDecomposition),
]
# discriminant and expected_moduli_dim are duck-typed, since a TraceEntry
# passes itself: a value without rank, c1_sq and c2 is refused by name.
NUMERICS_ARGUMENTS = [
    ("discriminant", "f", discriminant, (BundleNumerics, NumericClassData)),
    ("expected_moduli_dim", "f", expected_moduli_dim, (BundleNumerics, NumericClassData)),
]
WRONG_OPERANDS = [
    ("tensor-f-reduced", lambda: tensor(N, F), "f", N),
    ("tensor-g-reduced", lambda: tensor(F, N), "g", N),
    ("tensor-f-int", lambda: tensor(3, F), "f", 3),
    ("tensor_line-line-tuple", lambda: tensor_line(F, (1, 2)), "line", (1, 2)),
    ("tensor_line-line-str", lambda: tensor_line(F, "x"), "line", "x"),
    ("tensor_line-f-reduced", lambda: tensor_line(N, T_A), "f", N),
    ("direct_sum-reduced-summand", lambda: direct_sum([F, N]), "summands[1]", N),
    ("direct_sum-int-summand", lambda: direct_sum([3]), "summands[0]", 3),
    ("dual-int", lambda: dual(3), "f", 3),
    ("dual-class", lambda: dual(T_A), "f", T_A),
    ("euler_char-int", lambda: euler_char(3, CUBIC_SURFACE), "f", 3),
    ("euler_char-class", lambda: euler_char(T_A, CUBIC_SURFACE), "f", T_A),
    ("reduce_numerics-int", lambda: reduce_numerics(3), "f", 3),
    ("twist_by_h-int", lambda: twist_by_h(3, 1, CUBIC_SURFACE), "f", 3),
    ("twist_by_h-class", lambda: twist_by_h(T_A, 1, CUBIC_SURFACE), "f", T_A),
    ("syzygy_numerics-int", lambda: syzygy_numerics(3, 5), "f", 3),
    ("iterate_syzygy-int", lambda: iterate_syzygy(3, S5, 2), "seed", 3),
    ("chi_pair_oracle-fprev-reduced", lambda: chi_pair_oracle(N, T_A, CUBIC_SURFACE), "fprev", N),
    ("chi_pair_oracle-t-str", lambda: chi_pair_oracle(F, "x", CUBIC_SURFACE), "t", "x"),
    ("permute_exceptionals-str", lambda: permute_exceptionals("x", (1,)), "x", "x"),
    ("decompose_stable_sum-str", lambda: decompose_stable_sum("x", 2), "target", "x"),
    ("slope-int", lambda: slope(3, CUBIC_SURFACE), "f", 3),
    ("is_ulrich_candidate-int", lambda: is_ulrich_candidate(3, CUBIC_SURFACE), "f", 3),
    ("cubic_moduli_pair-int", lambda: cubic_moduli_pair(3), "f", 3),
    ("twist_partner-base-int", lambda: twist_partner(3, T_A), "base", 3),
    ("twist_partner-twist-str", lambda: twist_partner(PARTNER, "x"), "twist", "x"),
    ("closed_syzygy_chern-reduced", lambda: closed_syzygy_chern(SEED, S4, 1), "seed", SEED),
    ("closed_syzygy_chern_numeric-int", lambda: closed_syzygy_chern_numeric(3, S4, 1), "seed", 3),
    ("twisted_cubic_representative-int", lambda: twisted_cubic_representative(3), "tag", 3),
    ("twisted_cubic_representative-none", lambda: twisted_cubic_representative(None), "tag",
     None),
    # A surface argument is refused before any attribute of it is read.
    ("euler_char-surface-int", lambda: euler_char(F, 3), "surface", 3),
    ("euler_char-surface-reduced", lambda: euler_char(N, 3), "surface", 3),
    ("twist_by_h-surface-int", lambda: twist_by_h(N, 1, 3), "surface", 3),
    ("twist_by_h-surface-exact", lambda: twist_by_h(F, 1, "x"), "surface", "x"),
    ("slope-surface-int", lambda: slope(F, 3), "surface", 3),
    ("slope-surface-reduced", lambda: slope(N, None), "surface", None),
    ("chi_pair_oracle-surface-int", lambda: chi_pair_oracle(F, T_A, 3), "surface", 3),
    ("iterate_syzygy-surface-int", lambda: iterate_syzygy(SEED, 5, 2), "surface", 5),
    ("closed_syzygy_chern-surface-int", lambda: closed_syzygy_chern(WITNESS, 4, 1),
     "surface", 4),
    ("closed_syzygy_chern_numeric-surface-int",
     lambda: closed_syzygy_chern_numeric(SEED, 5, 1), "surface", 5),
    ("polarized_data_for-surface-int", lambda: polarized_data_for(4), "surface", 4),
    ("ulrich_c2-surface-int", lambda: ulrich_c2(2, 16, 5), "surface", 5),
    ("is_ulrich_candidate-surface-int", lambda: is_ulrich_candidate(N, 3), "surface", 3),
    ("is_ulrich_candidate-surface-exact", lambda: is_ulrich_candidate(F, T_A), "surface", T_A),
    ("prioritary_polarization_check-surface-int", lambda: prioritary_polarization_check(4),
     "surface", 4),
    ("intersect-surface-int", lambda: intersect(T_A, T_A, 3), "surface", 3),
    ("parse_divisor-surface-int", lambda: parse_divisor("(1;0,0,0,0,0,0)", 3), "surface", 3),
    ("from_dict-surface-str", lambda: BundleNumerics.from_dict(F.to_dict(), "x"),
     "surface", "x"),
    # The divisor-argument and duck-typed groups, with each of the ten
    # wrong-kind values that is not of the expected type in place of one argument.
    *((f"{name}-{label}", lambda call=call, v=v: call(v), arg, v)
      for name, arg, call, expected in (*DIVISOR_ARGUMENTS, *NUMERICS_ARGUMENTS)
      for label, v in WRONG_KINDS
      if not isinstance(v, expected)),
    ("decomposition_to_dict-later-element",
     lambda: decomposition_to_dict(TWO_H, 2, [DECOMPOSITION, None]), "decs[1]", None),
    # So is a polarization argument, before any field of it is read.
    *((f"{name}-p-{label}", lambda call=call, v=v: call(v), "p", v)
      for name, call in (("curve_section_genus", curve_section_genus),
                         ("ulrich_profile", lambda p: ulrich_profile(2, p)),
                         ("butler_semistability_criterion", butler_semistability_criterion),
                         ("koszul_criterion", koszul_criterion),
                         ("coprime_stability_criterion", coprime_stability_criterion))
      for label, v in (("none", None), ("int", 3), ("str", "x"))),
]


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=case) for case, call, name, value in WRONG_OPERANDS
])
def test_wrong_operand_type_is_refused(call, name, value):
    with pytest.raises(TypeError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name} must be a ")
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize("function", [discriminant, expected_moduli_dim])
def test_duck_typed_numerics_take_every_resolution(function):
    # The tenth wrong-kind value, a bundle, is a valid operand, as are its
    # reduced form and a trace row.
    assert function(F) == function(N)
    for row in iterate_syzygy(WITNESS, S4, 2).entries:
        assert function(row) == function(row.as_numeric()) == function(row.as_bundle())


class _Bundle(BundleNumerics):
    pass


class _Reduced(NumericClassData):
    pass


class _Class(DivisorClass):
    pass


class _Decomposition(StableSumDecomposition):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


def test_subclass_operands_are_accepted():
    f = _Bundle(2, _Class(4, (2, 1, 1, 1, 1, 0)), 3)
    n = _Reduced(2, 8, 6, 3)
    assert tensor(f, f) == tensor(F, F)
    assert tensor_line(f, _Class(1, (0,) * 6)) == tensor_line(F, T_A)
    assert direct_sum([f, F]) == direct_sum([F, F])
    assert dual(f) == dual(F) and dual(n) == dual(N)
    assert euler_char(f, CUBIC_SURFACE) == euler_char(n, CUBIC_SURFACE) == euler_char(F, CUBIC_SURFACE)
    assert reduce_numerics(f) == N and reduce_numerics(n) == N
    assert twist_by_h(n, 1, CUBIC_SURFACE) == twist_by_h(N, 1, CUBIC_SURFACE)
    assert slope(f, CUBIC_SURFACE) == slope(n, CUBIC_SURFACE) == slope(F, CUBIC_SURFACE)
    assert is_ulrich_candidate(f, CUBIC_SURFACE) == is_ulrich_candidate(F, CUBIC_SURFACE)
    assert chi_pair_oracle(f, T_A, CUBIC_SURFACE) == chi_pair_oracle(F, T_A, CUBIC_SURFACE)
    assert permute_exceptionals(f.c1, (2, 1, 3, 4, 5, 6)) == DivisorClass(4, (1, 2, 1, 1, 1, 0))
    assert format_divisor(f.c1) == format_divisor(F.c1) == "(4;2,1,1,1,1,0)"
    assert kernel_bundle_of_cubic(_Class(1, (0,) * 6)) == kernel_bundle_of_cubic(T_A)
    target = DivisorClass(6, (2,) * 6)
    decs = decompose_stable_sum(target, 2)
    subclassed = [_Decomposition(dec.target, dec.parts) for dec in decs]
    assert decomposition_to_dict(target, 2, subclassed) == decomposition_to_dict(target, 2, decs)
    assert decomposition_to_dict(target, 2, decs)["count"] == len(decs) > 0
    assert _Class(1, (0,) * 6) * _Int(3) == T_A * 3 == DivisorClass(3, (0,) * 6)
    assert parse_divisor(_Str("(1;0,0,0,0,0,0)")) == parse_divisor("(1;0,0,0,0,0,0)") == T_A
    assert twist_by_h(f, 1, CUBIC_SURFACE) == twist_by_h(F, 1, CUBIC_SURFACE)


def test_trace_entry_checks_its_fields():
    TraceEntry(-1, 2, None, 16, 10, 5)
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        TraceEntry(0, 0, None, 16, 10, 5)
    with pytest.raises(TypeError, match="c1_sq must be an integer"):
        TraceEntry(0, 2, None, 16.0, 10, 5)
    with pytest.raises(ValueError, match="index k must be an integer >= -1"):
        TraceEntry(-2, 2, None, 16, 10, 5)
    with pytest.raises(TypeError, match="c1 must be a DivisorClass or None"):
        TraceEntry(0, 2, "(4;1,1,1,1,0)", 16, 10, 5)


@pytest.mark.parametrize("tag", ["x", "", "a", "AB", "F"])
def test_unknown_cubic_tag_is_refused(tag):
    with pytest.raises(ValueError) as info:
        twisted_cubic_representative(tag)
    assert str(info.value) == f"tag must be one of A, B, C, D, E, got {tag!r}"


class _Surface(DelPezzoSurface):
    pass


def test_surface_subclass_is_accepted():
    surface = _Surface(3)
    assert euler_char(F, surface) == euler_char(F, CUBIC_SURFACE)
    assert twist_by_h(N, 1, surface) == twist_by_h(N, 1, CUBIC_SURFACE)
    assert is_ulrich_candidate(F, surface) == is_ulrich_candidate(F, CUBIC_SURFACE)
    assert ulrich_c2(2, 16, surface) == ulrich_c2(2, 16, CUBIC_SURFACE)
    assert intersect(T_A, T_A, surface) == 1
    assert parse_divisor("(1;0,0,0,0,0,0)", surface) == T_A
    assert [twisted_cubic_representative(tag).a for tag in "ABCDE"] == [1, 2, 3, 4, 5]


class _Polarization(PolarizedData):
    pass


def test_polarization_subclass_is_accepted():
    p = _Polarization(2, 4, -4)
    assert curve_section_genus(p) == curve_section_genus(POLARIZATION) == 1
    assert ulrich_profile(2, p) == ulrich_profile(2, POLARIZATION)
    assert butler_semistability_criterion(p) and coprime_stability_criterion(p)
    assert koszul_criterion(p) == koszul_criterion(POLARIZATION)
