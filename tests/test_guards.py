"""Integer arguments refuse bool, float and str with each function's own exception.

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
    DivisorClass,
    LatticeMismatch,
    NumericClassData,
    OutOfTheoremScope,
    PolarizedData,
    QuadraticNumber,
    chi_pair_closed_form,
    closed_syzygy_chern,
    closed_syzygy_chern_numeric,
    decompose_stable_sum,
    iterate_syzygy,
    make_surface,
    parse_divisor,
    permute_exceptionals,
    rank_by_recurrence,
    rank_closed_form,
    rank_two_table_chern,
    syzygy_numerics,
    twist_by_h,
    ulrich_c2,
    ulrich_profile,
)
from ulrich_lab.syzygy import alpha_pair

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
    ("alpha_pair-d", alpha_pair, DegreeOutOfRange, False),
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
