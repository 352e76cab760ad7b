"""Lattice arithmetic, permutations and the divisor text format."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_lab import (
    BadPermutation,
    DegreeOutOfRange,
    DivisorClass,
    LatticeMismatch,
    ParseError,
    format_divisor,
    intersect,
    make_surface,
    parse_divisor,
    permute_exceptionals,
)
from ulrich_lab import cubic as cubic_module
from ulrich_lab import picard as picard_module


@st.composite
def divisor_classes(draw, t=None):
    if t is None:
        t = draw(st.integers(min_value=1, max_value=6))
    a = draw(st.integers(min_value=-99, max_value=99))
    b = draw(st.tuples(*[st.integers(min_value=-99, max_value=99)] * t))
    return DivisorClass(a, b)


@st.composite
def divisor_pairs(draw):
    t = draw(st.integers(min_value=1, max_value=6))
    return draw(divisor_classes(t=t)), draw(divisor_classes(t=t))


@st.composite
def built_classes(draw):
    """A class from the checked constructor or from arithmetic, which builds
    its results through ``picard._trusted``."""
    x, y = draw(divisor_pairs())
    m = draw(st.integers(min_value=-5, max_value=5))
    route = draw(st.integers(min_value=0, max_value=4))  # not sampled_from, which hashes
    return (x, x + y, x - y, -x, m * x)[route]


MEMO_SLOTS = ("_hash_memo", "_text_memo")


def memos_set(x):
    """Which memo slots are set; the instance has no ``__dict__`` to hold them."""
    assert not hasattr(x, "__dict__")
    assert DivisorClass.__slots__ == ("a", "b", *MEMO_SLOTS)
    return [hasattr(x, name) for name in MEMO_SLOTS]


class TestMemo:
    """``hash`` and ``str`` are memoised per instance; nothing else sees the memo."""

    @given(built_classes(), st.booleans())
    @settings(max_examples=300)
    def test_memo_contract(self, x, text_first):
        assert memos_set(x) == [False, False]
        plain = hash((x.a, x.b))
        if text_first:
            assert str(x) == format_divisor(x)
            assert memos_set(x) == [False, True]
        assert hash(x) == plain
        assert memos_set(x) == [True, text_first]
        assert str(x) == format_divisor(x)
        assert hash(x) == hash(x) == plain
        assert str(x) == str(x) == format_divisor(x)
        assert memos_set(x) == [True, True]
        assert (x._hash_memo, x._text_memo) == (plain, format_divisor(x))

        twin = DivisorClass(x.a, x.b)
        assert x == twin and twin == x and hash(twin) == plain
        assert x != DivisorClass(x.a + 1, x.b)
        assert dataclasses.asdict(x) == {"a": x.a, "b": x.b}
        assert [f.name for f in dataclasses.fields(x)] == ["a", "b"]
        assert repr(x) == f"DivisorClass(a={x.a!r}, b={x.b!r})"

        copies = [pickle.loads(pickle.dumps(x, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.copy(x), copy.deepcopy(x)]:
            assert twin == x
            assert memos_set(twin) == [False, False]
            assert (twin.a, twin.b) == (x.a, x.b)
            assert hash(twin) == plain and str(twin) == str(x)

        moved = dataclasses.replace(x, a=x.a + 1)
        assert memos_set(moved) == [False, False]
        assert memos_set(dataclasses.replace(x)) == [False, False]
        assert hash(moved) == hash((x.a + 1, x.b))
        assert str(moved) == format_divisor(moved) == format_divisor(DivisorClass(x.a + 1, x.b))
        assert str(x) == format_divisor(x)

    def test_memo_is_per_instance(self):
        x, y = DivisorClass(1, (2, 3)), DivisorClass(4, (5,))
        assert (str(x), str(y), str(x)) == ("(1;2,3)", "(4;5)", "(1;2,3)")
        assert {x: 1, y: 2}[DivisorClass(1, (2, 3))] == 1


class TestSurface:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_construction(self, d):
        s = make_surface(d)
        assert s.num_exceptional == 9 - d
        assert s.euler_char_structure_sheaf == 1
        h = s.hyperplane_class
        assert h == s.anticanonical_class
        assert intersect(h, h, s) == d

    @pytest.mark.parametrize("bad", [2, 9, 0, -1, "4", 4.0, True, 1.0, "1"])
    def test_degree_out_of_range(self, bad):
        with pytest.raises(DegreeOutOfRange):
            make_surface(bad)

    def test_cubic_distinguished_classes(self):
        s = make_surface(3)
        assert s.canonical_class == DivisorClass(-3, (-1,) * 6)
        assert s.anticanonical_class == DivisorClass(3, (1,) * 6)
        assert s.fiber_class == DivisorClass(1, (1, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_intersection_numbers(self, d):
        s = make_surface(d)
        k, h, f = s.canonical_class, s.anticanonical_class, s.fiber_class
        assert intersect(k, k, s) == d
        assert intersect(h, h, s) == d
        assert intersect(h, k, s) == -d
        assert intersect(f, f, s) == 0
        assert intersect(k, f, s) == -2

    @pytest.mark.parametrize("d", range(3, 9))
    def test_generator_pairings(self, d):
        s = make_surface(d)
        line = s.line_class
        assert line.dot(line) == 1
        for i in range(1, s.num_exceptional + 1):
            assert line.dot(s.exceptional_class(i)) == 0
            for j in range(1, s.num_exceptional + 1):
                expected = -1 if i == j else 0
                assert s.exceptional_class(i).dot(s.exceptional_class(j)) == expected


class TestIntersection:
    def test_twisted_cubic_self_intersection(self):
        t_b = DivisorClass(2, (1, 1, 1, 0, 0, 0))
        assert t_b.self_intersection == 1
        assert t_b.degree == 3

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatch):
            DivisorClass(1, (0,) * 6).dot(DivisorClass(1, (0,) * 5))
        with pytest.raises(LatticeMismatch):
            intersect(DivisorClass(1, (0,) * 5), DivisorClass(1, (0,) * 5), make_surface(3))

    @pytest.mark.parametrize(
        "a,b", [(True, (0, 0)), (1, (0, False)), (1.0, (0, 0)), (1, (0, "1"))]
    )
    def test_coordinates_must_be_integers(self, a, b):
        # bool is an int subclass but not a coordinate.
        with pytest.raises(TypeError):
            DivisorClass(a, b)

    def test_operators(self):
        x = DivisorClass(2, (1, 0))
        y = DivisorClass(1, (1, 1))
        assert x + y == DivisorClass(3, (2, 1))
        assert x - y == DivisorClass(1, (0, -1))
        assert -x == DivisorClass(-2, (-1, 0))
        assert 3 * x == DivisorClass(6, (3, 0))
        assert x * 3 == 3 * x

    def test_operators_refuse_a_non_class(self):
        # __add__ and __sub__ return NotImplemented, so Python raises its own
        # TypeError; StableSumDecomposition.validate raises the same text for +.
        x = DivisorClass(2, (1, 0))
        with pytest.raises(TypeError) as info:
            x + 1
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: "
                                            r"'DivisorClass' and 'NoneType'$"):
            x - None
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: "
                                            r"'int' and 'DivisorClass'$"):
            1 - x
        with pytest.raises(TypeError) as refused:
            cubic_module._refuse_addend(DivisorClass, int)
        assert str(info.value) == str(refused.value) == (
            "unsupported operand type(s) for +: 'DivisorClass' and 'int'")

    @given(divisor_pairs())
    def test_symmetry(self, pair):
        x, y = pair
        assert x.dot(y) == y.dot(x)

    @given(divisor_pairs(), st.integers(min_value=-9, max_value=9))
    @settings(max_examples=200)
    def test_bilinearity(self, pair, m):
        x, y = pair
        z = DivisorClass(m, tuple(m for _ in range(x.num_exceptional)))
        assert (x + y).dot(z) == x.dot(z) + y.dot(z)
        assert (m * x).dot(y) == m * x.dot(y)


# Coordinates well past 2**64: the lattice arithmetic must stay exact.
BIG = 2**80


def _reference_dot(x: tuple[int, list[int]], y: tuple[int, list[int]]) -> int:
    (a, b), (a2, b2) = x, y
    total = a * a2
    for i in range(len(b)):
        total -= b[i] * b2[i]
    return total


@st.composite
def coordinate_pairs(draw):
    t = draw(st.integers(min_value=1, max_value=6))
    coordinate = st.integers(min_value=-BIG, max_value=BIG)
    vector = st.tuples(coordinate, st.lists(coordinate, min_size=t, max_size=t))
    return draw(vector), draw(vector)


class TestAgainstReference:
    @given(coordinate_pairs(), st.integers(min_value=-BIG, max_value=BIG))
    @settings(max_examples=300)
    def test_operations(self, pair, m):
        (a, b), (a2, b2) = pair
        x, y = DivisorClass(a, b), DivisorClass(a2, b2)
        assert x.dot(y) == _reference_dot((a, b), (a2, b2))
        assert x.self_intersection == _reference_dot((a, b), (a, b))
        assert x.degree == _reference_dot((a, b), (3, [1] * len(b)))
        expected = {
            "sum": (a + a2, [p + q for p, q in zip(b, b2)]),
            "difference": (a - a2, [p - q for p, q in zip(b, b2)]),
            "negative": (-a, [-p for p in b]),
            "left multiple": (m * a, [m * p for p in b]),
            "right multiple": (m * a, [m * p for p in b]),
        }
        results = {"sum": x + y, "difference": x - y, "negative": -x,
                   "left multiple": m * x, "right multiple": x * m}
        for name, result in results.items():
            ea, eb = expected[name]
            assert (result.a, list(result.b)) == (ea, eb), name
            assert type(result.b) is tuple, name
            assert all(type(v) is int for v in (result.a, *result.b)), name
            assert result == DivisorClass(ea, eb), name
            assert hash(result) == hash(DivisorClass(ea, eb)), name

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=-BIG, max_value=BIG))
    def test_unequal_lengths_are_refused(self, t, u, a):
        if t == u:
            u = t % 6 + 1
        x, y = DivisorClass(a, (a,) * t), DivisorClass(a, (1,) * u)
        for operation in (x.dot, x.__add__, x.__sub__, y.dot, y.__add__, y.__sub__):
            other = y if operation.__self__ is x else x
            with pytest.raises(LatticeMismatch):
                operation(other)


class TestPermutations:
    def test_swap_on_cubic(self):
        t_b = DivisorClass(2, (1, 1, 1, 0, 0, 0))
        swap_1_4 = (4, 2, 3, 1, 5, 6)
        assert permute_exceptionals(t_b, swap_1_4) == DivisorClass(2, (0, 1, 1, 1, 0, 0))

    def test_identity(self):
        x = DivisorClass(5, (3, 1, 4))
        assert permute_exceptionals(x, (1, 2, 3)) == x

    @pytest.mark.parametrize("bad", [(1, 1, 2), (1, 2), (0, 1, 2), (2, 3, 4)])
    def test_bad_permutation(self, bad):
        with pytest.raises(BadPermutation):
            permute_exceptionals(DivisorClass(1, (1, 2, 3)), bad)

    @given(divisor_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_pairing_invariance(self, pair, rng):
        x, y = pair
        perm = list(range(1, x.num_exceptional + 1))
        rng.shuffle(perm)
        moved_x = permute_exceptionals(x, perm)
        moved_y = permute_exceptionals(y, perm)
        assert moved_x.dot(moved_y) == x.dot(y)


# Whitespace that str.isspace accepts, ASCII and not, and characters the
# grammar refuses: non-ASCII digits, '_' (int() would take it), letters.
SPACES = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2003\u2028\u3000"
TEXT_ALPHABET = SPACES + "();,+-0123456789_x\u00b2\u0661"


@st.composite
def well_formed_divisor_text(draw):
    """(a;b_1,...,b_t) with whitespace around every token, signs and leading zeros."""
    def space():
        return draw(st.text(SPACES, max_size=2))

    def integer():
        value = draw(st.integers(-10**30, 10**30))
        sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
        return f"{space()}{sign}{draw(st.sampled_from(['', '0', '00']))}{abs(value)}{space()}"

    coordinates = ",".join(integer() for _ in range(draw(st.integers(1, 7))))
    return f"{space()}({integer()};{coordinates}){space()}"


def parse_outcome(parse, text, surface):
    """The class parse returns, or the message and position of its ParseError."""
    try:
        return parse(text, surface)
    except ParseError as error:
        return str(error), error.position


class TestTextFormat:
    def test_format(self):
        assert format_divisor(DivisorClass(3, (2, 1, 1, 1, 1, 0))) == "(3;2,1,1,1,1,0)"
        assert str(DivisorClass(-2, (0, -1))) == "(-2;0,-1)"

    def test_parse(self):
        assert parse_divisor("(3;1,1,1,1,1,1)") == DivisorClass(3, (1,) * 6)
        assert parse_divisor(" ( -2 ; 0 , -1 ) ") == DivisorClass(-2, (0, -1))
        assert parse_divisor("(+4;2,1,1,1,1,0)") == DivisorClass(4, (2, 1, 1, 1, 1, 0))

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("2;1)", 0),
            ("(a;1)", 1),
            ("(2:1)", 2),
            ("(2;1,,1)", 5),
            ("(2;1,1", 6),
            ("(2;1,1) junk", 8),
            pytest.param("(\u00b2;1,0,0,0,0,0)", 1, id="superscript-digit"),
            pytest.param("(2;\u0661,0,0,0,0,0)", 3, id="arabic-indic-digit"),
            pytest.param("(1" + "0" * 4300 + ";0,0,0,0,0,0)", 1, id="4301-digit-integer"),
        ],
    )
    def test_parse_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_divisor(text)
        assert err.value.position == position

    def test_arity_check_against_surface(self):
        with pytest.raises(ParseError):
            parse_divisor("(2;1,1)", make_surface(3))
        assert parse_divisor("(2;1,1)", make_surface(7)) == DivisorClass(2, (1, 1))

    @given(divisor_classes())
    @settings(max_examples=300)
    def test_round_trip(self, x):
        assert parse_divisor(format_divisor(x)) == x

    def test_pattern_whitespace_is_str_isspace(self):
        # The fast path's \s and the scanner's str.isspace agree on every code point.
        space = re.compile(r"\s")
        mismatches = [code for code in range(sys.maxunicode + 1)
                      if (space.fullmatch(chr(code)) is not None) != chr(code).isspace()]
        assert mismatches == []

    @given(st.data())
    @settings(max_examples=150)
    def test_fast_path_matches_scanner(self, data):
        text = data.draw(well_formed_divisor_text())
        surface = data.draw(st.none() | st.builds(make_surface, st.integers(3, 8)))
        assert picard_module._DIVISOR_TEXT.fullmatch(text) is not None
        assert parse_outcome(parse_divisor, text, surface) == parse_outcome(
            picard_module._scan_divisor, text, surface)

    @given(st.data())
    @settings(max_examples=150)
    def test_fast_path_matches_scanner_on_malformed_text(self, data):
        text = data.draw(well_formed_divisor_text())
        for _ in range(data.draw(st.integers(1, 3))):
            position = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 2))
            text = text[:position] + data.draw(st.text(TEXT_ALPHABET, max_size=2)) + text[position + cut:]
        surface = data.draw(st.none() | st.builds(make_surface, st.integers(3, 8)))
        assert parse_outcome(parse_divisor, text, surface) == parse_outcome(
            picard_module._scan_divisor, text, surface)

    @pytest.mark.parametrize("text", [
        "(1" + "0" * 4300 + ";0,0,0,0,0,0)",
        "(1;0,0,0,0,0," + "9" * 4301 + ")",
        "(1;0,0)", "(1;0,0,0,0,0,0,0)", "(1;0_0)", "(1;\u0663)", "(1;0)\n\u3000", "(1;0\u200b)",
    ])
    @pytest.mark.parametrize("surface", [None, make_surface(3)], ids=["no-surface", "d3"])
    def test_scanner_answers_what_the_fast_path_leaves(self, text, surface):
        assert parse_outcome(parse_divisor, text, surface) == parse_outcome(
            picard_module._scan_divisor, text, surface)

    @given(st.text() | st.text(alphabet="()+-;, 019\u00b2\u0661\t").map("(".__add__))
    @settings(max_examples=300)
    def test_arbitrary_text_parses_or_raises_parse_error(self, text):
        try:
            result = parse_divisor(text)
        except ParseError:
            return
        assert isinstance(result, DivisorClass)
