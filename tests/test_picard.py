"""Lattice arithmetic, permutations and the divisor text format."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
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


MEMO_SLOTS = ("_hash_memo", "_text_memo", "_repr_memo")
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class PlainSubclass(DivisorClass):
    """A subclass that adds nothing; it keeps a ``__dict__``."""


def memos_set(x):
    """Which memo slots are set; the instance has no ``__dict__`` to hold them."""
    assert not hasattr(x, "__dict__")
    assert DivisorClass.__slots__ == ("a", "b", *MEMO_SLOTS)
    return [hasattr(x, name) for name in MEMO_SLOTS]


class TestMemo:
    """``hash``, ``str`` and ``repr`` are memoised per instance, each in its own
    slot; nothing else sees the memos."""

    @given(built_classes(), st.booleans())
    @settings(max_examples=300)
    def test_memo_contract(self, x, text_first):
        assert memos_set(x) == [False, False, False]
        plain = hash((x.a, x.b))
        if text_first:
            assert str(x) == format_divisor(x)
            assert memos_set(x) == [False, True, False]
        assert hash(x) == plain
        assert memos_set(x) == [True, text_first, False]
        assert str(x) == format_divisor(x)
        assert hash(x) == hash(x) == plain
        assert str(x) == str(x) == format_divisor(x)
        assert memos_set(x) == [True, True, False]
        assert (x._hash_memo, x._text_memo) == (plain, format_divisor(x))

        twin = DivisorClass(x.a, x.b)
        assert x == twin and twin == x and hash(twin) == plain
        assert x != DivisorClass(x.a + 1, x.b)
        assert dataclasses.asdict(x) == {"a": x.a, "b": x.b}
        assert [f.name for f in dataclasses.fields(x)] == ["a", "b"]
        assert memos_set(x) == [True, True, False]
        assert repr(x) == repr(x) == f"DivisorClass(a={x.a!r}, b={x.b!r})"
        assert memos_set(x) == [True, True, True]

        copies = [pickle.loads(pickle.dumps(x, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.copy(x), copy.deepcopy(x)]:
            assert twin == x
            assert memos_set(twin) == [False, False, False]
            assert (twin.a, twin.b) == (x.a, x.b)
            assert hash(twin) == plain and str(twin) == str(x) and repr(twin) == repr(x)

        moved = dataclasses.replace(x, a=x.a + 1)
        assert memos_set(moved) == [False, False, False]
        assert memos_set(dataclasses.replace(x)) == [False, False, False]
        assert hash(moved) == hash((x.a + 1, x.b))
        assert str(moved) == format_divisor(moved) == format_divisor(DivisorClass(x.a + 1, x.b))
        assert str(x) == format_divisor(x)

    @given(built_classes())
    @settings(max_examples=100)
    def test_repr_sets_only_its_memo(self, x):
        text = repr(x)
        assert memos_set(x) == [False, False, True]
        assert x._repr_memo is text and repr(x) is text
        assert text == f"DivisorClass(a={x.a!r}, b={x.b!r})"

    def test_memo_is_per_instance(self):
        x, y = DivisorClass(1, (2, 3)), DivisorClass(4, (5,))
        assert (str(x), str(y), str(x)) == ("(1;2,3)", "(4;5)", "(1;2,3)")
        assert (repr(x), repr(y)) == ("DivisorClass(a=1, b=(2, 3))", "DivisorClass(a=4, b=(5,))")
        assert {x: 1, y: 2}[DivisorClass(1, (2, 3))] == 1

    def test_subclass_repr_names_the_subclass(self):
        x = PlainSubclass(1, [2, -3])
        assert repr(x) == repr(x) == "PlainSubclass(a=1, b=(2, -3))"
        assert x._repr_memo == repr(x) and vars(x) == {}
        moved = dataclasses.replace(x, a=-1)
        assert type(moved) is PlainSubclass and not hasattr(moved, "_repr_memo")
        assert repr(moved) == "PlainSubclass(a=-1, b=(2, -3))"

    @pytest.mark.skipif(not INT_DIGITS, reason="the interpreter has no int-string limit")
    def test_repr_past_the_int_string_limit(self):
        for x in (DivisorClass(10 ** INT_DIGITS, (1,)), DivisorClass(1, (0, -10 ** INT_DIGITS))):
            with pytest.raises(ValueError):
                repr(x)
            assert memos_set(x) == [False, False, False]
            assert picard_module._shown(x) == "<DivisorClass too long to show>"
            assert memos_set(x) == [False, False, False]


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

    @pytest.mark.parametrize("d", range(3, 9))
    def test_intersect_is_the_written_out_pairing(self, d):
        # 200 fixed-seed pairs with coordinates in [-20, 20], and the corners
        # where every coordinate is +-20, against a.a' - sum b_i b_i'.
        surface = make_surface(d)
        t = surface.num_exceptional
        rng = random.Random(d)
        pairs = [tuple((rng.randint(-20, 20), [rng.randint(-20, 20) for _ in range(t)])
                       for _ in range(2))
                 for _ in range(200)]
        pairs += [((s, [s] * t), (u, [u] * t)) for s in (-20, 20) for u in (-20, 20)]
        for (a, b), (a2, b2) in pairs:
            x, y = DivisorClass(a, b), DivisorClass(a2, b2)
            expected = a * a2 - sum(p * q for p, q in zip(b, b2))
            assert intersect(x, y, surface) == x.dot(y) == expected, (x, y)

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
        # __add__ and __sub__ return NotImplemented, so Python raises its own TypeError.
        x = DivisorClass(2, (1, 0))
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+: "
                                            r"'DivisorClass' and 'int'$"):
            x + 1
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: "
                                            r"'DivisorClass' and 'NoneType'$"):
            x - None
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: "
                                            r"'int' and 'DivisorClass'$"):
            1 - x

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


# (x.H, x^2) of each special class on degree d, and its counts on d = 3..8.
SPECIAL_CLASSES = {
    "roots": (lambda d: (0, -2), (72, 40, 20, 8, 2, 0)),
    "lines": (lambda d: (1, -1), (27, 16, 10, 6, 3, 1)),
    "rank-1-ulrich": (lambda d: (d, d - 2), (72, 40, 20, 8, 2, 0)),
    "cubics": (lambda d: (3, 1), (72, 16, 5, 2, 1, 1)),
}
# The brute force's range of each b_i: one step past the solutions on both
# sides, since every class above has -1 <= b_i <= 2.
BRUTE_FORCE_B = range(-2, 4)


def brute_force_classes(t, dot_h, square):
    """The set of (a, b) with b in the box and a solved from x.H = dot_h."""
    found = set()
    for b in itertools.product(BRUTE_FORCE_B, repeat=t):
        a, rest = divmod(dot_h + sum(b), 3)
        if not rest and a * a - sum(x * x for x in b) == square:
            found.add((a, b))
    return found


def sigma3(n):
    return sum(e ** 3 for e in range(1, n + 1) if n % e == 0)


# Shells of norm 2n, n = 1..5, of the root lattices H-perp on t = 6, 7, 8
# blow-up points (E6, E7, E8), read from their theta series in Conway and
# Sloane, *Sphere Packings, Lattices and Groups*, ch. 4 sec. 8; the E8 series
# is 1 + 240 sum sigma3(n) q^n.
SHELLS = {6: (72, 270, 720, 936, 2160), 7: (126, 756, 2072, 4158, 7560),
          8: tuple(240 * sigma3(n) for n in range(1, 6))}


class TestClassesWith:
    @pytest.mark.parametrize("d", range(3, 9))
    @pytest.mark.parametrize("name", SPECIAL_CLASSES)
    def test_counts_and_the_brute_force(self, name, d):
        query, counts = SPECIAL_CLASSES[name]
        found = picard_module._classes_with(9 - d, *query(d))
        assert len(found) == counts[d - 3]
        assert all(x < y for x, y in zip(found, found[1:]))
        brute = brute_force_classes(9 - d, *query(d))
        assert set(found) == brute
        assert all(-1 <= x <= 2 for _, b in brute for x in b)  # inside the box

    @pytest.mark.parametrize("t,dot_h,square,count", [
        *((t, 0, -2 * n, count) for t, counts in SHELLS.items()
          for n, count in enumerate(counts, 1)),
        (7, 1, -1, 56), (8, 1, -1, 240)])
    def test_e7_and_e8(self, t, dot_h, square, count):
        found = picard_module._classes_with(t, dot_h, square)
        assert len(found) == count
        assert all(x < y for x, y in zip(found, found[1:]))
        for a, b in found:
            assert len(b) == t
            assert (3 * a - sum(b), a * a - sum(x * x for x in b)) == (dot_h, square)

    def test_output_is_int_tuples(self):
        for a, b in picard_module._classes_with(6, 3, 1):
            assert type(a) is int and type(b) is tuple and {type(x) for x in b} == {int}

    def test_bounds_are_exact_past_float_precision(self):
        rng = random.Random(19)
        for _ in range(300):
            lead, center = rng.randint(1, 9), rng.randint(-10 ** 40, 10 ** 40)
            root = rng.randint(1, 10 ** 30)
            disc = root * root + rng.choice((-1, 0, 1, 2 * root))
            span = picard_module._between_roots(lead, center, disc)
            assert (lead * span[0] - center) ** 2 <= disc < (lead * (span[0] - 1) - center) ** 2
            assert (lead * span[-1] - center) ** 2 <= disc < (lead * (span[-1] + 1) - center) ** 2
        assert picard_module._between_roots(3, 7, -1) == range(0)
