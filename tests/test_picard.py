"""Lattice arithmetic, permutations and the divisor text format."""

from __future__ import annotations

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


class TestSurface:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_construction(self, d):
        s = make_surface(d)
        assert s.num_exceptional == 9 - d
        assert s.euler_char_structure_sheaf == 1

    @pytest.mark.parametrize("bad", [2, 9, 0, -1, "4", 4.0])
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

    @given(st.text() | st.text(alphabet="()+-;, 019\u00b2\u0661\t").map("(".__add__))
    @settings(max_examples=300)
    def test_arbitrary_text_parses_or_raises_parse_error(self, text):
        try:
            result = parse_divisor(text)
        except ParseError:
            return
        assert isinstance(result, DivisorClass)
