"""Chern-class bookkeeping: tensor, sums, duals, twists, Riemann-Roch."""

from __future__ import annotations

import operator
import random
from dataclasses import astuple
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulrich_lab import (
    BundleNumerics,
    DivisorClass,
    EmptySum,
    LatticeMismatch,
    NumericClassData,
    ParityViolation,
    TraceEntry,
    direct_sum,
    discriminant,
    dual,
    euler_char,
    expected_moduli_dim,
    make_surface,
    parse_divisor,
    reduce_numerics,
    slope,
    tensor,
    tensor_line,
    twist_by_h,
)

S3 = make_surface(3)
S4 = make_surface(4)
T_A = parse_divisor("(1;0,0,0,0,0,0)")
T_C = parse_divisor("(3;2,1,1,1,1,0)")


@st.composite
def bundles(draw, t):
    rank = draw(st.integers(min_value=1, max_value=5))
    a = draw(st.integers(min_value=-8, max_value=8))
    b = draw(st.tuples(*[st.integers(min_value=-8, max_value=8)] * t))
    c2 = draw(st.integers(min_value=-20, max_value=20))  # also at rank 1
    return BundleNumerics(rank, DivisorClass(a, b), c2)


@st.composite
def surface_bundle_pairs(draw):
    d = draw(st.integers(min_value=3, max_value=8))
    surface = make_surface(d)
    t = surface.num_exceptional
    return surface, draw(bundles(t)), draw(bundles(t))


class TestContainers:
    def test_bundle_fields(self):
        f = BundleNumerics(2, T_A + T_C, 3)
        assert f.c1 == DivisorClass(4, (2, 1, 1, 1, 1, 0))
        assert f.c1_sq == 8
        assert f.c1_dot_h == 6

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            BundleNumerics(0, T_A, 0)
        with pytest.raises(ValueError):
            NumericClassData(-1, 0, 0, 0)

    def test_bool_is_not_an_integer(self):
        # Each field rejects bool with the error its other non-integers get.
        c1 = DivisorClass(1, (0,) * 6)
        with pytest.raises(TypeError):
            BundleNumerics(True, DivisorClass(True, (0,) * 6), 0)
        with pytest.raises(ValueError):
            BundleNumerics(True, c1, 0)
        with pytest.raises(TypeError):
            BundleNumerics(2, c1, False)
        with pytest.raises(ValueError):
            NumericClassData(True, 0, 0, 0)
        with pytest.raises(TypeError):
            NumericClassData(2, True, 0, 0)

    def test_reduce(self):
        f = BundleNumerics(2, T_A + T_C, 3)
        assert reduce_numerics(f) == NumericClassData(2, 8, 6, 3)

    def test_dict_round_trips(self):
        f = BundleNumerics(2, parse_divisor("(4;1,1,1,1,0)"), 4)
        assert f.to_dict() == {"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 4}
        assert BundleNumerics.from_dict(f.to_dict()) == f
        n = NumericClassData(2, 12, 8, 4)
        assert n.to_dict() == {"rank": 2, "c1_sq": 12, "c1_dot_H": 8, "c2": 4}
        assert NumericClassData.from_dict(n.to_dict()) == n

    @pytest.mark.parametrize(
        "cls,data,error",
        [
            (BundleNumerics, {"rank": 2.9, "c1": "(4;1,1,1,1,0)", "c2": "4"}, ValueError),
            (BundleNumerics, {"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": "4"}, TypeError),
            (BundleNumerics, {"rank": 2, "c1": "(4;1,1,1,1,0)", "c2": 4.0}, TypeError),
            (NumericClassData, {"rank": 2.9, "c1_sq": 12, "c1_dot_H": 8, "c2": 4}, ValueError),
            (NumericClassData, {"rank": 2, "c1_sq": "12", "c1_dot_H": 8, "c2": 4}, TypeError),
            (NumericClassData, {"rank": 2, "c1_sq": 12, "c1_dot_H": 8, "c2": "4"}, TypeError),
        ],
        ids=["bundle-float-rank", "bundle-string-c2", "bundle-float-c2",
             "numeric-float-rank", "numeric-string-c1-sq", "numeric-string-c2"],
    )
    def test_from_dict_does_not_coerce(self, cls, data, error):
        with pytest.raises(error):
            cls.from_dict(data)

    @pytest.mark.parametrize(
        "cls,data,message",
        [
            (BundleNumerics, {}, "bundle numerics is missing key(s) rank, c1, c2"),
            (BundleNumerics, {"rank": 2, "c2": 4}, "bundle numerics is missing key(s) c1"),
            (BundleNumerics, {"c1": "(4;1,1,1,1,0)"}, "bundle numerics is missing key(s) rank, c2"),
            (NumericClassData, {"rank": 1},
             "numeric class data is missing key(s) c1_sq, c1_dot_H, c2"),
            (NumericClassData, {"rank": 2, "c1_sq": 12, "c2": 4},
             "numeric class data is missing key(s) c1_dot_H"),
            (NumericClassData, {}, "numeric class data is missing key(s) rank, c1_sq, c1_dot_H, c2"),
        ],
        ids=["bundle-all", "bundle-c1", "bundle-rank-c2",
             "numeric-all-but-rank", "numeric-c1-dot-h", "numeric-all"],
    )
    def test_from_dict_names_the_missing_keys(self, cls, data, message):
        with pytest.raises(ValueError) as info:
            cls.from_dict(data)
        assert str(info.value) == message

    def test_c1_must_be_a_divisor_class(self):
        with pytest.raises(TypeError, match="c1 must be a DivisorClass"):
            BundleNumerics(2, "not a class", 3)
        with pytest.raises(TypeError):
            BundleNumerics(2, None, 3)


class TestTensor:
    def test_known_product(self):
        f = BundleNumerics(2, T_A + T_C, 3)
        g = BundleNumerics(3, S3.anticanonical_class, 2)
        expected = BundleNumerics(6, DivisorClass(18, (8, 5, 5, 5, 5, 2)), 70)
        assert tensor(f, g) == expected
        assert tensor(g, f) == expected

    def test_line_times_line(self):
        product = tensor(BundleNumerics(1, T_A, 0), BundleNumerics(1, T_C, 0))
        assert product == BundleNumerics(1, T_A + T_C, 0)

    def test_rank_one_factor_counts_its_c2(self):
        # The product of Chern characters: a rank-1 factor's c2 is not dropped.
        f = BundleNumerics(1, T_A, 5)
        g = BundleNumerics(2, parse_divisor("(4;2,1,1,1,1,0)"), 3)
        assert tensor(g, f).c2 == tensor(f, g).c2 == 18  # 8 + 2 * 5
        assert tensor(f, f).c2 == 10
        assert tensor(f, BundleNumerics(1, T_A, 0)) == tensor_line(f, T_A)
        assert tensor_line(f, T_A).c2 == 5

    @given(surface_bundle_pairs())
    @example((S3, BundleNumerics(2, T_A + T_C, 3), BundleNumerics(1, S3.fiber_class, 0)))
    @example((S3, BundleNumerics(1, T_A, 5), BundleNumerics(1, T_A, 0)))
    @settings(max_examples=150)
    def test_tensor_by_rank_one_matches_tensor_line(self, data):
        # g only supplies a random class L on f's lattice; f has any rank and c2.
        _, f, g = data
        line = BundleNumerics(1, g.c1, 0)
        assert tensor(f, line) == tensor(line, f) == tensor_line(f, g.c1)

    def test_rank_multiplies(self):
        f = BundleNumerics(2, T_A, 1)
        g = BundleNumerics(3, T_C, 2)
        assert tensor(f, g).rank == 6

    @given(surface_bundle_pairs())
    @settings(max_examples=150)
    def test_commutative(self, data):
        _, f, g = data
        assert tensor(f, g) == tensor(g, f)

    @given(surface_bundle_pairs(), st.data())
    @settings(max_examples=150)
    def test_associative(self, data, draw):
        surface, f, g = data
        h = draw.draw(bundles(surface.num_exceptional))
        assert tensor(tensor(f, g), h) == tensor(f, tensor(g, h))


class TestDirectSum:
    def test_known_sum(self):
        m_a = BundleNumerics(2, -T_A, 1)
        m_c = BundleNumerics(2, -T_C, 1)
        total = direct_sum([m_a, m_c])
        assert total == BundleNumerics(4, -(T_A + T_C), 5)

    def test_empty(self):
        with pytest.raises(EmptySum):
            direct_sum([])

    @given(surface_bundle_pairs())
    @settings(max_examples=150)
    def test_chi_additive(self, data):
        surface, f, g = data
        whole = euler_char(direct_sum([f, g]), surface)
        assert whole == euler_char(f, surface) + euler_char(g, surface)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pairwise_formula(self, k):
        # rank and c2 add, c1 adds, and c2 gains c1_i.c1_j for every i < j.
        rng = random.Random(k)
        for width in (0, 1, 5, 6):
            for _ in range(25):
                parts = [BundleNumerics(rng.randint(1, 6),
                                        DivisorClass(rng.randint(-9, 9),
                                                     tuple(rng.randint(-9, 9) for _ in range(width))),
                                        rng.randint(-50, 50))
                         for _ in range(k)]
                c1s = [part.c1 for part in parts]
                c2 = sum(part.c2 for part in parts)
                for i in range(k):
                    for j in range(i + 1, k):
                        c2 += c1s[i].a * c1s[j].a - sum(
                            u * v for u, v in zip(c1s[i].b, c1s[j].b))
                c1 = DivisorClass(sum(x.a for x in c1s),
                                  tuple(sum(column) for column in zip(*(x.b for x in c1s))))
                expected = BundleNumerics(sum(part.rank for part in parts), c1, c2)
                assert direct_sum(parts) == expected
                assert direct_sum(iter(parts)) == expected

    def test_errors_keep_their_order(self):
        # Every type test comes first, then the lattices; the messages are fixed.
        six, five = BundleNumerics(2, T_A, 1), BundleNumerics(2, DivisorClass(1, (0,) * 5), 1)
        with pytest.raises(TypeError, match=r"^summands\[2\] must be a BundleNumerics, got 3$"):
            direct_sum([six, five, 3])
        for parts in ([six, five], [five, six, six], [six, six, five]):
            with pytest.raises(LatticeMismatch, match=r"^summands live on different lattices$"):
                direct_sum(parts)


class TestDual:
    def test_involution(self):
        f = BundleNumerics(3, T_A + T_C, 7)
        assert dual(dual(f)) == f

    def test_numeric_dual(self):
        assert dual(NumericClassData(2, 12, 8, 4)) == NumericClassData(2, 12, -8, 4)

    @given(surface_bundle_pairs())
    @settings(max_examples=100)
    def test_dual_of_tensor(self, data):
        _, f, g = data
        assert dual(tensor(f, g)) == tensor(dual(f), dual(g))


class TestTwist:
    def test_known_twist(self):
        twisted = twist_by_h(NumericClassData(6, 12, -8, 8), 1, S4)
        assert twisted == NumericClassData(6, 60, 16, 28)

    def test_twist_inverse(self):
        start = NumericClassData(6, 12, -8, 8)
        assert twist_by_h(twist_by_h(start, 3, S4), -3, S4) == start

    def test_exact_matches_reduced(self):
        f = BundleNumerics(2, T_A + T_C, 3)
        for m in (-2, -1, 0, 1, 2):
            assert reduce_numerics(twist_by_h(f, m, S3)) == twist_by_h(
                reduce_numerics(f), m, S3
            )

    @given(surface_bundle_pairs(), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=150)
    def test_discriminant_twist_invariant(self, data, m):
        surface, f, _ = data
        twisted = twist_by_h(f, m, surface)
        assert discriminant(twisted) == discriminant(f)
        assert expected_moduli_dim(twisted) == expected_moduli_dim(f)


class TestRiemannRoch:
    def test_structure_sheaf(self):
        trivial = BundleNumerics(1, S3.zero_class(), 0)
        assert euler_char(trivial, S3) == 1

    def test_known_chi(self):
        assert euler_char(BundleNumerics(2, T_A + T_C, 3), S3) == 6
        assert euler_char(NumericClassData(2, 12, 8, 4), S4) == 8

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            euler_char(NumericClassData(1, 1, 0, 0), S3)

    @given(surface_bundle_pairs())
    @settings(max_examples=200)
    def test_integral_on_honest_classes(self, data):
        # c1.(c1 - K) is even for every divisor class, so chi is an integer.
        surface, f, _ = data
        assert isinstance(euler_char(f, surface), int)


class TestModuliInvariants:
    def test_slope(self):
        assert slope(NumericClassData(2, 12, 8, 4), S4) == Fraction(4)
        assert slope(BundleNumerics(2, -(T_A + T_C), 5), S3) == Fraction(-3)
        assert slope(NumericClassData(3, 0, 7, 0), S3) == Fraction(7, 3)

    def test_discriminant(self):
        assert discriminant(NumericClassData(2, 12, 8, 4)) == 4
        assert discriminant(NumericClassData(2, 16, 8, 6)) == 8

    def test_expected_moduli_dim(self):
        assert expected_moduli_dim(NumericClassData(2, 12, 8, 4)) == 1
        assert expected_moduli_dim(NumericClassData(2, 26, 14, 8)) == 3
        assert expected_moduli_dim(NumericClassData(2, 16, 8, 6)) == 5


class TestExceptionalGramForm:
    """The Euler form in an exceptional basis: a chi oracle that shares no
    formula with Riemann-Roch (ROADMAP item 23).

    On Bl_t P^2 the collection (O_{E_1}(-1), ..., O_{E_t}(-1), O, O(L), O(2L))
    is full and exceptional, so chi(E, F) = v_E^T G v_F, with G the
    upper-unitriangular Gram matrix chi(X_i, X_j) of the collection, written
    out here from its geometric entries.
    """

    @staticmethod
    def coordinates(f: BundleNumerics) -> list[int]:
        # The class of (r, (a; b), c2) is (-b_1, ..., -b_t, n_0, n_1, n_2):
        # c1 gives n_1 + 2 n_2 = a, and 2 ch_2 = a^2 - sum b^2 - 2 c2 =
        # n_1 + 4 n_2 + sum b gives n_1 + 4 n_2 = R.
        a, b = f.c1.a, f.c1.b
        big_r = a * a - sum(x * x for x in b) - sum(b) - 2 * f.c2
        n2, odd = divmod(big_r - a, 2)
        assert not odd  # a^2 - a and b^2 + b are even
        n1 = a - 2 * n2
        return [-x for x in b] + [f.rank - n1 - n2, n1, n2]

    @staticmethod
    def gram(t: int) -> list[list[int]]:
        # chi(O(aL), O(bL)) = C(b - a + 2, 2) for a <= b; -1 from each
        # O_{E_i}(-1) to each O(aL); delta_ij between O_{E_i}(-1) and
        # O_{E_j}(-1); 0 from a later object to an earlier one.
        g = [[int(i == j) for j in range(t)] + [-1] * 3 for i in range(t)]
        g += [[0] * (t + a) + [comb(b - a + 2, 2) for b in range(a, 3)] for a in range(3)]
        return g

    @staticmethod
    def chi(v: list[int], g: list[list[int]], w: list[int]) -> int:
        return sum(x * sum(map(operator.mul, row, w)) for x, row in zip(v, g))

    @staticmethod
    def random_bundles(rng: random.Random, t: int, count: int) -> list[BundleNumerics]:
        return [BundleNumerics(rng.randint(1, 4),
                               DivisorClass(rng.randint(-8, 8),
                                            tuple(rng.randint(-8, 8) for _ in range(t))),
                               rng.randint(-20, 20))
                for _ in range(count)]

    @pytest.mark.parametrize("d", range(3, 9))
    def test_pairing_is_the_euler_characteristic(self, d):
        surface = make_surface(d)
        t, rng = surface.num_exceptional, random.Random(d)
        g = self.gram(t)
        bundles = self.random_bundles(rng, t, 4000)
        for f, h in zip(bundles[::2], bundles[1::2]):
            assert self.chi(self.coordinates(f), g, self.coordinates(h)) == euler_char(
                tensor(dual(f), h), surface), (f, h)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_moduli_dim_and_discriminant_are_the_self_pairing(self, d):
        surface = make_surface(d)
        t, rng = surface.num_exceptional, random.Random(10 + d)
        g = self.gram(t)
        for f in self.random_bundles(rng, t, 500):
            v = self.coordinates(f)
            self_chi = self.chi(v, g, v)
            assert expected_moduli_dim(f) == 1 - self_chi, f
            assert discriminant(f) == f.rank * f.rank - self_chi, f


BIG = 2 ** 3000


@st.composite
def big_reduced_data(draw):
    """Reduced data with rank and c2 up to 2**3000 and c1^2 = c1.H (mod 2).

    c1^2, c1.H and c2 are drawn from +-2**3000 or from +-64, so the halvings
    also see small negative values, where a floor off by one shows.
    """
    bound = draw(st.sampled_from([BIG, 64]))
    rank = draw(st.integers(min_value=1, max_value=bound))
    c1_dot_h = draw(st.integers(min_value=-bound, max_value=bound))
    c1_sq = 2 * draw(st.integers(min_value=-bound // 2, max_value=bound // 2)) + c1_dot_h % 2
    c2 = draw(st.integers(min_value=-bound, max_value=bound))
    return NumericClassData(rank, c1_sq, c1_dot_h, c2)


class TestFactoredForms:
    """The one-product forms of twist_by_h, discriminant and expected_moduli_dim,
    and the shift-halving Riemann-Roch, equal the textbook polynomials, written
    out here, on integers of the size the syzygy iteration reaches."""

    @given(big_reduced_data(), st.integers(min_value=-5, max_value=5),
           st.integers(min_value=3, max_value=8))
    @example(NumericClassData(BIG - 1, BIG + 1, 2 * BIG - 3, -BIG), 0, 7)
    @example(NumericClassData(3, -BIG - 1, -2 * BIG + 1, -BIG), -5, 4)
    @example(NumericClassData(2, -3, -1, -1), 1, 3)
    @settings(max_examples=150, deadline=None)
    def test_match_the_textbook_polynomials(self, f, m, d):
        s, q, p, c2 = astuple(f)
        surface = make_surface(d)
        assert euler_char(f, surface) == s + Fraction(q + p, 2) - c2
        with pytest.raises(ParityViolation):
            euler_char(NumericClassData(s, q - 1, p, c2), surface)
        twisted = twist_by_h(f, m, surface)
        textbook = NumericClassData(s, q + 2 * s * m * p + s * s * m * m * d, p + s * m * d,
                                    c2 + comb(s, 2) * m * m * d + (s - 1) * m * p)
        assert twisted == textbook
        assert all(type(x) is int for x in astuple(twisted))
        delta = 2 * s * c2 - (s - 1) * q
        assert discriminant(f) == delta and type(discriminant(f)) is int
        assert expected_moduli_dim(f) == delta - (s * s - 1)
        assert type(expected_moduli_dim(f)) is int

    # A bare field name is a NumericClassData field; "Owner.field" names another
    # type's.  The field "b" of DivisorClass gets the bad value as its coordinate.
    GOOD_FIELDS = {
        "": (NumericClassData, {"rank": 2, "c1_sq": 12, "c1_dot_h": 8, "c2": 4}),
        "BundleNumerics": (BundleNumerics, {"rank": 2, "c1": T_A, "c2": 4}),
        "DivisorClass": (DivisorClass, {"a": 1, "b": (0,)}),
        "TraceEntry": (TraceEntry, {"k": 0, "rank": 2, "c1": None, "c1_sq": 12,
                                    "c1_dot_h": 8, "c2": 4}),
    }

    @pytest.mark.parametrize("field,error,message", [
        ("rank", ValueError, "rank must be a positive integer, got {!r}"),
        ("c1_sq", TypeError, "c1_sq must be an integer"),
        ("c1_dot_h", TypeError, "c1_dot_h must be an integer"),
        ("c2", TypeError, "c2 must be an integer"),
        ("BundleNumerics.rank", ValueError, "rank must be a positive integer, got {!r}"),
        ("BundleNumerics.c2", TypeError, "c2 must be an integer, got {!r}"),
        ("DivisorClass.a", TypeError, "coordinate a must be an integer, got {!r}"),
        ("DivisorClass.b", TypeError, "coordinate {!r} is not an integer"),
        ("TraceEntry.rank", ValueError, "rank must be a positive integer, got {!r}"),
    ])
    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_bad_fields_keep_class_and_message(self, field, error, message, value):
        owner, _, name = field.rpartition(".")
        cls, fields = self.GOOD_FIELDS[owner]
        with pytest.raises(error) as info:
            cls(**{**fields, name: (value,) if name == "b" else value})
        assert str(info.value) == message.format(value)

    def test_rank_zero_keeps_class_and_message(self):
        with pytest.raises(ValueError) as info:
            NumericClassData(0, BIG, BIG, BIG)
        assert str(info.value) == "rank must be a positive integer, got 0"
