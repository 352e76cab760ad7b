"""Chern-class bookkeeping: tensor, sums, duals, twists, Riemann-Roch."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_lab import (
    BundleNumerics,
    DivisorClass,
    EmptySum,
    NumericClassData,
    ParityViolation,
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
    c2 = 0 if rank == 1 else draw(st.integers(min_value=-20, max_value=20))
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

    def test_tensor_by_rank_one_matches_tensor_line(self):
        f = BundleNumerics(2, T_A + T_C, 3)
        line = S3.fiber_class
        assert tensor(f, BundleNumerics(1, line, 0)) == tensor_line(f, line)

    def test_rank_multiplies(self):
        f = BundleNumerics(2, T_A, 1)
        g = BundleNumerics(3, T_C, 2)
        assert tensor(f, g).rank == 6

    @given(surface_bundle_pairs())
    @settings(max_examples=150)
    def test_commutative(self, data):
        _, f, g = data
        assert tensor(f, g) == tensor(g, f)


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
