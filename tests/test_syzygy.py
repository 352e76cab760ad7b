"""Syzygy iteration, exact rank formulas and the closed Chern recursion."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ulrich_lab import (
    BundleNumerics,
    DegreeOutOfRange,
    DivisorClass,
    NoKernel,
    NonIntegerResult,
    NotUlrich,
    NumericClassData,
    OutOfTheoremScope,
    QuadraticNumber,
    closed_syzygy_chern,
    closed_syzygy_chern_numeric,
    discriminant_drift,
    expected_moduli_dim,
    iterate_syzygy,
    make_surface,
    parse_divisor,
    rank_by_recurrence,
    rank_closed_form,
    rank_two_table_chern,
    reduce_numerics,
    syzygy_numerics,
    tensor_line,
    twist_by_h,
)
from ulrich_lab import tables
from ulrich_lab.syzygy import _ring_mul, alpha_pair

S3 = make_surface(3)
S4 = make_surface(4)
WITNESS_C1 = parse_divisor("(4;1,1,1,1,0)")
WITNESS = BundleNumerics(2, WITNESS_C1, 4)


def q(a, b, radicand):
    return QuadraticNumber(Fraction(a), Fraction(b), radicand)


class TestQuadraticNumber:
    def test_ring_operations(self):
        x = q(1, 2, 5)
        y = q(3, -1, 5)
        assert x + y == q(4, 1, 5)
        assert x - y == q(-2, 3, 5)
        assert x * y == q(3 - 10, 6 - 1, 5)
        assert -x == q(-1, -2, 5)
        assert x + 2 == q(3, 2, 5)
        assert 3 * x == q(3, 6, 5)

    def test_division_and_powers(self):
        x = q(1, 1, 2)
        assert x / x == q(1, 0, 2)
        assert x ** 0 == q(1, 0, 2)
        assert x ** 3 == x * x * x
        assert x ** -2 == (x * x).inverse()
        assert x.inverse() * x == q(1, 0, 2)

    def test_conjugate_and_norm(self):
        x = q(3, 2, 5)
        assert x.conjugate() == q(3, -2, 5)
        assert x.norm() == Fraction(9 - 20)
        assert x * x.conjugate() == q(x.norm(), 0, 5)

    def test_as_integer(self):
        assert q(3, 0, 5).as_integer() == 3
        assert q(3, 0, 5).is_rational
        with pytest.raises(NonIntegerResult):
            q(Fraction(1, 2), 0, 5).as_integer()
        with pytest.raises(NonIntegerResult):
            q(1, 1, 5).as_integer()

    def test_mixed_radicands_refused(self):
        with pytest.raises(ValueError):
            q(1, 1, 5) + q(1, 1, 7)

    def test_float_approximation(self):
        assert float(q(1, 1, 4)) == pytest.approx(3.0)

    def test_bad_radicand(self):
        with pytest.raises(ValueError):
            q(1, 1, 0)
        with pytest.raises(ValueError):
            q(1, 1, -3)


class TestCharacteristicRoots:
    @pytest.mark.parametrize("d", range(5, 9))
    def test_unit_roots(self, d):
        a1, a2 = alpha_pair(d)
        one = QuadraticNumber(Fraction(1), Fraction(0), d * (d - 4))
        assert a1 + a2 == one * (d - 2)
        assert a1 * a2 == one
        assert a2 == a1.conjugate()

    def test_needs_distinct_roots(self):
        with pytest.raises(DegreeOutOfRange):
            alpha_pair(4)


class TestRankFormulas:
    def test_recurrence_values(self):
        assert [rank_by_recurrence(5, 1, k) for k in range(-1, 4)] == [1, 4, 11, 29, 76]
        assert [rank_by_recurrence(4, 2, k) for k in range(-1, 4)] == [2, 6, 10, 14, 18]

    def test_closed_form_values(self):
        assert [rank_closed_form(5, 1, k) for k in range(-1, 4)] == [1, 4, 11, 29, 76]
        assert [rank_closed_form(4, 3, k) for k in range(-1, 4)] == [3, 9, 15, 21, 27]

    def test_d4_is_linear(self):
        for r in range(1, 5):
            for k in range(-1, 30):
                assert rank_closed_form(4, r, k) == (2 * k + 3) * r

    @pytest.mark.parametrize("d", range(4, 9))
    def test_closed_matches_recurrence(self, d):
        for r in (1, 2, 3):
            for k in range(-1, 300):
                assert rank_closed_form(d, r, k) == rank_by_recurrence(d, r, k)

    def test_ring_parity_guard(self):
        # alpha^2 for d = 5: ((3 + sqrt 5)/2)^2 = (7 + 3 sqrt 5)/2.
        assert _ring_mul((3, 1), (3, 1), 5) == (7, 3)
        # (1 + 0 sqrt 5)/2 has numerators of unequal parity: not in Z[alpha].
        with pytest.raises(NonIntegerResult):
            _ring_mul((1, 0), (1, 0), 5)
        with pytest.raises(NonIntegerResult):
            _ring_mul((3, 1), (2, 1), 5)

    def test_domain_errors(self):
        with pytest.raises(DegreeOutOfRange):
            rank_by_recurrence(2, 1, 0)
        with pytest.raises(DegreeOutOfRange):
            rank_by_recurrence(9, 1, 0)
        with pytest.raises(DegreeOutOfRange):
            rank_closed_form(3, 1, 0)
        with pytest.raises(ValueError):
            rank_by_recurrence(4, 0, 0)
        with pytest.raises(ValueError):
            rank_by_recurrence(4, 1, -2)


class TestKernelNumerics:
    def test_line_bundle_kernel(self):
        t = parse_divisor("(1;0,0,0,0,0,0)")
        kernel = syzygy_numerics(BundleNumerics(1, t, 0), 3)
        assert kernel == BundleNumerics(2, -t, 1)

    def test_witness_kernel(self):
        kernel = syzygy_numerics(WITNESS, 8)
        assert kernel == BundleNumerics(6, -WITNESS_C1, 8)

    def test_numeric_kernel(self):
        kernel = syzygy_numerics(NumericClassData(2, 12, 8, 4), 8)
        assert kernel == NumericClassData(6, 12, -8, 8)

    def test_no_kernel(self):
        with pytest.raises(NoKernel):
            syzygy_numerics(WITNESS, 2)
        with pytest.raises(NoKernel):
            syzygy_numerics(WITNESS, 1)


class TestIteration:
    def test_quartic_trace(self):
        trace = iterate_syzygy(NumericClassData(2, 12, 8, 4), S4, 3)
        rows = [
            (e.k, e.rank, e.c1_sq, e.c1_dot_h, e.c2, e.delta, e.drift)
            for e in trace.entries
        ]
        assert rows == [
            (-1, 2, 12, 8, 4, 4, 1),
            (0, 6, 60, 16, 28, 36, 1),
            (1, 10, 140, 24, 68, 100, 1),
            (2, 14, 252, 32, 124, 196, 1),
            (3, 18, 396, 40, 196, 324, 1),
        ]

    def test_exact_trace_matches_reduced(self):
        exact = iterate_syzygy(WITNESS, S4, 6)
        numeric = iterate_syzygy(reduce_numerics(WITNESS), S4, 6)
        for k in range(-1, 7):
            assert exact.entry(k).as_numeric() == numeric.entry(k).as_numeric()
            assert exact.entry(k).c1 is not None
            assert numeric.entry(k).c1 is None

    def test_cubic_single_step(self):
        seed = BundleNumerics(2, parse_divisor("(4;2,1,1,1,1,0)"), 3)
        trace = iterate_syzygy(seed, S3, 0)
        rows = [(e.k, e.rank, e.c1_sq, e.c1_dot_h, e.c2) for e in trace.entries]
        assert rows == [(-1, 2, 8, 6, 3), (0, 4, 8, 6, 5)]

    def test_cubic_deeper_iteration_refused(self):
        seed = BundleNumerics(2, parse_divisor("(4;2,1,1,1,1,0)"), 3)
        with pytest.raises(OutOfTheoremScope):
            iterate_syzygy(seed, S3, 1)

    def test_non_candidate_refused(self):
        with pytest.raises(NotUlrich):
            iterate_syzygy(NumericClassData(2, 12, 8, 5), S4, 2)
        with pytest.raises(NotUlrich):
            iterate_syzygy(NumericClassData(2, 12, 7, 4), S4, 2)

    def test_trace_dict_shape(self):
        trace = iterate_syzygy(NumericClassData(2, 12, 8, 4), S4, 1)
        payload = trace.to_dict()
        assert payload["d"] == 4
        assert len(payload["entries"]) == 3
        assert sorted(payload["entries"][0]) == [
            "c1_dot_H", "c1_sq", "c2", "delta", "drift", "k", "rank",
        ]

    def test_rank_agrees_with_recurrence(self):
        for d in (5, 6, 7, 8):
            surface = make_surface(d)
            seed = NumericClassData(1, d, d, 1)
            trace = iterate_syzygy(seed, surface, 8)
            for e in trace.entries:
                assert e.rank == rank_by_recurrence(d, 1, e.k)

    def test_entry_lookup(self):
        trace = iterate_syzygy(NumericClassData(2, 12, 8, 4), S4, 3)
        assert [trace.entry(k).k for k in range(-1, 4)] == list(range(-1, 4))
        for missing in (-2, 4, 100):
            with pytest.raises(KeyError):
                trace.entry(missing)


class TestDrift:
    def test_constant_drift_equals_seed_dimension(self):
        seed = NumericClassData(2, 12, 8, 4)
        trace = iterate_syzygy(seed, S4, 9)
        assert discriminant_drift(trace) == [expected_moduli_dim(seed)] * 11

    def test_rank_one_seed_has_zero_drift(self):
        seed = BundleNumerics(1, DivisorClass(2, (1, 1, 0, 0, 0)), 0)
        trace = iterate_syzygy(seed, S4, 6)
        assert discriminant_drift(trace) == [0] * 8


class TestClosedChern:
    def test_seed_row(self):
        assert closed_syzygy_chern(WITNESS, S4, -1) == (WITNESS_C1, 4)

    def test_first_rows(self):
        assert closed_syzygy_chern(WITNESS, S4, 0) == (-WITNESS_C1, 8)
        c1, c2 = closed_syzygy_chern(WITNESS, S4, 1)
        assert c1 == DivisorClass(-14, (-5, -5, -5, -5, -6))
        assert c2 == 32
        c1, c2 = closed_syzygy_chern(WITNESS, S4, 2)
        assert c1 == DivisorClass(-16, (-5, -5, -5, -5, -4))
        assert c2 == 72

    def test_matches_twisted_iteration(self):
        trace = iterate_syzygy(WITNESS, S4, 8)
        h = S4.anticanonical_class
        for k in range(9):
            c1, c2 = closed_syzygy_chern(WITNESS, S4, k)
            twisted = tensor_line(trace.entry(k).as_bundle(), -h)
            assert (c1, c2) == (twisted.c1, twisted.c2)

    def test_numeric_variant_matches(self):
        seed = reduce_numerics(WITNESS)
        trace = iterate_syzygy(seed, S4, 8)
        for k in range(9):
            closed = closed_syzygy_chern_numeric(seed, S4, k)
            assert closed == twist_by_h(trace.entry(k).as_numeric(), -1, S4)


class TestRankTwoTableForm:
    def test_first_rows(self):
        assert rank_two_table_chern(4, 12, 4, -1) == NumericClassData(2, 12, 8, 4)
        assert rank_two_table_chern(4, 12, 4, 0) == NumericClassData(6, 12, -8, 8)
        assert rank_two_table_chern(4, 12, 4, 1) == NumericClassData(10, 60, -16, 32)

    @pytest.mark.parametrize("d,c1_sq,c2", [(4, 12, 4), (5, 16, 5), (6, 24, 8), (7, 28, 9)])
    def test_matches_closed_numeric(self, d, c1_sq, c2):
        surface = make_surface(d)
        seed = NumericClassData(2, c1_sq, 2 * d, c2)
        for k in range(-1, 16):
            assert rank_two_table_chern(d, c1_sq, c2, k) == closed_syzygy_chern_numeric(
                seed, surface, k
            )

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_routes_agree_at_k_1000(self, d):
        row = next(row for row in tables.MODULI_DIM_ROWS if row.degree == d)
        surface = make_surface(d)
        seed = BundleNumerics(2, tables.moduli_row_witness(row), row.c2)
        k = 1000
        numeric = closed_syzygy_chern_numeric(reduce_numerics(seed), surface, k)
        assert rank_two_table_chern(d, row.c1_sq, row.c2, k) == numeric
        last = iterate_syzygy(seed, surface, k).entries[-1]
        twisted = tensor_line(last.as_bundle(), -surface.anticanonical_class)
        assert closed_syzygy_chern(seed, surface, k) == (twisted.c1, twisted.c2)
        assert (twisted.c1.self_intersection, twisted.c1.degree, twisted.c2) == (
            numeric.c1_sq, numeric.c1_dot_h, numeric.c2)

    @pytest.mark.parametrize("d", [3, 8])
    def test_out_of_scope_degrees(self, d):
        with pytest.raises(OutOfTheoremScope):
            rank_two_table_chern(d, 12, 4, 0)
