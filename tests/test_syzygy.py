"""Syzygy iteration, exact rank formulas and the closed Chern recursion."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import sys
import threading
from collections.abc import Sequence
from fractions import Fraction
from itertools import count, islice
from math import comb, isqrt

import pytest

from ulrich_lab import (
    BundleNumerics,
    DegreeOutOfRange,
    DivisorClass,
    LatticeMismatch,
    NoKernel,
    NonIntegerResult,
    NotUlrich,
    NumericClassData,
    OutOfTheoremScope,
    ParityViolation,
    QuadraticNumber,
    SyzygyTrace,
    TraceEntry,
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
    ulrich_c2,
)
from ulrich_lab import checks, discriminant, euler_char, tables
from ulrich_lab import syzygy as syzygy_module
from ulrich_lab.syzygy import _closed_core, _closed_form_ranks, _ring_mul

S3 = make_surface(3)
S4 = make_surface(4)
S7 = make_surface(7)
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
        assert x * Fraction(1, 2) == q(Fraction(1, 2), 1, 5)

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
    """alpha = ((d-2) + sqrt(D))/2, D = d(d-4), as the Z[alpha] pair (d-2, 1).

    A pair (x, y) stands for (x + y sqrt(D))/2, as in ``_ring_mul``.
    """

    @pytest.mark.parametrize("d", range(5, 9))
    def test_unit_roots(self, d):
        radicand = d * (d - 4)
        alpha, alpha_bar = (d - 2, 1), (d - 2, -1)
        assert _ring_mul(alpha, alpha_bar, radicand) == (2, 0)  # alpha * alpha_bar = 1
        assert (alpha[0] + alpha_bar[0], alpha[1] + alpha_bar[1]) == (2 * (d - 2), 0)  # sum d-2
        # alpha^2 = (d-2) alpha - 1: the characteristic equation of the rank recurrence.
        assert _ring_mul(alpha, alpha, radicand) == ((d - 2) ** 2 - 2, d - 2)


class TestRankFormulas:
    def test_recurrence_values(self):
        assert [rank_by_recurrence(5, 1, k) for k in range(-1, 4)] == [1, 4, 11, 29, 76]
        assert [rank_by_recurrence(4, 2, k) for k in range(-1, 4)] == [2, 6, 10, 14, 18]

    def test_closed_form_values(self):
        assert [rank_closed_form(5, 1, k) for k in range(-1, 4)] == [1, 4, 11, 29, 76]
        assert [rank_closed_form(4, 3, k) for k in range(-1, 4)] == [3, 9, 15, 21, 27]

    def test_d4_is_linear(self):
        # The ring path at radicand 0, where alpha = 1 and y_n = n.
        for r in range(1, 5):
            for k in range(-1, 10**4 + 1):
                assert rank_closed_form(4, r, k) == (2 * k + 3) * r

    @pytest.mark.parametrize("d", range(4, 9))
    def test_closed_matches_recurrence(self, d):
        for r in (1, 2, 3):
            for k in range(-1, 300):
                assert rank_closed_form(d, r, k) == rank_by_recurrence(d, r, k)

    @pytest.mark.parametrize("d", range(4, 9))
    def test_consecutive_ranks_lie_on_the_rank_conic(self, d):
        # The step N_{k+1} = (d-2) N_k - N_{k-1} fixes Q(x, y) = x^2 - (d-2) x y
        # + y^2, whose value at (N_-1, N_0) = (r, r(d-1)) is r^2 d.
        for r in range(1, 6):
            for route in (rank_by_recurrence, rank_closed_form):
                ranks = [route(d, r, k) for k in range(-1, 300)]
                for x, y in zip(ranks, ranks[1:]):
                    assert x * x - (d - 2) * x * y + y * y == r * r * d, (route, r, x, y)
                    assert 0 < x < y

    @pytest.mark.parametrize("d", range(5, 9))
    def test_every_small_point_of_the_rank_conic_is_on_the_tower(self, d):
        # Solve Q(x, y) = r^2 d for y > x > 0, x < 3000, by the quadratic
        # formula: y = ((d-2) x + sqrt(d(d-4) x^2 + 4 r^2 d)) / 2.
        for r in (1, 2, 3):
            points = set()
            for x in range(1, 3000):
                disc = d * (d - 4) * x * x + 4 * r * r * d
                root = isqrt(disc)
                for twice_y in ((d - 2) * x - root, (d - 2) * x + root):
                    if root * root == disc and twice_y % 2 == 0 and twice_y > 2 * x:
                        points.add((x, twice_y // 2))
            tower = set()
            for k in count():
                x, y = rank_by_recurrence(d, r, k - 1), rank_by_recurrence(d, r, k)
                if x >= 3000:
                    break
                tower.add((x, y))
            assert points == tower

    @pytest.mark.parametrize("d", range(4, 9))
    def test_closed_form_walk_matches_binary_powering(self, d):
        for r in (1, 2, 3):
            walk = list(islice(_closed_form_ranks(d, r, 0), 301))  # N_0 .. N_300
            assert walk == [rank_closed_form(d, r, k) for k in range(301)]

    @pytest.mark.parametrize("d", range(4, 9))
    def test_closed_form_walk_from_any_start(self, d):
        for r in (1, 2, 3):
            by_recurrence = [rank_by_recurrence(d, r, k) for k in range(-1, 305)]  # N_-1 .. N_304
            for start in range(-1, 301):
                walk = list(islice(_closed_form_ranks(d, r, start), 5))
                assert walk == by_recurrence[start + 1:start + 6], (r, start)

    @pytest.mark.parametrize("d, r", [(3, 1), (9, 1), ("5", 1), (True, 1), (5, 0), (5, -2),
                                      (5, 1.0), (5, "2")])
    def test_closed_form_walk_refuses_as_rank_closed_form(self, d, r):
        # Refused on the call, before any row is asked for.
        with pytest.raises(Exception) as single:
            rank_closed_form(d, r, 0)
        with pytest.raises(single.type) as walk:
            _closed_form_ranks(d, r, 0)
        assert (type(walk.value), str(walk.value)) == (single.type, str(single.value))

    @pytest.mark.parametrize("k", [-2, -10**30, 1.0, "3", True, None])
    def test_closed_form_walk_refuses_bad_k_as_rank_closed_form(self, k):
        with pytest.raises(Exception) as single:
            rank_closed_form(5, 2, k)
        with pytest.raises(single.type) as walk:
            _closed_form_ranks(5, 2, k)
        assert (type(walk.value), str(walk.value)) == (single.type, str(single.value))

    def test_ring_parity_guard(self):
        # alpha^2 for d = 5: ((3 + sqrt 5)/2)^2 = (7 + 3 sqrt 5)/2.
        assert _ring_mul((3, 1), (3, 1), 5) == (7, 3)
        # (1 + 0 sqrt 5)/2 has numerators of unequal parity: not in Z[alpha].
        with pytest.raises(NonIntegerResult):
            _ring_mul((1, 0), (1, 0), 5)
        with pytest.raises(NonIntegerResult):
            _ring_mul((3, 1), (2, 1), 5)

    def test_domain_errors(self):
        # The degree is refused by the surface's own rule, text and class.
        for d in (2, 9, "5"):
            with pytest.raises(DegreeOutOfRange) as surface_info:
                make_surface(d)
            with pytest.raises(DegreeOutOfRange) as info:
                rank_by_recurrence(d, 1, 0)
            assert str(info.value) == str(surface_info.value)
        assert str(info.value) == "degree must be an integer in [3, 8], got '5'"
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
        for missing in (-2, 4, 100, True, False, 1.0):
            with pytest.raises(KeyError):
                trace.entry(missing)
        # Rows passed to the constructor are found by their own k, not by position.
        surface, seed, _ = _walk_seeds(5, 2)
        rows = iterate_syzygy(seed, surface, 12).entries
        tail = SyzygyTrace(surface, seed, rows[5:])
        assert [tail.entry(k) for k in range(4, 13)] == list(rows[5:])
        assert tail.entry(4).k == 4 and tail.entry(12).k == 12
        for missing in (-1, 3, 13, True, 4.0):
            with pytest.raises(KeyError) as refused:
                tail.entry(missing)
            assert refused.value.args == (f"no trace entry for k = {missing}",)
        backwards = SyzygyTrace(surface, seed, rows[::-1])
        assert [backwards.entry(k) for k in range(-1, 13)] == list(rows)
        copies = tuple(map(copy.copy, rows))
        doubled = SyzygyTrace(surface, seed, (*copies, *rows))
        assert all(doubled.entry(k) is copies[k + 1] for k in range(-1, 13))


class TestLoopRefusals:
    """The step's own refusals, on seeds that only a skipped Ulrich test lets in."""

    S5 = make_surface(5)

    @pytest.fixture(autouse=True)
    def no_ulrich_test(self, monkeypatch):
        monkeypatch.setattr(syzygy_module.ulrich, "is_ulrich_candidate", lambda f, surface: True)

    def test_rank_off_the_recurrence(self):
        with pytest.raises(RuntimeError, match=r"^internal inconsistency: rank 7 at step 0, "
                                               r"recurrence predicts 8$"):
            iterate_syzygy(NumericClassData(2, 16, 10, 6), self.S5, 3)

    def test_no_kernel(self):
        with pytest.raises(NoKernel, match=r"^chi = -25 does not exceed rank 2 at step 0$"):
            iterate_syzygy(NumericClassData(2, 16, 10, 40), self.S5, 3)

    def test_odd_riemann_roch_numerator(self):
        with pytest.raises(ParityViolation, match=r"^c1\^2 \+ c1\.H = 27 is odd; "):
            iterate_syzygy(NumericClassData(2, 17, 10, 5), self.S5, 3)

    def test_odd_seed_without_a_step(self):
        seed = NumericClassData(2, 17, 10, 5)
        trace = iterate_syzygy(seed, self.S5, -1)
        assert tuple(trace.entries) == (TraceEntry(-1, 2, None, 17, 10, 5),)


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

    @pytest.mark.parametrize("seed", [WITNESS, reduce_numerics(WITNESS)],
                             ids=["exact", "reduced"])
    def test_numeric_seed_row_is_reduced_data(self, seed):
        row = closed_syzygy_chern_numeric(seed, S4, -1)
        assert type(row) is NumericClassData
        assert row == reduce_numerics(WITNESS)

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


class TestClosedRoutesRefuseNonUlrich:
    """The closed routes refuse what iterate_syzygy refuses, in the same order."""

    @pytest.mark.parametrize("k", [-1, 0, 2, 200])
    @pytest.mark.parametrize("route", [
        pytest.param(lambda k: closed_syzygy_chern_numeric(
            NumericClassData(2, 17, 10, 5), make_surface(5), k), id="numeric-odd-parity"),
        pytest.param(lambda k: closed_syzygy_chern_numeric(
            NumericClassData(2, 12, 8, 5), S4, k), id="numeric-wrong-c2"),
        pytest.param(lambda k: closed_syzygy_chern_numeric(
            NumericClassData(2, 12, 7, 4), S4, k), id="numeric-wrong-degree"),
        pytest.param(lambda k: closed_syzygy_chern(
            BundleNumerics(2, WITNESS_C1, 5), S4, k), id="exact-wrong-c2"),
        pytest.param(lambda k: closed_syzygy_chern(
            BundleNumerics(1, WITNESS_C1, 0), S4, k), id="exact-wrong-rank"),
        pytest.param(lambda k: rank_two_table_chern(5, 17, 5, k), id="table-odd-parity"),
        pytest.param(lambda k: rank_two_table_chern(4, 12, 5, k), id="table-wrong-c2"),
    ])
    def test_non_candidate_refused(self, route, k):
        with pytest.raises(NotUlrich):
            route(k)

    def test_exact_refusal_names_the_seed_as_given(self):
        # As iterate_syzygy's refusal does: the exact seed, not its reduced data.
        seed = BundleNumerics(2, WITNESS_C1, 5)
        for route in (iterate_syzygy, closed_syzygy_chern):
            with pytest.raises(NotUlrich) as info:
                route(seed, S4, 0)
            assert str(info.value) == f"seed {seed!r} fails the numerical Ulrich conditions"

    def test_earlier_guards_keep_their_class(self):
        bad = NumericClassData(2, 8, 6, 4)  # c2 = 3 is the Ulrich value on S3
        with pytest.raises(ValueError, match="index k"):
            closed_syzygy_chern_numeric(bad, S3, -2)
        with pytest.raises(LatticeMismatch):
            closed_syzygy_chern(BundleNumerics(2, parse_divisor("(4;1,1,1,1,0,0)"), 5), S4, 0)
        with pytest.raises(OutOfTheoremScope):
            rank_two_table_chern(8, 17, 5, 0)
        with pytest.raises(ValueError, match="index k"):
            rank_two_table_chern(5, 17, 5, -2)


CUBIC_SEED = BundleNumerics(2, parse_divisor("(4;2,1,1,1,1,0)"), 3)


class TestRefusalParity:
    """One input, one refusal: every seed route raises the same class with the
    same text, up to the route's index name and the seed types it accepts."""

    ROUTES = [(iterate_syzygy, "k_max", "BundleNumerics or NumericClassData"),
              (closed_syzygy_chern, "index k", "BundleNumerics"),
              (closed_syzygy_chern_numeric, "index k", "BundleNumerics or NumericClassData")]

    @pytest.mark.parametrize("seed,surface,k,error", [
        pytest.param("(4;2,1,1,1,1,0)", S3, 0, TypeError, id="seed-type"),
        pytest.param(CUBIC_SEED, 3, 0, TypeError, id="surface-type"),
        pytest.param(BundleNumerics(2, parse_divisor("(4;1,1,1,1,0,0)"), 5), S4, 0,
                     LatticeMismatch, id="other-lattice"),
        pytest.param(WITNESS, S4, -2, ValueError, id="k-below-minus-one"),
        pytest.param(CUBIC_SEED, S3, 1, OutOfTheoremScope, id="d3-ulrich-k1"),
        pytest.param(dataclasses.replace(CUBIC_SEED, c2=4), S3, 1, NotUlrich, id="d3-non-ulrich-k1"),
        pytest.param(BundleNumerics(2, parse_divisor("(5;2,1,1,1)"), 7), make_surface(5), 1,
                     NotUlrich, id="d5-non-ulrich"),
    ])
    def test_routes_agree(self, seed, surface, k, error):
        texts = set()
        for route, index, types in self.ROUTES:
            with pytest.raises(error) as info:
                route(seed, surface, k)
            assert type(info.value) is error
            texts.add(str(info.value).replace(index, "<k>").replace(f"a {types}, got", "a <types>, got"))
        assert len(texts) == 1, texts


def reference_trace(seed, surface, k_max):
    """The step-by-step iteration in the seed's own resolution (exact c1 if any).

    Each row's rank must follow the rank recurrence of an Ulrich seed, worked
    here with no library call: N_{-1} = r, N_0 = r(d-1) and
    N_k = (d-2) N_{k-1} - N_{k-2}.  A wrong step then fails at its own row,
    instead of iterating integers that grow without bound.
    """
    d = surface.degree
    current, rows = seed, [(-1, seed)]
    before, rank = None, seed.rank  # N_{k-2}, N_{k-1}
    for k in range(k_max + 1):
        current = twist_by_h(syzygy_numerics(current, euler_char(current, surface)), 1, surface)
        before, rank = rank, (rank * (d - 1) if before is None else (d - 2) * rank - before)
        assert current.rank == rank, f"S_{k} has rank {current.rank}, the recurrence {rank}"
        rows.append((k, current))
    return rows


def _rH_seeds():
    for d in range(4, 9):
        surface = make_surface(d)
        for r in (1, 2, 3):
            c1 = r * surface.anticanonical_class
            yield surface, BundleNumerics(r, c1, r + (r * r * d - r * d) // 2)


def textbook_trace(seed, d, k_max):
    """(k, rank, c1, c1^2, c1.H, c2) of S_{-1}, ..., S_{k_max} by the textbook
    polynomials: Riemann-Roch, the kernel, and c1^2 + 2Np + N^2 d,
    C(N,2) d + (N-1) p + c2 for the twist by H.  Calls no library formula."""
    hyperplane = DivisorClass(3, (1,) * (9 - d))
    c1 = seed.c1 if isinstance(seed, BundleNumerics) else None
    rank, c1_sq, p, c2 = seed.rank, seed.c1_sq, seed.c1_dot_h, seed.c2
    rows = [(-1, rank, c1, c1_sq, p, c2)]
    for k in range(k_max + 1):
        n = (c1_sq + p) // 2 - c2  # chi(S_{k-1}) - rank
        p, c2 = -p, c1_sq - c2  # the kernel; c1^2 is unchanged
        rank, c1_sq, p, c2 = (n, c1_sq + 2 * n * p + n * n * d, p + n * d,
                              comb(n, 2) * d + (n - 1) * p + c2)
        if c1 is not None:
            c1 = -c1 + n * hyperplane
        rows.append((k, rank, c1, c1_sq, p, c2))
    return rows


def _deep_oracle_seeds():
    for d in range(4, 9):  # d = 4 is the double root of the rank recurrence
        surface = make_surface(d)
        for r in (1, 3):
            yield pytest.param(surface, BundleNumerics(r, r * surface.anticanonical_class,
                                                       r + (r * r * d - r * d) // 2),
                               id=f"{r}H-d{d}")
    for row in tables.MODULI_DIM_ROWS:
        yield pytest.param(make_surface(row.degree),
                           BundleNumerics(2, tables.moduli_row_witness(row), row.c2),
                           id=f"row-d{row.degree}-c1sq{row.c1_sq}")


class TestIterateOracle:
    """iterate_syzygy steps in reduced data; the exact composition is the oracle."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "reduced"])
    @pytest.mark.parametrize("surface,seed", _deep_oracle_seeds())
    def test_matches_textbook_at_k_1000(self, surface, seed, exact):
        # Big integers (N_1000 has about 2,300 bits at d = 7) against a
        # reference that uses neither twist_by_h nor discriminant.
        if not exact:
            seed = reduce_numerics(seed)
        trace = iterate_syzygy(seed, surface, 1000)
        reference = textbook_trace(seed, surface.degree, 1000)
        assert len(trace.entries) == len(reference) == 1002
        r, c1_sq, c2 = seed.rank, seed.c1_sq, seed.c2
        dim = 2 * r * c2 - (r - 1) * c1_sq - (r * r - 1)
        for entry, row in zip(trace.entries, reference):
            assert (entry.k, entry.rank, entry.c1, entry.c1_sq, entry.c1_dot_h, entry.c2) == row
            n, delta = row[1], 2 * row[1] * row[5] - (row[1] - 1) * row[3]
            assert (entry.delta, entry.drift) == (delta, delta - (n * n - 1))
        if exact:
            last_c1 = reference[-1][2]
            assert (last_c1.self_intersection, last_c1.degree) == reference[-1][3:5]
        assert discriminant_drift(trace) == [dim] * 1002

    @pytest.mark.parametrize("surface,seed", checks.default_seeds() + list(_rH_seeds()) + [
        (surface, reduce_numerics(seed)) for surface, seed in checks.default_seeds()
        if isinstance(seed, BundleNumerics)])
    def test_matches_exact_composition(self, surface, seed):
        k_max = 0 if surface.degree == 3 else 40
        trace = iterate_syzygy(seed, surface, k_max)
        drift = discriminant_drift(trace)  # from the columns, before any row is built
        reference = reference_trace(seed, surface, k_max)
        assert len(trace.entries) == len(drift) == len(reference)
        for entry, entry_drift, (k, f) in zip(trace.entries, drift, reference):
            c1 = f.c1 if isinstance(f, BundleNumerics) else None
            assert (entry.k, entry.rank, entry.c1, entry.c1_sq, entry.c1_dot_h, entry.c2) == (
                k, f.rank, c1, f.c1_sq, f.c1_dot_h, f.c2)
            assert entry.delta == discriminant(f)
            assert entry_drift == entry.drift == expected_moduli_dim(entry)
            assert entry_drift == expected_moduli_dim(f)

    @pytest.mark.parametrize("k_max,corrupt_at", [(0, 1), (5, 6)])
    def test_corrupt_degree_trips_final_check(self, monkeypatch, k_max, corrupt_at):
        # Shift the last exact class (row k_max + 1) by -2 E_1: its c1.H moves
        # by 2 (parity kept), and no rank check sees it.  iterate_syzygy builds
        # that one class for its final check, through syzygy._trusted, which
        # it looks up in its own module.
        calls, original = [], syzygy_module._trusted
        want = tuple(iterate_syzygy(WITNESS, S4, k_max).entries)[corrupt_at].c1

        def corrupt(a, b):
            calls.append((a, b))
            return original(a, (b[0] - 2, *b[1:]))

        monkeypatch.setattr(syzygy_module, "_trusted", corrupt)
        with pytest.raises(RuntimeError, match=r"\(c1\^2, c1\.H\)"):
            iterate_syzygy(WITNESS, S4, k_max)
        assert calls == [(want.a, want.b)]  # the last row's class, and no other
        # Reduced seeds carry no exact class, so nothing is there to disagree.
        calls.clear()
        assert len(iterate_syzygy(reduce_numerics(WITNESS), S4, k_max).entries) == k_max + 2
        assert calls == []


def reference_rows(seed, surface, k_max):
    """The rows of the public composition, each built by the checked constructor."""
    return tuple(TraceEntry(k, f.rank, f.c1 if isinstance(f, BundleNumerics) else None,
                            f.c1_sq, f.c1_dot_h, f.c2)
                 for k, f in reference_trace(seed, surface, k_max))


ROW_SEEDS = [
    pytest.param(S4, WITNESS, id="exact-d4"),
    pytest.param(S4, reduce_numerics(WITNESS), id="reduced-d4"),
    pytest.param(make_surface(7), BundleNumerics(2, 2 * make_surface(7).anticanonical_class, 9),
                 id="exact-d7"),
]


@pytest.mark.parametrize("surface,seed", ROW_SEEDS)
class TestTraceRows:
    """entries is a read-only sequence that builds each row when it is read."""

    @pytest.mark.parametrize("k_max", [-1, 0, 1, 7, 200])
    def test_rows_match_composition(self, surface, seed, k_max):
        reference = reference_rows(seed, surface, k_max)
        # All rows at once, and one by one from the last, on fresh traces.
        assert tuple(iterate_syzygy(seed, surface, k_max).entries) == reference
        rows = iterate_syzygy(seed, surface, k_max).entries
        assert [rows[i] for i in reversed(range(len(rows)))] == list(reversed(reference))
        assert tuple(rows) == reference

    def test_indexing(self, surface, seed):
        rows = iterate_syzygy(seed, surface, 7).entries
        reference = reference_rows(seed, surface, 7)
        assert isinstance(rows, Sequence) and not isinstance(rows, tuple)
        assert len(rows) == 9
        assert rows[0] == reference[0] and rows[8] == reference[8]
        assert rows[-1] == reference[-1] and rows[-9] == reference[0]
        for part in (slice(2, 5), slice(None, None, -2), slice(5, 100), slice(-3, None),
                     slice(4, 2), slice(None)):
            assert type(rows[part]) is tuple
            assert rows[part] == reference[part]
        for outside in (9, -10, 100, -100):
            with pytest.raises(IndexError):
                rows[outside]
        for not_an_index in ("1", 1.0, None):
            with pytest.raises(TypeError):
                rows[not_an_index]
        assert list(reversed(rows)) == list(reversed(reference))
        assert reference[4] in rows and rows.index(reference[4]) == 4
        assert rows.count(reference[4]) == 1

    def test_a_row_read_again_is_the_same_object(self, surface, seed):
        rows = iterate_syzygy(seed, surface, 7).entries
        third, last = rows[3], rows[-1]
        assert rows[3] is third and rows[3 - 9] is third
        assert rows[8] is last and rows[2:4][1] is third
        every = list(rows)  # the full build keeps the rows read before
        assert every[3] is third and every[8] is last
        assert all(rows[i] is row for i, row in enumerate(every))
        assert list(rows)[5] is every[5]

    def test_read_only(self, surface, seed):
        rows = iterate_syzygy(seed, surface, 3).entries
        with pytest.raises(TypeError):
            rows[0] = rows[1]
        with pytest.raises(TypeError):
            del rows[0]
        assert not hasattr(rows, "append")

    def test_compares_hashes_and_prints_as_the_tuple(self, surface, seed):
        reference = reference_rows(seed, surface, 7)
        rows = iterate_syzygy(seed, surface, 7).entries
        assert rows == reference and reference == rows and not rows != reference
        assert hash(rows) == hash(reference) and repr(rows) == repr(reference)
        assert rows == iterate_syzygy(seed, surface, 7).entries
        assert rows != iterate_syzygy(seed, surface, 6).entries
        assert rows != reference[:-1] and rows != list(reference) and rows != 0
        trace = iterate_syzygy(seed, surface, 7)
        as_tuple = SyzygyTrace(surface, seed, reference)
        assert trace == as_tuple and as_tuple == trace
        assert hash(trace) == hash(as_tuple) and repr(trace) == repr(as_tuple)
        assert trace.to_dict() == as_tuple.to_dict()

    @pytest.mark.parametrize("read", ["none", "last", "all"])
    def test_pickles_and_copies_are_equal(self, surface, seed, read):
        trace = iterate_syzygy(seed, surface, 7)
        if read == "last":
            trace.entries[-1]
        elif read == "all":
            tuple(trace.entries)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        sizes = [len(pickle.dumps(trace, protocol)) for protocol in protocols]
        clones = [pickle.loads(pickle.dumps(trace, protocol)) for protocol in protocols]
        clones += [copy.copy(trace), copy.deepcopy(trace), dataclasses.replace(trace)]
        reference = reference_rows(seed, surface, 7)
        for clone in clones:
            assert type(clone.entries) is type(trace.entries)
            assert clone == trace and trace == clone
            assert hash(clone) == hash(trace) and repr(clone) == repr(trace)
            assert clone.entries == reference
            assert discriminant_drift(clone) == discriminant_drift(trace)
        # Pickles carry the columns, not the rows built so far.
        tuple(trace.entries)
        assert [len(pickle.dumps(trace, protocol)) for protocol in protocols] == sizes

    def test_pickle_layout(self, surface, seed):
        # Pickles carry the columns (ranks, c1_sqs, degrees, ws, c1, ms) the
        # rows are kept in, w = 2 c2 - c1^2, with no conversion either way.
        rows = iterate_syzygy(seed, surface, 7).entries
        reference = reference_rows(seed, surface, 7)
        exact = isinstance(seed, BundleNumerics)
        ms = [0]
        for row in reference[1:]:
            ms.append(row.rank - ms[-1])
        columns = [list(column) for column in zip(*(
            (row.rank, row.c1_sq, row.c1_dot_h, 2 * row.c2 - row.c1_sq) for row in reference))]
        assert rows.__reduce__() == (syzygy_module._trace_rows,
                                     (*columns, seed.c1 if exact else None, ms if exact else None))

    def test_last_row_and_drift_build_one_row(self, monkeypatch, surface, seed):
        built, original = [], syzygy_module._trusted_entry

        def counting(k, *fields):
            built.append(k)
            return original(k, *fields)

        monkeypatch.setattr(syzygy_module, "_trusted_entry", counting)
        trace = iterate_syzygy(seed, surface, 1000)
        last = trace.entries[-1]
        drift = discriminant_drift(trace)
        assert built == [1000]
        assert trace.entries[-1] is last and last.k == 1000
        assert drift == [expected_moduli_dim(seed)] * 1002
        assert built == [1000]

    def test_full_iteration_builds_only_the_unread_rows(self, monkeypatch, surface, seed):
        built, original = [], syzygy_module._trusted_entry

        def counting(k, *fields):
            built.append(k)
            return original(k, *fields)

        monkeypatch.setattr(syzygy_module, "_trusted_entry", counting)
        rows = iterate_syzygy(seed, surface, 12).entries
        rows[3], rows[-1]
        built.clear()
        assert tuple(rows) == reference_rows(seed, surface, 12)
        assert built == [k for k in range(-1, 13) if k not in (2, 12)]  # len(rows) - 2 rows
        built.clear()
        assert tuple(rows) == reference_rows(seed, surface, 12)
        assert built == []

    def test_drift_of_any_rows(self, surface, seed):
        # A trace may hold rows passed to the constructor, or rows unpickled
        # from a pickle that holds the tuple: the drift reads their fields.
        trace = iterate_syzygy(seed, surface, 12)
        reference = reference_rows(seed, surface, 12)
        expected = [expected_moduli_dim(row) for row in reference]
        assert discriminant_drift(trace) == expected
        for entries in (reference, list(reference), trace.entries, reference[:0]):
            other = SyzygyTrace(surface, seed, entries)
            assert discriminant_drift(other) == expected[:len(entries)]
        assert discriminant_drift(SyzygyTrace(surface, seed, reference[5:])) == expected[5:]
        # A row that is no TraceEntry is refused when the trace is built, naming it.
        with pytest.raises(TypeError, match=r"^entries\[0\] must be a TraceEntry, "
                                            "got <object object at"):
            SyzygyTrace(surface, seed, [object()])

    def test_the_constructor_checks_every_field(self, surface, seed):
        reference = reference_rows(seed, surface, 3)
        for fields, message in (
            ((None, None, []), "surface must be a DelPezzoSurface, got None"),
            ((surface, None, []), "seed must be a BundleNumerics or NumericClassData, got None"),
            ((surface, seed, None), "entries must be iterable, got None"),
            ((surface, seed, [*reference, 3]), "entries[5] must be a TraceEntry, got 3"),
        ):
            with pytest.raises(TypeError) as info:
                SyzygyTrace(*fields)
            assert str(info.value) == message
        # Rows in any iterable are kept as the tuple, which hashes and compares.
        expected = SyzygyTrace(surface, seed, reference)
        for same in (list(reference), iter(reference)):
            trace = SyzygyTrace(surface, seed, same)
            assert type(trace.entries) is tuple and trace == expected
            assert hash(trace) == hash(expected) and trace.to_dict() == expected.to_dict()


def _to_dict_cases():
    for d in range(3, 9):
        surface = make_surface(d)
        exact = BundleNumerics(2, 2 * surface.anticanonical_class, ulrich_c2(2, 4 * d, surface))
        for kind, seed in (("exact", exact), ("reduced", reduce_numerics(exact))):
            for k_max in (-1, 0, 50, 200) if d > 3 else (-1, 0):
                yield pytest.param(surface, seed, k_max, id=f"{kind}-d{d}-k{k_max}")


class TestTraceToDict:
    """``SyzygyTrace.to_dict`` writes an iterated trace's records from its columns."""

    @pytest.mark.parametrize("surface,seed,k_max", _to_dict_cases())
    def test_records_equal_the_rows_and_build_none(self, monkeypatch, surface, seed, k_max):
        calls, row_to_dict = [], TraceEntry.to_dict

        def counting(row):
            calls.append(row.k)
            return row_to_dict(row)

        trace = iterate_syzygy(seed, surface, k_max)
        rows = trace.entries
        exact = isinstance(seed, BundleNumerics)  # the iteration built the last row
        assert [row is not None for row in rows._rows] == [False] * (k_max + 1) + [exact]
        monkeypatch.setattr(TraceEntry, "to_dict", counting)
        payload = trace.to_dict()
        assert calls == []
        assert [row is not None for row in rows._rows] == [False] * (k_max + 1) + [exact]
        monkeypatch.undo()
        assert payload == {"d": surface.degree, "seed": seed.to_dict(),
                           "entries": [row.to_dict() for row in rows]}
        assert [type(value) for record in payload["entries"] for value in record.values()] \
            == [int] * 7 * (k_max + 2)

    def test_rows_given_by_hand_give_their_own_records(self):
        trace = iterate_syzygy(WITNESS, S4, 7)
        rows = tuple(trace.entries)
        by_hand = SyzygyTrace(S4, WITNESS, rows)
        # The same text, key order included, as the column records write.
        assert json.dumps(by_hand.to_dict()) == json.dumps(trace.to_dict())
        # Rows passed in by hand are read from their fields, in their order and
        # with their own k; a row's to_dict and drift go through chern instead.
        for given in (rows, rows[5:], rows[::-1], ()):
            other = SyzygyTrace(S4, WITNESS, given)
            assert other.to_dict()["entries"] == [row.to_dict() for row in given]
            assert discriminant_drift(other) == [row.drift for row in given]


# pickle.dumps(iterate_syzygy(WITNESS, S4, 7), 2) when the trace kept a c2
# column, and while pickles carried c2 after the rows kept w: the rows must
# load from it unchanged.
C2_COLUMN_PICKLE = (
    b'\x80\x02culrich_lab.syzygy\nSyzygyTrace\nq\x00)\x81q\x01}q\x02(X\x07\x00\x00\x00surf'
    b'aceq\x03culrich_lab.picard\nDelPezzoSurface\nq\x04)\x81q\x05}q\x06X\x06\x00\x00\x00d'
    b'egreeq\x07K\x04sbX\x04\x00\x00\x00seedq\x08culrich_lab.chern\nBundleNumerics\nq\t)'
    b'\x81q\n}q\x0b(X\x04\x00\x00\x00rankq\x0cK\x02X\x02\x00\x00\x00c1q\rculrich_lab.picar'
    b'd\nDivisorClass\nq\x0e)\x81q\x0f}q\x10(X\x01\x00\x00\x00aq\x11K\x04X\x01\x00\x00\x00'
    b'bq\x12(K\x01K\x01K\x01K\x01K\x00tq\x13ubX\x02\x00\x00\x00c2q\x14K\x04ubX\x07\x00\x00'
    b'\x00entriesq\x15culrich_lab.syzygy\n_TraceRows\nq\x16(]q\x17(K\x02K\x06K\nK\x0eK\x12'
    b'K\x16K\x1aK\x1eK"e]q\x18(K\x0cK<K\x8cK\xfcM\x8c\x01M<\x02M\x0c\x03M\xfc\x03M\x0c\x05'
    b'e]q\x19(K\x08K\x10K\x18K K(K0K8K@KHe]q\x1a(K\x04K\x1cKDK|K\xc4M\x1c\x01M\x84\x01M'
    b'\xfc\x01M\x84\x02eh\x0f]q\x1b(K\x00K\x06K\x04K\nK\x08K\x0eK\x0cK\x12K\x10etq\x1cRq'
    b'\x1dub.'
)


# pickle.dumps(iterate_syzygy(WITNESS, S4, 7), 2) since pickles carry the w
# column, through syzygy._trace_rows.
W_COLUMN_PICKLE = (
    b'\x80\x02culrich_lab.syzygy\nSyzygyTrace\nq\x00)\x81q\x01}q\x02(X\x07\x00\x00\x00surfa'
    b'ceq\x03culrich_lab.picard\nDelPezzoSurface\nq\x04)\x81q\x05}q\x06X\x06\x00\x00\x00deg'
    b'reeq\x07K\x04sbX\x04\x00\x00\x00seedq\x08culrich_lab.chern\nBundleNumerics\nq\t)\x81q'
    b'\n}q\x0b(X\x04\x00\x00\x00rankq\x0cK\x02X\x02\x00\x00\x00c1q\rculrich_lab.picard\nDiv'
    b'isorClass\nq\x0e)\x81q\x0f}q\x10(X\x01\x00\x00\x00aq\x11K\x04X\x01\x00\x00\x00bq\x12('
    b'K\x01K\x01K\x01K\x01K\x00tq\x13ubX\x02\x00\x00\x00c2q\x14K\x04ubX\x07\x00\x00\x00entr'
    b'iesq\x15culrich_lab.syzygy\n_trace_rows\nq\x16(]q\x17(K\x02K\x06K\nK\x0eK\x12K\x16K'
    b'\x1aK\x1eK"e]q\x18(K\x0cK<K\x8cK\xfcM\x8c\x01M<\x02M\x0c\x03M\xfc\x03M\x0c\x05e]q\x19'
    b'(K\x08K\x10K\x18K K(K0K8K@KHe]q\x1a(J\xfc\xff\xff\xffJ\xfc\xff\xff\xffJ\xfc\xff\xff'
    b'\xffJ\xfc\xff\xff\xffJ\xfc\xff\xff\xffJ\xfc\xff\xff\xffJ\xfc\xff\xff\xffJ\xfc\xff\xff'
    b'\xffJ\xfc\xff\xff\xffeh\x0f]q\x1b(K\x00K\x06K\x04K\nK\x08K\x0eK\x0cK\x12K\x10etq\x1cR'
    b'q\x1dub.'
)


def test_a_c2_column_pickle_loads():
    trace = iterate_syzygy(WITNESS, S4, 7)
    clone = pickle.loads(C2_COLUMN_PICKLE)
    assert type(clone.entries) is type(trace.entries)
    assert clone == trace and tuple(clone.entries) == reference_rows(WITNESS, S4, 7)
    assert discriminant_drift(clone) == [expected_moduli_dim(WITNESS)] * 9
    assert pickle.dumps(trace, 2) == W_COLUMN_PICKLE


def telescoped_loop(d, c1_sq, c1_dot_h, c2, ranks):
    """The former O(k) core: telescoped alternating sum over N_0, ..., N_{k-1}."""
    k, sign, m, signed_sum = 0, -1, 0, 0
    for n in ranks:
        signed_sum += sign * m
        k, sign, m = k + 1, -sign, -(m + n)
    total = (c1_sq - c2 - k % 2 * c1_sq + (k - m) * c1_dot_h
             + d * (signed_sum - sign * (m * (m - 1) // 2)))
    q = c1_sq + 2 * sign * m * c1_dot_h + m * m * d
    return sign, m, q, sign * c1_dot_h + m * d, -sign * total


def unrolled_sums(d, c1_sq, c1_dot_h, c2, ranks):
    """The module docstring's unrolled recursion, one result per prefix length k.

    v_k = sum_{i<k} (-1)^{k+i+1} [q_i + (N_i+1) p_i + C(N_i+1,2) d] + (-1)^k v_0
        = (-1)^k (v_0 + sum_{i<k} (-1)^{i+1} [...]).
    """
    m, running = 0, c1_sq - c2
    for k, n in enumerate([*ranks, None]):
        sign = (-1) ** (k + 1)
        q, p = c1_sq + 2 * sign * m * c1_dot_h + m * m * d, sign * c1_dot_h + m * d
        yield sign, m, q, p, (-1) ** k * running
        if n is not None:
            running += sign * (q + (n + 1) * p + comb(n + 1, 2) * d)
            m = -(m + n)


def own_ranks(d, r, k_max):
    """N_{-1}, ..., N_{k_max} by the three-term recurrence."""
    ranks = [r, r * (d - 1)]
    while len(ranks) < k_max + 2:
        ranks.append((d - 2) * ranks[-1] - ranks[-2])
    return ranks


class TestClosedCoreIdentity:
    """The O(1) core equals the loop it replaced and the docstring's sum."""

    DATA = [(12, 8, 4), (7, -3, 11), (0, 0, 0)]

    def check_range(self, d, r, k_max, data):
        ranks = own_ranks(d, r, k_max)  # ranks[k + 1] = N_k
        unrolled = list(unrolled_sums(d, *data, ranks[1:k_max + 1]))
        for k in range(k_max + 1):
            n_prev, n_k = ranks[k], ranks[k + 1]
            sign = (-1) ** (k + 1)
            assert (n_k + n_prev) % d == 0 and (r + sign * n_prev) % d == 0
            got = _closed_core(d, r, *data, k, n_prev, n_k)
            assert got == telescoped_loop(d, *data, ranks[1:k + 1]) == unrolled[k]
        # k = -1: S_{-1}(E)(-H) = E(-H), with N_{-2} = (d-2) r - N_0 = -r.
        twisted = twist_by_h(NumericClassData(r, *data), -1, make_surface(d))
        assert _closed_core(d, r, *data, -1, -r, r) == (
            1, -r, twisted.c1_sq, twisted.c1_dot_h, twisted.c2)

    @pytest.mark.parametrize("d", range(4, 9))
    @pytest.mark.parametrize("r", range(1, 5))
    def test_matches_references(self, d, r):
        for data in self.DATA:
            self.check_range(d, r, 300, data)

    @pytest.mark.parametrize("r", range(1, 5))
    def test_cubic_surface(self, r):
        # Degree 3 allows k = 0 only, where m_0 = 0.
        for data in self.DATA:
            self.check_range(3, r, 0, data)
            assert _closed_core(3, r, *data, 0, r, 2 * r)[:2] == (-1, 0)


def _walk_seeds(d, r):
    """Ulrich seeds of rank r with c1 = r H on degree d, exact and reduced."""
    surface = make_surface(d)
    c1 = r * surface.anticanonical_class
    c2 = ulrich_c2(r, c1.self_intersection, surface)
    return surface, BundleNumerics(r, c1, c2), NumericClassData(r, r * r * d, r * d, c2)


def _walk_orders(rng, calls):
    """(d, r, k) calls for d = 3..8, r = 1..5 and k = -1..300, in runs of one
    (d, r) whose k go up, go down, repeat or jump, the runs switching d, r or both."""
    out, d, r = [], 5, 2
    while len(out) < calls:
        switch = rng.choice(("d", "r", "both"))
        if switch != "r":
            d = rng.randrange(3, 9)
        if switch != "d":
            r = rng.randrange(1, 6)
        ks = rng.sample(range(-1, 301), rng.randrange(1, 12))
        shape = rng.choice(("up", "down", "repeat", "jump"))
        if shape == "up":
            ks.sort()
        elif shape == "down":
            ks.sort(reverse=True)
        elif shape == "repeat":
            ks = [ks[0]] * len(ks)
        out += [(d, r, k) for k in ks]
    return out


class TestRankWalk:
    """``_rank_pair`` caches its last (d, r, k): every order of calls gives the
    recurrence's ranks, and the closed routes fed from it their cold values."""

    REFERENCE = {(d, r): own_ranks(d, r, 300) for d in range(3, 9) for r in range(1, 6)}

    def pair(self, d, r, k):
        ranks = self.REFERENCE[d, r]  # ranks[k + 1] = N_k, and N_{-2} = -r
        return (ranks[k] if k >= 0 else -r), ranks[k + 1]

    @pytest.mark.parametrize("order_seed", range(6))
    def test_interleaved_orders_give_the_recurrence(self, order_seed):
        rng = random.Random(order_seed)
        for d, r, k in _walk_orders(rng, 400):
            pair = self.pair(d, r, k)
            route = rng.choice(("pair", "rank", "numeric", "exact"))
            if route in ("numeric", "exact") and d == 3 and k > 0:
                route = "rank"
            if route == "pair":
                assert syzygy_module._rank_pair(d, r, k) == pair
            elif route == "rank":
                assert rank_by_recurrence(d, r, k) == pair[1] \
                    == next(islice(syzygy_module._recurrence_ranks(d, r), k + 1, None))
            else:
                surface, exact, reduced = _walk_seeds(d, r)
                if k == -1:
                    continue  # the seed row, no rank read
                data = _closed_core(d, r, reduced.c1_sq, reduced.c1_dot_h, reduced.c2, k, *pair)
                if route == "numeric":
                    assert closed_syzygy_chern_numeric(reduced, surface, k) \
                        == NumericClassData(pair[1], *data[2:])
                else:
                    sign, m, *_, c2 = data
                    assert closed_syzygy_chern(exact, surface, k) \
                        == (sign * exact.c1 + m * surface.anticanonical_class, c2)

    def test_walks_once_per_d_r_k(self, monkeypatch):
        starts, walk = [], syzygy_module._recurrence_walk

        def recording(d, prev, cur):
            starts.append((d, prev, cur))
            return walk(d, prev, cur)

        monkeypatch.setattr(syzygy_module, "_recurrence_walk", recording)
        syzygy_module._rank_pair.cache_clear()
        rank_by_recurrence(7, 3, 200)
        assert starts == [(7, -3, 3)]
        for route in (lambda: rank_by_recurrence(7, 3, 200),
                      lambda: closed_syzygy_chern_numeric(_walk_seeds(7, 3)[2], S7, 200),
                      lambda: closed_syzygy_chern(_walk_seeds(7, 3)[1], S7, 200)):
            route()
        assert starts == [(7, -3, 3)]  # the same (d, r, k) walks no step
        for d, r, k in ((7, 3, 250), (7, 3, 249), (7, 3, 250), (7, 2, 250), (6, 2, 250)):
            assert rank_by_recurrence(d, r, k) == self.pair(d, r, k)[1]
            assert starts[-1] == (d, -r, r)
        assert len(starts) == 6  # every other (d, r, k) walks from the start

    REFUSED = [
        (DegreeOutOfRange, lambda: rank_by_recurrence(2, 1, 5)),
        (DegreeOutOfRange, lambda: rank_by_recurrence(9, 1, 5)),
        (ValueError, lambda: rank_by_recurrence(5, 0, 5)),
        (ValueError, lambda: rank_by_recurrence(5, 2, -2)),
        (ValueError, lambda: rank_by_recurrence(5, 2, 1.0)),
        (ValueError, lambda: closed_syzygy_chern(_walk_seeds(5, 2)[1], make_surface(5), -2)),
        (ValueError,
         lambda: closed_syzygy_chern_numeric(_walk_seeds(5, 2)[2], make_surface(5), -2)),
        (NotUlrich, lambda: closed_syzygy_chern(
            BundleNumerics(2, parse_divisor("(5;1,1,1,1)"), 3), make_surface(5), 4)),
        (NotUlrich, lambda: closed_syzygy_chern_numeric(
            NumericClassData(2, 20, 10, 3), make_surface(5), 4)),
        (OutOfTheoremScope, lambda: closed_syzygy_chern(_walk_seeds(3, 2)[1], S3, 1)),
        (OutOfTheoremScope, lambda: closed_syzygy_chern_numeric(_walk_seeds(3, 2)[2], S3, 1)),
    ]

    @pytest.mark.parametrize("refused", range(len(REFUSED)))
    def test_a_refused_call_leaves_the_walk(self, refused):
        error, call = self.REFUSED[refused]
        rank_by_recurrence(5, 2, 40)
        before = syzygy_module._rank_pair.cache_info()
        with pytest.raises(error):
            call()
        assert syzygy_module._rank_pair.cache_info() == before
        assert syzygy_module._rank_pair(5, 2, 40) == self.pair(5, 2, 40)
        assert syzygy_module._rank_pair.cache_info().hits == before.hits + 1

    def test_threads_sweeping_their_own_rank_get_the_recurrence(self):
        sweeps = {(4, 1): [], (5, 2): [], (7, 3): [], (8, 5): []}
        ks = [*range(-1, 301, 3), *range(300, -2, -7), *range(0, 301, 11)]

        def sweep(d, r):
            for k in ks:
                sweeps[d, r].append((k, syzygy_module._rank_pair(d, r, k),
                                     rank_by_recurrence(d, r, k)))

        threads = [threading.Thread(target=sweep, args=key) for key in sweeps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (d, r), results in sweeps.items():
            assert results == [(k, self.pair(d, r, k), self.pair(d, r, k)[1]) for k in ks]
