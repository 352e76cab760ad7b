"""Syzygy iteration, exact rank formulas and the closed Chern recursion."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from collections.abc import Sequence
from fractions import Fraction
from math import comb

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
)
from ulrich_lab import checks, discriminant, euler_char, tables
from ulrich_lab import syzygy as syzygy_module
from ulrich_lab.syzygy import _closed_core, _ring_mul

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
        for missing in (-2, 4, 100, True, False, 1.0):
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
    """The closed routes refuse what iterate_syzygy refuses, after their own guards."""

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

    def test_earlier_guards_keep_their_class(self):
        bad = NumericClassData(2, 8, 6, 4)  # c2 = 3 is the Ulrich value on S3
        with pytest.raises(OutOfTheoremScope):
            closed_syzygy_chern_numeric(bad, S3, 1)
        with pytest.raises(ValueError, match="index k"):
            closed_syzygy_chern_numeric(bad, S3, -2)
        with pytest.raises(LatticeMismatch):
            closed_syzygy_chern(BundleNumerics(2, parse_divisor("(4;1,1,1,1,0,0)"), 5), S4, 0)
        with pytest.raises(OutOfTheoremScope):
            rank_two_table_chern(8, 17, 5, 0)
        with pytest.raises(ValueError, match="index k"):
            rank_two_table_chern(5, 17, 5, -2)


def reference_trace(seed, surface, k_max):
    """The step-by-step iteration in the seed's own resolution (exact c1 if any)."""
    current, rows = seed, [(-1, seed)]
    for k in range(k_max + 1):
        current = twist_by_h(syzygy_numerics(current, euler_char(current, surface)), 1, surface)
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

    @pytest.mark.parametrize("surface,seed", checks.default_seeds() + list(_rH_seeds()))
    def test_matches_exact_composition(self, surface, seed):
        k_max = 0 if surface.degree == 3 else 40
        trace = iterate_syzygy(seed, surface, k_max)
        reference = reference_trace(seed, surface, k_max)
        assert len(trace.entries) == len(reference)
        for entry, (k, f) in zip(trace.entries, reference):
            c1 = f.c1 if isinstance(f, BundleNumerics) else None
            assert (entry.k, entry.rank, entry.c1, entry.c1_sq, entry.c1_dot_h, entry.c2) == (
                k, f.rank, c1, f.c1_sq, f.c1_dot_h, f.c2)
            assert entry.delta == discriminant(f)
            assert entry.drift == expected_moduli_dim(f)

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
        clones = [pickle.loads(pickle.dumps(trace, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        clones += [copy.copy(trace), copy.deepcopy(trace), dataclasses.replace(trace)]
        reference = reference_rows(seed, surface, 7)
        for clone in clones:
            assert type(clone.entries) is type(trace.entries)
            assert clone == trace and trace == clone
            assert hash(clone) == hash(trace) and repr(clone) == repr(trace)
            assert clone.entries == reference
            assert discriminant_drift(clone) == discriminant_drift(trace)

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
        # from a pickle that holds the tuple: the drift reads them row by row.
        trace = iterate_syzygy(seed, surface, 12)
        reference = reference_rows(seed, surface, 12)
        expected = [expected_moduli_dim(row) for row in reference]
        assert discriminant_drift(trace) == expected
        for entries in (reference, list(reference), trace.entries, reference[:0]):
            other = SyzygyTrace(surface, seed, entries)
            assert discriminant_drift(other) == expected[:len(entries)]
        assert discriminant_drift(SyzygyTrace(surface, seed, reference[5:])) == expected[5:]


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
