"""Acceptance gate for the whole package.

Each test covers one acceptance criterion, enforces a wall-clock budget
and prints exactly one ``ACCEPTANCE <n> PASS`` or ``ACCEPTANCE <n> FAIL``
line past the capture machinery, so a scrollback of the run shows the
verdict per criterion.  All comparisons are exact integer equalities;
there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import pytest

from ulrich_lab import (
    BundleNumerics,
    CUBIC_SURFACE,
    DivisorClass,
    NumericClassData,
    butler_semistability_criterion,
    chi_pair_closed_form,
    chi_pair_oracle,
    closed_syzygy_chern,
    closed_syzygy_chern_numeric,
    coprime_stability_criterion,
    cubic_moduli_pair,
    curve_section_genus,
    decompose_stable_sum,
    direct_sum,
    discriminant_drift,
    expected_moduli_dim,
    is_ulrich_candidate,
    iterate_syzygy,
    kernel_bundle_of_cubic,
    koszul_criterion,
    make_surface,
    polarized_data_for,
    prioritary_polarization_check,
    rank_by_recurrence,
    rank_closed_form,
    rank_two_table_chern,
    reduce_numerics,
    tensor_line,
    twist_by_h,
    twist_partner,
    twisted_cubic_representative,
    twisted_cubics,
    ulrich_c2,
)
from ulrich_lab import checks, tables

RNG_SEED = 0xACCE97


@contextmanager
def criterion(n: int, budget_seconds: float, capsys):
    def report(verdict: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {verdict}")

    start = perf_counter()
    try:
        yield
    except BaseException:
        report("FAIL")
        raise
    elapsed = perf_counter() - start
    if elapsed > budget_seconds:
        report("FAIL")
        pytest.fail(f"criterion {n} took {elapsed:.2f}s, budget {budget_seconds}s")
    report("PASS")


# (degree, c1^2, c2, expected moduli dimension) for rank-2 Ulrich seeds.
MODULI_TABLE = [
    (4, 12, 4, 1), (4, 16, 6, 5),
    (5, 16, 5, 1), (5, 20, 7, 5),
    (6, 20, 6, 1), (6, 24, 8, 5),
    (7, 24, 7, 1), (7, 26, 8, 3), (7, 28, 9, 5),
]

# Orbit tags, seed c1, seed c2, partner c2, shared dimension on the cubic.
PAIR_TABLE = [
    (("A", "C"), "(4;2,1,1,1,1,0)", 3, 5, 1),
    (("B", "B"), "(4;1,1,1,1,1,1)", 4, 6, 3),
    (("A", "E"), "(6;2,2,2,2,2,2)", 5, 7, 5),
]


def test_criterion_1_moduli_dimension_table(capsys):
    with criterion(1, 1.0, capsys):
        assert [
            (row.degree, row.c1_sq, row.c2, row.dim) for row in tables.MODULI_DIM_ROWS
        ] == MODULI_TABLE
        for d, c1_sq, c2, dim in MODULI_TABLE:
            surface = make_surface(d)
            assert ulrich_c2(2, c1_sq, surface) == c2
            seed = NumericClassData(2, c1_sq, 2 * d, c2)
            assert is_ulrich_candidate(seed, surface)
            assert expected_moduli_dim(seed) == dim
            witness = tables.moduli_row_witness(
                tables.ModuliRow(d, c1_sq, c2, dim)
            )
            assert witness.self_intersection == c1_sq
            assert is_ulrich_candidate(BundleNumerics(2, witness, c2), surface)


def test_criterion_2_cubic_pair_table(capsys):
    with criterion(2, 1.0, capsys):
        rng = random.Random(RNG_SEED)
        for tags, c1_text, seed_c2, partner_c2, dim in PAIR_TABLE:
            first = twisted_cubic_representative(tags[0])
            second = twisted_cubic_representative(tags[1])
            if tags == ("B", "B"):
                second = DivisorClass(2, (0, 0, 0, 1, 1, 1))
            c1 = first + second
            assert str(c1) == c1_text
            assert ulrich_c2(2, c1.self_intersection, CUBIC_SURFACE) == seed_c2
            seed = BundleNumerics(2, c1, seed_c2)
            partner, got_dim = cubic_moduli_pair(seed)
            assert partner == BundleNumerics(4, -c1, partner_c2)
            assert got_dim == dim
            assert expected_moduli_dim(seed) == expected_moduli_dim(partner) == dim
            for _ in range(5):
                twist = DivisorClass(
                    rng.randint(-3, 3), tuple(rng.randint(-3, 3) for _ in range(6))
                )
                moved = twist_partner(partner, twist)
                quadratic = 6 * twist.self_intersection - 3 * c1.dot(twist) + partner_c2
                assert moved.c2 == quadratic
                assert expected_moduli_dim(moved) == dim


def test_criterion_3_rank_triangle(capsys):
    with criterion(3, 5.0, capsys):
        for d in range(4, 9):
            surface = make_surface(d)
            for r in range(1, 6):
                c1_sq = r * r * d
                seed = NumericClassData(r, c1_sq, r * d, ulrich_c2(r, c1_sq, surface))
                trace = iterate_syzygy(seed, surface, 50)
                for k in range(-1, 51):
                    by_recurrence = rank_by_recurrence(d, r, k)
                    assert by_recurrence == rank_closed_form(d, r, k)
                    assert by_recurrence == trace.entry(k).rank
                    if d == 4:
                        assert by_recurrence == (2 * k + 3) * r
                        if r == 2:
                            assert by_recurrence == 4 * k + 6


def test_criterion_4_closed_chern_forms(capsys):
    with criterion(4, 5.0, capsys):
        for d, c1_sq, c2, dim in MODULI_TABLE:
            surface = make_surface(d)
            h = surface.anticanonical_class
            seed = NumericClassData(2, c1_sq, 2 * d, c2)
            trace = iterate_syzygy(seed, surface, 20)
            witness_c1 = tables.moduli_row_witness(tables.ModuliRow(d, c1_sq, c2, dim))
            witness = BundleNumerics(2, witness_c1, c2)
            exact_trace = iterate_syzygy(witness, surface, 20)
            for k in range(21):
                closed = closed_syzygy_chern_numeric(seed, surface, k)
                assert closed == twist_by_h(trace.entry(k).as_numeric(), -1, surface)
                c1, v = closed_syzygy_chern(witness, surface, k)
                twisted = tensor_line(exact_trace.entry(k).as_bundle(), -h)
                assert (c1, v) == (twisted.c1, twisted.c2)
                assert (reduce_numerics(BundleNumerics(closed.rank, c1, v)) == closed)
            for k in range(-1, 21):
                assert rank_two_table_chern(d, c1_sq, c2, k) == closed_syzygy_chern_numeric(
                    seed, surface, k
                )


def test_criterion_5_discriminant_drift(capsys):
    with criterion(5, 5.0, capsys):
        seeds = checks.default_seeds()
        assert len(seeds) >= 30
        for surface, seed in seeds:
            k_max = 0 if surface.degree == 3 else 12
            trace = iterate_syzygy(seed, surface, k_max)
            drift = discriminant_drift(trace)
            assert drift == [expected_moduli_dim(seed)] * (k_max + 2)


def test_criterion_6_twisted_cubic_census(capsys):
    with criterion(6, 1.0, capsys):
        cubics = twisted_cubics()
        assert len(cubics) == 72
        assert len({t.divisor for t in cubics}) == 72
        assert Counter(t.type_tag for t in cubics) == Counter(
            {"A": 1, "B": 20, "C": 30, "D": 20, "E": 1}
        )
        h = CUBIC_SURFACE.anticanonical_class
        for t in cubics:
            assert t.divisor.self_intersection == 1
            assert t.divisor.dot(h) == 3


def test_criterion_7_extension_chi_oracle(capsys):
    with criterion(7, 30.0, capsys):
        cubics = twisted_cubics()
        for t1 in cubics:
            m1 = kernel_bundle_of_cubic(t1.divisor)
            for t2 in cubics:
                closed = chi_pair_closed_form(2, [t1.divisor.dot(t2.divisor)])
                assert closed == chi_pair_oracle(m1, t2.divisor, CUBIC_SURFACE)
        target = (
            twisted_cubic_representative("A")
            + twisted_cubic_representative("C")
            + twisted_cubic_representative("E")
        )
        decs = decompose_stable_sum(target, 3)
        assert any(
            tuple(p.type_tag for p in dec.parts) == ("A", "C", "E") for dec in decs
        )
        rng = random.Random(RNG_SEED)
        for dec in rng.sample(decs, 40):
            assert dec.validate()
            divisors = [p.divisor for p in dec.parts]
            for j in range(2, 4):
                fprev = direct_sum([kernel_bundle_of_cubic(t) for t in divisors[: j - 1]])
                pairings = [divisors[i].dot(divisors[j - 1]) for i in range(j - 1)]
                assert chi_pair_oracle(fprev, divisors[j - 1], CUBIC_SURFACE) == (
                    chi_pair_closed_form(j, pairings)
                )


def test_criterion_8_stability_thresholds(capsys):
    with criterion(8, 1.0, capsys):
        for d in range(3, 9):
            surface = make_surface(d)
            p = polarized_data_for(surface)
            assert curve_section_genus(p) == 1
            assert butler_semistability_criterion(p)
            assert koszul_criterion(p) == (d >= 4)
            assert coprime_stability_criterion(p)
            assert prioritary_polarization_check(surface) == 2 - d < 0


def test_criterion_9_randomized_properties(capsys):
    with criterion(9, 60.0, capsys):
        cases = 1000
        rng = random.Random(RNG_SEED)
        families = [
            checks.check_picard_bilinearity,
            checks.check_picard_permutation,
            checks.check_picard_parser,
            checks.check_chern_tensor_symmetry,
            checks.check_chern_tensor_associativity,
            checks.check_chern_sum_permutation,
            checks.check_chern_chi_additive,
            checks.check_chern_twist_invariants,
            checks.check_candidate_permutation_invariance,
        ]
        for family in families:
            passed, detail = family(rng, cases)
            assert passed, f"{family.__name__}: {detail}"
