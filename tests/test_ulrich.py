"""Ulrich numerics: polarization data, genus, stability and Koszul bounds."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from ulrich_lab import (
    BundleNumerics,
    DivisorClass,
    LatticeMismatch,
    NotUlrich,
    NotUlrichCompatible,
    NumericClassData,
    OutOfTheoremScope,
    ParityViolation,
    PolarizedData,
    butler_semistability_criterion,
    closed_syzygy_chern,
    closed_syzygy_chern_numeric,
    coprime_stability_criterion,
    curve_section_genus,
    decompose_stable_sum,
    dual,
    euler_char,
    intersect,
    is_ulrich_candidate,
    iterate_syzygy,
    koszul_criterion,
    make_surface,
    parse_divisor,
    polarized_data_for,
    prioritary_polarization_check,
    rank_two_table_chern,
    reduce_numerics,
    tensor,
    tensor_line,
    twist_by_h,
    twisted_cubics,
    ulrich_c2,
    ulrich_profile,
)
from ulrich_lab.checks import default_seeds
from ulrich_lab.picard import _classes_with

S3 = make_surface(3)
S4 = make_surface(4)
WITNESS = BundleNumerics(2, parse_divisor("(4;1,1,1,1,0)"), 4)


def random_bundles(d: int, count: int = 200) -> list[BundleNumerics]:
    """Seeded bundles on the degree-d lattice.  About half have c1.H = rank*d
    and c2 within one of the Ulrich value, so both answers occur."""
    rng = random.Random(d)
    bundles = []
    for _ in range(count):
        rank = rng.randint(1, 4)
        b = [rng.randint(-3, 3) for _ in range(9 - d)]
        a = rng.randint(-3, 9)
        if rng.random() < 0.5:
            b[0] += -(rank * d + sum(b)) % 3
            a = (rank * d + sum(b)) // 3
        c1 = DivisorClass(a, tuple(b))
        c2 = rank + (c1.self_intersection - rank * d) // 2 + rng.choice((-1, 0, 0, 1))
        bundles.append(BundleNumerics(rank, c1, c2))
    return bundles


def cubic_lattice_bundles() -> list[BundleNumerics]:
    """The bundles of ranks 1-6 that test_cubic's Euler-pairing test pairs
    with a twisted cubic: seed 0x0C1, the cubic drawn after each bundle."""
    rng, cubics = random.Random(0x0C1), twisted_cubics()
    bundles = []
    for _ in range(2000):
        bundles.append(BundleNumerics(rng.randint(1, 6),
                                      DivisorClass(rng.randint(-9, 9),
                                                   tuple(rng.randint(-9, 9) for _ in range(6))),
                                      rng.randint(-50, 50)))
        rng.choice(cubics)
    return bundles


def near_misses(f):
    """c2 -+ 1; for reduced data also c1^2 + 1 (an odd c1^2 - rd, which no
    exact class with c1.H = rd has) and c1.H -+ 1, -+ 2 (the odd shifts make
    c1^2 + c1.H odd, the even ones keep it even and move the chi values)."""
    misses = [replace(f, c2=f.c2 + e) for e in (-1, 1)]
    if isinstance(f, NumericClassData):
        misses.append(replace(f, c1_sq=f.c1_sq + 1))
        misses += [replace(f, c1_dot_h=f.c1_dot_h + e) for e in (-2, -1, 1, 2)]
    return misses


# Every default seed, exact and reduced, and its near misses.
SEEDS = [(surface, g) for surface, f in default_seeds()
         for g in ([f, reduce_numerics(f)] if isinstance(f, BundleNumerics) else [f])]
NEAR_MISSES = [(surface, miss) for surface, f in SEEDS for miss in near_misses(f)]


def seed_routes(f, surface):
    """Each syzygy route that takes f as its seed, as a function of k."""
    d = surface.degree
    routes = [partial(iterate_syzygy, f, surface), partial(closed_syzygy_chern_numeric, f, surface)]
    if isinstance(f, BundleNumerics):
        routes.append(partial(closed_syzygy_chern, f, surface))
    if f.rank == 2 and f.c1_dot_h == 2 * d and 4 <= d <= 7:
        routes.append(partial(rank_two_table_chern, d, f.c1_sq, f.c2))
    return routes


def refusal(route, k):
    try:
        route(k)
    except (NotUlrich, OutOfTheoremScope) as error:
        return type(error)
    return None


NON_CANDIDATES = [
    (S4, BundleNumerics(2, WITNESS.c1, 5)),
    (S4, BundleNumerics(1, WITNESS.c1, 0)),
    (S4, BundleNumerics(1, S4.zero_class(), 0)),
    (S4, BundleNumerics(2, -WITNESS.c1, 4)),
    (S4, tensor_line(WITNESS, S4.anticanonical_class)),
    (make_surface(5), BundleNumerics(3, 3 * make_surface(5).anticanonical_class, 23)),
]


class TestPolarizedData:
    def test_fields(self):
        p = PolarizedData(2, 4, -4)
        assert (p.n, p.hn, p.hk) == (2, 4, -4)

    def test_round_trip(self):
        p = PolarizedData(2, 4, -4)
        assert p.to_dict() == {"n": 2, "Hn": 4, "HK": -4}
        assert PolarizedData.from_dict(p.to_dict()) == p

    def test_validation(self):
        with pytest.raises(ValueError):
            PolarizedData(1, 4, -4)
        with pytest.raises(ValueError):
            PolarizedData(2, 0, 0)
        with pytest.raises(ParityViolation):
            PolarizedData(2, 5, 0)

    @pytest.mark.parametrize(
        "data,error",
        [
            ({"n": 2.9, "Hn": 5, "HK": -5}, ValueError),
            ({"n": 2, "Hn": "5", "HK": -5}, ValueError),
            ({"n": 2, "Hn": 4.0, "HK": -4}, ValueError),
            ({"n": 2, "Hn": 4, "HK": "-4"}, TypeError),
        ],
        ids=["float-n", "string-hn", "float-hn", "string-hk"],
    )
    def test_from_dict_does_not_coerce(self, data, error):
        with pytest.raises(error):
            PolarizedData.from_dict(data)

    @pytest.mark.parametrize(
        "data,missing",
        [
            ({"Hn": 4, "HK": -4}, "n"),
            ({"n": 2, "HK": -4}, "Hn"),
            ({"n": 2, "Hn": 4}, "HK"),
            ({"n": 2}, "Hn, HK"),
            ({}, "n, Hn, HK"),
        ],
        ids=["n", "hn", "hk", "hn-hk", "all"],
    )
    def test_from_dict_names_the_missing_key(self, data, missing):
        with pytest.raises(ValueError, match=rf"^polarized data is missing key\(s\) {missing}$"):
            PolarizedData.from_dict(data)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_del_pezzo_data(self, d):
        assert polarized_data_for(make_surface(d)) == PolarizedData(2, d, -d)


class TestGenusAndProfile:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_anticanonical_curve_is_elliptic(self, d):
        assert curve_section_genus(polarized_data_for(make_surface(d))) == 1

    def test_other_genera(self):
        assert curve_section_genus(PolarizedData(2, 4, 0)) == 3
        assert curve_section_genus(PolarizedData(3, 3, -6)) == 1

    def test_negative_genus_warns(self):
        with pytest.warns(RuntimeWarning):
            curve_section_genus(PolarizedData(2, 2, -8))

    def test_profile(self):
        assert ulrich_profile(2, polarized_data_for(S4)) == (8, Fraction(4))
        assert ulrich_profile(1, PolarizedData(2, 1, -1)) == (1, Fraction(1))
        assert ulrich_profile(3, polarized_data_for(S3)) == (9, Fraction(3))


class TestCriteria:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_butler_holds_on_del_pezzo(self, d):
        assert butler_semistability_criterion(polarized_data_for(make_surface(d)))

    def test_butler_elsewhere(self):
        assert butler_semistability_criterion(PolarizedData(2, 4, 0))
        assert not butler_semistability_criterion(PolarizedData(2, 1, 1))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_koszul_threshold(self, d):
        assert koszul_criterion(polarized_data_for(make_surface(d))) == (d >= 4)

    def test_koszul_elsewhere(self):
        assert koszul_criterion(PolarizedData(2, 10, -6))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_coprime_holds_on_del_pezzo(self, d):
        assert coprime_stability_criterion(polarized_data_for(make_surface(d)))

    def test_coprime_fails_when_gcd_grows(self):
        # Genus 4 against h^0 - 1 = 4 resp. slope data sharing a factor 2.
        assert not coprime_stability_criterion(PolarizedData(2, 5, 1))
        assert not coprime_stability_criterion(PolarizedData(2, 7, -1))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_prioritary_pairing_is_negative(self, d):
        assert prioritary_polarization_check(make_surface(d)) == 2 - d
        assert prioritary_polarization_check(make_surface(d)) < 0


class TestUlrichC2:
    def test_values(self):
        assert ulrich_c2(2, 12, S4) == 4
        assert ulrich_c2(2, 8, S3) == 3
        assert ulrich_c2(1, 2, S4) == 0
        assert ulrich_c2(3, 27, S3) == 12

    def test_float_c1_sq_refused(self):
        # 16.0 - 10 is even, so only the type guard stops a float c2.
        with pytest.raises(TypeError):
            ulrich_c2(2, 16.0, make_surface(5))

    def test_parity_guard(self):
        with pytest.raises(NotUlrichCompatible):
            ulrich_c2(2, 13, S4)


class TestCandidates:
    def test_witness(self):
        witness = BundleNumerics(2, parse_divisor("(4;1,1,1,1,0)"), 4)
        assert is_ulrich_candidate(witness, S4)
        assert euler_char(witness, S4) == 8

    def test_wrong_c2(self):
        off = BundleNumerics(2, parse_divisor("(4;1,1,1,1,0)"), 5)
        assert not is_ulrich_candidate(off, S4)

    def test_wrong_slope(self):
        assert not is_ulrich_candidate(BundleNumerics(1, S4.zero_class(), 0), S4)

    def test_numeric_data(self):
        assert is_ulrich_candidate(NumericClassData(2, 12, 8, 4), S4)
        assert not is_ulrich_candidate(NumericClassData(2, 12, 8, 5), S4)
        assert not is_ulrich_candidate(NumericClassData(2, 12, 7, 4), S4)

    def test_rank_one_conic_class(self):
        conic = BundleNumerics(1, DivisorClass(2, (1, 1, 0, 0, 0)), 0)
        assert is_ulrich_candidate(conic, S4)

    @pytest.mark.parametrize("cases,answers", [
        *(pytest.param([(make_surface(d), f) for f in random_bundles(d)], {False, True},
                       id=f"random-d{d}") for d in range(3, 9)),
        pytest.param(default_seeds(), {True}, id="default-seeds"),
        pytest.param(NON_CANDIDATES, {False}, id="non-candidates"),
    ])
    def test_exact_and_reduced_agree(self, cases, answers):
        exact = [is_ulrich_candidate(f, surface) for surface, f in cases]
        assert exact == [is_ulrich_candidate(reduce_numerics(f), surface) for surface, f in cases]
        assert set(exact) == answers

    @pytest.mark.parametrize("cases,answers", [
        pytest.param([(S3, f) for f in cubic_lattice_bundles()], {False}, id="random-cubic"),
        pytest.param(SEEDS, {True}, id="default-seeds"),
        pytest.param(NEAR_MISSES, {False}, id="near-misses"),
    ])
    def test_matches_the_twisted_chi_definition(self, cases, answers):
        # chi(F(-H)) = chi(F(-2H)) = 0, with an odd c1^2 + c1.H, which no
        # bundle has, counting as no candidate; a candidate has the Ulrich c2.
        def defined(f, surface):
            try:
                return all(euler_char(twist_by_h(f, m, surface), surface) == 0 for m in (-1, -2))
            except ParityViolation:
                return False

        got = [is_ulrich_candidate(f, surface) for surface, f in cases]
        assert got == [defined(f, surface) for surface, f in cases]
        assert set(got) == answers
        assert all(f.c2 == ulrich_c2(f.rank, f.c1_sq, surface)
                   for (surface, f), candidate in zip(cases, got) if candidate)

    def test_seed_routes_refuse_exactly_the_non_candidates(self):
        # NotUlrich exactly when f is no candidate, at k = 0 and k = 1; the one
        # other refusal is the degree-3 rule, for a candidate at k = 1.
        wrong = []
        for surface, f in SEEDS + NEAR_MISSES:
            candidate = is_ulrich_candidate(f, surface)
            for route in seed_routes(f, surface):
                for k in (0, 1):
                    want = (NotUlrich if not candidate else
                            OutOfTheoremScope if (surface.degree, k) == (3, 1) else None)
                    if refusal(route, k) is not want:
                        wrong.append((route.func.__name__, k, surface.degree, f))
        assert wrong == []

    @pytest.mark.parametrize("surface,f", [
        (make_surface(5), WITNESS),
        (make_surface(8), BundleNumerics(2, 2 * S3.anticanonical_class, 12)),
    ])
    def test_foreign_lattice_refused(self, surface, f):
        with pytest.raises(LatticeMismatch):
            is_ulrich_candidate(f, surface)


class TestRankOneUlrichClasses:
    """The lattice search at (x.H, x^2) = (d, d - 2): the c1 of the Ulrich
    line bundles, which are H plus a root of H's orthogonal complement."""

    # Ordered pairs A != B by chi(O(A), O(B)), which is -3, -2, -1 or 0;
    # -3 exactly when B = 2H - A (ROADMAP item 24; tested below).
    PAIR_CHI_COUNTS = {
        3: {-3: 72, -2: 1440, -1: 2160, 0: 1440},
        4: {-3: 40, -2: 480, -1: 560, 0: 480},
        5: {-3: 20, -2: 120, -1: 120, 0: 120},
        6: {-3: 8, -2: 12, -1: 24, 0: 12},
        7: {-3: 2},
        8: {},
    }

    @pytest.mark.parametrize("d", range(3, 9))
    def test_they_are_h_plus_the_roots(self, d):
        surface = make_surface(d)
        h = surface.anticanonical_class
        shifted = {h + DivisorClass(a, b) for a, b in _classes_with(9 - d, 0, -2)}
        assert {DivisorClass(a, b) for a, b in _classes_with(9 - d, d, d - 2)} == shifted

    @pytest.mark.parametrize("d", range(3, 9))
    def test_each_is_an_ulrich_candidate(self, d):
        surface = make_surface(d)
        for a, b in _classes_with(9 - d, d, d - 2):
            assert is_ulrich_candidate(BundleNumerics(1, DivisorClass(a, b), 0), surface)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_pair_chi_is_d_minus_one_minus_the_pairing(self, d):
        # chi(O(B - A)) = (d - 1) - A.B, proved in test_proofs.py's
        # TestUlrichLinePairs; here against the Chern calculus on every
        # ordered pair (7,252 over d = 3..8).
        surface = make_surface(d)
        lines = [BundleNumerics(1, DivisorClass(a, b), 0) for a, b in _classes_with(9 - d, d, d - 2)]
        off_diagonal = Counter()
        for f in lines:
            for g in lines:
                chi = euler_char(tensor(dual(f), g), surface)
                assert chi == (d - 1) - intersect(f.c1, g.c1, surface), (f.c1, g.c1)
                if f != g:
                    off_diagonal[chi] += 1
        assert dict(off_diagonal) == self.PAIR_CHI_COUNTS[d]

    @pytest.mark.parametrize("d", range(3, 9))
    def test_chi_is_minus_three_exactly_on_the_pairs_summing_to_2h(self, d):
        # The ordered pairs with chi(O(A), O(B)) = -3 are the (A, 2H - A):
        # 72, 40, 20, 8, 2 and 0 on d = 3..8.  On the cubic they are the
        # stable sums of 2H at r = 2.
        surface = make_surface(d)
        two_h = 2 * surface.anticanonical_class
        classes = [DivisorClass(a, b) for a, b in _classes_with(9 - d, d, d - 2)]
        lines = {c: BundleNumerics(1, c, 0) for c in classes}
        pairs = {(x, y) for x in classes for y in classes
                 if euler_char(tensor(dual(lines[x]), lines[y]), surface) == -3}
        assert pairs == {(x, two_h - x) for x in classes}
        assert len(pairs) == self.PAIR_CHI_COUNTS[d].get(-3, 0)
        if d == 3:
            sums = decompose_stable_sum(two_h, 2)
            assert pairs == {tuple(part.divisor for part in dec.parts) for dec in sums}

    def test_on_the_cubic_they_are_the_census(self):
        assert list(_classes_with(6, 3, 1)) == [(t.divisor.a, t.divisor.b) for t in twisted_cubics()]

    def test_the_quartic_seed_is_one(self):
        seeds = [f.c1 for surface, f in default_seeds()
                 if surface.degree == 4 and f.rank == 1 and isinstance(f, BundleNumerics)]
        assert seeds == [DivisorClass(2, (1, 1, 0, 0, 0))]
        assert (2, (1, 1, 0, 0, 0)) in _classes_with(5, 4, 2)
