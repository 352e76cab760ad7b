"""Twisted cubic census, stable-sum search and the moduli pair map."""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import pytest

from ulrich_lab import (
    BundleNumerics,
    CUBIC_SURFACE,
    DivisorClass,
    LatticeMismatch,
    NotUlrich,
    StableSumDecomposition,
    TwistedCubicClass,
    chi_pair_closed_form,
    chi_pair_oracle,
    cubic_moduli_pair,
    decompose_stable_sum,
    decomposition_to_dict,
    direct_sum,
    expected_moduli_dim,
    is_twisted_cubic,
    kernel_bundle_of_cubic,
    twist_partner,
    twisted_cubic_representative,
    twisted_cubics,
    ulrich_c2,
)

T_A = twisted_cubic_representative("A")
T_B = twisted_cubic_representative("B")
T_C = twisted_cubic_representative("C")
T_D = twisted_cubic_representative("D")
T_E = twisted_cubic_representative("E")
T_B_PRIME = DivisorClass(2, (0, 0, 0, 1, 1, 1))
FOUR_H = DivisorClass(12, (4, 4, 4, 4, 4, 4))


@functools.cache
def brute_force_picks(target, r):
    """Reference search: census indices of every valid ordered r-tuple.

    Every r-tuple of the 72 cubics is tried and filtered afterwards; it
    shares nothing with the library search but the census order, and it
    yields tuples in lexicographic index order.
    """
    goal = (target.a, *target.b)
    vectors = [(t.divisor.a, *t.divisor.b) for t in twisted_cubics()]

    def pairing(x, y):
        return x[0] * y[0] - sum(p * q for p, q in zip(x[1:], y[1:]))

    found = []
    for picks in itertools.product(range(len(vectors)), repeat=r):
        parts = [vectors[i] for i in picks]
        if tuple(map(sum, zip(*parts))) != goal:
            continue
        partial = parts[0]
        for j in range(2, r + 1):
            if pairing(partial, parts[j - 1]) < 2 * j - 1:
                break
            partial = tuple(p + q for p, q in zip(partial, parts[j - 1]))
        else:
            found.append(picks)
    return found


def brute_force_decompositions(target, r, unordered=False):
    """The reference tuples as decompositions; ``unordered`` keeps the
    first, hence least, ordering of each multiset."""
    cubics = twisted_cubics()
    picks = brute_force_picks(target, r)
    if unordered:
        kept, seen = [], set()
        for p in picks:
            if tuple(sorted(p)) not in seen:
                seen.add(tuple(sorted(p)))
                kept.append(p)
        picks = kept
    return [StableSumDecomposition(target, tuple(cubics[i] for i in p)) for p in picks]


class TestCensus:
    def test_seventy_two_distinct_classes(self):
        cubics = twisted_cubics()
        assert len(cubics) == 72
        assert len({t.divisor for t in cubics}) == 72

    def test_orbit_sizes(self):
        sizes = Counter(t.type_tag for t in twisted_cubics())
        assert sizes == Counter({"A": 1, "B": 20, "C": 30, "D": 20, "E": 1})

    def test_numerics(self):
        h = CUBIC_SURFACE.anticanonical_class
        for t in twisted_cubics():
            assert t.divisor.self_intersection == 1
            assert t.divisor.dot(h) == 3

    def test_representatives(self):
        assert T_A == DivisorClass(1, (0, 0, 0, 0, 0, 0))
        assert T_B == DivisorClass(2, (1, 1, 1, 0, 0, 0))
        assert T_C == DivisorClass(3, (2, 1, 1, 1, 1, 0))
        assert T_D == DivisorClass(4, (2, 2, 2, 1, 1, 1))
        assert T_E == DivisorClass(5, (2, 2, 2, 2, 2, 2))

    def test_sorted_deterministically(self):
        cubics = twisted_cubics()
        assert list(cubics) == sorted(cubics, key=TwistedCubicClass.sort_key)
        assert cubics[0].divisor == T_A

    def test_membership(self):
        assert is_twisted_cubic(T_B_PRIME)
        assert not is_twisted_cubic(CUBIC_SURFACE.anticanonical_class)
        assert not is_twisted_cubic(DivisorClass(1, (1, 0, 0, 0, 0, 0)))
        with pytest.raises(LatticeMismatch):
            is_twisted_cubic(DivisorClass(1, (0, 0, 0, 0, 0)))


class TestKernelBundle:
    def test_numerics(self):
        for t in (T_A, T_B, T_C, T_D, T_E):
            assert kernel_bundle_of_cubic(t) == BundleNumerics(2, -t, 1)

    def test_rejects_non_cubic(self):
        with pytest.raises(NotUlrich):
            kernel_bundle_of_cubic(CUBIC_SURFACE.anticanonical_class)


class TestDecompositions:
    def test_pair_target(self):
        decs = decompose_stable_sum(T_A + T_C, 2)
        assert len(decs) == 8
        tags = Counter(tuple(p.type_tag for p in dec.parts) for dec in decs)
        assert tags == Counter({("B", "B"): 6, ("A", "C"): 1, ("C", "A"): 1})
        assert all(dec.validate() for dec in decs)

    def test_unordered_collapse(self):
        decs = decompose_stable_sum(T_A + T_C, 2, unordered=True)
        assert len(decs) == 4
        assert all(dec.validate() for dec in decs)

    def test_doubled_class_blocked_by_pairing(self):
        # T_A.T_A = 1 < 3, so 2*T_A admits no stable ordered pair.
        assert decompose_stable_sum(2 * T_A, 2) == []

    def test_forced_last_part_must_pass_pairing(self):
        # Every ordered pair summing to S = T_A + T_B' pairs (S.S - 2)/2 = 2 < 3.
        assert T_A.dot(T_B_PRIME) == 2
        assert decompose_stable_sum(T_A + T_B_PRIME, 2) == []
        # Stable pairs T_1, T_2 complete to this target, but every forced
        # last part pairs 4 < 5 with T_1 + T_2.
        target = DivisorClass(5, (1, 1, 1, 1, 1, 1))
        cubics = twisted_cubics()
        assert any(
            i != j and cubics[i].divisor.dot(cubics[j].divisor) >= 3
            and is_twisted_cubic(target - cubics[i].divisor - cubics[j].divisor)
            for i in range(72) for j in range(72)
        )
        assert decompose_stable_sum(target, 3) == brute_force_picks(target, 3) == []

    def test_wrong_degree_is_empty(self):
        assert decompose_stable_sum(CUBIC_SURFACE.anticanonical_class, 2) == []

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            decompose_stable_sum(T_A + T_C, 1)
        with pytest.raises(ValueError):
            decompose_stable_sum(T_A + T_C, 7)
        with pytest.raises(LatticeMismatch):
            decompose_stable_sum(DivisorClass(6, (2, 2, 2, 2, 2)), 2)

    def test_validate_rejects_weak_pairing(self):
        bad = StableSumDecomposition(
            2 * T_A,
            (TwistedCubicClass("A", T_A), TwistedCubicClass("A", T_A)),
        )
        assert not bad.validate()

    def test_validate_rejects_wrong_sum(self):
        bad = StableSumDecomposition(
            T_A + T_B,
            (TwistedCubicClass("A", T_A), TwistedCubicClass("C", T_C)),
        )
        assert not bad.validate()

    def test_triple_target(self):
        decs = decompose_stable_sum(T_A + T_C + T_E, 3)
        assert len(decs) == 712
        assert any(tuple(p.type_tag for p in dec.parts) == ("A", "C", "E") for dec in decs)
        sample = random.Random(11).sample(decs, 25)
        assert all(dec.validate() for dec in sample)

    def test_four_h_rank_four_count(self):
        # Regression count for the largest search the test suite runs.
        assert len(decompose_stable_sum(FOUR_H, 4)) == 51264

    @pytest.mark.parametrize("unordered", [False, True])
    @pytest.mark.parametrize(
        "target,r",
        [
            (T_A + T_C, 2),
            (T_A + T_D, 2),
            (T_A + T_E, 2),
            (T_B + T_E, 2),
            (T_C + T_E, 2),
            (T_A + T_C + T_E, 3),
            (DivisorClass(9, (3, 3, 3, 3, 3, 3)), 3),
        ],
        ids=["A+C", "A+D", "A+E", "B+E", "C+E", "A+C+E", "3H"],
    )
    def test_matches_brute_force(self, target, r, unordered):
        expected = brute_force_decompositions(target, r, unordered)
        assert expected
        assert decompose_stable_sum(target, r, unordered=unordered) == expected

    def test_dict_shape(self):
        decs = decompose_stable_sum(T_A + T_C, 2)
        payload = decomposition_to_dict(T_A + T_C, 2, decs)
        assert payload["target"] == "(4;2,1,1,1,1,0)"
        assert payload["r"] == 2
        assert payload["count"] == 8
        assert ["(1;0,0,0,0,0,0)", "(3;2,1,1,1,1,0)"] in payload["tuples"]


class TestExtensionChi:
    def test_closed_form(self):
        assert chi_pair_closed_form(1, []) == 0
        assert chi_pair_closed_form(2, [3]) == -1
        assert chi_pair_closed_form(2, [4]) == -2
        assert chi_pair_closed_form(3, [4, 5]) == -5

    def test_closed_form_validation(self):
        with pytest.raises(ValueError):
            chi_pair_closed_form(0, [])
        with pytest.raises(ValueError):
            chi_pair_closed_form(2, [1, 2])

    def test_oracle_values(self):
        assert chi_pair_oracle(kernel_bundle_of_cubic(T_A), T_C, CUBIC_SURFACE) == -1
        assert chi_pair_oracle(kernel_bundle_of_cubic(T_B), T_B_PRIME, CUBIC_SURFACE) == -2

    def test_oracle_matches_closed_form_on_sample(self):
        rng = random.Random(23)
        cubics = twisted_cubics()
        for _ in range(120):
            t1, t2 = rng.choice(cubics), rng.choice(cubics)
            closed = chi_pair_closed_form(2, [t1.divisor.dot(t2.divisor)])
            oracle = chi_pair_oracle(
                kernel_bundle_of_cubic(t1.divisor), t2.divisor, CUBIC_SURFACE
            )
            assert closed == oracle

    def test_three_step_extension(self):
        fprev = direct_sum([kernel_bundle_of_cubic(T_A), kernel_bundle_of_cubic(T_C)])
        closed = chi_pair_closed_form(3, [T_A.dot(T_E), T_C.dot(T_E)])
        assert chi_pair_oracle(fprev, T_E, CUBIC_SURFACE) == closed == -4


class TestModuliPairs:
    @pytest.mark.parametrize(
        "t1,t2,seed_c2,partner_c2,dim",
        [
            (T_A, T_C, 3, 5, 1),
            (T_B, T_B_PRIME, 4, 6, 3),
            (T_A, T_E, 5, 7, 5),
        ],
    )
    def test_table_rows(self, t1, t2, seed_c2, partner_c2, dim):
        c1 = t1 + t2
        assert ulrich_c2(2, c1.self_intersection, CUBIC_SURFACE) == seed_c2
        seed = BundleNumerics(2, c1, seed_c2)
        partner, got_dim = cubic_moduli_pair(seed)
        assert partner == BundleNumerics(4, -c1, partner_c2)
        assert got_dim == dim
        assert expected_moduli_dim(seed) == dim
        assert expected_moduli_dim(partner) == dim

    def test_rejects_non_candidates(self):
        with pytest.raises(NotUlrich):
            cubic_moduli_pair(BundleNumerics(2, T_A + T_C, 99))
        with pytest.raises(NotUlrich):
            cubic_moduli_pair(BundleNumerics(1, T_A, 0))


class TestTwistPartner:
    BASE = BundleNumerics(4, -(T_A + T_C), 5)

    def test_anticanonical_twist(self):
        moved = twist_partner(self.BASE, CUBIC_SURFACE.anticanonical_class)
        assert moved == BundleNumerics(4, DivisorClass(8, (2, 3, 3, 3, 3, 4)), 5)

    def test_zero_twist_is_identity(self):
        assert twist_partner(self.BASE, CUBIC_SURFACE.zero_class()) == self.BASE

    def test_dimension_is_twist_invariant(self):
        rng = random.Random(5)
        for _ in range(25):
            twist = DivisorClass(
                rng.randint(-4, 4), tuple(rng.randint(-4, 4) for _ in range(6))
            )
            moved = twist_partner(self.BASE, twist)
            assert expected_moduli_dim(moved) == expected_moduli_dim(self.BASE) == 1

    def test_requires_rank_four(self):
        with pytest.raises(ValueError):
            twist_partner(BundleNumerics(2, T_A + T_C, 3), T_A)
