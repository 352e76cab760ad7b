"""Twisted cubic census, stable-sum search and the moduli pair map."""

from __future__ import annotations

import functools
import gc
import itertools
import json
import random
import tracemalloc
from collections import Counter
from math import factorial, prod
from pathlib import Path

import pytest

from ulrich_lab import (
    BundleNumerics,
    CUBIC_SURFACE,
    DelPezzoSurface,
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
    dual,
    euler_char,
    expected_moduli_dim,
    is_twisted_cubic,
    kernel_bundle_of_cubic,
    make_surface,
    syzygy_numerics,
    tensor,
    tensor_line,
    twist_partner,
    twisted_cubic_representative,
    twisted_cubics,
    ulrich_c2,
)
from ulrich_lab import checks, chern, cubic
from ulrich_lab.picard import _classes_with, _require_type

T_A = twisted_cubic_representative("A")
T_B = twisted_cubic_representative("B")
T_C = twisted_cubic_representative("C")
T_D = twisted_cubic_representative("D")
T_E = twisted_cubic_representative("E")
T_B_PRIME = DivisorClass(2, (0, 0, 0, 1, 1, 1))
FOUR_H = DivisorClass(12, (4, 4, 4, 4, 4, 4))
REPO = Path(__file__).resolve().parent.parent


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


def pair_sum_orbit_targets():
    """One sum of two cubics from each orbit of such sums under the
    permutations of b_1, ..., b_6.

    All 72**2 ordered pair sums are formed with lattice arithmetic and named
    by a and their sorted b-part; the first sum in census order stands for
    its orbit.
    """
    divisors = [t.divisor for t in twisted_cubics()]
    targets = {}
    for s in divisors:
        for t in divisors:
            total = s + t
            targets.setdefault((total.a, tuple(sorted(total.b))), total)
    return list(targets.values())


QUARTIC_A = DivisorClass(1, (0, 0, 0, 0, 0))


def sum_classes(classes):
    """Sum a non-empty iterable of classes on a common lattice."""
    items = list(classes)
    if not items:
        raise LatticeMismatch("cannot sum an empty family of divisor classes")
    total = items[0]
    for item in items[1:]:
        total = total + item
    return total


def decomposition(target, *divisors):
    """A decomposition of target with the given parts, on any lattice."""
    return StableSumDecomposition(target, tuple(TwistedCubicClass("?", x) for x in divisors))


def random_class(rng, width, size=0):
    """A class on the lattice with ``width`` exceptional coordinates: small
    nonnegative coordinates, which meet both verdicts of ``validate``, or,
    with ``size``, coordinates drawn from [-size, size]."""
    if size:
        return DivisorClass(rng.randint(-size, size),
                            tuple(rng.randint(-size, size) for _ in range(width)))
    return DivisorClass(rng.randint(0, 5), tuple(rng.randint(0, 2) for _ in range(width)))


MIXED_LATTICES = (LatticeMismatch, "cannot add classes from different lattices")


def mixed_orders(parts, other, failing):
    """``parts`` with ``other``, a part on another lattice, inserted first,
    in the middle right after ``failing``, a second part that pairs below 3
    with the first, and last."""
    first, *rest = parts
    return ((other, *parts), (first, failing, other, *rest), (*parts, other))


def two_pass_validate(dec):
    """The earlier body of ``StableSumDecomposition.validate``: the sum first,
    then the pairings, with the zero class taken on the parts' lattice
    instead of the cubic one."""
    divisors = [p.divisor for p in dec.parts]
    if sum_classes(divisors) != dec.target:
        return False
    partial = DivisorClass.zero(divisors[0].num_exceptional)
    for j, t in enumerate(divisors, start=1):
        if j >= 2 and partial.dot(t) < 2 * j - 1:
            return False
        partial = partial + t
    return True


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

    def test_representatives_are_the_last_of_their_tag_with_b_descending(self):
        for tag in "ABCDE":
            rep = twisted_cubic_representative(tag)
            assert list(rep.b) == sorted(rep.b, reverse=True)
            assert rep == [t.divisor for t in twisted_cubics() if t.type_tag == tag][-1]

    def test_equals_the_permutation_construction(self):
        # A route that shares nothing with the box: five pinned
        # representatives, each expanded by the permutations of its b and
        # sorted within its tag.
        pinned = {
            "A": (1, (0, 0, 0, 0, 0, 0)),
            "B": (2, (1, 1, 1, 0, 0, 0)),
            "C": (3, (2, 1, 1, 1, 1, 0)),
            "D": (4, (2, 2, 2, 1, 1, 1)),
            "E": (5, (2, 2, 2, 2, 2, 2)),
        }
        expanded = tuple(TwistedCubicClass(tag, DivisorClass(a, b))
                         for tag, (a, rep) in pinned.items()
                         for b in sorted(set(itertools.permutations(rep))))
        assert twisted_cubics() == expanded

    def test_brute_force_over_a_wider_box(self):
        # 7 * 5**6 = 109,375 candidates, one step past every cubic's
        # coordinates on every side, a route that shares nothing with the
        # bounds of the lattice search the census is listed by.
        found = [(a, b) for a in range(0, 7) for b in itertools.product(range(-1, 4), repeat=6)
                 if 3 * a - sum(b) == 3 and a * a - sum(x * x for x in b) == 1]
        assert len(found) == 72
        assert found == [(t.divisor.a, t.divisor.b) for t in twisted_cubics()]

    def test_sorted_deterministically(self):
        cubics = twisted_cubics()
        assert list(cubics) == sorted(cubics, key=TwistedCubicClass.sort_key)
        assert cubics[0].divisor == T_A

    @pytest.mark.parametrize(
        "fields,message",
        [
            (("A", "(1;0,0,0,0,0,0)"), "divisor must be a DivisorClass, got '(1;0,0,0,0,0,0)'"),
            (("A", None), "divisor must be a DivisorClass, got None"),
            ((1, T_A), "type_tag must be a str, got 1"),
            ((None, T_A), "type_tag must be a str, got None"),
        ],
        ids=["str-divisor", "none-divisor", "int-tag", "none-tag"],
    )
    def test_a_cubic_checks_its_fields(self, fields, message):
        with pytest.raises(TypeError) as info:
            TwistedCubicClass(*fields)
        assert str(info.value) == message

    def test_membership(self):
        assert is_twisted_cubic(T_B_PRIME)
        assert not is_twisted_cubic(CUBIC_SURFACE.anticanonical_class)
        assert not is_twisted_cubic(DivisorClass(1, (1, 0, 0, 0, 0, 0)))
        with pytest.raises(LatticeMismatch, match=(
                r"^class \(1;0,0,0,0,0\) has 5 exceptional coordinates, "
                r"surface of degree 3 needs 6$")):
            is_twisted_cubic(DivisorClass(1, (0, 0, 0, 0, 0)))


# |W(E_t)| on t = 9 - d, as the product of the degrees of the Weyl group of
# the roots orthogonal to H: E6, D5, A4, A2 x A1, A1 and none.
WEYL_ORDERS = {3: prod((2, 5, 6, 8, 9, 12)), 4: prod((2, 4, 5, 6, 8)), 5: prod((2, 3, 4, 5)),
               6: prod((2, 3, 2)), 7: 2, 8: 1}


def pairing(x, y):
    return x[0] * y[0] - sum(p * q for p, q in zip(x[1], y[1]))


def blow_down_structures(d):
    """Each set of t = 9 - d pairwise-disjoint (-1)-curves, with T = (H + sum)/3.

    The sets are the t-cliques of the disjointness graph of the curves, found
    by a plain clique search; they come back as (indices, T, remainders mod 3).
    """
    t = 9 - d
    lines = _classes_with(t, 1, -1)
    later = [{j for j in range(i + 1, len(lines)) if pairing(lines[i], lines[j]) == 0}
             for i in range(len(lines))]

    def cliques(clique, candidates):
        if len(clique) == t:
            yield clique
            return
        for j in sorted(candidates):
            yield from cliques((*clique, j), candidates & later[j])

    structures = []
    for clique in cliques((), set(range(len(lines)))):
        total = [3 + sum(lines[i][0] for i in clique)]
        total += [1 + sum(lines[i][1][k] for i in clique) for k in range(t)]
        quotients = [divmod(x, 3) for x in total]
        t_class = (quotients[0][0], tuple(q for q, _ in quotients[1:]))
        structures.append((clique, t_class, {rest for _, rest in quotients}))
    return lines, structures


class TestBlowDownStructures:
    """A second route to the census that never solves T.H = 3, T.T = 1: the
    classes pulled back from the plane by contracting t disjoint lines."""

    @pytest.mark.parametrize("d", range(3, 9))
    def test_every_structure_is_integral(self, d):
        _, structures = blow_down_structures(d)
        assert all(rests == {0} for _, _, rests in structures)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_counts_are_the_weyl_order_over_t_factorial(self, d):
        _, structures = blow_down_structures(d)
        assert len(structures) * factorial(9 - d) == WEYL_ORDERS[d]

    @pytest.mark.parametrize("d", range(3, 9))
    def test_the_classes_are_the_search_at_3_1(self, d):
        _, structures = blow_down_structures(d)
        classes = [t_class for _, t_class, _ in structures]
        assert len(set(classes)) == len(classes)
        assert set(classes) == set(_classes_with(9 - d, 3, 1))

    def test_on_the_cubic_they_are_the_census(self):
        _, structures = blow_down_structures(3)
        census = {(t.divisor.a, t.divisor.b) for t in twisted_cubics()}
        assert {t_class for _, t_class, _ in structures} == census

    @pytest.mark.parametrize("d", range(3, 9))
    def test_each_class_misses_exactly_its_own_lines_and_is_nef_on_all(self, d):
        lines, structures = blow_down_structures(d)
        for clique, t_class, _ in structures:
            meets = [pairing(t_class, line) for line in lines]
            assert {i for i, m in enumerate(meets) if m == 0} == set(clique)
            assert min(meets) >= 0


class TestKernelBundle:
    def test_numerics(self):
        for t in (T_A, T_B, T_C, T_D, T_E):
            assert kernel_bundle_of_cubic(t) == BundleNumerics(2, -t, 1)

    def test_rejects_non_cubic(self):
        # Twice: the memo must not turn a refusal into a cached value.
        for _ in range(2):
            with pytest.raises(NotUlrich):
                kernel_bundle_of_cubic(CUBIC_SURFACE.anticanonical_class)

    def test_each_cubic_is_computed_once(self, monkeypatch):
        computed = []

        def counting(f, h0):
            computed.append(f.c1)
            return syzygy_numerics(f, h0)

        monkeypatch.setattr(cubic, "syzygy_numerics", counting)
        cubic._kernel_bundle_of_cubic.cache_clear()
        try:
            assert checks.check_cubic_chi_oracle() == (True, "all 72^2 ordered pairs")
            assert len(computed) == len(set(computed)) == 72
        finally:
            cubic._kernel_bundle_of_cubic.cache_clear()

    def test_memoised_values_are_fresh_values(self):
        for t in twisted_cubics():
            # h^0(O(T)) = chi(O(T)) = 1 + (T.T + T.H)/2 = 3.
            expected = syzygy_numerics(BundleNumerics(1, t.divisor, 0), 3)
            assert kernel_bundle_of_cubic(t.divisor) == expected == BundleNumerics(2, -t.divisor, 1)


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
        for r in (1, 7):
            with pytest.raises(ValueError, match=(
                    rf"^number of parts r must be an integer in \[2, 6\], got {r}$")):
                decompose_stable_sum(T_A + T_C, r)
        with pytest.raises(LatticeMismatch, match=(
                r"^class \(6;2,2,2,2,2\) has 5 exceptional coordinates, "
                r"surface of degree 3 needs 6$")):
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

    def test_validate_empty_parts_raises(self):
        with pytest.raises(LatticeMismatch,
                           match=r"^cannot sum an empty family of divisor classes$"):
            StableSumDecomposition(T_A, ()).validate()

    @pytest.mark.parametrize(
        "divisors",
        [
            (T_A, QUARTIC_A),
            (T_A, T_C, QUARTIC_A),
            # T_A.T_A = 1 < 3 fails the pairing before the quartic part is met.
            (T_A, T_A, QUARTIC_A),
            (QUARTIC_A, QUARTIC_A, T_A),
        ],
        ids=["pair", "stable-then-mixed", "unstable-then-mixed", "quartic-then-cubic"],
    )
    def test_validate_mixed_lattices_raise(self, divisors):
        dec = decomposition(T_A + T_C + T_E, *divisors)
        with pytest.raises(LatticeMismatch, match=r"^cannot add classes from different lattices$"):
            dec.validate()

    @pytest.mark.parametrize(
        "divisors,message",
        [
            ((T_A, (1, (0,) * 6)),
             "divisor must be a DivisorClass, got (1, (0, 0, 0, 0, 0, 0))"),
            ((T_A, T_C, "(5;2,2,2,2,2,2)"),
             "divisor must be a DivisorClass, got '(5;2,2,2,2,2,2)'"),
            ((T_A, T_A, None), "divisor must be a DivisorClass, got None"),
            ((3, T_C), "divisor must be a DivisorClass, got 3"),
        ],
        ids=["tuple-second", "str-third", "none-after-unstable", "int-first"],
    )
    def test_validate_refuses_a_part_that_is_no_class(self, divisors, message):
        # The part is refused when it is built, so validate never reads it.
        with pytest.raises(TypeError) as info:
            decomposition(T_A + T_C + T_E, *divisors)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "parts,message",
        [
            ((3,), "parts[0] must be a TwistedCubicClass, got 3"),
            ((TwistedCubicClass("A", T_A), 3), "parts[1] must be a TwistedCubicClass, got 3"),
            ((TwistedCubicClass("A", T_A), TwistedCubicClass("C", T_C), "E"),
             "parts[2] must be a TwistedCubicClass, got 'E'"),
            (3, "parts must be iterable, got 3"),
            (None, "parts must be iterable, got None"),
        ],
        ids=["int-only", "int-second", "str-third", "int-parts", "none-parts"],
    )
    def test_validate_refuses_parts_that_are_no_cubics(self, parts, message):
        # Refused when built, so validate never reads them.
        with pytest.raises(TypeError) as info:
            StableSumDecomposition(T_A + T_C + T_E, parts)
        assert str(info.value) == message

    def test_validate_reads_any_iterable_of_parts(self):
        parts = [TwistedCubicClass("A", T_A), TwistedCubicClass("C", T_C)]
        expected = StableSumDecomposition(T_A + T_C, tuple(parts))
        for same in (parts, iter(parts)):
            dec = StableSumDecomposition(T_A + T_C, same)
            assert type(dec.parts) is tuple and dec == expected
            assert hash(dec) == hash(expected)
            # An iterator is read once, when the decomposition is built.
            assert dec.validate() and dec.validate()

    def test_validate_against_a_target_that_is_no_class(self):
        class Subclass(DivisorClass):
            __slots__ = ()

        parts = (T_A, T_C, T_E)
        total = sum_classes(parts)
        assert decomposition(total, *parts).validate()
        # Equal coordinates in a subclass are never the sum, as under ==.
        assert not decomposition(Subclass(total.a, total.b), *parts).validate()
        # A target of another type is refused when the decomposition is built.
        for goal in ((total.a, total.b), str(total), None):
            with pytest.raises(TypeError) as info:
                decomposition(goal, *parts)
            assert str(info.value) == f"target must be a DivisorClass, got {goal!r}"

    def test_validate_on_the_quartic_lattice(self):
        # Quartic classes with the pairings of a cubic stable pair, and one without.
        first, second = DivisorClass(1, (0,) * 5), DivisorClass(3, (2, 1, 1, 1, 1))
        assert first.dot(second) == 3 and first.dot(first) == 1
        assert decomposition(first + second, first, second).validate()
        assert not decomposition(first + first, first, first).validate()
        # A cubic target, or a quartic target on cubic parts, is never the sum.
        assert not decomposition(T_A + T_C, first, second).validate()
        assert not decomposition(first + second, T_A, T_C).validate()

    @pytest.mark.parametrize(
        "target,count",
        [(T_A + T_C + T_E, 712), (DivisorClass(9, (3, 3, 3, 3, 3, 3)), 1440)],
        ids=["A+C+E", "3H"],
    )
    def test_validate_matches_two_pass_body(self, target, count):
        decs = decompose_stable_sum(target, 3)
        assert len(decs) == count
        # A class with every coordinate about 10**40 in size: a term dropped
        # from a pairing with it, or from a sum with it, moves it that far.
        huge = DivisorClass(10**40, (-10**40, 10**40 - 1, 3 * 10**39, -7 * 10**39,
                                     10**39 + 7, 10**40))
        far = TwistedCubicClass("?", huge)
        quartic = TwistedCubicClass("?", QUARTIC_A)
        verdicts = Counter()
        for dec in decs:
            parts = dec.parts
            for order in (parts, parts[::-1], (*parts, far), (far, *parts)):
                for goal in (target, target + T_A, target - DivisorClass(0, (0, 0, 0, 0, 0, 1)),
                             target + huge):
                    case = StableSumDecomposition(goal, order)
                    verdict = case.validate()
                    assert verdict == two_pass_validate(case)
                    verdicts[verdict] += 1
            # A cubic pairs 1 < 3 with itself, so a repeated first part fails.
            for order in mixed_orders(parts, quartic, parts[0]):
                case = StableSumDecomposition(target, order)
                assert outcome(case.validate) == outcome(two_pass_validate, case) == MIXED_LATTICES
        # Reversed orders and shifted targets fail, and the far class appended
        # to the sum passes: the comparison sees both answers.
        assert verdicts[True] >= 2 * count and verdicts[False] >= 8 * count

    def test_validate_matches_two_pass_body_on_every_degree(self):
        rng = random.Random(13)
        verdicts = Counter()
        for _ in range(900):
            t = rng.randint(1, 6)
            # The cubic lattice also with coordinates up to 10**40 in size.
            size = rng.choice((0, 10**40)) if t == 6 else 0
            divisors = [random_class(rng, t, size) for _ in range(rng.randint(1, 4))]
            total = sum_classes(divisors)
            for goal in (total, total + DivisorClass(1, (0,) * t)):
                case = decomposition(goal, *divisors)
                verdict = case.validate()
                assert verdict == two_pass_validate(case)
                if len(divisors) > 1:
                    verdicts[t == 6, size, verdict] += 1
            # The zero class pairs 0 < 3 with any first part.
            other = random_class(rng, rng.choice([w for w in range(1, 7) if w != t]))
            for order in mixed_orders(divisors, other, DivisorClass.zero(t)):
                case = decomposition(total, *order)
                assert outcome(case.validate) == outcome(two_pass_validate, case) == MIXED_LATTICES
        # Both verdicts on the written-out body, at both sizes, and on the loop.
        assert all(verdicts[cubic_lattice, size, verdict]
                   for cubic_lattice, size in ((True, 0), (True, 10**40), (False, 0))
                   for verdict in (True, False)), verdicts

    def test_validate_shares_no_code_with_the_search(self, monkeypatch):
        target = T_A + T_C + T_E
        decs = decompose_stable_sum(target, 3)
        assert len(decs) == 712
        # Built by hand, on the cubic and on the quartic lattice.
        first, second = DivisorClass(1, (0,) * 5), DivisorClass(3, (2, 1, 1, 1, 1))
        by_hand = [decomposition(T_A + T_C, T_A, T_C), decomposition(target + T_A, T_C, T_A, T_E),
                   decomposition(2 * T_A, T_A, T_A), decomposition(first + second, first, second),
                   decomposition(first + first, first, first)]
        verdicts = [two_pass_validate(dec) for dec in by_hand]
        assert verdicts == [True, False, False, True, False]
        cases = [(dec, True) for dec in decs] + list(zip(by_hand, verdicts))
        search = cubic._stable_sums
        before = search.cache_info()

        def refuse(*args):
            raise AssertionError("validate reached the search")

        for name in ("_stable_sums", "_pair_table", "_census_box"):
            monkeypatch.setattr(cubic, name, refuse)
        assert [dec.validate() for dec, _ in cases] == [verdict for _, verdict in cases]
        monkeypatch.undo()
        assert search.cache_info() == before

    def test_triple_target(self):
        decs = decompose_stable_sum(T_A + T_C + T_E, 3)
        assert len(decs) == 712
        assert any(tuple(p.type_tag for p in dec.parts) == ("A", "C", "E") for dec in decs)
        sample = random.Random(11).sample(decs, 25)
        assert all(dec.validate() for dec in sample)

    def test_four_h_rank_four_count(self):
        # Regression counts for the largest search the test suite runs, in
        # both call orders of cubic-search's pair.
        first, second = both_orders(FOUR_H, 4)
        assert first == second
        assert (len(first[0]), len(first[1])) == (51264, 2286)

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

    @pytest.mark.parametrize("unordered", [False, True])
    def test_matches_brute_force_on_every_pair_sum_orbit(self, unordered):
        targets = pair_sum_orbit_targets()
        assert len(targets) == 27
        counts = []
        for target in targets:
            expected = brute_force_decompositions(target, 2, unordered)
            assert decompose_stable_sum(target, 2, unordered=unordered) == expected
            counts.append(len(expected))
        # Both answers occur: orbits with stable pairs and orbits without.
        assert 0 in counts and max(counts) > 0

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_no_decomposition_at_degree_three_r(self, r):
        # r*T_A splits only as T_A + ... + T_A, and T_A.T_A = 1 < 3 fails at
        # the second part.  (3r; 6r, 0, ..., 0): no r cubics reach b_1 = 6r > 2r.
        for target in (r * T_A, DivisorClass(3 * r, (6 * r, 0, 0, 0, 0, 0))):
            assert target.degree == 3 * r
            assert decompose_stable_sum(target, r) == []
            assert decompose_stable_sum(target, r, unordered=True) == []

    def test_dict_shape(self):
        decs = decompose_stable_sum(T_A + T_C, 2)
        payload = decomposition_to_dict(T_A + T_C, 2, decs)
        assert payload["target"] == "(4;2,1,1,1,1,0)"
        assert payload["r"] == 2
        assert payload["count"] == 8
        assert ["(1;0,0,0,0,0,0)", "(3;2,1,1,1,1,0)"] in payload["tuples"]

    @pytest.mark.parametrize(
        "parts,message",
        [
            ([(3,)], "parts[0] must be a TwistedCubicClass, got 3"),
            ([3], "parts must be iterable, got 3"),
            ([None], "parts must be iterable, got None"),
            ([(TwistedCubicClass("A", T_A), TwistedCubicClass("C", T_C)),
              [TwistedCubicClass("A", T_A), "C"]],
             "parts[1] must be a TwistedCubicClass, got 'C'"),
            ([(TwistedCubicClass("A", T_A), T_A, T_A)],
             "parts[1] must be a TwistedCubicClass, got DivisorClass(a=1, b=(0, 0, 0, 0, 0, 0))"),
        ],
        ids=["int-part", "int-parts", "none-parts", "str-part-of-later-list", "repeated-bad-part"],
    )
    def test_dict_refuses_parts_that_are_no_cubics(self, parts, message):
        # One decomposition per entry of parts: the bad one is refused when it
        # is built, so no such decomposition reaches decomposition_to_dict.
        with pytest.raises(TypeError) as info:
            decomposition_to_dict(T_A + T_C, 2, [StableSumDecomposition(T_A + T_C, p) for p in parts])
        assert str(info.value) == message

    def test_dict_reads_any_iterable_of_parts_and_subclassed_parts(self):
        class Subclass(TwistedCubicClass):
            __slots__ = ()

        parts = (TwistedCubicClass("A", T_A), TwistedCubicClass("C", T_C))
        expected = decomposition_to_dict(T_A + T_C, 2, [StableSumDecomposition(T_A + T_C, parts)])
        for same in (list(parts), iter(parts), (parts[0], Subclass("C", T_C))):
            assert decomposition_to_dict(
                T_A + T_C, 2, [StableSumDecomposition(T_A + T_C, same)]) == expected


class TestPairTable:
    def test_every_ordered_pair_under_its_sum(self):
        # Each sum's pairs are one flat run (i0, j0, i1, j1, ...).
        table = cubic._pair_table()
        vectors = [(t.divisor.a, *t.divisor.b) for t in twisted_cubics()]
        assert len(table) == 1135
        runs = {}
        for key, run in table.items():
            assert type(run) is tuple and len(run) % 2 == 0
            pairs = iter(run)
            runs[key] = list(zip(pairs, pairs))
        assert sum(map(len, runs.values())) == 5184
        listed = sorted(pair for pairs in runs.values() for pair in pairs)
        assert listed == list(itertools.product(range(72), repeat=2))
        for key, pairs in runs.items():
            assert pairs == sorted(pairs)
            for i, j in pairs:
                assert key == tuple(x + y for x, y in zip(vectors[i], vectors[j]))

    def test_built_table_retains_under_300_kib(self):
        # 490 KiB as a tuple of (i, j) pairs per sum; the census is built
        # first, outside the trace, since the table does not own it.
        cubic._cubic_coord_index()
        tracemalloc.start()
        try:
            table = cubic._pair_table.__wrapped__()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) == 1135
        assert retained < 300 * 1024

    def test_built_once_per_process(self):
        decompose_stable_sum(T_A + T_C, 2)
        decompose_stable_sum(T_A + T_C + T_E, 3, unordered=True)
        assert cubic._pair_table() is cubic._pair_table()
        assert cubic._pair_table.cache_info().misses == 1

    def test_search_leaves_no_cyclic_garbage(self):
        # The search's recursive closure is dropped on return, so what it
        # built, its bytearray included, is freed by reference counting, not
        # left for the collector.
        target = DivisorClass(9, (3, 3, 3, 3, 3, 3))
        # Fills the census and table caches, and evicts any cached search of
        # the target, so the measured call searches.
        decompose_stable_sum(T_A + T_C + T_E, 3)
        misses = cubic._stable_sums.cache_info().misses
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            decs = decompose_stable_sum(target, 3)
            garbage = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert cubic._stable_sums.cache_info().misses == misses + 1
        assert len(decs) == 1440
        assert garbage == 0


def orbit_rows():
    """(r, a random member of the orbit, ordered count, unordered count) for
    every row of ``perfbench/cubic_orbits.json``, which is only read."""
    table = json.loads((REPO / "perfbench" / "cubic_orbits.json").read_text(encoding="utf-8"))
    rng = random.Random(50)
    rows = []
    for r, entries in table.items():
        for entry in entries:
            b = list(entry["b"])
            rng.shuffle(b)
            rows.append((int(r), DivisorClass(entry["a"], tuple(b)),
                         entry["ordered"], entry["unordered"]))
    return rows


def both_orders(target, r):
    """(ordered, unordered) results of the pair at (target, r), asked in each
    order after a search at another target of degree 3r, (3r; 6r, 0, ..., 0),
    which no r cubics reach: the first call of each order searches."""
    other = DivisorClass(3 * r, (6 * r, 0, 0, 0, 0, 0))
    assert decompose_stable_sum(other, r) == []
    ordered = decompose_stable_sum(target, r)
    first = (ordered, decompose_stable_sum(target, r, unordered=True))
    assert decompose_stable_sum(other, r) == []
    unordered = decompose_stable_sum(target, r, unordered=True)
    return first, (decompose_stable_sum(target, r), unordered)


class TestSharedSearch:
    """One search per (target, r), shared by the ordered and the unordered call."""

    def test_every_orbit_row_in_both_call_orders(self):
        rows = orbit_rows()
        assert Counter(r for r, *_ in rows) == {2: 27, 3: 96}
        for r, target, ordered, unordered in rows:
            first, second = both_orders(target, r)
            assert first == second
            assert (len(first[0]), len(first[1])) == (ordered, unordered), (target, r)

    @pytest.mark.parametrize("unordered_first", [False, True])
    def test_the_pair_searches_once(self, unordered_first):
        class Subclass(DivisorClass):
            __slots__ = ()

        cubic._stable_sums.cache_clear()
        target = T_A + T_C + T_E
        modes = (True, False) if unordered_first else (False, True)
        for mode in modes:
            decs = decompose_stable_sum(target, 3, unordered=mode)
            assert decs and all(dec.target is target for dec in decs)
        assert cubic._stable_sums.cache_info()[:2] == (1, 1)  # (hits, misses)
        # An equal fresh class and a subclass instance hit the same entry,
        # and their results stand on the caller's object.
        expected = decompose_stable_sum(target, 3)
        for same in (DivisorClass(target.a, tuple(target.b)), Subclass(target.a, target.b)):
            for mode in modes:
                decs = decompose_stable_sum(same, 3, unordered=mode)
                assert all(dec.target is same for dec in decs)
            assert [dec.parts for dec in decompose_stable_sum(same, 3)] == [
                dec.parts for dec in expected]
        assert cubic._stable_sums.cache_info()[:2] == (8, 1)

    @pytest.mark.parametrize(
        "target,r,error",
        [
            ("x", 2, TypeError),
            (DivisorClass(6, (2, 2, 2, 2, 2)), 2, LatticeMismatch),
            (T_A + T_C, 1, ValueError),
            (T_A + T_C, 7, ValueError),
            (T_A + T_C, True, ValueError),
            (T_A + T_C, "2", ValueError),
        ],
        ids=["str-target", "quartic-target", "r=1", "r=7", "r=True", "r='2'"],
    )
    def test_a_refused_call_leaves_the_cache(self, target, r, error):
        decompose_stable_sum(T_A + T_C, 2)
        before = cubic._stable_sums.cache_info()
        for unordered in (False, True):
            with pytest.raises(error):
                decompose_stable_sum(target, r, unordered=unordered)
        assert cubic._stable_sums.cache_info() == before

    def test_a_target_of_another_degree_makes_no_search(self):
        decompose_stable_sum(T_A + T_C, 2)
        before = cubic._stable_sums.cache_info()
        for target, r in ((CUBIC_SURFACE.anticanonical_class, 2), (FOUR_H, 3), (T_A, 2)):
            assert target.degree != 3 * r
            assert decompose_stable_sum(target, r) == []
            assert decompose_stable_sum(target, r, unordered=True) == []
        assert cubic._stable_sums.cache_info() == before

    def test_the_run_is_r_census_indices_per_tuple(self):
        target = T_A + T_C + T_E
        run = cubic._stable_sums((target.a, *target.b), 3)
        assert type(run) is bytes and len(run) == 3 * 712 and max(run) < 72
        cubics = twisted_cubics()
        assert [dec.parts for dec in decompose_stable_sum(target, 3)] == [
            tuple(cubics[i] for i in run[k:k + 3]) for k in range(0, len(run), 3)]


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

    def test_chi_check_forms_each_dual_once(self, monkeypatch):
        # The composition runs on T_A's row only, whose pairings reach every
        # value 1..5: one dual of M_A, tensored with each of the 72 kernel
        # bundles through chern.  The other 71 rows compare the public
        # chi_pair_oracle, which calls cubic's own references, with the closed
        # values of that row.
        calls = Counter()
        for name in ("dual", "tensor"):
            def counting(*args, _name=name, _real=getattr(chern, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(chern, name, counting)
        assert checks.check_cubic_chi_oracle() == (True, "all 72^2 ordered pairs")
        assert calls == {"dual": 1, "tensor": 72}

    def test_chi_check_names_the_first_failing_pair(self, monkeypatch):
        # A closed form that is off by one on pairing 2 only: T_A.T_A = 1, and
        # the second cubic of the census is the first to pair 2 with T_A.
        monkeypatch.setattr(cubic, "chi_pair_closed_form",
                            lambda j, pairings: chi_pair_closed_form(j, pairings) + (pairings == [2]))
        second = twisted_cubics()[1].divisor
        assert T_A.dot(T_A) == 1 and T_A.dot(second) == 2
        assert checks.check_cubic_chi_oracle() == (False, f"{T_A}, {second}")

    def test_chi_check_compares_the_public_oracle(self, monkeypatch):
        monkeypatch.setattr(cubic, "chi_pair_oracle", lambda fprev, t, surface: 99)
        assert checks.check_cubic_chi_oracle() == (False, f"{T_A}, {T_A}")

    def test_chi_check_sweeps_the_public_oracle(self, monkeypatch):
        # An oracle off by one on a single off-diagonal pair outside T_A's row.
        cubics = [t.divisor for t in twisted_cubics()]
        t1, t2 = cubics[40], cubics[17]
        real = cubic.chi_pair_oracle
        monkeypatch.setattr(cubic, "chi_pair_oracle", lambda fprev, t, surface: (
            real(fprev, t, surface) + (fprev == kernel_bundle_of_cubic(t1) and t == t2)))
        assert checks.check_cubic_chi_oracle() == (False, f"{t1}, {t2}")

    def test_three_step_extension(self):
        fprev = direct_sum([kernel_bundle_of_cubic(T_A), kernel_bundle_of_cubic(T_C)])
        closed = chi_pair_closed_form(3, [T_A.dot(T_E), T_C.dot(T_E)])
        assert chi_pair_oracle(fprev, T_E, CUBIC_SURFACE) == closed == -4


def composition(fprev, t, surface):
    """chi_pair_oracle as dual, tensor and Riemann-Roch: the same guards in
    the same order, then ``euler_char(tensor(dual(fprev), M_T), surface)``."""
    if type(surface) is not DelPezzoSurface:
        _require_type(surface, (DelPezzoSurface,), "surface")
    if type(fprev) is not BundleNumerics:
        _require_type(fprev, (BundleNumerics,), "fprev")
    if type(t) is not DivisorClass:
        _require_type(t, (DivisorClass,), "t")
    return euler_char(tensor(dual(fprev), kernel_bundle_of_cubic(t)), surface)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as error:  # noqa: BLE001  (the class and message are compared)
        return type(error), str(error)


class TestEulerPairingKernel:
    """chi_pair_oracle takes chern._CHI_DUAL's kernel on one lattice."""

    def test_all_ordered_pairs(self):
        divisors = [t.divisor for t in twisted_cubics()]
        kernels = [kernel_bundle_of_cubic(t) for t in divisors]
        for t1, m1 in zip(divisors, kernels):
            m1_dual = dual(m1)
            for t2, m2 in zip(divisors, kernels):
                chi = chi_pair_oracle(m1, t2, CUBIC_SURFACE)
                assert chi == euler_char(tensor(m1_dual, m2), CUBIC_SURFACE)
                assert chi == chi_pair_closed_form(2, [t1.dot(t2)])

    def test_random_bundles(self):
        rng = random.Random(0x0C1)
        divisors = [t.divisor for t in twisted_cubics()]
        for _ in range(2000):
            size = rng.choice((9, 10**40))
            fprev = BundleNumerics(rng.randint(1, 6), random_class(rng, 6, size),
                                   rng.randint(-5 * size, 5 * size))
            t = rng.choice(divisors)
            assert chi_pair_oracle(fprev, t, CUBIC_SURFACE) == composition(fprev, t, CUBIC_SURFACE)

    def test_kernel_on_random_pairs(self):
        # Both factors arbitrary, on every width of the kernel table (euler_char
        # on a surface subclass that wide), with coordinates up to 9 or up to
        # 10**40 in size.
        rng = random.Random(21)
        for _ in range(900):
            width = rng.randint(0, 8)
            size = rng.choice((9, 10**40))
            f, g = (BundleNumerics(rng.randint(1, 6), random_class(rng, width, size),
                                   rng.randint(-5 * size, 5 * size))
                    for _ in range(2))
            surface = type("Wide", (DelPezzoSurface,), {"num_exceptional": width})(3)
            assert chern._CHI_DUAL[width](f, g) == euler_char(tensor(dual(f), g), surface)

    # k = 1..5 gives j = 2..6, every part count decompose allows (r <= 6).
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_direct_sum_fprevs(self, k):
        rng = random.Random(k)
        divisors = [t.divisor for t in twisted_cubics()]
        for _ in range(60):
            parts = rng.sample(divisors, k + 1)
            fprev = direct_sum([kernel_bundle_of_cubic(t) for t in parts[:k]])
            t = parts[k]
            oracle = chi_pair_oracle(fprev, t, CUBIC_SURFACE)
            assert oracle == composition(fprev, t, CUBIC_SURFACE)
            assert oracle == chi_pair_closed_form(k + 1, [x.dot(t) for x in parts[:k]])

    @pytest.mark.parametrize("args", [
        pytest.param((BundleNumerics(2, DivisorClass(1, (0,) * 5), 1), T_A, CUBIC_SURFACE),
                     id="fprev-on-another-lattice"),
        pytest.param((BundleNumerics(2, -T_C, 1), T_A, make_surface(4)),
                     id="surface-of-another-degree"),
        pytest.param((BundleNumerics(2, DivisorClass(1, (0,) * 5), 1), T_A, make_surface(4)),
                     id="both-off-the-kernel-lattice"),
        pytest.param((BundleNumerics(2, -T_C, 1), FOUR_H, CUBIC_SURFACE), id="non-cubic-t"),
        pytest.param((BundleNumerics(2, -T_C, 1), DivisorClass(1, (0,) * 5), CUBIC_SURFACE),
                     id="t-on-another-lattice"),
        pytest.param((BundleNumerics(2, -T_C, 1), T_A, 3), id="surface-int"),
        pytest.param((3, T_A, CUBIC_SURFACE), id="fprev-int"),
        pytest.param((T_A, T_A, CUBIC_SURFACE), id="fprev-class"),
        pytest.param((BundleNumerics(2, -T_C, 1), "x", CUBIC_SURFACE), id="t-str"),
        pytest.param((BundleNumerics(2, -T_C, 1), None, CUBIC_SURFACE), id="t-none"),
        pytest.param((None, None, None), id="all-none"),
    ])
    def test_errors_match_the_composition(self, args):
        got = outcome(chi_pair_oracle, *args)
        assert isinstance(got, tuple)
        assert got == outcome(composition, *args)

    def test_error_messages(self):
        # The surface's refusal names the product class, as euler_char does.
        fprev = BundleNumerics(2, -T_C, 1)
        product = tensor(dual(fprev), kernel_bundle_of_cubic(T_A)).c1
        with pytest.raises(LatticeMismatch) as info:
            chi_pair_oracle(fprev, T_A, make_surface(4))
        assert str(info.value) == (f"class {product} has 6 exceptional coordinates, "
                                   "surface of degree 4 needs 5")
        with pytest.raises(LatticeMismatch, match=r"^tensor factors live on different lattices$"):
            chi_pair_oracle(BundleNumerics(1, DivisorClass(1, (0,) * 5), 0), T_A, CUBIC_SURFACE)
        # A twist of a cubic bundle by a quartic class, alone and inside twist_partner.
        partner = BundleNumerics(4, -(T_A + T_C), 5)
        for twist in (lambda: tensor_line(partner, QUARTIC_A),
                      lambda: twist_partner(partner, QUARTIC_A)):
            with pytest.raises(LatticeMismatch) as info:
                twist()
            assert type(info.value) is LatticeMismatch
            assert str(info.value) == "twist class lives on a different lattice"


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

    @staticmethod
    def partner(r, c1):
        # The partner is S_0: rank 2r, c1 = -c1 and c2 + r, at dimension c1^2 - 2r^2 + 1.
        c2 = (c1.self_intersection - r) // 2  # r + (c1^2 - 3r)/2, the Ulrich c2 on d = 3
        assert c2 == ulrich_c2(r, c1.self_intersection, CUBIC_SURFACE)
        partner, dim = cubic_moduli_pair(BundleNumerics(r, c1, c2))
        assert (partner, dim) == (BundleNumerics(2 * r, -c1, c2 + r),
                                  c1.self_intersection - 2 * r * r + 1)
        return partner

    def test_every_sum_of_two_cubics(self):
        # Each rank-4 partner is twisted by 5 random classes x, to c1 + 4x and
        # 6x^2 + 3 c1.x + c2; then 200 random sums of three, from the same stream.
        divisors = [t.divisor for t in twisted_cubics()]
        sums = dict.fromkeys(s + t for s in divisors for t in divisors)
        assert len(sums) == 1135
        rng = random.Random(0x0C3)
        for c1 in sums:
            partner = self.partner(2, c1)
            for _ in range(5):
                x = DivisorClass(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(6)))
                assert twist_partner(partner, x) == BundleNumerics(
                    4, partner.c1 + 4 * x,
                    6 * x.self_intersection + 3 * partner.c1.dot(x) + partner.c2)
        for _ in range(200):
            parts = rng.choices(divisors, k=3)
            self.partner(3, sum(parts[1:], parts[0]))

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
