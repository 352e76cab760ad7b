"""The self-check's random cases: the same draws, in the same order, on every Python.

Every integer of a case is one draw ``floor(rng.random() * n)``:
``checks._random_class`` takes its coordinates so, which are what
``rng.choices(range(-span, span + 1), k=t + 1)`` draws; ``checks._below``
is that draw; ``checks._random_bundle`` draws its rank and c2 so, then c1 by
``_random_class``; and ``checks._shuffle`` is Fisher-Yates on it.  These
tests pin, against a twin generator that makes the same draws written out
here, that they take exactly those values, reach every value of their
range, and leave the generator in exactly the twin's state, and that
``checks._PERMUTATION_DRAW[t]`` is such a shuffle of 1..t.  One digest pins
the generator's state after the nine property checks; it holds for any
drawer that makes the same draws, whatever it builds from them.  The other
pins the cases themselves: the bundles ``checks._random_bundle`` draws.
"""

from __future__ import annotations

import hashlib
import random
from math import factorial, floor

import pytest

from ulrich_lab import BundleNumerics, DivisorClass, checks

# sha256 of repr(rng.getstate()) after the nine property checks of
# run_all_checks, in its order, from random.Random(DEFAULT_RNG_SEED).
CASE_STREAM_DIGEST = "0f1e5df59a0e047c1502afedfed44dcc9ada5940452e01e14a14dc59e6615d86"
# sha256 of the newline-joined reprs of the CASE_DRAWS bundles that
# checks._random_bundle draws on widths 1..6 in turn from
# random.Random(DEFAULT_RNG_SEED): the inputs of bench/layers.py's
# checks.case_draws row.
CASE_DRAWS_DIGEST = "18a4e0b1c6c9dc51f01a51804934b89b797803bdef2b199f683215fc746d26e7"
CASE_DRAWS = 10_000


# The lattice widths the draws are checked at: the drawer table's widths 0..8.
DRAW_WIDTHS = range(9)


@pytest.mark.parametrize("span", [3, 4, 6, 9, 99])
@pytest.mark.parametrize("t", DRAW_WIDTHS)
def test_random_class_draws_what_choices_draws(t, span):
    rng, twin = random.Random(1000 * t + span), random.Random(1000 * t + span)
    for _ in range(50):
        x = checks._random_class(rng, t, span)
        a, *b = twin.choices(range(-span, span + 1), k=t + 1)
        assert x == DivisorClass(a, tuple(b))
        assert type(x.a) is int and all(type(c) is int for c in x.b)
    assert rng.getstate() == twin.getstate()


def _twin_shuffle(twin: random.Random, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = floor(twin.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


# Every integer range [lo, hi] the property checks draw from: the lattice
# rank t, the bundle rank and c2, the scalar m, the degree d and the family size.
DRAW_RANGES = [(1, 6), (1, 5), (-20, 20), (-4, 4), (3, 8), (1, 4)]


@pytest.mark.parametrize("lo,hi", DRAW_RANGES, ids=lambda v: str(v))
def test_below_is_one_floor_draw_on_each_check_range(lo, hi):
    rng, twin = random.Random(hi - lo), random.Random(hi - lo)
    seen = set()
    for _ in range(2000):
        value = lo + checks._below(rng, hi - lo + 1)
        assert value == lo + floor(twin.random() * (hi - lo + 1))
        seen.add(value)
    assert seen == set(range(lo, hi + 1))
    assert rng.getstate() == twin.getstate()


def test_below_is_one_floor_draw_on_the_seed_pool():
    pool = [seed for seed in checks.default_seeds() if isinstance(seed[1], BundleNumerics)]
    rng, twin = random.Random(len(pool)), random.Random(len(pool))
    seen = set()
    for _ in range(2000):
        index = checks._below(rng, len(pool))
        assert index == floor(twin.random() * len(pool))
        seen.add(index)
    assert seen == set(range(len(pool)))
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("t", DRAW_WIDTHS)
def test_random_bundle_draws_rank_and_c2_by_floor_and_c1_by_choices(t):
    rng, twin = random.Random(t), random.Random(t)
    ranks, c2s = set(), set()
    for _ in range(500):
        rank = 1 + floor(twin.random() * 5)
        c2 = 0 if rank == 1 else floor(twin.random() * 41) - 20
        a, *b = twin.choices(range(-6, 7), k=t + 1)
        assert checks._random_bundle(rng, t) == BundleNumerics(rank, DivisorClass(a, tuple(b)), c2)
        ranks.add(rank)
        c2s.add(c2)
    assert ranks == {1, 2, 3, 4, 5}
    assert {-20, 20} <= c2s
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("n", range(9))
def test_shuffle_is_fisher_yates_on_floor_draws(n):
    rng, twin = random.Random(n), random.Random(n)
    orders = set()
    for _ in range(300):
        items, expected = list(range(n)), list(range(n))
        checks._shuffle(rng, items)
        _twin_shuffle(twin, expected)
        assert items == expected
        orders.add(tuple(items))
    if n <= 4:
        assert len(orders) == factorial(n)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("t", DRAW_WIDTHS)
def test_random_permutation_is_a_floor_draw_shuffle_of_one_to_t(t):
    rng, twin = random.Random(t), random.Random(t)
    for _ in range(500):
        items = list(range(1, t + 1))
        _twin_shuffle(twin, items)
        assert checks._PERMUTATION_DRAW[t](rng.random) == tuple(items)
    assert rng.getstate() == twin.getstate()


def test_property_checks_consume_the_pinned_stream():
    rng, cases = random.Random(checks.DEFAULT_RNG_SEED), checks.DEFAULT_CASES
    results = [
        checks.check_picard_bilinearity(rng, cases),
        checks.check_picard_permutation(rng, cases),
        checks.check_picard_parser(rng, cases),
        checks.check_chern_tensor_symmetry(rng, cases),
        checks.check_chern_tensor_associativity(rng, cases),
        checks.check_chern_sum_permutation(rng, cases),
        checks.check_chern_chi_additive(rng, cases),
        checks.check_chern_twist_invariants(rng, cases),
        checks.check_candidate_permutation_invariance(rng, min(cases, 500)),
    ]
    assert all(passed for passed, _ in results)
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == CASE_STREAM_DIGEST


def test_random_bundles_are_the_pinned_cases():
    rng = random.Random(checks.DEFAULT_RNG_SEED)
    draws = [checks._random_bundle(rng, 1 + i % 6) for i in range(CASE_DRAWS)]
    text = "\n".join(map(repr, draws))
    assert hashlib.sha256(text.encode()).hexdigest() == CASE_DRAWS_DIGEST
