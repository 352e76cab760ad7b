"""The self-check's random cases: the same draws, in the same order, on every Python.

``checks._random_class`` draws its coordinates straight from
``rng.random()``, and ``checks._below`` and ``checks._shuffle`` draw integers
from ``rng.getrandbits``; these tests pin, against a twin generator, that
they take exactly the values, and leave the generator in exactly the state,
that ``rng.choices(range(-span, span + 1), k=t + 1)``, ``randint``,
``randrange`` and ``shuffle`` do.  The digest pins the whole case stream of
the nine property checks.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from ulrich_lab import BundleNumerics, DivisorClass, checks

# sha256 of repr(rng.getstate()) after the nine property checks of
# run_all_checks, in its order, from random.Random(DEFAULT_RNG_SEED).
CASE_STREAM_DIGEST = "6080f7bc559d63c8f278f4522d0329578da89ccdb559caaf7bcebfda571fcd21"


@pytest.mark.parametrize("span", [3, 4, 6, 9, 99])
@pytest.mark.parametrize("t", range(1, 7))
def test_random_class_draws_what_choices_draws(t, span):
    rng, twin = random.Random(1000 * t + span), random.Random(1000 * t + span)
    for _ in range(50):
        x = checks._random_class(rng, t, span)
        a, *b = twin.choices(range(-span, span + 1), k=t + 1)
        assert x == DivisorClass(a, tuple(b))
        assert type(x.a) is int and all(type(c) is int for c in x.b)
    assert rng.getstate() == twin.getstate()


# Every randint range the property checks draw from: the lattice rank t, the
# bundle rank and c2, the scalar m, the degree d and the family size.
RANDINT_RANGES = [(1, 6), (1, 5), (-20, 20), (-4, 4), (3, 8), (1, 4)]


@pytest.mark.parametrize("lo,hi", RANDINT_RANGES, ids=lambda v: str(v))
def test_below_draws_what_randint_draws(lo, hi):
    rng, twin = random.Random(hi - lo), random.Random(hi - lo)
    for _ in range(2000):
        assert lo + checks._below(rng, hi - lo + 1) == twin.randint(lo, hi)
    assert rng.getstate() == twin.getstate()


def test_below_draws_what_randrange_draws_from_the_seed_pool():
    pool = [seed for seed in checks.default_seeds() if isinstance(seed[1], BundleNumerics)]
    rng, twin = random.Random(len(pool)), random.Random(len(pool))
    for _ in range(2000):
        assert checks._below(rng, len(pool)) == twin.randrange(len(pool))
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("length", range(1, 7))
def test_shuffle_makes_the_swaps_of_random_shuffle(length):
    rng, twin = random.Random(length), random.Random(length)
    for _ in range(500):
        items, twin_items = list(range(length)), list(range(length))
        checks._shuffle(rng, items)
        twin.shuffle(twin_items)
        assert items == twin_items
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
