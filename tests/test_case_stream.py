"""The self-check's random cases: the same draws, in the same order, on every Python.

``checks._random_class`` draws its coordinates straight from
``rng.random()``, ``checks._below`` and ``checks._shuffle`` draw integers
from ``rng.getrandbits``, and ``checks._random_bundle`` unrolls both kinds
of draw into one body; these tests pin, against a twin generator, that they
take exactly the values, and leave the generator in exactly the state, that
``rng.choices(range(-span, span + 1), k=t + 1)``, ``randint``,
``randrange`` and ``shuffle`` do, and that ``checks._random_permutation`` is
a ``shuffle`` of 1..t.  The digest pins the whole case stream of the nine
property checks.
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


@pytest.mark.parametrize("t", range(1, 7))
def test_random_bundle_draws_what_randint_and_choices_draw(t):
    rng, twin = random.Random(t), random.Random(t)
    ranks = set()
    for _ in range(500):
        rank = twin.randint(1, 5)
        c2 = 0 if rank == 1 else twin.randint(-20, 20)
        a, *b = twin.choices(range(-6, 7), k=t + 1)
        assert checks._random_bundle(rng, t) == BundleNumerics(rank, DivisorClass(a, tuple(b)), c2)
        ranks.add(rank)
    assert ranks == {1, 2, 3, 4, 5}
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("n", range(9))
def test_shuffle_is_random_shuffle(n):
    rng, twin = random.Random(n), random.Random(n)
    for _ in range(300):
        items, expected = list(range(n)), list(range(n))
        checks._shuffle(rng, items)
        twin.shuffle(expected)
        assert items == expected
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("t", range(1, 7))
def test_random_permutation_is_a_shuffle_of_one_to_t(t):
    rng, twin = random.Random(t), random.Random(t)
    for _ in range(500):
        items = list(range(1, t + 1))
        twin.shuffle(items)
        assert checks._random_permutation(rng, t) == tuple(items)
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
