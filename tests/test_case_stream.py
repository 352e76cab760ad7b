"""The self-check's random cases: the same draws, in the same order, on every Python.

``checks._random_class`` draws its coordinates straight from
``rng.random()``; these tests pin that it takes exactly the values, and
leaves the generator in exactly the state, that
``rng.choices(range(-span, span + 1), k=t + 1)`` does.  The digest pins the
whole case stream of the nine property checks.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from ulrich_lab import DivisorClass, checks

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
    assert all(result.passed for result in results)
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == CASE_STREAM_DIGEST
