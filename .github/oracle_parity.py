"""Three fused library kernels against their public compositions, without pytest.

chi_pair_oracle(M_i, T_j, S) takes the one-pass kernel of ulrich_lab.chern
on one lattice.  On each of the 72**2 ordered pairs of twisted cubics it must
equal euler_char(tensor(dual(M_i), M_j), S), the same chi built through a
dual bundle, a product bundle and Riemann-Roch, and the closed form
2 - T_i.T_j.  Fixed-seed random bundles of ranks 1-6 on the cubic lattice,
in place of M_i, must give the composition's value too.

iterate_syzygy runs chi, the kernel and the twist by H fused on local ints,
and keeps the results as columns, building a row with its exact c1 only
when it is read.  On every seed of checks.default_seeds(), exact and
reduced, each row to k = 40 (k = 0 on d = 3) must equal
twist_by_h(syzygy_numerics(F, euler_char(F)), 1) of the row before, exact
class included.  discriminant_drift, which reads the columns without
building rows, must give one value per row, equal to expected_moduli_dim
both of the row and of the composition's bundle.

is_ulrich_candidate tests c1.H = rd and c2 = r + (c1^2 - rd)/2 and runs no
Riemann-Roch.  Its answer must equal the definition it stands for,
euler_char(twist_by_h(F, m)) = 0 for m = -1, -2 (an odd c1^2 + c1.H, which
no bundle has, counting as no candidate), and a candidate's c2 must be
ulrich_c2(r, c1^2).  This runs on the random bundles, on every default seed,
exact and reduced, and on near misses of each seed: c2 - 1 and c2 + 1, and
for reduced data also c1^2 + 1 (an odd c1^2 - rd, which an exact class with
c1.H = rd cannot have) and c1.H +- 1 and +- 2 (the odd shifts make
c1^2 + c1.H odd, the even ones keep it even and move the chi values), so
the predicate's False branches are compared with the chi composition as
well as its True ones.

Every syzygy route that takes a seed asks is_ulrich_candidate before it
computes.  On every default seed and near miss, at k = 0 and k = 1, each
route that accepts it (iterate_syzygy, closed_syzygy_chern_numeric,
closed_syzygy_chern for exact data, rank_two_table_chern for its rank-2
seeds on degrees 4..7) must raise NotUlrich exactly when is_ulrich_candidate
is False; the one other refusal allowed is the degree-3 rule, for a
candidate at k = 1.

cubic_moduli_pair builds its rank-2r partner as the first syzygy bundle
S_0 and twist_partner is a tensor_line; neither rechecks its result.  On
every sum of two twisted cubics and on 200 fixed-seed random sums of three,
with the Ulrich c2, the partner must be (2r, -c1, c2 + r) at dimension
c1^2 - 2r^2 + 1; each rank-4 partner twisted by 5 random classes x must
have c1 + 4x and c2 = 6x^2 + 3 c1.x + c2, with c1 and c2 the partner's.

Usage: python3 .github/oracle_parity.py   (with ulrich_lab importable, e.g.
after `pip install .` or with PYTHONPATH=src; needs only the standard
library; exits non-zero on the first mismatch)
"""

import random
import sys

from ulrich_lab import (
    CUBIC_SURFACE,
    BundleNumerics,
    DivisorClass,
    NotUlrich,
    NumericClassData,
    OutOfTheoremScope,
    ParityViolation,
    chi_pair_closed_form,
    chi_pair_oracle,
    closed_syzygy_chern,
    closed_syzygy_chern_numeric,
    cubic_moduli_pair,
    discriminant_drift,
    dual,
    euler_char,
    expected_moduli_dim,
    is_ulrich_candidate,
    iterate_syzygy,
    kernel_bundle_of_cubic,
    rank_two_table_chern,
    reduce_numerics,
    syzygy_numerics,
    tensor,
    twist_by_h,
    twist_partner,
    twisted_cubics,
    ulrich_c2,
)
from ulrich_lab.checks import default_seeds


def expect(ok, what):
    if not ok:
        sys.exit(f"oracle_parity: {what}")


def composed_candidate(f, surface):
    try:
        return all(euler_char(twist_by_h(f, m, surface), surface) == 0 for m in (-1, -2))
    except ParityViolation:  # c1^2 + c1.H is odd
        return False


def expect_candidate(f, surface):
    fused, composed = is_ulrich_candidate(f, surface), composed_candidate(f, surface)
    expect(fused == composed, f"d={surface.degree} {f}: is_ulrich_candidate {fused}, "
                              f"composition {composed}")
    if composed:
        c2 = ulrich_c2(f.rank, f.c1_sq, surface)
        expect(f.c2 == c2, f"d={surface.degree} {f}: a candidate, but ulrich_c2 is {c2}")


def expect_partner(parts):
    """The partner of the Ulrich bundle with c1 the sum of parts is (2r, -c1, c2 + r)."""
    r, c1 = len(parts), sum(parts[1:], parts[0])
    c2 = ulrich_c2(r, c1.self_intersection, CUBIC_SURFACE)
    partner, dim = cubic_moduli_pair(BundleNumerics(r, c1, c2))
    want = BundleNumerics(2 * r, -c1, c2 + r), c1.self_intersection - 2 * r * r + 1
    expect((partner, dim) == want, f"cubic_moduli_pair at {c1}: {(partner, dim)}, want {want}")
    return partner


def random_class(rng):
    return DivisorClass(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(6)))


def seed_routes(f, surface):
    d = surface.degree
    routes = [("iterate_syzygy", lambda k: iterate_syzygy(f, surface, k)),
              ("closed_syzygy_chern_numeric", lambda k: closed_syzygy_chern_numeric(f, surface, k))]
    if isinstance(f, BundleNumerics):
        routes.append(("closed_syzygy_chern", lambda k: closed_syzygy_chern(f, surface, k)))
    if f.rank == 2 and f.c1_dot_h == 2 * d and 4 <= d <= 7:
        routes.append(("rank_two_table_chern", lambda k: rank_two_table_chern(d, f.c1_sq, f.c2, k)))
    return routes


def expect_routes(f, surface):
    """Each seed route refuses f with NotUlrich exactly when it is no candidate."""
    candidate = is_ulrich_candidate(f, surface)
    checked = 0
    for name, route in seed_routes(f, surface):
        for k in (0, 1):
            where = f"d={surface.degree} k={k} {f}: {name}"
            try:
                route(k)
                refused = False
            except NotUlrich:
                refused = True
            except OutOfTheoremScope:
                expect(candidate and surface.degree == 3 and k == 1,
                       f"{where} raised OutOfTheoremScope, is_ulrich_candidate {candidate}")
                refused = False
            expect(refused != candidate, f"{where} refused {refused}, is_ulrich_candidate {candidate}")
            checked += 1
    return checked


def near_misses(f):
    if isinstance(f, BundleNumerics):
        return [BundleNumerics(f.rank, f.c1, f.c2 + e) for e in (-1, 1)]
    r, q, p, c2 = f.rank, f.c1_sq, f.c1_dot_h, f.c2
    return ([NumericClassData(r, q, p, c2 + e) for e in (-1, 1)] + [NumericClassData(r, q + 1, p, c2)]
            + [NumericClassData(r, q, p + e, c2) for e in (-2, -1, 1, 2)])


divisors = [t.divisor for t in twisted_cubics()]
kernels = [kernel_bundle_of_cubic(t) for t in divisors]
expect(len(divisors) == 72, f"{len(divisors)} twisted cubics")
pairs = 0
for t1, m1 in zip(divisors, kernels):
    m1_dual = dual(m1)
    for t2, m2 in zip(divisors, kernels):
        oracle = chi_pair_oracle(m1, t2, CUBIC_SURFACE)
        composed = euler_char(tensor(m1_dual, m2), CUBIC_SURFACE)
        expect(oracle == composed, f"chi({t1}, {t2}): kernel {oracle}, composition {composed}")
        closed = chi_pair_closed_form(2, [t1.dot(t2)])
        expect(oracle == closed, f"chi({t1}, {t2}): kernel {oracle}, closed form {closed}")
        pairs += 1

rng = random.Random(0x0C1)
for _ in range(2000):
    fprev = BundleNumerics(rng.randint(1, 6), random_class(rng), rng.randint(-50, 50))
    t2, m2 = rng.choice(list(zip(divisors, kernels)))
    oracle = chi_pair_oracle(fprev, t2, CUBIC_SURFACE)
    composed = euler_char(tensor(dual(fprev), m2), CUBIC_SURFACE)
    expect(oracle == composed, f"chi({fprev}, {t2}): kernel {oracle}, composition {composed}")
    expect_candidate(fprev, CUBIC_SURFACE)

rng = random.Random(0x0C3)
pair_sums = {}
for t1 in divisors:
    for t2 in divisors:
        pair_sums.setdefault(t1 + t2, (t1, t2))
twists = 0
for parts in pair_sums.values():
    partner = expect_partner(parts)
    for _ in range(5):
        x = random_class(rng)
        moved = twist_partner(partner, x)
        want = BundleNumerics(4, partner.c1 + 4 * x,
                              6 * x.self_intersection + 3 * partner.c1.dot(x) + partner.c2)
        expect(moved == want, f"twist_partner({partner}, {x}): {moved}, want {want}")
        twists += 1
for _ in range(200):
    expect_partner(rng.choices(divisors, k=3))
partners = len(pair_sums) + 200

traces = rows = misses = route_calls = 0
for surface, shipped in default_seeds():
    k_max = 0 if surface.degree == 3 else 40
    exact = isinstance(shipped, BundleNumerics)
    for f in [shipped, reduce_numerics(shipped)] if exact else [shipped]:
        expect(is_ulrich_candidate(f, surface), f"d={surface.degree} seed {f}: no candidate")
        expect_candidate(f, surface)
        route_calls += expect_routes(f, surface)
        for miss in near_misses(f):
            expect(not is_ulrich_candidate(miss, surface),
                   f"d={surface.degree} near miss {miss}: a candidate")
            expect_candidate(miss, surface)
            route_calls += expect_routes(miss, surface)
            misses += 1
        trace = iterate_syzygy(f, surface, k_max)
        drift = discriminant_drift(trace)
        expect(len(drift) == len(trace.entries) == k_max + 2,
               f"d={surface.degree} seed {shipped}: {len(drift)} drift values, "
               f"{len(trace.entries)} rows")
        for entry, entry_drift in zip(trace.entries, drift):
            if entry.k >= 0:
                f = twist_by_h(syzygy_numerics(f, euler_char(f, surface)), 1, surface)
            got = (entry.rank, entry.c1_sq, entry.c1_dot_h, entry.c2)
            want = (f.rank, f.c1_sq, f.c1_dot_h, f.c2)
            where = f"d={surface.degree} seed {shipped} k={entry.k}"
            expect(got == want, f"{where}: iterate_syzygy {got}, composition {want}")
            expect(entry.c1 == (f.c1 if isinstance(f, BundleNumerics) else None),
                   f"{where}: exact c1 {entry.c1}, composition {getattr(f, 'c1', None)}")
            expect(entry_drift == expected_moduli_dim(entry) == expected_moduli_dim(f),
                   f"{where}: drift {entry_drift}, expected_moduli_dim of the row "
                   f"{expected_moduli_dim(entry)}, of the composition {expected_moduli_dim(f)}")
            rows += 1
        traces += 1
print(f"oracle_parity: {pairs} cubic pairs, 2000 random bundles, {partners} cubic partners "
      f"({twists} twists), {traces} syzygy traces "
      f"({rows} rows), {misses} near misses, {route_calls} seed-route calls, "
      f"Python {sys.version.split()[0]}: ok")
