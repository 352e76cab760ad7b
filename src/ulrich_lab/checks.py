"""Self-check suite: every module invariant as a named, reportable check.

The CLI ``check`` subcommand runs these and prints one pass/fail line
per property.  Randomized checks draw from a fixed-seed generator, so
two runs over the same configuration produce identical output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import chern, cubic, picard, syzygy, tables, ulrich
from .chern import AnyNumerics, BundleNumerics, NumericClassData
from .errors import BadSeedFile, UlrichLabError
from .picard import DelPezzoSurface, DivisorClass, _is_int, make_surface

DEFAULT_RNG_SEED = 0x5EED
DEFAULT_CASES = 1000

Seed = tuple[DelPezzoSurface, AnyNumerics]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def default_seeds() -> list[Seed]:
    """Shipped Ulrich seeds: the table rows plus small hand-picked ones."""
    seeds: list[Seed] = []
    for row in tables.MODULI_DIM_ROWS:
        surface = make_surface(row.degree)
        seeds.append((surface, NumericClassData(2, row.c1_sq, 2 * row.degree, row.c2)))
        seeds.append((surface, BundleNumerics(2, tables.moduli_row_witness(row), row.c2)))
    cubic_surface = make_surface(3)
    for row in tables.CUBIC_PAIR_ROWS:
        t1, t2 = row.part_divisors()
        seeds.append((cubic_surface, BundleNumerics(2, t1 + t2, row.seed_c2)))
    # A rank-1 Ulrich class on the quartic surface: a conic pencil class.
    seeds.append((make_surface(4), BundleNumerics(1, DivisorClass(2, (1, 1, 0, 0, 0)), 0)))
    # Rank-r seeds with c1 = r*H on every degree.
    for d in range(4, 9):
        surface = make_surface(d)
        for r in (1, 3):
            c1_sq = r * r * d
            c2 = ulrich.ulrich_c2(r, c1_sq, surface)
            seeds.append((surface, NumericClassData(r, c1_sq, r * d, c2)))
    return seeds


def load_seed_file(path: str) -> list[Seed]:
    """Read a JSON array of bundle numerics; surfaces are inferred from c1.

    Each entry is an object ``{"rank": int, "c1": "(a;b_1,...,b_t)",
    "c2": int}``.  Anything else raises :class:`BadSeedFile`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise BadSeedFile(f"cannot read seed file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise BadSeedFile(f"seed file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise BadSeedFile("seed file must contain a JSON array of bundle numerics")
    seeds: list[Seed] = []
    for position, item in enumerate(raw):
        where = f"seed file {path}, entry {position}"
        if not isinstance(item, dict):
            raise BadSeedFile(f"{where}: expected an object with keys rank, c1, c2")
        missing = [key for key in ("rank", "c1", "c2") if key not in item]
        if missing:
            raise BadSeedFile(f"{where}: missing key(s) {', '.join(missing)}")
        for key in ("rank", "c2"):
            if not _is_int(item[key]):
                raise BadSeedFile(f"{where}: {key} must be an integer, got {item[key]!r}")
        if not isinstance(item["c1"], str):
            raise BadSeedFile(f"{where}: c1 must be divisor text, got {item['c1']!r}")
        try:
            numerics = BundleNumerics.from_dict(item)
            surface = make_surface(9 - numerics.c1.num_exceptional)
        except (UlrichLabError, ValueError) as exc:
            raise BadSeedFile(f"{where}: {type(exc).__name__}: {exc}") from exc
        seeds.append((surface, numerics))
    return seeds


def _random_class(rng: random.Random, t: int, span: int = 9) -> DivisorClass:
    return DivisorClass(
        rng.randint(-span, span), tuple(rng.randint(-span, span) for _ in range(t))
    )


def _random_bundle(rng: random.Random, t: int) -> BundleNumerics:
    rank = rng.randint(1, 5)
    c2 = 0 if rank == 1 else rng.randint(-20, 20)
    return BundleNumerics(rank, _random_class(rng, t, 6), c2)


def _random_permutation(rng: random.Random, t: int) -> tuple[int, ...]:
    perm = list(range(1, t + 1))
    rng.shuffle(perm)
    return tuple(perm)


def check_picard_signature() -> CheckResult:
    ok = True
    details = []
    for d in range(3, 9):
        surface = make_surface(d)
        t = surface.num_exceptional
        line = surface.line_class
        ok &= line.dot(line) == 1
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                expected = -1 if i == j else 0
                ok &= surface.exceptional_class(i).dot(surface.exceptional_class(j)) == expected
            ok &= line.dot(surface.exceptional_class(i)) == 0
        k = surface.canonical_class
        h = surface.anticanonical_class
        f = surface.fiber_class
        ok &= k.dot(k) == d and h.dot(h) == d and h.dot(k) == -d
        ok &= f.dot(f) == 0 and k.dot(f) == -2
        details.append(f"d={d}")
    return CheckResult("picard.signature", ok, "L^2=1, E_i.E_j=-delta, K^2=H^2=d on " + ", ".join(details))


def check_picard_bilinearity(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        t = rng.randint(1, 6)
        x, y, z = (_random_class(rng, t) for _ in range(3))
        m = rng.randint(-4, 4)
        if (x + y).dot(z) != x.dot(z) + y.dot(z):
            return CheckResult("picard.bilinearity", False, f"additivity fails on {x},{y},{z}")
        if (m * x).dot(z) != m * x.dot(z):
            return CheckResult("picard.bilinearity", False, f"homogeneity fails on {x},{z}")
        if x.dot(y) != y.dot(x):
            return CheckResult("picard.bilinearity", False, f"symmetry fails on {x},{y}")
    return CheckResult("picard.bilinearity", True, f"{cases} random triples")


def check_picard_permutation(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        t = rng.randint(1, 6)
        x, y = _random_class(rng, t), _random_class(rng, t)
        p = _random_permutation(rng, t)
        px, py = picard.permute_exceptionals(x, p), picard.permute_exceptionals(y, p)
        if px.dot(py) != x.dot(y):
            return CheckResult("picard.permutation-pairing", False, f"pairing moved under {p}")
        identity = tuple(range(1, t + 1))
        if picard.permute_exceptionals(x, identity) != x:
            return CheckResult("picard.permutation-pairing", False, "identity acted nontrivially")
    return CheckResult("picard.permutation-pairing", True, f"{cases} random cases")


def check_picard_parser(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        t = rng.randint(1, 6)
        x = _random_class(rng, t, 99)
        if picard.parse_divisor(picard.format_divisor(x)) != x:
            return CheckResult("picard.parser-roundtrip", False, f"round trip moved {x}")
    return CheckResult("picard.parser-roundtrip", True, f"{cases} random classes")


def check_chern_tensor_symmetry(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        t = rng.randint(1, 6)
        f, g = _random_bundle(rng, t), _random_bundle(rng, t)
        if chern.tensor(f, g) != chern.tensor(g, f):
            return CheckResult("chern.tensor-commutative", False, f"{f} (x) {g}")
    return CheckResult("chern.tensor-commutative", True, f"{cases} random pairs")


def check_chern_tensor_associativity(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        t = rng.randint(1, 6)
        f, g, h = (_random_bundle(rng, t) for _ in range(3))
        left = chern.tensor(chern.tensor(f, g), h)
        right = chern.tensor(f, chern.tensor(g, h))
        if left != right:
            return CheckResult("chern.tensor-associative", False, f"{f}, {g}, {h}")
    return CheckResult("chern.tensor-associative", True, f"{cases} random triples")


def check_chern_sum_permutation(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        t = rng.randint(1, 6)
        summands = [_random_bundle(rng, t) for _ in range(rng.randint(1, 4))]
        shuffled = summands[:]
        rng.shuffle(shuffled)
        if chern.direct_sum(summands) != chern.direct_sum(shuffled):
            return CheckResult("chern.sum-permutation-invariant", False, f"{summands}")
    return CheckResult("chern.sum-permutation-invariant", True, f"{cases} random families")


def check_chern_chi_additive(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        d = rng.randint(3, 8)
        surface = make_surface(d)
        t = surface.num_exceptional
        f, g = _random_bundle(rng, t), _random_bundle(rng, t)
        whole = chern.euler_char(chern.direct_sum([f, g]), surface)
        parts = chern.euler_char(f, surface) + chern.euler_char(g, surface)
        if whole != parts:
            return CheckResult("chern.chi-additive", False, f"{f} + {g} on d={d}")
    return CheckResult("chern.chi-additive", True, f"{cases} random pairs")


def check_chern_twist_invariants(rng: random.Random, cases: int) -> CheckResult:
    for _ in range(cases):
        t = rng.randint(1, 6)
        f = _random_bundle(rng, t)
        line = _random_class(rng, t, 4)
        twisted = chern.tensor_line(f, line)
        if chern.discriminant(twisted) != chern.discriminant(f):
            return CheckResult("chern.discriminant-twist-invariant", False, f"{f} by {line}")
        if chern.expected_moduli_dim(twisted) != chern.expected_moduli_dim(f):
            return CheckResult("chern.discriminant-twist-invariant", False,
                               f"moduli dim moved for {f} by {line}")
        if chern.discriminant(chern.dual(f)) != chern.discriminant(f):
            return CheckResult("chern.discriminant-twist-invariant", False, f"dual of {f}")
    return CheckResult("chern.discriminant-twist-invariant", True, f"{cases} random twists")


def check_rank_triangle() -> CheckResult:
    for d in range(4, 9):
        surface = make_surface(d)
        for r in range(1, 6):
            c1_sq = r * r * d
            seed = NumericClassData(r, c1_sq, r * d, ulrich.ulrich_c2(r, c1_sq, surface))
            trace = syzygy.iterate_syzygy(seed, surface, 50)
            for k in range(-1, 51):
                by_rec = syzygy.rank_by_recurrence(d, r, k)
                by_closed = syzygy.rank_closed_form(d, r, k)
                by_iter = trace.entry(k).rank
                if not by_rec == by_closed == by_iter:
                    return CheckResult(
                        "syzygy.rank-triangle", False,
                        f"d={d} r={r} k={k}: {by_rec}, {by_closed}, {by_iter}")
                if d == 4 and by_rec != (2 * k + 3) * r:
                    return CheckResult("syzygy.rank-triangle", False,
                                       f"d=4 linear form fails at r={r} k={k}")
    return CheckResult("syzygy.rank-triangle", True,
                       "recurrence = closed form = iteration, d=4..8, r=1..5, k=-1..50")


def check_rank_monotone() -> CheckResult:
    for d in range(4, 9):
        for r in range(1, 6):
            values = [syzygy.rank_by_recurrence(d, r, k) for k in range(-1, 40)]
            if any(b <= a for a, b in zip(values, values[1:])):
                return CheckResult("syzygy.rank-monotone", False, f"d={d} r={r}")
    return CheckResult("syzygy.rank-monotone", True, "strictly increasing, d=4..8, r=1..5, k<=39")


def check_drift_constant(seeds: Sequence[Seed]) -> CheckResult:
    for surface, seed in seeds:
        k_max = 0 if surface.degree == 3 else 12
        trace = syzygy.iterate_syzygy(seed, surface, k_max)
        drift = syzygy.discriminant_drift(trace)
        expected = chern.expected_moduli_dim(seed)
        if any(value != expected for value in drift):
            return CheckResult("syzygy.drift-constant", False,
                               f"seed {seed} on d={surface.degree}: {drift}")
    return CheckResult("syzygy.drift-constant", True, f"{len(seeds)} seeds")


def check_delta_growth(seeds: Sequence[Seed]) -> CheckResult:
    for surface, seed in seeds:
        if surface.degree == 3:
            continue
        trace = syzygy.iterate_syzygy(seed, surface, 12)
        deltas = [entry.delta for entry in trace.entries if entry.k >= 0]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            return CheckResult("syzygy.delta-growth", False, f"seed {seed} on d={surface.degree}")
    return CheckResult("syzygy.delta-growth", True, "Delta(S_k) strictly increasing for k >= 0")


def check_closed_vs_iterate(seeds: Sequence[Seed]) -> CheckResult:
    for surface, seed in seeds:
        k_max = 0 if surface.degree == 3 else 12
        trace = syzygy.iterate_syzygy(seed, surface, k_max)
        for k in range(0, k_max + 1):
            twisted = chern.twist_by_h(trace.entry(k).as_numeric(), -1, surface)
            reduced = seed if isinstance(seed, NumericClassData) else chern.reduce_numerics(seed)
            closed = syzygy.closed_syzygy_chern_numeric(reduced, surface, k)
            if closed != twisted:
                return CheckResult("syzygy.closed-vs-iterate", False,
                                   f"seed {seed} d={surface.degree} k={k}")
            if isinstance(seed, BundleNumerics):
                c1, c2 = syzygy.closed_syzygy_chern(seed, surface, k)
                bundle = trace.entry(k).as_bundle()
                exact = chern.tensor_line(bundle, -surface.anticanonical_class)
                if c1 != exact.c1 or c2 != exact.c2:
                    return CheckResult("syzygy.closed-vs-iterate", False,
                                       f"exact mode: seed {seed} d={surface.degree} k={k}")
    return CheckResult("syzygy.closed-vs-iterate", True, f"{len(seeds)} seeds, k <= 12")


def check_table_vs_closed() -> CheckResult:
    for row in tables.MODULI_DIM_ROWS:
        surface = make_surface(row.degree)
        seed = NumericClassData(2, row.c1_sq, 2 * row.degree, row.c2)
        for k in range(-1, 21):
            table_form = syzygy.rank_two_table_chern(row.degree, row.c1_sq, row.c2, k)
            closed = syzygy.closed_syzygy_chern_numeric(seed, surface, k)
            if table_form != closed:
                return CheckResult("syzygy.table-vs-closed", False,
                                   f"d={row.degree} c1^2={row.c1_sq} k={k}")
    return CheckResult("syzygy.table-vs-closed", True, "all table rows, k = -1..20")


def check_ulrich_thresholds() -> CheckResult:
    for d in range(3, 9):
        p = ulrich.polarized_data_for(make_surface(d))
        if ulrich.curve_section_genus(p) != 1:
            return CheckResult("ulrich.thresholds", False, f"genus at d={d}")
        if not ulrich.butler_semistability_criterion(p):
            return CheckResult("ulrich.thresholds", False, f"Butler bound fails at d={d}")
        if ulrich.koszul_criterion(p) != (d >= 4):
            return CheckResult("ulrich.thresholds", False, f"Koszul threshold at d={d}")
        if not ulrich.coprime_stability_criterion(p):
            return CheckResult("ulrich.thresholds", False, f"coprime criterion at d={d}")
        if ulrich.prioritary_polarization_check(make_surface(d)) >= 0:
            return CheckResult("ulrich.thresholds", False, f"H.(K+F) not negative at d={d}")
    return CheckResult("ulrich.thresholds", True,
                       "genus 1, Butler, coprime, Koszul iff d>=4, H.(K+F)<0")


def check_ulrich_candidates(seeds: Sequence[Seed]) -> CheckResult:
    for surface, seed in seeds:
        if not ulrich.is_ulrich_candidate(seed, surface):
            return CheckResult("ulrich.candidates", False, f"{seed} on d={surface.degree}")
        if chern.euler_char(seed, surface) != seed.rank * surface.degree:
            return CheckResult("ulrich.candidates", False,
                               f"h^0 != rank*d for {seed} on d={surface.degree}")
    return CheckResult("ulrich.candidates", True, f"{len(seeds)} seeds")


def check_candidate_permutation_invariance(rng: random.Random, cases: int) -> CheckResult:
    pool = [
        (surface, numerics)
        for surface, numerics in default_seeds()
        if isinstance(numerics, BundleNumerics)
    ]
    for _ in range(cases):
        surface, numerics = pool[rng.randrange(len(pool))]
        p = _random_permutation(rng, surface.num_exceptional)
        moved = BundleNumerics(
            numerics.rank, picard.permute_exceptionals(numerics.c1, p), numerics.c2
        )
        if not ulrich.is_ulrich_candidate(moved, surface):
            return CheckResult("ulrich.candidate-permutation-invariant", False,
                               f"{numerics} under {p}")
    return CheckResult("ulrich.candidate-permutation-invariant", True, f"{cases} random cases")


def check_cubic_census() -> CheckResult:
    cubics = cubic.twisted_cubics()
    if len(cubics) != 72 or len({t.divisor for t in cubics}) != 72:
        return CheckResult("cubic.census", False, f"{len(cubics)} classes")
    sizes = {tag: 0 for tag in "ABCDE"}
    h = cubic.CUBIC_SURFACE.anticanonical_class
    k = cubic.CUBIC_SURFACE.canonical_class
    for t in cubics:
        sizes[t.type_tag] += 1
        if t.divisor.self_intersection != 1 or t.divisor.dot(h) != 3 or t.divisor.dot(k) != -3:
            return CheckResult("cubic.census", False, f"bad numerics for {t.divisor}")
    if sizes != {"A": 1, "B": 20, "C": 30, "D": 20, "E": 1}:
        return CheckResult("cubic.census", False, f"orbit sizes {sizes}")
    return CheckResult("cubic.census", True, "72 classes, orbits 1/20/30/20/1, T^2=1, T.H=3")


def check_cubic_chi_oracle() -> CheckResult:
    cubics = cubic.twisted_cubics()
    surface = cubic.CUBIC_SURFACE
    for t1 in cubics:
        m1 = cubic.kernel_bundle_of_cubic(t1.divisor)
        for t2 in cubics:
            closed = cubic.chi_pair_closed_form(2, [t1.divisor.dot(t2.divisor)])
            oracle = cubic.chi_pair_oracle(m1, t2.divisor, surface)
            if closed != oracle:
                return CheckResult("cubic.chi-closed-vs-oracle", False, f"{t1.divisor}, {t2.divisor}")
    return CheckResult("cubic.chi-closed-vs-oracle", True, "all 72^2 ordered pairs")


def check_cubic_decompositions() -> CheckResult:
    rep = cubic.twisted_cubic_representative
    for row in tables.CUBIC_PAIR_ROWS:
        t1, t2 = row.part_divisors()
        target = t1 + t2
        decs = cubic.decompose_stable_sum(target, 2)
        if not any((p.divisor, q.divisor) == (t1, t2) for p, q in (d.parts for d in decs)):
            return CheckResult("cubic.decompositions", False, f"missing pair for {target}")
        if any(not dec.validate() for dec in decs):
            return CheckResult("cubic.decompositions", False, f"invalid tuple for {target}")
    doubled = cubic.decompose_stable_sum(2 * rep("A"), 2)
    if any(p.divisor == q.divisor == rep("A") for p, q in (d.parts for d in doubled)):
        return CheckResult("cubic.decompositions", False, "2*T_A should not decompose through itself")
    return CheckResult("cubic.decompositions", True, "table pairs found, all tuples revalidate")


def check_cubic_moduli_pairs() -> CheckResult:
    rng = random.Random(0xC0FFEE)
    for row in tables.CUBIC_PAIR_ROWS:
        t1, t2 = row.part_divisors()
        seed = BundleNumerics(2, t1 + t2, row.seed_c2)
        partner, dim = cubic.cubic_moduli_pair(seed)
        if partner.c2 != row.partner_c2 or dim != row.dim:
            return CheckResult("cubic.moduli-pairs", False, f"row {row.part_tags}")
        if chern.expected_moduli_dim(seed) != dim or chern.expected_moduli_dim(partner) != dim:
            return CheckResult("cubic.moduli-pairs", False, f"dim mismatch in row {row.part_tags}")
        for _ in range(5):
            twist = _random_class(rng, 6, 3)
            moved = cubic.twist_partner(partner, twist)
            expected = (6 * twist.self_intersection
                        - 3 * (t1 + t2).dot(twist) + row.partner_c2)
            if moved.c2 != expected:
                return CheckResult("cubic.moduli-pairs", False,
                                   f"twist polynomial fails on row {row.part_tags}")
            if chern.expected_moduli_dim(moved) != dim:
                return CheckResult("cubic.moduli-pairs", False,
                                   f"twist moved the dimension in row {row.part_tags}")
    return CheckResult("cubic.moduli-pairs", True, "3 rows, partners, 5 random twists each")


def check_moduli_table() -> CheckResult:
    for row in tables.MODULI_DIM_ROWS:
        surface = make_surface(row.degree)
        c2 = ulrich.ulrich_c2(2, row.c1_sq, surface)
        seed = NumericClassData(2, row.c1_sq, 2 * row.degree, c2)
        dim = chern.expected_moduli_dim(seed)
        if c2 != row.c2 or dim != row.dim:
            return CheckResult("ulrich.moduli-table", False,
                               f"d={row.degree} c1^2={row.c1_sq}: got c2={c2} dim={dim}")
    return CheckResult("ulrich.moduli-table", True, "all 9 rows recomputed")


def run_all_checks(
    extra_seeds: Iterable[Seed] = (),
    cases: int = DEFAULT_CASES,
    rng_seed: int = DEFAULT_RNG_SEED,
) -> list[CheckResult]:
    """Run every invariant check; extra seeds join the seed-driven ones.

    A check that raises (for example on a user seed that is not an
    Ulrich candidate) is reported as a failure rather than aborting the
    rest of the suite.
    """
    seeds = default_seeds() + list(extra_seeds)
    rng = random.Random(rng_seed)
    plan: list[tuple[str, Callable[[], CheckResult]]] = [
        ("picard.signature", check_picard_signature),
        ("picard.bilinearity", lambda: check_picard_bilinearity(rng, cases)),
        ("picard.permutation-pairing", lambda: check_picard_permutation(rng, cases)),
        ("picard.parser-roundtrip", lambda: check_picard_parser(rng, cases)),
        ("chern.tensor-commutative", lambda: check_chern_tensor_symmetry(rng, cases)),
        ("chern.tensor-associative", lambda: check_chern_tensor_associativity(rng, cases)),
        ("chern.sum-permutation-invariant", lambda: check_chern_sum_permutation(rng, cases)),
        ("chern.chi-additive", lambda: check_chern_chi_additive(rng, cases)),
        ("chern.discriminant-twist-invariant", lambda: check_chern_twist_invariants(rng, cases)),
        ("ulrich.candidate-permutation-invariant",
         lambda: check_candidate_permutation_invariance(rng, min(cases, 500))),
        ("syzygy.rank-triangle", check_rank_triangle),
        ("syzygy.rank-monotone", check_rank_monotone),
        ("syzygy.drift-constant", lambda: check_drift_constant(seeds)),
        ("syzygy.delta-growth", lambda: check_delta_growth(seeds)),
        ("syzygy.closed-vs-iterate", lambda: check_closed_vs_iterate(seeds)),
        ("syzygy.table-vs-closed", check_table_vs_closed),
        ("ulrich.thresholds", check_ulrich_thresholds),
        ("ulrich.candidates", lambda: check_ulrich_candidates(seeds)),
        ("ulrich.moduli-table", check_moduli_table),
        ("cubic.census", check_cubic_census),
        ("cubic.chi-closed-vs-oracle", check_cubic_chi_oracle),
        ("cubic.decompositions", check_cubic_decompositions),
        ("cubic.moduli-pairs", check_cubic_moduli_pairs),
    ]
    results: list[CheckResult] = []
    for name, fn in plan:
        try:
            results.append(fn())
        except Exception as exc:  # surface the failure, keep the suite going
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
