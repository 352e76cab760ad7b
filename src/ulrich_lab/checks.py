"""Self-check suite: every module invariant as a named, reportable check.

The CLI ``check`` subcommand prints one pass/fail line per property.  Each
check body returns ``(passed, detail)``; the plan of :func:`run_all_checks`
names it once, and :func:`check_one` reports it under that name whether it
passes, fails or raises.  Randomized checks draw from a fixed-seed
generator, so two runs over the same configuration produce identical output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import islice
from math import floor
from typing import Callable, Iterable, Sequence

from . import chern, cubic, picard, syzygy, tables, ulrich
from .chern import AnyNumerics, BundleNumerics, NumericClassData, _trusted_bundle
from .errors import BadSeedFile, UlrichLabError
from .picard import DelPezzoSurface, DivisorClass, _require_int, _trusted, make_surface

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
            _require_int(item[key], f"{where}: {key} must be an integer", BadSeedFile)
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
    """Coordinates uniform in [-span, span], a first, then b_1..b_t.

    The draws are those of ``rng.choices(range(-span, span + 1), k=t + 1)``,
    which picks ``floor(rng.random() * n)`` from a population of n, so the
    stream and every case are unchanged; the coordinates are ints by
    construction (``math.floor`` of a float is an int, and a cheaper call than
    ``int``), so the class is built without the constructor's checks.
    """
    draw, n = rng.random, 2 * span + 1
    a = floor(draw() * n) - span
    b = []  # a loop, not a comprehension, which is a call of its own before 3.12
    for _ in range(t):
        b.append(floor(draw() * n) - span)
    return _trusted(a, tuple(b))


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn as ``rng.randrange(n)`` draws it.

    The body of ``Random._randbelow_with_getrandbits`` on the public
    ``getrandbits``: the same values, and the same generator state after, as
    ``randint(lo, lo + n - 1) - lo``, ``randrange(n)`` and each swap index of
    ``shuffle`` (``_below(rng, i + 1)`` for i = len - 1 down to 1), in one
    frame instead of three.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(rng: random.Random, items: list) -> None:
    """``rng.shuffle(items)``: the same swaps from the same draws."""
    for i in range(len(items) - 1, 0, -1):
        j = _below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def _random_bundle(rng: random.Random, t: int) -> BundleNumerics:
    rank = 1 + _below(rng, 5)  # rng.randint(1, 5)
    c2 = 0 if rank == 1 else _below(rng, 41) - 20  # rng.randint(-20, 20)
    return _trusted_bundle(rank, _random_class(rng, t, 6), c2)


def _random_permutation(rng: random.Random, t: int) -> tuple[int, ...]:
    perm = list(range(1, t + 1))
    _shuffle(rng, perm)
    return tuple(perm)


def check_picard_signature() -> tuple[bool, str]:
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
    return ok, "L^2=1, E_i.E_j=-delta, K^2=H^2=d on " + ", ".join(details)


def check_picard_bilinearity(rng: random.Random, cases: int) -> tuple[bool, str]:
    for _ in range(cases):
        t = 1 + _below(rng, 6)
        x, y, z = _random_class(rng, t), _random_class(rng, t), _random_class(rng, t)
        m = _below(rng, 9) - 4
        if (x + y).dot(z) != x.dot(z) + y.dot(z):
            return False, f"additivity fails on {x},{y},{z}"
        if (m * x).dot(z) != m * x.dot(z):
            return False, f"homogeneity fails on {x},{z}"
        if x.dot(y) != y.dot(x):
            return False, f"symmetry fails on {x},{y}"
    return True, f"{cases} random triples"


def check_picard_permutation(rng: random.Random, cases: int) -> tuple[bool, str]:
    for _ in range(cases):
        t = 1 + _below(rng, 6)
        x, y = _random_class(rng, t), _random_class(rng, t)
        p = _random_permutation(rng, t)
        px, py = picard.permute_exceptionals(x, p), picard.permute_exceptionals(y, p)
        if px.dot(py) != x.dot(y):
            return False, f"pairing moved under {p}"
        identity = tuple(range(1, t + 1))
        if picard.permute_exceptionals(x, identity) != x:
            return False, "identity acted nontrivially"
    return True, f"{cases} random cases"


def check_picard_parser(rng: random.Random, cases: int) -> tuple[bool, str]:
    for _ in range(cases):
        t = 1 + _below(rng, 6)
        x = _random_class(rng, t, 99)
        if picard.parse_divisor(picard.format_divisor(x)) != x:
            return False, f"round trip moved {x}"
    return True, f"{cases} random classes"


def check_chern_tensor_symmetry(rng: random.Random, cases: int) -> tuple[bool, str]:
    for _ in range(cases):
        t = 1 + _below(rng, 6)
        f, g = _random_bundle(rng, t), _random_bundle(rng, t)
        if chern.tensor(f, g) != chern.tensor(g, f):
            return False, f"{f} (x) {g}"
    return True, f"{cases} random pairs"


def check_chern_tensor_associativity(rng: random.Random, cases: int) -> tuple[bool, str]:
    for _ in range(cases):
        t = 1 + _below(rng, 6)
        f, g, h = _random_bundle(rng, t), _random_bundle(rng, t), _random_bundle(rng, t)
        left = chern.tensor(chern.tensor(f, g), h)
        right = chern.tensor(f, chern.tensor(g, h))
        if left != right:
            return False, f"{f}, {g}, {h}"
    return True, f"{cases} random triples"


def check_chern_sum_permutation(rng: random.Random, cases: int) -> tuple[bool, str]:
    for _ in range(cases):
        t = 1 + _below(rng, 6)
        summands = [_random_bundle(rng, t) for _ in range(1 + _below(rng, 4))]
        shuffled = summands[:]
        _shuffle(rng, shuffled)
        if chern.direct_sum(summands) != chern.direct_sum(shuffled):
            return False, f"{summands}"
    return True, f"{cases} random families"


def check_chern_chi_additive(rng: random.Random, cases: int) -> tuple[bool, str]:
    surfaces = [make_surface(d) for d in range(3, 9)]
    for _ in range(cases):
        surface = surfaces[_below(rng, 6)]  # make_surface(rng.randint(3, 8))
        t = surface.num_exceptional
        f, g = _random_bundle(rng, t), _random_bundle(rng, t)
        whole = chern.euler_char(chern.direct_sum([f, g]), surface)
        parts = chern.euler_char(f, surface) + chern.euler_char(g, surface)
        if whole != parts:
            return False, f"{f} + {g} on d={surface.degree}"
    return True, f"{cases} random pairs"


def check_chern_twist_invariants(rng: random.Random, cases: int) -> tuple[bool, str]:
    for _ in range(cases):
        t = 1 + _below(rng, 6)
        f = _random_bundle(rng, t)
        line = _random_class(rng, t, 4)
        twisted = chern.tensor_line(f, line)
        if chern.discriminant(twisted) != chern.discriminant(f):
            return False, f"{f} by {line}"
        if chern.expected_moduli_dim(twisted) != chern.expected_moduli_dim(f):
            return False, f"moduli dim moved for {f} by {line}"
        if chern.discriminant(chern.dual(f)) != chern.discriminant(f):
            return False, f"dual of {f}"
    return True, f"{cases} random twists"


def check_rank_triangle() -> tuple[bool, str]:
    for d in range(4, 9):
        surface = make_surface(d)
        for r in range(1, 6):
            c1_sq = r * r * d
            seed = NumericClassData(r, c1_sq, r * d, ulrich.ulrich_c2(r, c1_sq, surface))
            trace = syzygy.iterate_syzygy(seed, surface, 50)
            by_recurrence = islice(syzygy._recurrence_ranks(d, r), 52)  # N_-1 .. N_50
            for k, by_rec in enumerate(by_recurrence, start=-1):
                by_closed = syzygy.rank_closed_form(d, r, k)
                by_iter = trace.entry(k).rank
                if not by_rec == by_closed == by_iter:
                    return False, f"d={d} r={r} k={k}: {by_rec}, {by_closed}, {by_iter}"
                if d == 4 and by_rec != (2 * k + 3) * r:
                    return False, f"d=4 linear form fails at r={r} k={k}"
    return True, "recurrence = closed form = iteration, d=4..8, r=1..5, k=-1..50"


def check_rank_monotone() -> tuple[bool, str]:
    for d in range(4, 9):
        for r in range(1, 6):
            values = list(islice(syzygy._recurrence_ranks(d, r), 41))  # N_-1 .. N_39
            if any(b <= a for a, b in zip(values, values[1:])):
                return False, f"d={d} r={r}"
    return True, "strictly increasing, d=4..8, r=1..5, k<=39"


def check_drift_constant(seeds: Sequence[Seed]) -> tuple[bool, str]:
    for surface, seed in seeds:
        k_max = 0 if surface.degree == 3 else 12
        trace = syzygy.iterate_syzygy(seed, surface, k_max)
        drift = syzygy.discriminant_drift(trace)
        expected = chern.expected_moduli_dim(seed)
        if any(value != expected for value in drift):
            return False, f"seed {seed} on d={surface.degree}: {drift}"
    return True, f"{len(seeds)} seeds"


def check_delta_growth(seeds: Sequence[Seed]) -> tuple[bool, str]:
    for surface, seed in seeds:
        if surface.degree == 3:
            continue
        trace = syzygy.iterate_syzygy(seed, surface, 12)
        deltas = [entry.delta for entry in trace.entries if entry.k >= 0]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            return False, f"seed {seed} on d={surface.degree}"
    return True, "Delta(S_k) strictly increasing for k >= 0"


def check_closed_vs_iterate(seeds: Sequence[Seed]) -> tuple[bool, str]:
    for surface, seed in seeds:
        k_max = 0 if surface.degree == 3 else 12
        trace = syzygy.iterate_syzygy(seed, surface, k_max)
        reduced = chern.reduce_numerics(seed)
        minus_h = -surface.anticanonical_class
        for k in range(0, k_max + 1):
            twisted = chern.twist_by_h(trace.entry(k).as_numeric(), -1, surface)
            closed = syzygy.closed_syzygy_chern_numeric(reduced, surface, k)
            if closed != twisted:
                return False, f"seed {seed} d={surface.degree} k={k}"
            if isinstance(seed, BundleNumerics):
                c1, c2 = syzygy.closed_syzygy_chern(seed, surface, k)
                bundle = trace.entry(k).as_bundle()
                exact = chern.tensor_line(bundle, minus_h)
                if c1 != exact.c1 or c2 != exact.c2:
                    return False, f"exact mode: seed {seed} d={surface.degree} k={k}"
    return True, f"{len(seeds)} seeds, k <= 12"


def check_table_vs_closed() -> tuple[bool, str]:
    for row in tables.MODULI_DIM_ROWS:
        surface = make_surface(row.degree)
        seed = NumericClassData(2, row.c1_sq, 2 * row.degree, row.c2)
        for k in range(-1, 21):
            table_form = syzygy.rank_two_table_chern(row.degree, row.c1_sq, row.c2, k)
            closed = syzygy.closed_syzygy_chern_numeric(seed, surface, k)
            if table_form != closed:
                return False, f"d={row.degree} c1^2={row.c1_sq} k={k}"
    return True, "all table rows, k = -1..20"


def check_ulrich_thresholds() -> tuple[bool, str]:
    for d in range(3, 9):
        p = ulrich.polarized_data_for(make_surface(d))
        if ulrich.curve_section_genus(p) != 1:
            return False, f"genus at d={d}"
        if not ulrich.butler_semistability_criterion(p):
            return False, f"Butler bound fails at d={d}"
        if ulrich.koszul_criterion(p) != (d >= 4):
            return False, f"Koszul threshold at d={d}"
        if not ulrich.coprime_stability_criterion(p):
            return False, f"coprime criterion at d={d}"
        if ulrich.prioritary_polarization_check(make_surface(d)) >= 0:
            return False, f"H.(K+F) not negative at d={d}"
    return True, "genus 1, Butler, coprime, Koszul iff d>=4, H.(K+F)<0"


def check_ulrich_candidates(seeds: Sequence[Seed]) -> tuple[bool, str]:
    for surface, seed in seeds:
        if not ulrich.is_ulrich_candidate(seed, surface):
            return False, f"{seed} on d={surface.degree}"
        if chern.euler_char(seed, surface) != seed.rank * surface.degree:
            return False, f"h^0 != rank*d for {seed} on d={surface.degree}"
    return True, f"{len(seeds)} seeds"


def check_candidate_permutation_invariance(rng: random.Random, cases: int) -> tuple[bool, str]:
    pool = [
        (surface, numerics)
        for surface, numerics in default_seeds()
        if isinstance(numerics, BundleNumerics)
    ]
    for _ in range(cases):
        surface, numerics = pool[_below(rng, len(pool))]
        p = _random_permutation(rng, surface.num_exceptional)
        moved = _trusted_bundle(
            numerics.rank, picard.permute_exceptionals(numerics.c1, p), numerics.c2
        )
        if not ulrich.is_ulrich_candidate(moved, surface):
            return False, f"{numerics} under {p}"
    return True, f"{cases} random cases"


def check_cubic_census() -> tuple[bool, str]:
    cubics = cubic.twisted_cubics()
    if len(cubics) != 72 or len({t.divisor for t in cubics}) != 72:
        return False, f"{len(cubics)} classes"
    sizes = {tag: 0 for tag in "ABCDE"}
    h = cubic.CUBIC_SURFACE.anticanonical_class
    k = cubic.CUBIC_SURFACE.canonical_class
    for t in cubics:
        sizes[t.type_tag] += 1
        if t.divisor.self_intersection != 1 or t.divisor.dot(h) != 3 or t.divisor.dot(k) != -3:
            return False, f"bad numerics for {t.divisor}"
    if sizes != {"A": 1, "B": 20, "C": 30, "D": 20, "E": 1}:
        return False, f"orbit sizes {sizes}"
    return True, "72 classes, orbits 1/20/30/20/1, T^2=1, T.H=3"


def check_cubic_chi_oracle() -> tuple[bool, str]:
    """The closed chi form against Riemann-Roch on every ordered pair of cubics.

    The oracle of the pair (T_1, T_2) is euler_char(tensor(dual(M_1), M_2))
    for the kernel bundles M_i of the T_i, as in :func:`cubic.chi_pair_oracle`.
    The 72 kernel bundles, and the dual of each row's M_1, are formed once
    rather than once per pair; each row also calls the public oracle on its
    diagonal pair, which must give the value computed here.
    """
    surface = cubic.CUBIC_SURFACE
    divisors = [t.divisor for t in cubic.twisted_cubics()]
    kernels = [cubic.kernel_bundle_of_cubic(t) for t in divisors]
    tensor, euler_char, closed_form = chern.tensor, chern.euler_char, cubic.chi_pair_closed_form
    for i, (t1, m1) in enumerate(zip(divisors, kernels)):
        m1_dual = chern.dual(m1)
        row = [euler_char(tensor(m1_dual, m2), surface) for m2 in kernels]
        if cubic.chi_pair_oracle(m1, t1, surface) != row[i]:
            return False, f"{t1}, {t1}"
        for t2, oracle in zip(divisors, row):
            if closed_form(2, [t1.dot(t2)]) != oracle:
                return False, f"{t1}, {t2}"
    return True, "all 72^2 ordered pairs"


def check_cubic_decompositions() -> tuple[bool, str]:
    rep = cubic.twisted_cubic_representative
    for row in tables.CUBIC_PAIR_ROWS:
        t1, t2 = row.part_divisors()
        target = t1 + t2
        decs = cubic.decompose_stable_sum(target, 2)
        if not any((p.divisor, q.divisor) == (t1, t2) for p, q in (d.parts for d in decs)):
            return False, f"missing pair for {target}"
        if any(not dec.validate() for dec in decs):
            return False, f"invalid tuple for {target}"
    doubled = cubic.decompose_stable_sum(2 * rep("A"), 2)
    if any(p.divisor == q.divisor == rep("A") for p, q in (d.parts for d in doubled)):
        return False, "2*T_A should not decompose through itself"
    return True, "table pairs found, all tuples revalidate"


def cubic_pair_rows() -> list[dict]:
    """One record per golden cubic pair row, recomputed, with its ``match`` flag.

    Five fixed-seed random twists per row recheck the partner's c2
    polynomial and moduli dimension (``twists_match``); ``match`` also asks
    the seed's and partner's expected dimensions to equal the shared one.
    """
    rng = random.Random(0xC0FFEE)
    records = []
    for row in tables.CUBIC_PAIR_ROWS:
        t1, t2 = row.part_divisors()
        seed_c1 = t1 + t2
        seed_c2 = ulrich.ulrich_c2(2, seed_c1.self_intersection, cubic.CUBIC_SURFACE)
        seed = BundleNumerics(2, seed_c1, seed_c2)
        partner, dim = cubic.cubic_moduli_pair(seed)
        twists_ok = True
        for _ in range(5):
            twist = _random_class(rng, 6, 3)
            moved = cubic.twist_partner(partner, twist)
            expected = 6 * twist.self_intersection - 3 * seed_c1.dot(twist) + partner.c2
            twists_ok &= moved.c2 == expected
            twists_ok &= chern.expected_moduli_dim(moved) == dim
        match = (seed_c2 == row.seed_c2 and partner.c2 == row.partner_c2 and dim == row.dim
                 and chern.expected_moduli_dim(seed) == dim
                 and chern.expected_moduli_dim(partner) == dim and twists_ok)
        records.append({"parts": "+".join(row.part_tags), "seed_c1": str(seed_c1),
                        "seed_c2": seed_c2, "partner_c2": partner.c2, "dim": dim,
                        "twists_match": twists_ok, "match": match})
    return records


def check_cubic_moduli_pairs() -> tuple[bool, str]:
    records = cubic_pair_rows()
    for rec in records:
        if not rec["match"]:
            return False, (
                f"row {rec['parts']}: got seed c2={rec['seed_c2']} partner c2={rec['partner_c2']} "
                f"dim={rec['dim']}, twists {'ok' if rec['twists_match'] else 'FAIL'}")
    return True, f"{len(records)} rows, partners, 5 random twists each"


def moduli_table_rows() -> list[dict]:
    """One record per golden moduli row: recomputed c2 and dim, and ``match``."""
    records = []
    for row in tables.MODULI_DIM_ROWS:
        surface = make_surface(row.degree)
        c2 = ulrich.ulrich_c2(2, row.c1_sq, surface)
        dim = chern.expected_moduli_dim(NumericClassData(2, row.c1_sq, 2 * row.degree, c2))
        records.append({"d": row.degree, "c1_sq": row.c1_sq, "c2": c2, "dim": dim,
                        "match": c2 == row.c2 and dim == row.dim})
    return records


def check_moduli_table() -> tuple[bool, str]:
    records = moduli_table_rows()
    for rec in records:
        if not rec["match"]:
            return False, f"d={rec['d']} c1^2={rec['c1_sq']}: got c2={rec['c2']} dim={rec['dim']}"
    return True, f"all {len(records)} rows recomputed"


def check_one(name: str, run: Callable[[], tuple[bool, str]]) -> CheckResult:
    """Run one planned check; its verdict, or a raise, is reported under ``name``.

    Public and named ``check_*``, so a tracer that wraps this module's
    ``check_*`` functions (``perfbench/tracing.py``) labels the check's span.
    """
    try:
        passed, detail = run()
    except Exception as exc:  # surface the failure, keep the suite going
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail)


def run_all_checks(extra_seeds: Iterable[Seed] = ()) -> list[CheckResult]:
    """Run every check in plan order; extra seeds join the seed-driven ones."""
    seeds = default_seeds() + list(extra_seeds)
    rng, cases = random.Random(DEFAULT_RNG_SEED), DEFAULT_CASES
    plan: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
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
    return [check_one(name, run) for name, run in plan]
