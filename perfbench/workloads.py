"""The three seeded, closed-loop workloads and their per-request oracles.

Each workload hands out *blocks*: fixed-composition batches of requests in a
seeded order.  A run executes a fixed number of whole blocks: ``--seconds``
divided by the workload's ``block_seconds`` (one block's rescaled duration at
the commit that defined the benchmark), rounded up.  So every run sees the
stated mix exactly, and two commits are compared on the same sample count,
whatever their speed.  Inside a stratum, the choice that sets a
request's cost (which seed, which target orbit, which ``--k-max``) walks a
frame sorted by a cost proxy along a golden-ratio (Weyl) sequence with a
seeded offset (a fixed one for the r = 3 targets of cubic-search and for
the arguments of cli-session).  Each
draw on its own is distributed as stated, while any prefix of draws covers
the frame evenly, which keeps runs with different seeds comparable.
Cost-neutral choices (permutations of the exceptional coordinates, formats,
whitespace, order within a block) come straight from the seeded generator.

Every request is checked against independent routes; a mismatch raises
:class:`WrongAnswer` and an invalid CLI request that is not cleanly refused
raises :class:`RefusalDefect`.  The library is reached only through
``ulrich_lab.<name>`` lookups at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from bisect import bisect_right
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import accumulate

import ulrich_lab as U
from ulrich_lab import tables

import orbits

GOLDEN = (5 ** 0.5 - 1) / 2


class WrongAnswer(Exception):
    """A route disagreed with its oracle on a valid request."""


class RefusalDefect(Exception):
    """An invalid request was accepted or escaped as a raw exception."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass(frozen=True)
class Request:
    kind: str  # the stratum: k bucket, r, or CLI subcommand / invalid class
    params: tuple


class Frame:
    """Weighted items in a fixed order, drawn along a Weyl sequence.

    With ``strata`` > 1 the unit interval is cut into that many equal parts
    and successive draws visit them in turn, each along its own sequence, so
    every run of ``strata`` draws holds one draw from each part.  The
    sequences start at offsets drawn from ``rng``, or at 1/2 when it is None.
    """

    def __init__(self, items: list, weights: list[int], rng: random.Random | None,
                 strata: int = 1):
        self.items = items
        self.cum = list(accumulate(weights))
        self.offsets = [rng.random() if rng else 0.5 for _ in range(strata)]
        self.drawn = 0

    def draw(self):
        strata = len(self.offsets)
        part, step = self.drawn % strata, self.drawn // strata
        u = (part + (self.offsets[part] + step * GOLDEN) % 1.0) / strata
        self.drawn += 1
        return self.items[bisect_right(self.cum, u * self.cum[-1])]


def own_rank(d: int, r: int, k: int) -> int:
    """N_k by the three-term recurrence, written out independently."""
    prev, cur = r, r * (d - 1)
    for _ in range(k):
        prev, cur = cur, (d - 2) * cur - prev
    return prev if k == -1 else cur


def ulrich_seed_c2(r: int, c1_sq: int, d: int) -> int:
    return r + (c1_sq - r * d) // 2


def moduli_dim(r: int, c1_sq: int, c2: int) -> int:
    return 2 * r * c2 - (r - 1) * c1_sq - (r * r - 1)


def share(items: list, predicate) -> float:
    return sum(1 for x in items if predicate(x)) / len(items) if items else 0.0


# ---------------------------------------------------------------- syzygy-deep

@dataclass(frozen=True)
class SyzygySeed:
    label: str
    d: int
    bundle: U.BundleNumerics
    table_row: bool  # a tables.MODULI_DIM_ROWS row: the rank-2 table route applies

    @property
    def family(self) -> str:
        # On d >= 5 the table route evaluates the quadratic field for every
        # i < k, which costs ten times the other routes together.
        return "quad" if self.table_row and self.d >= 5 else "plain"


def syzygy_seeds() -> list[SyzygySeed]:
    seeds = []
    for row in tables.MODULI_DIM_ROWS:
        c1 = U.parse_divisor(tables.MODULI_ROW_WITNESS_C1[(row.degree, row.c1_sq)])
        seeds.append(SyzygySeed(f"row d={row.degree} c1^2={row.c1_sq}", row.degree,
                                U.BundleNumerics(2, c1, row.c2), True))
    for d in range(4, 9):
        h = U.make_surface(d).anticanonical_class
        # r = 2 with c1 = 2H on d <= 7 repeats a table row.
        for r in ((1, 2, 3) if d == 8 else (1, 3)):
            c2 = ulrich_seed_c2(r, r * r * d, d)
            seeds.append(SyzygySeed(f"rH d={d} r={r}", d, U.BundleNumerics(r, r * h, c2), False))
    return sorted(seeds, key=lambda s: (s.d, s.bundle.rank, s.label))


class SyzygyDeep:
    name = "syzygy-deep"
    buckets = {"k20": (0, 20), "k200": (190, 210), "k1000": (990, 1010)}
    # Requests per block for each (k bucket, seed family).  The quad requests
    # at k ~ 200 (~0.3 s each, within a few per cent of each other) hold the
    # middle ranks, so the median falls inside that cluster; three quad
    # requests at k ~ 1000 per block put twelve of them in a run of four
    # blocks, so the tail is read inside that cluster too.
    block_mix = {("k20", "quad"): 2, ("k20", "plain"): 2, ("k200", "plain"): 2,
                 ("k200", "quad"): 6, ("k1000", "quad"): 3}
    block_seconds = 7.0
    trace_blocks = 2

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seeds = syzygy_seeds()
        self.frames = {}
        for bucket, family in self.block_mix:
            pool = [s for s in self.seeds if s.family == family]
            lo, hi = self.buckets[bucket]
            self.frames[bucket, family] = (Frame(pool, [1] * len(pool), self.rng),
                                           Frame(list(range(lo, hi + 1)), [1] * (hi - lo + 1),
                                                 self.rng))

    def block(self) -> list[Request]:
        out = []
        for (bucket, family), count in self.block_mix.items():
            seeds, ks = self.frames[bucket, family]
            out += [Request(f"{bucket}.{family}", (seeds.draw(), ks.draw())) for _ in range(count)]
        self.rng.shuffle(out)
        return out

    def warm_up(self) -> None:
        picks = [s for s in self.seeds if s.table_row][:1] + self.seeds[-1:]
        for s in picks + [min(self.seeds, key=lambda s: s.d)]:
            self.execute(Request("k20.warm-up", (s, 2)))

    def execute(self, req: Request) -> None:
        seed, k = req.params
        b = seed.bundle
        r, d = b.rank, seed.d
        surface = U.make_surface(d)
        rec = U.rank_by_recurrence(d, r, k)
        expect(rec == U.rank_closed_form(d, r, k), f"{seed.label} k={k}: closed rank form")
        expect(rec == own_rank(d, r, k), f"{seed.label} k={k}: recurrence")
        numeric = U.closed_syzygy_chern_numeric(U.reduce_numerics(b), surface, k)
        expect(numeric.rank == rec, f"{seed.label} k={k}: numeric rank")
        c1, c2 = U.closed_syzygy_chern(b, surface, k)
        expect((c1.self_intersection, c1.degree, c2)
               == (numeric.c1_sq, numeric.c1_dot_h, numeric.c2),
               f"{seed.label} k={k}: exact vs reduced closed form")
        if seed.table_row:
            table = U.rank_two_table_chern(d, b.c1_sq, b.c2, k)
            expect(table == numeric, f"{seed.label} k={k}: table vs closed form")
        trace = U.iterate_syzygy(b, surface, k)
        last = trace.entries[-1]
        expect(last.k == k and last.rank == rec, f"{seed.label} k={k}: iterated rank")
        twisted = U.tensor_line(last.as_bundle(), -surface.anticanonical_class)
        expect((twisted.c1, twisted.c2) == (c1, c2), f"{seed.label} k={k}: iterate vs closed form")
        dim = moduli_dim(r, b.c1_sq, b.c2)
        expect(all(x == dim for x in U.discriminant_drift(trace)),
               f"{seed.label} k={k}: drift not constant")

    def properties(self, requests: list[Request]) -> dict:
        ks = Counter()
        for req in requests:
            k = req.params[1]
            ks[f"{(k // 10) * 10}-{(k // 10) * 10 + 9}"] += 1
        return {"k_histogram": dict(sorted(ks.items(), key=lambda kv: int(kv[0].split("-")[0]))),
                "bucket_mix": dict(Counter(req.kind.split(".")[0] for req in requests)),
                "table_route_share": share(requests, lambda q: q.params[0].table_row)}


# --------------------------------------------------------------- cubic-search

@dataclass(frozen=True)
class OrbitRow:
    a: int
    b: tuple[int, ...]
    ordered: int
    unordered: int


def orbit_frame(r: int, rng: random.Random | None, strata: int = 1) -> Frame:
    rows = sorted(orbits.load_table()[r], key=lambda x: (x["nodes"], x["a"], x["b"]))
    items = [OrbitRow(x["a"], tuple(x["b"]), x["ordered"], x["unordered"]) for x in rows]
    return Frame(items, [x["weight"] for x in rows], rng, strata)


def random_target(row: OrbitRow, rng: random.Random) -> U.DivisorClass:
    """A uniformly random member of the orbit: the sum of r random cubics."""
    b = list(row.b)
    rng.shuffle(b)
    return U.DivisorClass(row.a, tuple(b))


class CubicSearch:
    name = "cubic-search"
    # Each block draws one target from each of 54 (r = 2) and 3 (r = 3)
    # equal-probability slices of the orbit distribution.  r = 3 search times
    # run from 10 ms to 5 s and a run holds only 18 of them, so their orbits
    # follow a fixed walk; the seed still permutes every target's
    # coordinates and orders the requests.
    block_mix = {"r2": 54, "r3": 3}
    block_seconds = 4.4
    trace_blocks = 2

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.frames = {r: orbit_frame(int(r[1]), self.rng if r == "r2" else None,
                                      self.block_mix[r])
                       for r in self.block_mix}
        self.cubic_set = {U.DivisorClass(a, b) for a, b in orbits.cubics()}

    def block(self) -> list[Request]:
        out = []
        for kind, count in self.block_mix.items():
            for _ in range(count):
                row = self.frames[kind].draw()
                out.append(Request(kind, (random_target(row, self.rng), int(kind[1]), row)))
        self.rng.shuffle(out)
        return out

    def warm_up(self) -> None:
        U.twisted_cubics()
        rep = U.twisted_cubic_representative
        target = rep("A") + rep("C")
        self.execute(Request("r2", (target, 2, self.row_of(target, 2))))

    @staticmethod
    def row_of(target: U.DivisorClass, r: int) -> OrbitRow:
        key = orbits.canonical((target.a, target.b))
        for x in orbits.load_table()[r]:
            if (x["a"], tuple(x["b"])) == key:
                return OrbitRow(x["a"], tuple(x["b"]), x["ordered"], x["unordered"])
        raise KeyError(key)

    def execute(self, req: Request) -> None:
        target, r, row = req.params
        ordered = U.decompose_stable_sum(target, r)
        unordered = U.decompose_stable_sum(target, r, unordered=True)
        expect(len(ordered) == row.ordered, f"{target} r={r}: {len(ordered)} ordered tuples, "
                                            f"expected {row.ordered}")
        expect(len(unordered) == row.unordered, f"{target} r={r}: {len(unordered)} unordered "
                                                f"tuples, expected {row.unordered}")
        for dec in ordered + unordered:
            parts = tuple(p.divisor for p in dec.parts)
            expect(dec.target == target and len(parts) == r, f"{target}: malformed tuple")
            expect(all(p in self.cubic_set for p in parts), f"{target}: part is not a cubic")
            expect(dec.validate(), f"{target}: tuple {parts} fails validate()")
        ordered_parts = [tuple(p.divisor for p in dec.parts) for dec in ordered]
        seen = set(ordered_parts)
        expect(len(seen) == len(ordered_parts), f"{target}: repeated ordered tuple")
        expect(all(tuple(p.divisor for p in dec.parts) in seen for dec in unordered),
               f"{target}: unordered result missing from the ordered list")
        pairs = {(t[i], t[j]) for t in ordered_parts for i in range(r) for j in range(i + 1, r)}
        kernels: dict = {}
        for ti, tj in pairs:
            if ti not in kernels:
                kernels[ti] = U.kernel_bundle_of_cubic(ti)
            closed = U.chi_pair_closed_form(2, [ti.dot(tj)])
            oracle = U.chi_pair_oracle(kernels[ti], tj, U.CUBIC_SURFACE)
            expect(closed == oracle, f"chi({ti}, {tj}): closed {closed} vs oracle {oracle}")

    def properties(self, requests: list[Request]) -> dict:
        keys_seen: set = set()
        repeats = 0
        for req in requests:
            target = req.params[0]
            key = (req.params[1], orbits.canonical((target.a, target.b)))
            repeats += key in keys_seen
            keys_seen.add(key)
        return {"r_mix": dict(Counter(req.kind for req in requests)),
                "orbit_repeat_share": repeats / len(requests) if requests else 0.0,
                "no_decomposition_share": share(requests, lambda q: q.params[2].ordered == 0)}


# ---------------------------------------------------------------- cli-session

FORMATS = ("markdown", "csv", "json")
SUPERSCRIPTS = "¹²³"
ARABIC_INDIC = "٠١٢٣٤٥٦٧٨٩"


def cli_syzygy_seeds() -> list[tuple[int, int, int]]:
    """(d, r, c1^2) of Ulrich seeds with c1.H = r*d, as the CLI builds them."""
    seeds = [(row.degree, 2, row.c1_sq) for row in tables.MODULI_DIM_ROWS]
    seeds += [(d, r, r * r * d) for d in range(4, 9) for r in (1, 3)]
    seeds += [(3, 1, 1)]  # a twisted cubic class
    for row in tables.CUBIC_PAIR_ROWS:
        t1, t2 = row.part_divisors()
        seeds.append((3, 2, (t1 + t2).self_intersection))
    return seeds


def divisor_text(x: U.DivisorClass, rng: random.Random) -> str:
    """Divisor text, with the whitespace the format permits sprinkled in."""
    sp = (lambda: " " * rng.randint(0, 1)) if rng.random() < 0.3 else (lambda: "")
    coords = ",".join(f"{sp()}{c}{sp()}" for c in x.b)
    return f"{sp()}({sp()}{x.a}{sp()};{coords}){sp()}"


@dataclass
class CliOutcome:
    code: int
    stdout: str
    error: BaseException | None = None


def invoke(args: tuple[str, ...]) -> CliOutcome:
    """Run ``ulrich-lab ARGS`` in process, as click's standalone mode would.

    A ``ClickException`` is a clean refusal; any other exception escapes, as
    it would reach the user as a raw traceback.
    """
    import click

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            U.cli.main.main(args=list(args), prog_name="ulrich-lab", standalone_mode=False)
        except SystemExit as exc:
            return CliOutcome(exc.code if isinstance(exc.code, int) else 1, out.getvalue())
        except click.ClickException as exc:
            return CliOutcome(exc.exit_code, out.getvalue(), exc)
    return CliOutcome(0, out.getvalue())


def error_class(exc: BaseException) -> str:
    """The library exception behind a click refusal, else the refusal's own class."""
    cause = exc.__cause__
    return type(cause if isinstance(cause, U.UlrichLabError) else exc).__name__


class CliSession:
    name = "cli-session"
    # One session script per seed; each block replays it in a fresh order, so
    # every invocation repeats and its bytes can be compared.  Every format
    # gets the same share of each subcommand.  The cost-setting arguments walk
    # stratified frames from fixed offsets, since a seeded walk moved the
    # median by ±10 %; the seed picks coordinates, whitespace, --r, the
    # invalid forms and the order.
    valid_mix = {"sequence": 12, "syzygy": 15, "table-moduli": 6, "table-pairs": 6,
                 "cubics": 6, "decompose": 27, "check": 1}
    invalid_classes = ("degree-sequence", "degree-syzygy", "k-max-sequence", "k-max-syzygy",
                       "syzygy-d3-k", "divisor-malformed", "divisor-superscript",
                       "divisor-4301-digits", "divisor-non-ascii-digit")
    block_seconds = 5.3
    trace_blocks = 2

    def __init__(self, seed: int):
        import ulrich_lab.cli  # noqa: F401  (click is imported for this workload only)

        self.rng = rng = random.Random(f"{self.name}:{seed}")
        mix = self.valid_mix
        formats = lambda n: [FORMATS[i % 3] for i in range(n)]  # noqa: E731
        # sequence costs ~1 ms per k on d >= 5 and next to nothing on d = 4.
        sequence_args = Frame(sorted(((d, k) for d in range(4, 9) for k in range(201)),
                                     key=lambda dk: (dk[0] > 4) * dk[1]),
                              [1] * (5 * 201), None, mix["sequence"])
        seeds = sorted(cli_syzygy_seeds())
        syzygy_seed = Frame(seeds, [1] * len(seeds), None, mix["syzygy"])
        kmax = Frame(list(range(0, 201)), [1] * 201, None, mix["syzygy"])
        targets = orbit_frame(2, None, mix["decompose"])
        script: list[Request] = []
        for fmt in formats(mix["sequence"]):
            d, k = sequence_args.draw()
            script.append(Request("sequence", ("sequence", "--d", str(d), "--r",
                                               str(rng.randint(1, 3)), "--k-max", str(k),
                                               "--format", fmt)))
        for i, fmt in enumerate(formats(mix["syzygy"])):
            d, r, c1_sq = syzygy_seed.draw()
            k = kmax.draw() if d > 3 else kmax.draw() % 2 - 1
            args = ("syzygy", "--d", str(d), "--r", str(r), "--c1-sq", str(c1_sq),
                    "--k-max", str(k))
            if i % 2:
                args += ("--c2", str(ulrich_seed_c2(r, c1_sq, d)))
            script.append(Request("syzygy", args + ("--format", fmt)))
        for name in ("table-moduli", "table-pairs", "cubics"):
            script += [Request(name, (name, "--format", fmt)) for fmt in formats(mix[name])]
        for i, fmt in enumerate(formats(mix["decompose"])):
            row = targets.draw()
            args = ("decompose", divisor_text(random_target(row, rng), rng), "--r", "2")
            if i % 2:
                args += ("--unordered",)
            script.append(Request("decompose", args + ("--format", fmt, row)))
        script.append(Request("check", ("check", "--format", rng.choice(FORMATS))))
        for cls, fmt in zip(self.invalid_classes, formats(len(self.invalid_classes))):
            script.append(Request("invalid:" + cls, self.invalid_args(cls, rng) + ("--format", fmt)))
        self.script = script
        self.reference: dict[tuple, bytes] = {}  # output digest of each invocation
        self.errors: Counter = Counter()
        self.own_cubics = {f"({a};{','.join(map(str, b))})" for a, b in orbits.cubics()}

    @staticmethod
    def invalid_args(cls: str, rng: random.Random) -> tuple[str, ...]:
        text = str(random_target(OrbitRow(4, (0, 1, 1, 1, 1, 2), 0, 0), rng))
        if cls == "degree-sequence":
            return ("sequence", "--d", str(rng.choice((1, 2, 3, 9, 10))))
        if cls == "degree-syzygy":
            return ("syzygy", "--d", str(rng.choice((0, 1, 2, 9, 12))), "--c1-sq", "8")
        if cls == "k-max-sequence":
            return ("sequence", "--d", str(rng.randint(4, 8)), "--k-max", str(rng.randint(201, 5000)))
        if cls == "k-max-syzygy":
            return ("syzygy", "--d", "5", "--c1-sq", "16", "--k-max", str(rng.randint(201, 5000)))
        if cls == "syzygy-d3-k":
            d, r, c1_sq = rng.choice([s for s in cli_syzygy_seeds() if s[0] == 3])
            return ("syzygy", "--d", "3", "--r", str(r), "--c1-sq", str(c1_sq),
                    "--k-max", str(rng.randint(1, 200)))
        if cls == "divisor-malformed":
            forms = (text[:-1], text.replace(";", ",", 1), text.replace(",", ";", 1),
                     text.rsplit(",", 1)[0] + ")", text + "x", "", "()", "(4;)",
                     text.replace("4", "--4", 1), text.replace("1", "1.0", 1))
            return ("decompose", rng.choice(forms))
        if cls == "divisor-superscript":
            return ("decompose", f"({rng.choice(SUPERSCRIPTS)};1,0,0,0,0,0)")
        if cls == "divisor-4301-digits":
            return ("decompose", "(1" + "0" * 4300 + ";0,0,0,0,0,0)")
        if cls == "divisor-non-ascii-digit":
            digit = rng.randint(1, 2)
            return ("decompose", f"(2;{ARABIC_INDIC[digit]},0,0,0,0,0)")
        raise ValueError(cls)

    def block(self) -> list[Request]:
        out = list(self.script)
        self.rng.shuffle(out)
        return out

    def warm_up(self) -> None:
        # Every subcommand once on its smallest input, plus one refusal.
        # ``check`` has no small input and is left to the timed requests.
        for args in (("sequence", "--d", "5", "--k-max", "2"),
                     ("syzygy", "--d", "4", "--c1-sq", "12", "--k-max", "2"),
                     ("table-moduli",), ("table-pairs",), ("cubics",),
                     ("decompose", "(4;2,1,1,1,1,0)"), ("sequence", "--d", "3")):
            invoke(args)

    def execute(self, req: Request) -> None:
        args = tuple(a for a in req.params if isinstance(a, str))
        if req.kind.startswith("invalid:"):
            try:
                outcome = invoke(args)
            except Exception as exc:  # escapes click: the user sees a raw traceback
                self.errors[type(exc).__name__] += 1
                raise RefusalDefect(f"{req.kind}: raw {type(exc).__name__}: {exc!s:.80}") from exc
            if outcome.code == 0:
                raise RefusalDefect(f"{req.kind}: accepted {args!r:.80}")
            if outcome.error is not None:
                self.errors[error_class(outcome.error)] += 1
            return
        outcome = invoke(args)
        expect(outcome.code == 0, f"{args}: exit {outcome.code}")
        digest = hashlib.sha256(outcome.stdout.encode()).digest()
        expect(self.reference.setdefault(args, digest) == digest,
               f"{args}: output differs from an earlier identical run")
        if args[-1] == "json":
            self.check_json(req, json.loads(outcome.stdout))

    def check_json(self, req: Request, data: dict) -> None:
        args = req.params
        opt = dict(zip(args[1::2], args[2::2])) if req.kind in ("sequence", "syzygy") else {}
        if req.kind == "sequence":
            d, r, k_max = int(opt["--d"]), int(opt["--r"]), int(opt["--k-max"])
            want = [{"k": k, "recurrence": own_rank(d, r, k), "closed_form": own_rank(d, r, k),
                     "match": True} for k in range(k_max + 1)]
            expect(data["rows"] == want, f"{args}: sequence rows")
        elif req.kind == "syzygy":
            d, r, c1_sq = int(opt["--d"]), int(opt["--r"]), int(opt["--c1-sq"])
            dim = moduli_dim(r, c1_sq, ulrich_seed_c2(r, c1_sq, d))
            entries = data["entries"]
            expect([e["k"] for e in entries] == list(range(-1, int(opt["--k-max"]) + 1)),
                   f"{args}: syzygy entries")
            expect(all(e["drift"] == dim and e["rank"] == own_rank(d, r, e["k"]) for e in entries),
                   f"{args}: syzygy drift or rank")
        elif req.kind in ("table-moduli", "table-pairs"):
            expect(data["all_match"] is True, f"{args}: table mismatch")
        elif req.kind == "cubics":
            expect(data["count"] == 72 and {c["class"] for c in data["classes"]} == self.own_cubics,
                   f"{args}: cubic census")
        elif req.kind == "decompose":
            row = req.params[-1]
            want = row.unordered if "--unordered" in args else row.ordered
            expect(data["count"] == want == len(data["tuples"]), f"{args}: decomposition count")
        elif req.kind == "check":
            expect(data["passed"] is True and len(data["results"]) == 23, f"{args}: self-check")

    def properties(self, requests: list[Request]) -> dict:
        kinds = Counter(req.kind.split(":")[0] for req in requests)
        return {"subcommand_mix": dict(Counter(req.params[0] for req in requests)),
                "format_mix": dict(Counter(next(a for a in reversed(req.params) if a in FORMATS)
                                           for req in requests)),
                "invalid_share": kinds["invalid"] / len(requests) if requests else 0.0,
                "repeat_share": 1 - len(self.script) / len(requests) if requests else 0.0}


WORKLOADS = {w.name: w for w in (SyzygyDeep, CubicSearch, CliSession)}
