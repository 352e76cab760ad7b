"""Layer-by-layer and per-subcommand timings of ulrich-lab, as one JSON file.

Usage, from the root of a checkout:

    python3 bench/layers.py --out BENCH_<n>.json [--repeat 7]

``ulrich_lab`` is imported from this checkout's ``src``.  Each row times one
operation on fixed inputs and reports microseconds per operation:

- ``import.<module>``: ``import ulrich_lab`` and ``import ulrich_lab.cli``,
  each timed by its own ``perf_counter`` in a fresh interpreter that puts
  this checkout's ``src`` first on its path (the run stops if the module
  comes from elsewhere), so the cost of the package's import structure shows;
- ``picard.*``: ``dot``, ``+``, ``parse_divisor`` and ``format_divisor`` on
  the 72² sums of two twisted cubics, and ``hash``, ``str`` and ``repr`` of
  a fresh class (one such sum, its memos unset) and of a census class (one
  of the 72 cubics, its memos set), and ``picard.classes_with.<name>``: the
  lattice search ``picard._classes_with`` for the cubic surface's twisted
  cubics, (x.H, x^2) = (3, 1), and lines, (1, -1);
- ``chern.*``: ``tensor`` (rank 2 by rank 3), ``tensor_line``,
  ``twist_by_h`` and ``euler_char`` on the kernel bundles of the cubics;
- ``syzygy.<route>.k<k>``: the six syzygy routes at k = 20, 200 and 1000 on
  the rank-2 Ulrich seed c1 = (5;1,0), c2 = 7 of degree 7
  (``iterate_syzygy`` reads the trace's last row), where
  ``rank_by_recurrence`` and the two closed Chern routes alternate it with
  the rank-3 seed c1 = 3H, because those routes reuse the walk of the last
  (d, r, k), so that each operation walks the rank recurrence from the start;
  ``syzygy.recurrence_triple.k<k>``: those three routes at one (d, r, k), in
  syzygy-deep's order, alternating the seeds the same way; and
  ``syzygy.trace_to_dict.k<k>`` and ``syzygy.discriminant_drift.k<k>``:
  ``SyzygyTrace.to_dict`` and ``discriminant_drift`` of a fresh
  ``iterate_syzygy`` trace of the rank-2 seed, the trace made untimed;
- ``cubic.chi_pair_oracle.all_pairs``: one pass of ``chi_pair_oracle`` over
  the 72² ordered pairs of cubics;
- ``cubic.validate.r3``: ``StableSumDecomposition.validate`` of each of the
  1,440 decompositions of 3H, built untimed;
- ``cubic.decompose_stable_sum.r<r>``: the ordered decompositions of rH
  alternated with those of its neighbour rH - E_1 + E_2, r = 2, 3 and 4
  (the search keeps its last (target, r), so each operation searches); and
  ``cubic.decompose_pair.r<r>``: cubic-search's ordered-then-unordered pair
  at one target, alternating the same two, r = 2 and 3.  A run stops
  unless each of these operations made exactly one search;
- ``checks.<name>``: each check of one ``run_all_checks()``;
- ``cli.<subcommand>.<format>``: one in-process invocation of every
  subcommand in every format, on the fixed arguments of ``CLI_ARGS``.

Every timed interval is measured with ``perf_counter`` after one untimed
warm-up, and rescaled like a ``perfbench`` request: by the mean speed of
``perfbench/worker.py``'s calibration loop right before and right after the
repetition, to a host on which that loop takes ``REFERENCE_CAL_S``.  A row
gives the median and quartiles of its repetitions, rescaled and raw.  The
file records the commit, the machine, the Python version and
``PYTHONDONTWRITEBYTECODE``; the commit is ``"unknown"`` unless the checkout
is the root of its own git work tree, so an archive unpacked inside another
work tree does not record that tree's HEAD.  A check that fails or a
subcommand that exits non-zero stops the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import deque
from itertools import cycle, repeat, starmap
from operator import add
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
# perfbench's calibration loop and machine record, imported without leaving a
# __pycache__ under perfbench/.
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from run import machine  # noqa: E402
from worker import REFERENCE_CAL_S, calibrate  # noqa: E402

sys.dont_write_bytecode = _dont_write_bytecode

import ulrich_lab as U  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from ulrich_lab import checks  # noqa: E402
from ulrich_lab.cli import FORMATS, SEED_FILE_ENV, main as cli_main  # noqa: E402
from ulrich_lab.cubic import _stable_sums  # noqa: E402
from ulrich_lab.picard import _classes_with  # noqa: E402

CLI_ARGS = {
    "sequence": ("--d", "7", "--k-max", "200"),
    "syzygy": ("--d", "7", "--c1-sq", "24", "--c2", "7", "--k-max", "200"),
    "table-moduli": (),
    "table-pairs": (),
    "cubics": (),
    "decompose": ("(9;3,3,3,3,3,3)", "--r", "3"),
    "check": (),
}
# Operations per timed interval: enough that one interval of a fast row takes
# a millisecond or more.
SYZYGY_OPS = {20: 50, 200: 10, 1000: 2}
CLASSES_WITH = {"cubics": (6, 3, 1), "lines": (6, 1, -1)}
CLASSES_WITH_OPS = 20
DECOMPOSE_OPS = {2: 20, 3: 2, 4: 2}
DECOMPOSE_PAIR_OPS = {2: 20, 3: 2}
IMPORTED = ("ulrich_lab", "ulrich_lab.cli")
# Run in a fresh interpreter with argv [src, module]: prints the import's own
# wall seconds, then on the next line the file the module came from.
IMPORT_CHILD = ("import importlib, sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "start = time.perf_counter()\n"
                "module = importlib.import_module(sys.argv[2])\n"
                "print(time.perf_counter() - start)\n"
                "print(module.__file__)\n")

# A group runs once per repetition and returns {row: (wall seconds, ops)}.
Group = Callable[[], dict[str, tuple[float, int]]]


def _consume(iterator) -> None:
    deque(iterator, maxlen=0)


def _row(name: str, ops: int, run: Callable, make: Callable = lambda: None) -> Group:
    """One row: ``run(make())`` does ``ops`` operations; ``make`` is not timed."""
    def group():
        args = make()
        start = perf_counter()
        run(args)
        return {name: (perf_counter() - start, ops)}
    return group


def _import_row(module: str) -> Group:
    src = ROOT / "src"

    def group():
        out = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(src), module],
                             check=True, capture_output=True, text=True).stdout
        wall, origin = out.splitlines()
        if not Path(origin).resolve().is_relative_to(src):
            raise RuntimeError(f"{module} was imported from {origin}, not {src}")
        return {f"import.{module}": (float(wall), 1)}
    return group


def _picard_rows() -> list[Group]:
    census = [t.divisor for t in U.twisted_cubics()]
    xs = [x for x in census for _ in census]
    ys = census * len(census)
    sums = list(map(add, xs, ys))
    texts = list(map(U.format_divisor, sums))

    def fresh():
        return list(map(add, xs, ys))

    n = len(xs)
    rows = [_row("picard.dot", n, lambda _: _consume(map(U.DivisorClass.dot, xs, ys))),
            _row("picard.add", n, lambda _: _consume(map(add, xs, ys))),
            _row("picard.parse_divisor", n, lambda _: _consume(map(U.parse_divisor, texts))),
            _row("picard.format_divisor", n, lambda _: _consume(map(U.format_divisor, sums)))]
    for name, fn in (("hash", hash), ("str", str), ("repr", repr)):
        rows.append(_row(f"picard.{name}.fresh", n,
                         lambda classes, fn=fn: _consume(map(fn, classes)), fresh))
        rows.append(_row(f"picard.{name}.census", n,
                         lambda _, fn=fn: _consume(map(fn, ys))))
    for name, query in CLASSES_WITH.items():
        rows.append(_row(f"picard.classes_with.{name}", CLASSES_WITH_OPS, lambda _, query=query:
                         _consume(starmap(_classes_with, repeat(query, CLASSES_WITH_OPS)))))
    return rows


def _chern_rows() -> list[Group]:
    surface = U.CUBIC_SURFACE
    census = [t.divisor for t in U.twisted_cubics()]
    twos = [U.kernel_bundle_of_cubic(t) for t in census]
    threes = [U.direct_sum((m, U.BundleNumerics(1, t, 0)))
              for m, t in zip(twos, census[1:] + census[:1])]
    twos, threes, lines = twos * 8, threes * 8, census[::-1] * 8
    twists = [m % 7 - 3 for m in range(len(twos))]
    return [_row("chern.tensor", len(threes), lambda _: _consume(map(U.tensor, twos, threes))),
            _row("chern.tensor_line", len(twos),
                 lambda _: _consume(map(U.tensor_line, twos, lines))),
            _row("chern.twist_by_h", len(twos),
                 lambda _: _consume(map(U.twist_by_h, twos, twists, repeat(surface)))),
            _row("chern.euler_char", len(twos),
                 lambda _: _consume(map(U.euler_char, twos, repeat(surface))))]


def _syzygy_rows() -> list[Group]:
    surface = U.make_surface(7)
    seed = U.BundleNumerics(2, U.DivisorClass(5, (1, 0)), 7)
    # rank_by_recurrence and the two closed Chern routes reuse the recurrence
    # walk of the last (d, r, k).  Their operations alternate this seed with a
    # rank-3 one, c1 = 3H, drawn from one cycle across every such row, so each
    # operation walks from the start.
    other = U.BundleNumerics(3, 3 * surface.anticanonical_class, U.ulrich_c2(3, 63, surface))
    alternating = cycle([(seed, U.reduce_numerics(seed)), (other, U.reduce_numerics(other))])
    routes = {
        "rank_by_recurrence": lambda k: U.rank_by_recurrence(7, next(alternating)[0].rank, k),
        "rank_closed_form": lambda k: U.rank_closed_form(7, 2, k),
        "iterate_syzygy": lambda k: U.iterate_syzygy(seed, surface, k).entries[-1],
        "closed_syzygy_chern_numeric":
            lambda k: U.closed_syzygy_chern_numeric(next(alternating)[1], surface, k),
        "closed_syzygy_chern": lambda k: U.closed_syzygy_chern(next(alternating)[0], surface, k),
        "rank_two_table_chern": lambda k: U.rank_two_table_chern(7, 24, 7, k),
        # syzygy-deep's three recurrence-fed calls at one (d, r, k), in its order.
        "recurrence_triple": lambda k: _recurrence_triple(surface, *next(alternating), k),
    }
    rows = [_row(f"syzygy.{name}.k{k}", ops, lambda _, f=f, k=k, ops=ops: _consume(
                 f(k) for _ in range(ops)))
            for name, f in routes.items() for k, ops in SYZYGY_OPS.items()]
    # Fresh traces, made untimed: a trace keeps the rows it has built.
    rows += [_row(f"syzygy.{name}.k{k}", ops,
                  lambda traces, read=read: _consume(map(read, traces)),
                  lambda k=k, ops=ops: [U.iterate_syzygy(seed, surface, k) for _ in range(ops)])
             for name, read in (("trace_to_dict", U.SyzygyTrace.to_dict),
                                ("discriminant_drift", U.discriminant_drift))
             for k, ops in SYZYGY_OPS.items()]
    return rows


def _recurrence_triple(surface, seed, reduced, k: int):
    return (U.rank_by_recurrence(surface.degree, seed.rank, k),
            U.closed_syzygy_chern_numeric(reduced, surface, k),
            U.closed_syzygy_chern(seed, surface, k))


def _cubic_rows() -> list[Group]:
    surface = U.CUBIC_SURFACE
    census = [t.divisor for t in U.twisted_cubics()]
    kernels = [U.kernel_bundle_of_cubic(t) for t in census]

    def oracle_pass(_):
        for m in kernels:
            _consume(map(U.chi_pair_oracle, repeat(m), census, repeat(surface)))

    def pair(target, r):
        U.decompose_stable_sum(target, r)
        U.decompose_stable_sum(target, r, unordered=True)

    decs = U.decompose_stable_sum(U.DivisorClass(9, (3,) * 6), 3)
    rows = [_row("cubic.chi_pair_oracle.all_pairs", 1, oracle_pass),
            _row("cubic.validate.r3", len(decs),
                 lambda _: _consume(map(U.StableSumDecomposition.validate, decs)))]
    rows += [_searching(f"cubic.decompose_stable_sum.r{r}", ops, U.decompose_stable_sum, r)
             for r, ops in DECOMPOSE_OPS.items()]
    rows += [_searching(f"cubic.decompose_pair.r{r}", ops, pair, r)
             for r, ops in DECOMPOSE_PAIR_OPS.items()]
    return rows


def _searching(name: str, ops: int, call: Callable, r: int) -> Group:
    """A row of ``ops`` calls ``call(target, r)`` from an empty search cache,
    the target alternating rH and rH - E_1 + E_2, that stops the run unless
    each call searched once: ``_stable_sums`` keeps the last (target, r), so
    one target would search only on its first call."""
    d = U.DivisorClass
    targets = cycle([d(3 * r, (r,) * 6), d(3 * r, (r + 1, r - 1) + (r,) * 4)])
    timed = _row(name, ops, lambda _: _consume(call(next(targets), r) for _ in range(ops)))

    def group():
        _stable_sums.cache_clear()  # untimed, and zeroes the counts
        walls = timed()
        searches = _stable_sums.cache_info().misses
        if searches != ops:
            raise RuntimeError(f"{name}: {searches} searches in {ops} operations")
        return walls
    return group


def _checks_group() -> dict[str, tuple[float, int]]:
    """Every check of one ``run_all_checks()``, timed by wrapping ``checks.check_one``."""
    walls = {}
    check_one = checks.check_one

    def timed(name, run):
        start = perf_counter()
        result = check_one(name, run)
        walls[f"checks.{name}"] = (perf_counter() - start, 1)
        return result

    checks.check_one = timed
    try:
        results = checks.run_all_checks()
    finally:
        checks.check_one = check_one
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise RuntimeError(f"checks failed: {', '.join(failed)}")
    return walls


def _cli_rows() -> list[Group]:
    runner = CliRunner()

    def invoke(args):
        result = runner.invoke(cli_main, args, env={SEED_FILE_ENV: None}, catch_exceptions=False)
        if result.exit_code != 0:
            raise RuntimeError(f"ulrich-lab {' '.join(args)} exited {result.exit_code}")

    return [_row(f"cli.{command}.{fmt}", 1, invoke,
                 lambda argv=[command, *args, "--format", fmt]: argv)
            for command, args in CLI_ARGS.items() for fmt in FORMATS]


def _machine() -> dict:
    """perfbench's machine record, its commit kept only if ROOT is a work tree's root."""
    record = machine()
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        top = ""
    if not top or Path(top).resolve() != ROOT:
        record["git_commit"] = "unknown"
    return record


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def measure(repeats: int) -> dict[str, dict]:
    """Every row: its operations per interval, and the median and quartiles
    of its repetitions in microseconds per operation, rescaled and raw."""
    groups = [*map(_import_row, IMPORTED), *_picard_rows(), *_chern_rows(), *_syzygy_rows(),
              *_cubic_rows(), _checks_group, *_cli_rows()]
    rows = {}
    for group in groups:
        group()  # warm-up: census memos, caches, first imports
        samples: dict[str, tuple[int, list[float], list[float]]] = {}
        for _ in range(repeats):
            before = calibrate()
            walls = group()
            speed = (1 / before + 1 / calibrate()) / 2
            for name, (wall, ops) in walls.items():
                _, raw, rescaled = samples.setdefault(name, (ops, [], []))
                raw.append(1e6 * wall / ops)
                rescaled.append(1e6 * wall * speed * REFERENCE_CAL_S / ops)
        for name, (ops, raw, rescaled) in samples.items():
            rows[name] = {"ops": ops, "rescaled_us": _quartiles(rescaled),
                          "raw_us": _quartiles(raw)}
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--repeat", type=int, default=7, help="repetitions per row (>= 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = measure(args.repeat)
    record = {"machine": _machine(), "PYTHONDONTWRITEBYTECODE":
              os.environ.get("PYTHONDONTWRITEBYTECODE"), "repeat": args.repeat,
              "reference_cal_s": REFERENCE_CAL_S, "unit": "microseconds per operation",
              "rows": rows}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    width = max(map(len, rows))
    for name, row in rows.items():
        print(f"{name:<{width}}  {row['rescaled_us']['median']:12.2f} us"
              f"  (raw {row['raw_us']['median']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
