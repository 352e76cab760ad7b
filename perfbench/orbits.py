"""Twisted-cubic sums on the cubic surface, enumerated without the library.

The cubic-search workload draws targets T_1 + ... + T_r of uniformly random
twisted cubics.  A target's decomposition count and the size of its search
space depend only on its orbit under permutations of the six exceptional
coordinates, so the workload samples orbits and then permutes.  This module
builds, from the lattice definitions alone:

- the 72 classes T with T.T = 1 and T.H = 3;
- for r = 2 and 3, every orbit of sums of r of them, with its weight (the
  number of ordered r-tuples summing into it), its count of stable ordered
  decompositions and of unordered ones, and ``nodes``, the number of stable
  prefixes whose remainder still fits the box of r - j cubics.

The counts are the independent oracle for ``decompose_stable_sum``; ``nodes``
only orders the sampling frame (see ``workloads.py``).  Regenerate the table
with ``python3 perfbench/orbits.py``.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cache
from pathlib import Path

TABLE_PATH = Path(__file__).with_name("cubic_orbits.json")
T = 6  # exceptional coordinates on the cubic surface

Cls = tuple[int, tuple[int, ...]]


def dot(x: Cls, y: Cls) -> int:
    return x[0] * y[0] - sum(p * q for p, q in zip(x[1], y[1]))


def add(x: Cls, y: Cls) -> Cls:
    return x[0] + y[0], tuple(p + q for p, q in zip(x[1], y[1]))


def sub(x: Cls, y: Cls) -> Cls:
    return x[0] - y[0], tuple(p - q for p, q in zip(x[1], y[1]))


def canonical(x: Cls) -> Cls:
    """Orbit representative under permutations of the exceptional coordinates."""
    return x[0], tuple(sorted(x[1]))


@cache
def cubics() -> tuple[Cls, ...]:
    """All (a;b) with a^2 - |b|^2 = 1 and 3a - sum(b) = 3.

    Cauchy-Schwarz, (3a - 3)^2 <= 6 (a^2 - 1), confines a to 1..5.
    """
    found = []
    for a in range(1, 6):
        budget = a * a - 1

        def fill(prefix: list[int], sq: int) -> None:
            if len(prefix) == T:
                if sq == budget and sum(prefix) == 3 * a - 3:
                    found.append((a, tuple(prefix)))
                return
            bound = int((budget - sq) ** 0.5) + 1
            for c in range(-bound, bound + 1):
                if sq + c * c <= budget:
                    prefix.append(c)
                    fill(prefix, sq + c * c)
                    prefix.pop()

        fill([], 0)
    return tuple(sorted(found))


def _fits(rem: Cls, slots: int) -> bool:
    if slots == 0:
        return rem == (0, (0,) * T)
    return slots <= rem[0] <= 5 * slots and all(0 <= c <= 2 * slots for c in rem[1])


def decompositions(target: Cls, r: int) -> list[tuple[Cls, ...]]:
    """Ordered r-tuples of cubics summing to target with stable partial sums."""
    out: list[tuple[Cls, ...]] = []
    classes = cubics()

    def extend(chosen: list[Cls], partial: Cls, rem: Cls) -> None:
        j = len(chosen)
        if j == r:
            out.append(tuple(chosen))
            return
        for t in classes:
            if j and dot(partial, t) < 2 * j + 1:
                continue
            new_rem = sub(rem, t)
            if _fits(new_rem, r - j - 1):
                chosen.append(t)
                extend(chosen, add(partial, t), new_rem)
                chosen.pop()

    extend([], (0, (0,) * T), target)
    return out


def stable_prefixes(target: Cls, r: int) -> int:
    """Stable prefixes of length 1..r-1 whose remainder still fits the box."""
    count = 0
    classes = cubics()

    def walk(j: int, partial: Cls, rem: Cls) -> None:
        nonlocal count
        if j == r - 1:
            return
        for t in classes:
            if j and dot(partial, t) < 2 * j + 1:
                continue
            new_rem = sub(rem, t)
            if _fits(new_rem, r - j - 1):
                count += 1
                walk(j + 1, add(partial, t), new_rem)

    walk(0, (0, (0,) * T), target)
    return count


def orbit_weights(r: int) -> Counter:
    sums: Counter = Counter({(0, (0,) * T): 1})
    for _ in range(r):
        grown: Counter = Counter()
        for s, m in sums.items():
            for t in cubics():
                grown[add(s, t)] += m
        sums = grown
    weights: Counter = Counter()
    for s, m in sums.items():
        weights[canonical(s)] += m
    return weights


def build_table() -> dict:
    table = {}
    for r in (2, 3):
        rows = []
        for (a, b), weight in sorted(orbit_weights(r).items()):
            decs = decompositions((a, b), r)
            rows.append({
                "a": a,
                "b": list(b),
                "weight": weight,
                "ordered": len(decs),
                "unordered": len({tuple(sorted(d)) for d in decs}),
                "nodes": stable_prefixes((a, b), r),
            })
        table[str(r)] = rows
    return table


@cache
def load_table() -> dict[int, list[dict]]:
    raw = json.loads(TABLE_PATH.read_text(encoding="utf-8"))
    return {int(r): rows for r, rows in raw.items()}


if __name__ == "__main__":
    TABLE_PATH.write_text(json.dumps(build_table(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE_PATH}")
