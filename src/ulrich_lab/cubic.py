"""Twisted cubic classes on the cubic surface and stable-sum decompositions.

The degree-3 del Pezzo surface carries exactly 72 classes of twisted
cubics: divisor classes T with T.T = 1 and T.H = 3.  Under permutations
of the six exceptional coordinates they form five orbits with
representatives

    A: (1;0,0,0,0,0,0)      orbit size  1
    B: (2;1,1,1,0,0,0)      orbit size 20
    C: (3;2,1,1,1,1,0)      orbit size 30
    D: (4;2,2,2,1,1,1)      orbit size 20
    E: (5;2,2,2,2,2,2)      orbit size  1

Sums T_1 + ... + T_r of twisted cubics whose partial sums satisfy

    (T_1 + ... + T_{j-1}).T_j >= 2j - 1        for j = 2..r

are exactly the first Chern classes of rank-r Ulrich bundles built as
iterated extensions; :func:`decompose_stable_sum` searches for all such
ordered tuples.  The Euler characteristic controlling the extension
spaces has the closed form chi = 2(j-1) - sum of the pairings, checked
against a Riemann-Roch computation in :func:`chi_pair_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .chern import BundleNumerics, dual, euler_char, tensor, tensor_line
from .errors import LatticeMismatch, NotUlrich
from .picard import DelPezzoSurface, DivisorClass, make_surface, sum_classes
from .syzygy import syzygy_numerics
from .ulrich import is_ulrich_candidate

CUBIC_SURFACE = make_surface(3)

_REPRESENTATIVE_COORDS: dict[str, tuple[int, tuple[int, ...]]] = {
    "A": (1, (0, 0, 0, 0, 0, 0)),
    "B": (2, (1, 1, 1, 0, 0, 0)),
    "C": (3, (2, 1, 1, 1, 1, 0)),
    "D": (4, (2, 2, 2, 1, 1, 1)),
    "E": (5, (2, 2, 2, 2, 2, 2)),
}


@dataclass(frozen=True)
class TwistedCubicClass:
    """A twisted cubic class together with its orbit tag."""

    type_tag: str
    divisor: DivisorClass

    def sort_key(self) -> tuple[str, int, tuple[int, ...]]:
        return (self.type_tag, self.divisor.a, self.divisor.b)


def twisted_cubic_representative(tag: str) -> DivisorClass:
    """The standard representative of orbit A, B, C, D or E."""
    a, b = _REPRESENTATIVE_COORDS[tag]
    return DivisorClass(a, b)


@cache
def twisted_cubics() -> tuple[TwistedCubicClass, ...]:
    """All 72 twisted cubic classes, sorted by (type_tag, coordinates)."""
    out: list[TwistedCubicClass] = []
    for tag, (a, b) in _REPRESENTATIVE_COORDS.items():
        for coords in sorted(set(permutations(b))):
            out.append(TwistedCubicClass(tag, DivisorClass(a, coords)))
    return tuple(sorted(out, key=TwistedCubicClass.sort_key))


@cache
def _cubic_coord_index() -> dict[tuple[int, ...], int]:
    """Census index of each cubic, keyed by its tuple (a, b_1, ..., b_6).

    The keys iterate in census order.
    """
    return {(t.divisor.a, *t.divisor.b): i for i, t in enumerate(twisted_cubics())}


def is_twisted_cubic(x: DivisorClass) -> bool:
    """Membership in the set of 72 twisted cubic classes."""
    if x.num_exceptional != CUBIC_SURFACE.num_exceptional:
        raise LatticeMismatch(
            f"class {x} does not live on the cubic surface lattice"
        )
    return (x.a, *x.b) in _cubic_coord_index()


@dataclass(frozen=True)
class StableSumDecomposition:
    """An ordered tuple of twisted cubics summing to the target class."""

    target: DivisorClass
    parts: tuple[TwistedCubicClass, ...]

    def validate(self) -> bool:
        """Recheck the defining sum and partial-pairing inequalities."""
        divisors = [p.divisor for p in self.parts]
        if sum_classes(divisors) != self.target:
            return False
        partial = DivisorClass.zero(6)
        for j, t in enumerate(divisors, start=1):
            if j >= 2 and partial.dot(t) < 2 * j - 1:
                return False
            partial = partial + t
        return True


def decompose_stable_sum(
    target: DivisorClass, r: int, unordered: bool = False
) -> list[StableSumDecomposition]:
    """All ordered r-tuples of twisted cubics with stable partial sums.

    The j-th entry must pair at least 2j - 1 with the sum of its
    predecessors.  Results come back in lexicographic order of the part
    sequences; ``unordered=True`` keeps only the lexicographically least
    valid ordering of each multiset.

    The backtracking runs on plain integer tuples (a, b_1, ..., b_6) and
    census indices, never on :class:`DivisorClass`.  Each of the first
    r - 1 parts is scanned over the 72 cubics, kept only if its pairing
    with the partial sum is large enough and the remainder still fits
    the box that the remaining parts can fill.  The last part is forced
    to equal the remainder, so it is found by one dictionary lookup and
    then given the pairing test.  Result objects are built only for the
    tuples returned; :meth:`StableSumDecomposition.validate` rechecks any
    of them with lattice arithmetic.
    """
    if target.num_exceptional != 6:
        raise LatticeMismatch(f"target {target} does not live on the cubic surface lattice")
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"need r >= 2 parts, got {r!r}")
    if r > 6:
        raise ValueError(f"search capped at r = 6 parts, got {r}")
    if target.degree != 3 * r:
        return []
    index = _cubic_coord_index()
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    # The pairing (a;b).(a';b') = a*a' - sum(b_i*b_i') and the box test are
    # spelled out over the seven coordinates: this loop is the whole cost of
    # the search, and generic zip/sum versions of it run 5-9 times slower.
    def extend(partial: tuple[int, ...], rem: tuple[int, ...]) -> None:
        depth = len(chosen)
        need = 2 * depth + 1
        slots = r - depth - 1
        p0, p1, p2, p3, p4, p5, p6 = partial
        if slots == 0:
            i = index.get(rem)
            if i is not None:
                t0, t1, t2, t3, t4, t5, t6 = rem
                if p0 * t0 - p1 * t1 - p2 * t2 - p3 * t3 - p4 * t4 - p5 * t5 - p6 * t6 >= need:
                    found.append((*chosen, i))
            return
        # Every twisted cubic has a in 1..5 and each b_i in 0..2, so the
        # remainder rem - t is fillable by `slots` of them only inside
        # slots <= a <= 5*slots, 0 <= b_i <= 2*slots.
        m0, m1, m2, m3, m4, m5, m6 = rem
        a_lo, a_hi, w = m0 - 5 * slots, m0 - slots, 2 * slots
        for (t0, t1, t2, t3, t4, t5, t6), i in index.items():
            if not (a_lo <= t0 <= a_hi and m1 - w <= t1 <= m1 and m2 - w <= t2 <= m2
                    and m3 - w <= t3 <= m3 and m4 - w <= t4 <= m4
                    and m5 - w <= t5 <= m5 and m6 - w <= t6 <= m6):
                continue
            if depth and p0 * t0 - p1 * t1 - p2 * t2 - p3 * t3 - p4 * t4 - p5 * t5 - p6 * t6 < need:
                continue
            chosen.append(i)
            extend((p0 + t0, p1 + t1, p2 + t2, p3 + t3, p4 + t4, p5 + t5, p6 + t6),
                   (m0 - t0, m1 - t1, m2 - t2, m3 - t3, m4 - t4, m5 - t5, m6 - t6))
            chosen.pop()

    extend((0,) * 7, (target.a, *target.b))
    if unordered:
        # Census order is sort_key order, so sorted indices name the multiset
        # and index order is the lexicographic order of the part sequences.
        best: dict[tuple[int, ...], tuple[int, ...]] = {}
        for parts in found:
            best.setdefault(tuple(sorted(parts)), parts)
        found = sorted(best.values())
    cubics = twisted_cubics()
    return [StableSumDecomposition(target, tuple(cubics[i] for i in parts)) for parts in found]


def decomposition_to_dict(target: DivisorClass, r: int,
                          decs: list[StableSumDecomposition]) -> dict:
    return {
        "target": str(target),
        "r": r,
        "tuples": [[str(p.divisor) for p in dec.parts] for dec in decs],
        "count": len(decs),
    }


def kernel_bundle_of_cubic(t: DivisorClass) -> BundleNumerics:
    """Numerics (2, -T, 1) of the kernel of evaluation on O(T)."""
    if not is_twisted_cubic(t):
        raise NotUlrich(f"{t} is not a twisted cubic class")
    line = BundleNumerics(1, t, 0)
    return syzygy_numerics(line, euler_char(line, CUBIC_SURFACE))


def chi_pair_closed_form(j: int, pairings: list[int] | tuple[int, ...]) -> int:
    """chi of Hom data against the j-th part: 2(j-1) - sum of pairings.

    ``pairings`` lists T_i.T_j for i < j and must have j - 1 entries.
    """
    if not isinstance(j, int) or j < 1:
        raise ValueError(f"position j must be a positive integer, got {j!r}")
    if len(pairings) != j - 1:
        raise ValueError(f"expected {j - 1} pairings for position {j}, got {len(pairings)}")
    return 2 * (j - 1) - sum(pairings)


def chi_pair_oracle(fprev: BundleNumerics, t: DivisorClass, surface: DelPezzoSurface) -> int:
    """chi(F* (x) M_T) computed through dual, tensor and Riemann-Roch only."""
    return euler_char(tensor(dual(fprev), kernel_bundle_of_cubic(t)), surface)


def cubic_moduli_pair(f: BundleNumerics) -> tuple[BundleNumerics, int]:
    """Partner moduli numerics (2r, -c1, c2 + r) and the shared dimension.

    Both the rank-r space at (c1, c2) and the rank-2r space at
    (-c1, c2 + r) have expected dimension c1^2 - 2 r^2 + 1.
    """
    if f.rank < 2 or not is_ulrich_candidate(f, CUBIC_SURFACE):
        raise NotUlrich(f"{f!r} is not an Ulrich candidate of rank >= 2 on the cubic surface")
    r = f.rank
    partner = BundleNumerics(2 * r, -f.c1, f.c2 + r)
    if f.c2 + r != f.c1_sq - f.c2:
        raise RuntimeError("internal inconsistency: partner c2 should equal c1^2 - c2")
    dim = f.c1_sq - 2 * r * r + 1
    return partner, dim


def twist_partner(base: BundleNumerics, twist: DivisorClass) -> BundleNumerics:
    """Twist a rank-4 partner bundle and recheck its c2 polynomial.

    c2 of the twist is quadratic in the twist class with leading
    coefficient C(4,2) = 6 and cross term 3 c1(base).twist.
    """
    if base.rank != 4:
        raise ValueError(f"expected a rank-4 partner bundle, got rank {base.rank}")
    result = tensor_line(base, twist)
    expected_c2 = 6 * twist.self_intersection + 3 * base.c1.dot(twist) + base.c2
    if result.c2 != expected_c2:
        raise RuntimeError("internal inconsistency: twist c2 is not the expected quadratic")
    return result
