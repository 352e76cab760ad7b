"""Twisted cubic classes on the cubic surface and stable-sum decompositions.

A twisted cubic on the cubic surface is a class T = (a;b) with T.H = 3 and
T.T = 1.  :func:`twisted_cubics` lists the 72 by ``picard._classes_with``, a
search bounded by those two equations.  The tag is "ABCDE"[a - 1], and a tag's
representative is its member with b descending.  So the tags are the orbits
under permutations of the six exceptional coordinates:

    A: (1;0,0,0,0,0,0)      orbit size  1
    B: (2;1,1,1,0,0,0)      orbit size 20
    C: (3;2,1,1,1,1,0)      orbit size 30
    D: (4;2,2,2,1,1,1)      orbit size 20
    E: (5;2,2,2,2,2,2)      orbit size  1

Sums T_1 + ... + T_r of twisted cubics whose partial sums satisfy

    (T_1 + ... + T_{j-1}).T_j >= 2j - 1        for j = 2..r

are exactly the first Chern classes of rank-r Ulrich bundles built as
iterated extensions; :func:`decompose_stable_sum` searches for all such
ordered tuples.  There is one search per (target, r): ``_stable_sums``, a
one-entry cache, keeps the last one as r census-index bytes per tuple
(9.6 MB at 5H, r = 5), so the ordered and the unordered call at one
(target, r) share it.  The cache is consulted after the guards, so a
refused call leaves it unchanged.  :meth:`StableSumDecomposition.validate`
rechecks a tuple with its own pass over the coordinates, which shares no
code with the search; on this lattice it is written out over the seven
coordinates, as the search is.  The Euler characteristic controlling the
extension spaces has the closed form chi = 2(j-1) - sum of the pairings,
checked against a Riemann-Roch computation in :func:`chi_pair_oracle`,
whose kernel ``chern._chi_dual_product`` is written out over the seven
coordinates too.

The rank-2r partner of an Ulrich F and the kernel bundle M_T of a cubic are
both the first syzygy bundle S_0 = ker(H^0(F) (x) O -> F).
"""

from __future__ import annotations

__all__ = [
    "CUBIC_SURFACE",
    "StableSumDecomposition",
    "TwistedCubicClass",
    "chi_pair_closed_form",
    "chi_pair_oracle",
    "cubic_moduli_pair",
    "decompose_stable_sum",
    "decomposition_to_dict",
    "is_twisted_cubic",
    "kernel_bundle_of_cubic",
    "twist_partner",
    "twisted_cubic_representative",
    "twisted_cubics",
]

from dataclasses import dataclass
from functools import cache, lru_cache
from operator import add, mul

from .chern import (
    BundleNumerics,
    _BUNDLE,
    _chi_dual_product,
    dual,
    euler_char,
    tensor,
    tensor_line,
)
from .errors import LatticeMismatch, NotUlrich
from .picard import (
    DelPezzoSurface,
    DivisorClass,
    _as_tuple,
    _classes_with,
    _require_int,
    _require_type,
    _shown,
    _trusted_builder,
    _Value,
    make_surface,
)
from .syzygy import syzygy_numerics
from .ulrich import is_ulrich_candidate

CUBIC_SURFACE = make_surface(3)


@dataclass(frozen=True)
class TwistedCubicClass(_Value):
    """A twisted cubic class together with its orbit tag."""

    __slots__ = ("type_tag", "divisor")

    type_tag: str
    divisor: DivisorClass

    def __post_init__(self) -> None:
        _require_type(self.type_tag, (str,), "type_tag")
        _require_type(self.divisor, (DivisorClass,), "divisor")

    def sort_key(self) -> tuple[str, int, tuple[int, ...]]:
        return (self.type_tag, self.divisor.a, self.divisor.b)


def twisted_cubic_representative(tag: str) -> DivisorClass:
    """The representative of tag A, B, C, D or E, its last member in census
    order: the one with b in descending order.  A tag that is not a ``str``
    raises ``TypeError``; any other string raises ``ValueError``."""
    _require_type(tag, (str,), "tag")
    representatives = {t.type_tag: t.divisor for t in twisted_cubics()}
    if tag not in representatives:
        raise ValueError(f"tag must be one of {', '.join(representatives)}, "
                         f"got {_shown(tag)}")
    return representatives[tag]


@cache
def twisted_cubics() -> tuple[TwistedCubicClass, ...]:
    """All 72 twisted cubic classes, sorted by (type_tag, coordinates)."""
    return tuple(TwistedCubicClass("ABCDE"[a - 1], DivisorClass(a, b))
                 for a, b in _classes_with(6, 3, 1))  # ascending (a, b): tag order


@cache
def _cubic_coord_index() -> dict[tuple[int, ...], int]:
    """Census index of each cubic, keyed by (a, b_1, ..., b_6) in census order."""
    return {(t.divisor.a, *t.divisor.b): i for i, t in enumerate(twisted_cubics())}


@cache
def _census_box() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """The census coordinates (a, b_1, ..., b_6) in census order, and their
    least and greatest value on each coordinate: the box of every cubic."""
    coords = tuple(_cubic_coord_index())
    return coords, tuple(map(min, *coords)), tuple(map(max, *coords))


@cache
def _pair_table() -> dict[tuple[int, ...], tuple[int, ...]]:
    """Census-index pairs (i, j) with T_i + T_j equal to each sum.

    Keys are the tuples (a, b_1, ..., b_6) of the 1,135 sums of two cubics;
    the 72**2 = 5,184 ordered pairs are listed under their sum in ascending
    (i, j) order, as one flat run (i0, j0, i1, j1, ...), which holds about
    half the memory of a tuple of pairs.  Read it as ``zip(run, run)`` over
    one iterator ``run``.
    """
    coords = _census_box()[0]
    table: dict[tuple[int, ...], list[int]] = {}
    for i, (s0, s1, s2, s3, s4, s5, s6) in enumerate(coords):
        for j, (t0, t1, t2, t3, t4, t5, t6) in enumerate(coords):
            key = (s0 + t0, s1 + t1, s2 + t2, s3 + t3, s4 + t4, s5 + t5, s6 + t6)
            table.setdefault(key, []).extend((i, j))
    return {key: tuple(run) for key, run in table.items()}


def is_twisted_cubic(x: DivisorClass) -> bool:
    """Membership in the set of 72 twisted cubic classes."""
    _require_type(x, (DivisorClass,), "x")
    CUBIC_SURFACE.require(x)
    return (x.a, *x.b) in _cubic_coord_index()


@dataclass(frozen=True)
class StableSumDecomposition(_Value):
    """An ordered tuple of twisted cubics summing to the target class."""

    __slots__ = ("target", "parts")

    target: DivisorClass
    parts: tuple[TwistedCubicClass, ...]

    def __post_init__(self) -> None:
        _require_type(self.target, (DivisorClass,), "target")
        parts = self.parts
        if type(parts) is not tuple:
            parts = _as_tuple(parts, "parts")
            object.__setattr__(self, "parts", parts)
        for i, part in enumerate(parts):
            _require_type(part, (TwistedCubicClass,), f"parts[{i}]")

    def validate(self) -> bool:
        """Recheck the defining sum and partial-pairing inequalities.

        One pass on coordinates: each part's pairing with the partial sum
        is tested, the part is added to it, and the sum is compared with the
        target at the end.  On the cubic lattice, six exceptional
        coordinates, the partial sum is seven local ints and each pairing
        is written out over them; on any other lattice it is an int ``a``
        and a tuple ``b``, paired by a loop.  The sum is carried through
        every part even after a pairing fails, so each refusal below holds
        for every order of the parts:

        * empty parts raise :class:`LatticeMismatch`, "cannot sum an empty
          family of divisor classes";
        * a part on another lattice than the first raises
          :class:`LatticeMismatch` with the message of ``+``;
        * one part is compared with the target by ``==``; a target whose
          type is a subclass of :class:`DivisorClass` is never the sum of
          two or more parts, as under ``==``.
        """
        parts = self.parts
        if not parts:
            raise LatticeMismatch("cannot sum an empty family of divisor classes")
        first = parts[0].divisor
        if len(parts) == 1:
            return first == self.target
        pa, pb = first.a, first.b
        width = len(pb)
        need = 3  # 2j - 1 at j = 2
        stable = True
        target = self.target
        if width == 6:
            # The cubic lattice, written out: the loop below, without the
            # zip/map/tuple calls that cost most of it at seven coordinates.
            p1, p2, p3, p4, p5, p6 = pb
            for part in parts[1:]:
                t = part.divisor
                tb = t.b
                if len(tb) != 6:
                    raise LatticeMismatch("cannot add classes from different lattices")
                ta = t.a
                t1, t2, t3, t4, t5, t6 = tb
                if stable:
                    stable = (pa * ta - p1 * t1 - p2 * t2 - p3 * t3 - p4 * t4 - p5 * t5
                              - p6 * t6 >= need)
                need += 2
                pa += ta
                p1 += t1
                p2 += t2
                p3 += t3
                p4 += t4
                p5 += t5
                p6 += t6
            return (stable and type(target) is DivisorClass and pa == target.a
                    and target.b == (p1, p2, p3, p4, p5, p6))
        for part in parts[1:]:
            t = part.divisor
            tb = t.b
            if len(tb) != width:
                raise LatticeMismatch("cannot add classes from different lattices")
            ta = t.a
            if stable:
                stable = pa * ta - sum(map(mul, pb, tb)) >= need
            need += 2
            pa += ta
            pb = tuple(map(add, pb, tb))
        return stable and type(target) is DivisorClass and pa == target.a and pb == target.b


_trusted_decomposition = _trusted_builder(StableSumDecomposition)


def decompose_stable_sum(
    target: DivisorClass, r: int, unordered: bool = False
) -> list[StableSumDecomposition]:
    """All ordered r-tuples of twisted cubics with stable partial sums.

    The j-th entry must pair at least 2j - 1 with the sum of its
    predecessors.  Results come back in lexicographic order of the part
    sequences; ``unordered=True`` keeps only the lexicographically least
    valid ordering of each multiset.  ``CUBIC_SURFACE.require`` refuses a
    target on another lattice, and r must be an int in 2..6 (``ValueError``).

    The search itself is :func:`_stable_sums`, a one-entry cache keyed on
    the target's coordinates (a, b_1, ..., b_6) and r, so the ordered and
    the unordered call at one (target, r) search once.  It is consulted
    only after the guards and the degree test, so a refused call, or a
    target whose degree is not 3r, leaves it unchanged.  It keeps r bytes
    per tuple of the last search (9.6 MB at 5H, r = 5), and the result
    objects are built fresh on each call, on the caller's ``target``.
    :meth:`StableSumDecomposition.validate` rechecks any of them with its
    own pass over the coordinates, which shares no code with the search.
    """
    _require_type(target, (DivisorClass,), "target")
    CUBIC_SURFACE.require(target)
    _require_int(r, "number of parts r must be an integer in [2, 6]", lo=2, hi=6)
    if target.degree != 3 * r:
        return []
    run = _stable_sums((target.a, *target.b), r)
    part = twisted_cubics().__getitem__
    if unordered:
        # Census order is sort_key order, so sorted indices name the multiset
        # and index order is the lexicographic order of the part sequences.
        # The run is already in that order: the first ordering met of each
        # multiset is its least, and the kept orderings stay in order.
        best: dict[tuple[int, ...], tuple[int, ...]] = {}
        for indices in zip(*[iter(run)] * r):
            multiset = tuple(sorted(indices))
            if multiset not in best:
                best[multiset] = indices
        return [_trusted_decomposition(target, tuple(map(part, indices)))
                for indices in best.values()]
    # zip over r references to one iterator reads the run r parts at a time.
    return [_trusted_decomposition(target, parts) for parts in zip(*[map(part, run)] * r)]


@lru_cache(maxsize=1)
def _stable_sums(start: tuple[int, ...], r: int) -> bytes:
    """The stable r-tuples of cubics summing to ``start`` = (a, b_1, ..., b_6).

    One flat run of census indices, r per tuple, the tuples in
    lexicographic order; each index is below 72, so a tuple costs r bytes.
    :func:`decompose_stable_sum` calls it after its guards, with r an int
    in 2..6 and a target of degree 3r.

    The backtracking runs on plain integer tuples and census indices, never
    on :class:`DivisorClass`.  Each of the first r - 2 parts is scanned over
    the 72 cubics, kept only if its pairing with the partial sum is large
    enough and the remainder still fits the box that the remaining parts can
    fill.  The last two parts are forced to sum to the remainder, so they
    come from one lookup in the table of all ordered pairs of cubics keyed
    by their sum, and each listed pair is then given its two pairing tests.
    One level up, with three parts left, a part whose remainder is no sum of
    two cubics is skipped before the search descends.  Each node builds its
    prefix of chosen indices once, and each found tuple is that prefix and
    its last two indices, appended to one ``bytearray``.
    """
    coords, low, high = _census_box()
    pair_table = _pair_table()
    found = bytearray()
    put_prefix, put = found.extend, found.append

    # The pairing (a;b).(a';b') = a*a' - sum(b_i*b_i') and the box test are
    # spelled out over the seven coordinates: these loops are the cost of
    # the search, and generic zip/sum versions of them run 5-9 times slower.
    def extend(partial: tuple[int, ...], rem: tuple[int, ...], prefix: bytes) -> None:
        depth = len(prefix)
        need = 2 * depth + 1
        slots = r - depth - 1
        p0, p1, p2, p3, p4, p5, p6 = partial
        if slots == 1:
            last_need = need + 2
            run = iter(pair_table.get(rem, ()))
            for i, j in zip(run, run):
                t0, t1, t2, t3, t4, t5, t6 = coords[i]
                if depth and p0 * t0 - p1 * t1 - p2 * t2 - p3 * t3 - p4 * t4 - p5 * t5 - p6 * t6 < need:
                    continue
                u0, u1, u2, u3, u4, u5, u6 = coords[j]
                if ((p0 + t0) * u0 - (p1 + t1) * u1 - (p2 + t2) * u2 - (p3 + t3) * u3
                        - (p4 + t4) * u4 - (p5 + t5) * u5 - (p6 + t6) * u6 >= last_need):
                    put_prefix(prefix)
                    put(i)
                    put(j)
            return
        # Every cubic lies in the census's box low <= T <= high, so `slots` of them
        # fill the remainder rem - T only if slots*low <= rem - T <= slots*high.
        m0, m1, m2, m3, m4, m5, m6 = rem
        l0, l1, l2, l3, l4, l5, l6 = [m - slots * hi for m, hi in zip(rem, high)]
        h0, h1, h2, h3, h4, h5, h6 = [m - slots * lo for m, lo in zip(rem, low)]
        for i, (t0, t1, t2, t3, t4, t5, t6) in enumerate(coords):
            if not (l0 <= t0 <= h0 and l1 <= t1 <= h1 and l2 <= t2 <= h2 and l3 <= t3 <= h3
                    and l4 <= t4 <= h4 and l5 <= t5 <= h5 and l6 <= t6 <= h6):
                continue
            if depth and p0 * t0 - p1 * t1 - p2 * t2 - p3 * t3 - p4 * t4 - p5 * t5 - p6 * t6 < need:
                continue
            rest = (m0 - t0, m1 - t1, m2 - t2, m3 - t3, m4 - t4, m5 - t5, m6 - t6)
            if slots == 2 and rest not in pair_table:
                continue
            extend((p0 + t0, p1 + t1, p2 + t2, p3 + t3, p4 + t4, p5 + t5, p6 + t6), rest,
                   prefix + bytes((i,)))

    extend((0,) * 7, start, b"")
    # extend refers to itself through its closure: drop that cycle, so found
    # is freed on return rather than at the next collection.
    extend = None
    return bytes(found)


def decomposition_to_dict(target: DivisorClass, r: int,
                          decs: list[StableSumDecomposition]) -> dict:
    """The JSON form of a search result.

    An element of ``decs`` that is no :class:`StableSumDecomposition` raises
    ``TypeError`` naming ``decs[i]``; its constructor has checked its parts.
    """
    decs = _as_tuple(decs, "decs")
    tuples = []
    for i, dec in enumerate(decs):
        if type(dec) is not StableSumDecomposition:
            _require_type(dec, (StableSumDecomposition,), f"decs[{i}]")
        tuples.append([str(p.divisor) for p in dec.parts])
    return {"target": str(target), "r": r, "tuples": tuples, "count": len(decs)}


def kernel_bundle_of_cubic(t: DivisorClass) -> BundleNumerics:
    """Numerics (2, -T, 1) of the kernel of evaluation on O(T).

    The type test of ``t`` runs here, before the memo of the body hashes its
    argument, so an unhashable value is refused by name like any other.
    """
    if type(t) is not DivisorClass:
        _require_type(t, (DivisorClass,), "t")
    return _kernel_bundle_of_cubic(t)


@cache
def _kernel_bundle_of_cubic(t: DivisorClass) -> BundleNumerics:
    """The memoised body of :func:`kernel_bundle_of_cubic`, for a checked ``t``.

    Only the 72 twisted cubics get an entry, since any other class raises
    (and exceptions are not cached).
    """
    if not is_twisted_cubic(t):
        raise NotUlrich(f"{_shown(t, str)} is not a twisted cubic class")
    line = BundleNumerics(1, t, 0)
    return syzygy_numerics(line, euler_char(line, CUBIC_SURFACE))


def chi_pair_closed_form(j: int, pairings: list[int] | tuple[int, ...]) -> int:
    """chi of Hom data against the j-th part: 2(j-1) - sum of pairings.

    ``pairings`` lists T_i.T_j for i < j and must have j - 1 entries.
    """
    _require_int(j, "position j must be a positive integer", lo=1)
    if type(pairings) is not list and type(pairings) is not tuple:
        pairings = _as_tuple(pairings, "pairings")
    if len(pairings) != j - 1:
        raise ValueError(f"expected {_shown(j - 1)} pairings for position {_shown(j)}, "
                         f"got {len(pairings)}")
    for pairing in pairings:
        if type(pairing) is not int:
            _require_int(pairing, "pairings must be integers", TypeError)
    return 2 * (j - 1) - sum(pairings)


def chi_pair_oracle(fprev: BundleNumerics, t: DivisorClass, surface: DelPezzoSurface) -> int:
    """chi(F* (x) M_T) by Riemann-Roch on the numerics of F* (x) M_T.

    The guards run in the order surface, fprev, t, then the memoised body of
    :func:`kernel_bundle_of_cubic` refuses a class that is no twisted cubic.
    On one lattice the value comes from the Euler-pairing kernel
    ``chern._chi_dual_product``, one pass over the coordinates that builds no
    class and no bundle.  Otherwise the composition
    ``euler_char(tensor(dual(fprev), M_T), surface)`` runs, and raises its own
    :class:`LatticeMismatch`.  :func:`ulrich_lab.checks.check_cubic_chi_oracle`
    compares this function with the closed form on all 72**2 ordered pairs of
    cubics, and both with the composition on T_A's row;
    ``tests/test_cubic.py::TestEulerPairingKernel::test_all_ordered_pairs``
    compares the three on every pair.
    """
    if type(surface) is not DelPezzoSurface:
        _require_type(surface, (DelPezzoSurface,), "surface")
    if type(fprev) is not BundleNumerics:
        _require_type(fprev, _BUNDLE, "fprev")
    if type(t) is not DivisorClass:
        _require_type(t, (DivisorClass,), "t")
    kernel = _kernel_bundle_of_cubic(t)  # t is checked: skip the public wrapper
    width = len(fprev.c1.b)
    if width != len(kernel.c1.b) or width != surface.num_exceptional:
        return euler_char(tensor(dual(fprev), kernel), surface)  # raises
    return _chi_dual_product(fprev, kernel)


def cubic_moduli_pair(f: BundleNumerics) -> tuple[BundleNumerics, int]:
    """Partner moduli numerics (2r, -c1, c2 + r) and the shared dimension.

    The partner is S_0 of f, ``syzygy_numerics(f, chi(f))``: chi = 3r and
    c1^2 = 2 c2 + r on Ulrich data, so S_0 has rank 2r and c2 = c1^2 - c2 = c2 + r.
    Both the rank-r space at (c1, c2) and the rank-2r space at
    (-c1, c2 + r) have expected dimension c1^2 - 2 r^2 + 1.
    """
    _require_type(f, _BUNDLE, "f")
    if f.rank < 2 or not is_ulrich_candidate(f, CUBIC_SURFACE):
        raise NotUlrich(f"{_shown(f)} is not an Ulrich candidate of rank >= 2 on the cubic surface")
    return syzygy_numerics(f, euler_char(f, CUBIC_SURFACE)), f.c1_sq - 2 * f.rank ** 2 + 1


def twist_partner(base: BundleNumerics, twist: DivisorClass) -> BundleNumerics:
    """Twist a rank-4 partner bundle by the line bundle of ``twist``.

    c2 of the twist is quadratic in the twist class with leading coefficient
    C(4,2) = 6 and cross term 3 c1(base).twist, as ``checks.cubic_pair_rows`` tests.
    """
    _require_type(base, _BUNDLE, "base")
    _require_type(twist, (DivisorClass,), "twist")
    if base.rank != 4:
        raise ValueError(f"expected a rank-4 partner bundle, got rank {_shown(base.rank)}")
    return tensor_line(base, twist)
