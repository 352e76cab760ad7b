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
    _fields_getstate,
    _fields_setstate,
    _require_int,
    _require_type,
    _trusted_builder,
    make_surface,
)
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

    __slots__ = ("type_tag", "divisor")
    __getstate__ = _fields_getstate
    __setstate__ = _fields_setstate

    type_tag: str
    divisor: DivisorClass

    def sort_key(self) -> tuple[str, int, tuple[int, ...]]:
        return (self.type_tag, self.divisor.a, self.divisor.b)


def twisted_cubic_representative(tag: str) -> DivisorClass:
    """The standard representative of orbit A, B, C, D or E.

    A tag that is not a ``str`` raises ``TypeError``; any other string
    raises ``ValueError``.
    """
    _require_type(tag, (str,), "tag")
    coords = _REPRESENTATIVE_COORDS.get(tag)
    if coords is None:
        raise ValueError(f"tag must be one of {', '.join(_REPRESENTATIVE_COORDS)}, got {tag!r}")
    return DivisorClass(*coords)


@cache
def twisted_cubics() -> tuple[TwistedCubicClass, ...]:
    """All 72 twisted cubic classes, sorted by (type_tag, coordinates)."""
    out: list[TwistedCubicClass] = []
    for tag, (a, b) in _REPRESENTATIVE_COORDS.items():
        for coords in sorted(set(permutations(b))):
            out.append(TwistedCubicClass(tag, DivisorClass(a, coords)))
    return tuple(out)  # tags in order, each tag's coordinates sorted: sort_key order


@cache
def _cubic_coord_index() -> dict[tuple[int, ...], int]:
    """Census index of each cubic, keyed by its tuple (a, b_1, ..., b_6).

    The keys iterate in census order.
    """
    return {(t.divisor.a, *t.divisor.b): i for i, t in enumerate(twisted_cubics())}


@cache
def _pair_table() -> dict[tuple[int, ...], tuple[int, ...]]:
    """Census-index pairs (i, j) with T_i + T_j equal to each sum.

    Keys are the tuples (a, b_1, ..., b_6) of the 1,135 sums of two cubics;
    the 72**2 = 5,184 ordered pairs are listed under their sum in ascending
    (i, j) order, as one flat run (i0, j0, i1, j1, ...), which holds about
    half the memory of a tuple of pairs.  Read it as ``zip(run, run)`` over
    one iterator ``run``.
    """
    coords = list(_cubic_coord_index())
    table: dict[tuple[int, ...], list[int]] = {}
    for i, (s0, s1, s2, s3, s4, s5, s6) in enumerate(coords):
        for j, (t0, t1, t2, t3, t4, t5, t6) in enumerate(coords):
            key = (s0 + t0, s1 + t1, s2 + t2, s3 + t3, s4 + t4, s5 + t5, s6 + t6)
            table.setdefault(key, []).extend((i, j))
    return {key: tuple(run) for key, run in table.items()}


def is_twisted_cubic(x: DivisorClass) -> bool:
    """Membership in the set of 72 twisted cubic classes."""
    _require_type(x, (DivisorClass,), "x")
    if x.num_exceptional != CUBIC_SURFACE.num_exceptional:
        raise LatticeMismatch(
            f"class {x} does not live on the cubic surface lattice"
        )
    return (x.a, *x.b) in _cubic_coord_index()


@dataclass(frozen=True)
class StableSumDecomposition:
    """An ordered tuple of twisted cubics summing to the target class."""

    __slots__ = ("target", "parts")
    __getstate__ = _fields_getstate
    __setstate__ = _fields_setstate

    target: DivisorClass
    parts: tuple[TwistedCubicClass, ...]

    def validate(self) -> bool:
        """Recheck the defining sum and partial-pairing inequalities.

        One pass, on any lattice, on coordinates: the partial sum is carried
        as an int ``a`` and a tuple ``b``, each part's pairing with it is
        tested, and it is compared with the target at the end.  The answers
        are those of ``+``, :meth:`~ulrich_lab.picard.DivisorClass.dot` and
        ``==`` on classes:

        * empty parts raise :class:`LatticeMismatch`, "cannot sum an empty
          family of divisor classes";
        * a part on another lattice than the first raises
          :class:`LatticeMismatch` with the message of ``+``, and a part
          that is no :class:`DivisorClass` raises the ``TypeError`` of
          ``+``; the sum is carried through every part even after a
          pairing fails, so both hold for every order of the parts;
        * one part is compared with the target by ``==``; a target that is
          not exactly a :class:`DivisorClass` is never the sum of two or
          more parts, as under ``==``.
        """
        parts = self.parts
        if not parts:
            raise LatticeMismatch("cannot sum an empty family of divisor classes")
        first = parts[0].divisor
        if len(parts) == 1:
            return first == self.target
        if not isinstance(first, DivisorClass):
            _refuse_addend(type(first), type(parts[1].divisor))
        pa, pb = first.a, first.b
        width = len(pb)
        need = 3  # 2j - 1 at j = 2
        stable = True
        for part in parts[1:]:
            t = part.divisor
            if type(t) is not DivisorClass and not isinstance(t, DivisorClass):
                _refuse_addend(DivisorClass, type(t))
            tb = t.b
            if len(tb) != width:
                raise LatticeMismatch("cannot add classes from different lattices")
            ta = t.a
            if stable:
                stable = pa * ta - sum(map(mul, pb, tb)) >= need
            need += 2
            pa += ta
            pb = tuple(map(add, pb, tb))
        target = self.target
        return stable and type(target) is DivisorClass and pa == target.a and pb == target.b


def _refuse_addend(left: type, right: type) -> None:
    """Raise the ``TypeError`` of ``x + y`` for an ``x`` of type ``left`` and
    a ``y`` of type ``right`` that do not add."""
    raise TypeError(f"unsupported operand type(s) for +: '{left.__name__}' and '{right.__name__}'")


_trusted_decomposition = _trusted_builder(StableSumDecomposition)


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
    r - 2 parts is scanned over the 72 cubics, kept only if its pairing
    with the partial sum is large enough and the remainder still fits
    the box that the remaining parts can fill.  The last two parts are
    forced to sum to the remainder, so they come from one lookup in the
    table of all ordered pairs of cubics keyed by their sum, and each
    listed pair is then given its two pairing tests.  One level up, with
    three parts left, a part whose remainder is no sum of two cubics is
    skipped before the search descends.  Result objects are built only
    for the tuples returned; :meth:`StableSumDecomposition.validate`
    rechecks any of them with its own loop over the coordinates, which
    shares no code with the unrolled loops here.
    """
    _require_type(target, (DivisorClass,), "target")
    if target.num_exceptional != 6:
        raise LatticeMismatch(f"target {target} does not live on the cubic surface lattice")
    _require_int(r, "need r >= 2 parts", lo=2)
    if r > 6:
        raise ValueError(f"search capped at r = 6 parts, got {r}")
    if target.degree != 3 * r:
        return []
    coords = list(_cubic_coord_index())
    pair_table = _pair_table()
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    # The pairing (a;b).(a';b') = a*a' - sum(b_i*b_i') and the box test are
    # spelled out over the seven coordinates: these loops are the cost of
    # the search, and generic zip/sum versions of them run 5-9 times slower.
    def extend(partial: tuple[int, ...], rem: tuple[int, ...]) -> None:
        depth = len(chosen)
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
                    found.append((*chosen, i, j))
            return
        # Every twisted cubic has a in 1..5 and each b_i in 0..2, so the
        # remainder rem - t is fillable by `slots` of them only inside
        # slots <= a <= 5*slots, 0 <= b_i <= 2*slots.
        m0, m1, m2, m3, m4, m5, m6 = rem
        a_lo, a_hi, w = m0 - 5 * slots, m0 - slots, 2 * slots
        for i, (t0, t1, t2, t3, t4, t5, t6) in enumerate(coords):
            if not (a_lo <= t0 <= a_hi and m1 - w <= t1 <= m1 and m2 - w <= t2 <= m2
                    and m3 - w <= t3 <= m3 and m4 - w <= t4 <= m4
                    and m5 - w <= t5 <= m5 and m6 - w <= t6 <= m6):
                continue
            if depth and p0 * t0 - p1 * t1 - p2 * t2 - p3 * t3 - p4 * t4 - p5 * t5 - p6 * t6 < need:
                continue
            rest = (m0 - t0, m1 - t1, m2 - t2, m3 - t3, m4 - t4, m5 - t5, m6 - t6)
            if slots == 2 and rest not in pair_table:
                continue
            chosen.append(i)
            extend((p0 + t0, p1 + t1, p2 + t2, p3 + t3, p4 + t4, p5 + t5, p6 + t6), rest)
            chosen.pop()

    extend((0,) * 7, (target.a, *target.b))
    # extend refers to itself through its closure: drop that cycle, so found,
    # coords and chosen are freed on return rather than at the next collection.
    extend = None
    if unordered:
        # Census order is sort_key order, so sorted indices name the multiset
        # and index order is the lexicographic order of the part sequences.
        best: dict[tuple[int, ...], tuple[int, ...]] = {}
        for parts in found:
            best.setdefault(tuple(sorted(parts)), parts)
        found = sorted(best.values())
    part = twisted_cubics().__getitem__
    return [_trusted_decomposition(target, tuple(map(part, parts))) for parts in found]


def decomposition_to_dict(target: DivisorClass, r: int,
                          decs: list[StableSumDecomposition]) -> dict:
    """The JSON form of a search result; an element of ``decs`` that is no
    :class:`StableSumDecomposition` raises ``TypeError`` naming its index."""
    decs = _as_tuple(decs, "decs")
    for position, dec in enumerate(decs):
        _require_type(dec, (StableSumDecomposition,), f"decs[{position}]")
    return {
        "target": str(target),
        "r": r,
        "tuples": [[str(p.divisor) for p in dec.parts] for dec in decs],
        "count": len(decs),
    }


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
        raise NotUlrich(f"{t} is not a twisted cubic class")
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
        raise ValueError(f"expected {j - 1} pairings for position {j}, got {len(pairings)}")
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
    compares the composition with the closed form on all 72**2 ordered pairs
    and with this function on the 72 diagonal ones; ``.github/oracle_parity.py``
    compares it with this function on every pair.
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

    Both the rank-r space at (c1, c2) and the rank-2r space at
    (-c1, c2 + r) have expected dimension c1^2 - 2 r^2 + 1.
    """
    _require_type(f, _BUNDLE, "f")
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
    _require_type(base, _BUNDLE, "base")
    _require_type(twist, (DivisorClass,), "twist")
    if base.rank != 4:
        raise ValueError(f"expected a rank-4 partner bundle, got rank {base.rank}")
    result = tensor_line(base, twist)
    expected_c2 = 6 * twist.self_intersection + 3 * base.c1.dot(twist) + base.c2
    if result.c2 != expected_c2:
        raise RuntimeError("internal inconsistency: twist c2 is not the expected quadratic")
    return result
