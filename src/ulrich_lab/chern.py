"""Chern-class calculus for vector bundle numerics on a del Pezzo surface.

Bundles enter only through their numerical invariants.  Two resolutions
are supported:

* :class:`BundleNumerics` keeps the exact first Chern class as a divisor
  class, so arbitrary twists and tensor products can be formed.
* :class:`NumericClassData` keeps only the reduced data
  (rank, c1^2, c1.H, c2).  This is closed under twisting by multiples of
  the hyperplane class and under the syzygy transform, which is all the
  iteration machinery needs.

The second Chern class of a tensor product comes from the degree-2 part
of the multiplicativity of Chern characters.  With ranks s = rk(F) and
t = rk(G), at every rank:

    c2(F(x)G) = C(s,2) c1(G)^2 + s c2(G) + (st-1) c1(F).c1(G)
                + t c2(F) + C(t,2) c1(F)^2.

A rank-1 factor's c2 counts like any other.  The formula has one source
in the code, ``_product_c2``, on the ranks, the three pairings and the two
c2.  :func:`tensor` and :func:`tensor_line` check their operands and share
one body, ``_product``: a single pass over the coordinates accumulates
c1(F)^2, c1(G)^2 and c1(F).c1(G) and builds c1 = t c1(F) + s c1(G), and
``_product_c2`` gives c2.  :func:`tensor_line` is the line case t = 1,
c2(G) = 0, where it reads C(s,2) c1(G)^2 + (s-1) c1(F).c1(G) + c2(F).
C(s,2) is taken as s(s-1) >> 1, exact since s(s-1) is even, and cheaper
than a call to ``math.comb``.

The Euler pairing chi(F, G) = chi(F* (x) G), which controls the extensions
of :mod:`ulrich_lab.cubic`, has its own kernel, ``_chi_dual_product``.  It
returns the value of ``euler_char(tensor(dual(f), g), surface)`` from one
pass over the coordinates, which accumulates c1(F)^2, c1(G)^2, c1(F).c1(G)
and the degrees c1(F).H and c1(G).H, and it builds no class and no bundle.
The dual is a sign flip on c1(F), so the product's c1^2 and c1.H are
quadratic and linear in those five numbers, its c2 is ``_product_c2`` at
the pairing -c1(F).c1(G), and ``_chi`` below finishes.
:func:`ulrich_lab.cubic.chi_pair_oracle` calls it on one lattice.

A del Pezzo surface is rational, so chi(O) = 1, and it is polarized by
H = -K.  With both built into ``_chi``, Riemann-Roch reads

    chi(F) = rk(F) + (c1^2 + c1.H)/2 - c2.

Along the syzygy iteration the rank N_k, c1.H and the square terms grow
geometrically in k (about 2,300 bits for N_k at d = 7, k = 1000), so the
reduced-data formulas are written with one product of two big integers
each.  Twisting by m H, with s = rk, p = c1.H, d = H^2 and u = 2p + smd:

    c1.H' = p + smd,   c1^2' = c1^2 + sm u,   c2' = c2 + (s-1) m u / 2,

which expands to the textbook 2smp + s^2 m^2 d and C(s,2) m^2 d + (s-1) mp;
the halving is exact because (s-1) m u = 2(s-1) mp + s(s-1) m^2 d.  Likewise

    Delta = 2 rk c2 - (rk-1) c1^2 = rk (2 c2 - c1^2) + c1^2,
    Delta - (rk^2 - 1) = rk (2 c2 - c1^2 - rk) + c1^2 + 1.

Riemann-Roch and the reduced twist have one body each, on plain ints:
``_chi`` (the parity refusal, then chi) and ``_twist`` (the step above).
:func:`euler_char` and :func:`twist_by_h` check and unpack their arguments
and call them.  :func:`ulrich_lab.ulrich.is_ulrich_candidate` calls neither:
its two chi conditions reduce to equations on c1.H and c2.
:func:`ulrich_lab.syzygy.iterate_syzygy` makes no call per step: its loop
writes chi, the kernel and the twist by H out once more on its locals, in
w = 2 c2 - c1^2 for c2, and reaches ``_chi`` only to raise the parity refusal
of its seed.  The exact halvings are
``>> 1`` and the parity test is ``& 1``: for every Python int, negative ones
included, they equal ``// 2`` and ``% 2``, and on integers of thousands of
bits they cost a fraction of the division.

Results are built without re-checking their fields, by ``_trusted_bundle``
and ``_trusted_numeric`` (the contract is in :mod:`ulrich_lab.picard`):
every rank, Chern number and coordinate a function here returns is int
arithmetic on the fields of its operands, which passed a constructor.  What
keeps that sound is the operand test at the top of each public function:
:func:`tensor`, :func:`tensor_line`, :func:`direct_sum`, :func:`dual`,
:func:`reduce_numerics`, :func:`twist_by_h` and :func:`euler_char` refuse an
operand of the wrong type with ``TypeError`` naming the argument, before
reading a field of it, and every function that takes a surface refuses a
non-surface the same way.  A rank-s, rank-t product has rank st >= 1, a sum
or a dual keeps a positive rank, so the rank stays positive as well.  Both
value types keep their fields in ``__slots__``, with no instance
``__dict__``; ``picard._trusted_builder`` makes both builders from the
fields, and pickling and copying use the shared field-state pair of
:mod:`ulrich_lab.picard`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Sequence, Union

from .errors import EmptySum, LatticeMismatch, ParityViolation
from .picard import (
    DelPezzoSurface,
    DivisorClass,
    _as_tuple,
    _fields_getstate,
    _fields_setstate,
    _is_int,
    _require_int,
    _require_keys,
    _require_type,
    _trusted,
    _trusted_builder,
    format_divisor,
    parse_divisor,
)


@dataclass(frozen=True)
class BundleNumerics:
    """(rank, c1, c2) with the exact first Chern class."""

    __slots__ = ("rank", "c1", "c2")
    __getstate__ = _fields_getstate
    __setstate__ = _fields_setstate

    rank: int
    c1: DivisorClass
    c2: int

    def __post_init__(self) -> None:
        _require_int(self.rank, "rank must be a positive integer", lo=1)
        if not isinstance(self.c1, DivisorClass):
            raise TypeError(f"c1 must be a DivisorClass, got {self.c1!r}")
        _require_int(self.c2, "c2 must be an integer", TypeError)

    @property
    def c1_sq(self) -> int:
        return self.c1.self_intersection

    @property
    def c1_dot_h(self) -> int:
        return self.c1.degree

    def to_dict(self) -> dict:
        return {"rank": self.rank, "c1": format_divisor(self.c1), "c2": self.c2}

    @classmethod
    def from_dict(cls, data: dict, surface: DelPezzoSurface | None = None) -> BundleNumerics:
        """The inverse of :meth:`to_dict`; missing keys raise ``ValueError``
        naming them."""
        _require_keys(data, ("rank", "c1", "c2"), "bundle numerics")
        return cls(data["rank"], parse_divisor(data["c1"], surface), data["c2"])


@dataclass(frozen=True)
class NumericClassData:
    """Reduced invariants (rank, c1^2, c1.H, c2) of a bundle."""

    __slots__ = ("rank", "c1_sq", "c1_dot_h", "c2")
    __getstate__ = _fields_getstate
    __setstate__ = _fields_setstate

    rank: int
    c1_sq: int
    c1_dot_h: int
    c2: int

    def __post_init__(self) -> None:
        _check_reduced(self)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "c1_sq": self.c1_sq,
            "c1_dot_H": self.c1_dot_h,
            "c2": self.c2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> NumericClassData:
        """The inverse of :meth:`to_dict`; missing keys raise ``ValueError``
        naming them."""
        _require_keys(data, ("rank", "c1_sq", "c1_dot_H", "c2"), "numeric class data")
        return cls(data["rank"], data["c1_sq"], data["c1_dot_H"], data["c2"])


def _check_reduced(x: NumericClassData) -> None:
    """The field checks of reduced data (rank, c1_sq, c1_dot_h, c2), for any
    value type that carries them."""
    _require_int(x.rank, "rank must be a positive integer", lo=1)
    for name in ("c1_sq", "c1_dot_h", "c2"):
        if not _is_int(getattr(x, name)):
            raise TypeError(f"{name} must be an integer")


AnyNumerics = Union[BundleNumerics, NumericClassData]
_BUNDLE = (BundleNumerics,)
_NUMERICS = (BundleNumerics, NumericClassData)
# What discriminant and expected_moduli_dim accept: anything with rank, c1_sq and c2.
_DUCK_NUMERICS = "BundleNumerics, NumericClassData or TraceEntry"

_trusted_bundle = _trusted_builder(BundleNumerics)
_trusted_numeric = _trusted_builder(NumericClassData)


def reduce_numerics(f: BundleNumerics) -> NumericClassData:
    """Forget the exact c1, keeping (rank, c1^2, c1.H, c2).

    Reduced data passes through as an equal copy.
    """
    _require_type(f, _NUMERICS, "f")
    return _trusted_numeric(f.rank, f.c1_sq, f.c1_dot_h, f.c2)


def tensor_line(f: BundleNumerics, line: DivisorClass) -> BundleNumerics:
    """Twist by the line bundle with first Chern class ``line``."""
    _require_type(f, _BUNDLE, "f")
    _require_type(line, (DivisorClass,), "line")
    c1 = f.c1
    if len(c1.b) != len(line.b):
        raise LatticeMismatch("twist class lives on a different lattice")
    return _product(f.rank, c1, f.c2, 1, line, 0)


def twist_by_h(f: AnyNumerics, m: int, surface: DelPezzoSurface) -> AnyNumerics:
    """Twist by m copies of the hyperplane class, in either resolution."""
    _require_type(surface, (DelPezzoSurface,), "surface")
    _require_int(m, "twist multiple m must be an integer", TypeError)
    _require_type(f, _NUMERICS, "f")
    if isinstance(f, BundleNumerics):
        surface.require(f.c1)
        return tensor_line(f, m * surface.anticanonical_class)
    s = f.rank
    return _trusted_numeric(s, *_twist(s, f.c1_sq, f.c1_dot_h, f.c2, m, surface.degree))


def _twist(s: int, c1_sq: int, p: int, c2: int, m: int, d: int) -> tuple[int, int, int]:
    """(c1^2, c1.H, c2) of a rank-s twist by m H on the degree-d surface.

    The factored step of the module docstring: sm * u is the one product of
    two big integers; (s-1) m u is even, so the halving is exact.
    """
    sm = s * m
    c1_dot_h = p + sm * d
    u = p + c1_dot_h
    smu = sm * u
    return c1_sq + smu, c1_dot_h, c2 + ((smu - m * u) >> 1)


def tensor(f: BundleNumerics, g: BundleNumerics) -> BundleNumerics:
    """Numerics of F (x) G, by the product formula of the module docstring."""
    if type(f) is not BundleNumerics:
        _require_type(f, _BUNDLE, "f")
    if type(g) is not BundleNumerics:
        _require_type(g, _BUNDLE, "g")
    fc, gc = f.c1, g.c1
    if len(fc.b) != len(gc.b):
        raise LatticeMismatch("tensor factors live on different lattices")
    return _product(f.rank, fc, f.c2, g.rank, gc, g.c2)


def _product(s: int, fc: DivisorClass, c2_f: int,
             t: int, gc: DivisorClass, c2_g: int) -> BundleNumerics:
    """F (x) G for rank-s F and rank-t G with first Chern classes fc, gc on
    one lattice and second Chern numbers c2_f, c2_g.

    One pass over the coordinates accumulates the three pairings c1(F)^2,
    c1(G)^2 and c1(F).c1(G) and builds t c1(F) + s c1(G); the all-ranks
    formula of the module docstring then gives c2.
    """
    fa, ga = fc.a, gc.a
    ff, gg, fg = fa * fa, ga * ga, fa * ga
    b = []  # a loop, not a comprehension, which is a call of its own before 3.12
    for u, v in zip(fc.b, gc.b):
        ff -= u * u
        gg -= v * v
        fg -= u * v
        b.append(t * u + s * v)
    return _trusted_bundle(s * t, _trusted(t * fa + s * ga, tuple(b)),
                           _product_c2(s, ff, c2_f, t, gg, c2_g, fg))


def _product_c2(s: int, ff: int, c2_f: int, t: int, gg: int, c2_g: int, fg: int) -> int:
    """c2(F (x) G) by the all-ranks formula of the module docstring, from the
    ranks s, t, the squares ff = c1(F)^2, gg = c1(G)^2, the pairing
    fg = c1(F).c1(G) and the second Chern numbers; its one source."""
    return ((s * (s - 1) >> 1) * gg + s * c2_g + (s * t - 1) * fg
            + t * c2_f + (t * (t - 1) >> 1) * ff)


def _chi_dual_product(f: BundleNumerics, g: BundleNumerics) -> int:
    """chi(F* (x) G) for F and G on one lattice.

    The Euler pairing of F with G, the value of
    ``euler_char(tensor(dual(f), g), surface)``, with no class and no bundle
    built.  One pass over the coordinates accumulates c1(F)^2, c1(G)^2,
    c1(F).c1(G) and the degrees c1(F).H, c1(G).H.  The dual flips the sign
    of c1(F): its square stays, its pairing and its degree change sign.  The
    product F* (x) G then has rank st, c1 = -t c1(F) + s c1(G) with

        c1^2 = t^2 c1(F)^2 - 2st c1(F).c1(G) + s^2 c1(G)^2,
        c1.H = s c1(G).H - t c1(F).H,

    c2 from :func:`_product_c2` at the pairing -c1(F).c1(G), and
    :func:`_chi` gives chi, refusing an odd c1^2 + c1.H as
    :func:`euler_char` does.
    """
    fc, gc = f.c1, g.c1
    fa, ga = fc.a, gc.a
    ff, gg, fg = fa * fa, ga * ga, fa * ga
    fh, gh = 3 * fa, 3 * ga
    for u, v in zip(fc.b, gc.b):
        ff -= u * u
        gg -= v * v
        fg -= u * v
        fh -= u
        gh -= v
    s, t = f.rank, g.rank
    st = s * t
    return _chi(st, t * t * ff - 2 * st * fg + s * s * gg, s * gh - t * fh,
                _product_c2(s, ff, f.c2, t, gg, g.c2, -fg))


def direct_sum(summands: Iterable[BundleNumerics] | Sequence[BundleNumerics]) -> BundleNumerics:
    """Numerics of a direct sum.  c2 picks up all pairwise c1 products.

    Every summand's type is tested first, then each later summand's
    lattice, just before its c1 is paired with the running sum of the
    earlier ones and added to it: sum_{i<j} c1_i.c1_j in one pass.
    """
    items = _as_tuple(summands, "summands")
    if not items:
        raise EmptySum("direct sum needs at least one summand")
    for position, item in enumerate(items):
        if type(item) is not BundleNumerics:
            _require_type(item, _BUNDLE, f"summands[{position}]")
    first = items[0]
    rank, c2, c1 = first.rank, first.c2, first.c1
    a, b = c1.a, c1.b
    arity = len(b)
    for item in items[1:]:
        c1 = item.c1
        ib = c1.b
        if len(ib) != arity:
            raise LatticeMismatch("summands live on different lattices")
        ia = c1.a
        rank += item.rank
        c2 += item.c2 + a * ia - sum(map(mul, b, ib))
        a += ia
        b = tuple(map(add, b, ib))
    return _trusted_bundle(rank, _trusted(a, b), c2)


def dual(f: AnyNumerics) -> AnyNumerics:
    """Numerics of the dual bundle: c1 flips sign, c2 is unchanged."""
    _require_type(f, _NUMERICS, "f")
    if isinstance(f, NumericClassData):
        return _trusted_numeric(f.rank, f.c1_sq, -f.c1_dot_h, f.c2)
    return _trusted_bundle(f.rank, -f.c1, f.c2)


def euler_char(f: AnyNumerics, surface: DelPezzoSurface) -> int:
    """Riemann-Roch: chi(F) = rank + (c1^2 + c1.H)/2 - c2."""
    if type(surface) is not DelPezzoSurface:
        _require_type(surface, (DelPezzoSurface,), "surface")
    if isinstance(f, BundleNumerics):
        c1 = f.c1
        a, b = c1.a, c1.b
        if len(b) != surface.num_exceptional:
            surface.require(c1)  # raises, naming both lattices
        c1_sq, c1_dot_h = a * a - sum(map(mul, b, b)), 3 * a - sum(b)
    else:
        _require_type(f, _NUMERICS, "f")
        c1_sq, c1_dot_h = f.c1_sq, f.c1_dot_h
    return _chi(f.rank, c1_sq, c1_dot_h, f.c2)


def _chi(rank: int, c1_sq: int, c1_dot_h: int, c2: int) -> int:
    """Riemann-Roch of the module docstring on ints; an odd c1^2 + c1.H is refused."""
    numerator = c1_sq + c1_dot_h
    if numerator & 1:
        raise ParityViolation(
            f"c1^2 + c1.H = {numerator} is odd; not realizable on a surface lattice"
        )
    return rank + (numerator >> 1) - c2


def slope(f: AnyNumerics, surface: DelPezzoSurface) -> Fraction:
    """H-slope c1.H / rank as an exact rational."""
    _require_type(surface, (DelPezzoSurface,), "surface")
    _require_type(f, _NUMERICS, "f")
    if isinstance(f, BundleNumerics):
        surface.require(f.c1)
    return Fraction(f.c1_dot_h, f.rank)


def discriminant(f: AnyNumerics) -> int:
    """Delta(F) = 2 rk c2 - (rk - 1) c1^2, invariant under line twists.

    Evaluated as rk (2 c2 - c1^2) + c1^2, one product.  Duck-typed: it reads
    only rank, c1_sq and c2, and :attr:`ulrich_lab.syzygy.TraceEntry.delta`
    passes a trace row.  A value without those fields raises TypeError
    naming ``f``.
    """
    try:
        c1_sq = f.c1_sq
        return f.rank * (2 * f.c2 - c1_sq) + c1_sq
    except AttributeError:
        raise TypeError(f"f must be a {_DUCK_NUMERICS}, got {f!r}") from None


def expected_moduli_dim(f: AnyNumerics) -> int:
    """Expected dimension Delta(F) - (rk^2 - 1) of the moduli space at F.

    Evaluated as rk (2 c2 - c1^2 - rk) + c1^2 + 1, one product.  Duck-typed
    like :func:`discriminant`, for :attr:`ulrich_lab.syzygy.TraceEntry.drift`.
    """
    try:
        rank, c1_sq = f.rank, f.c1_sq
        return rank * (2 * f.c2 - c1_sq - rank) + c1_sq + 1
    except AttributeError:
        raise TypeError(f"f must be a {_DUCK_NUMERICS}, got {f!r}") from None
