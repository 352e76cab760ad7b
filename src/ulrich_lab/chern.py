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
t = rk(G):

    c2(F(x)G) = C(s,2) c1(G)^2 + s c2(G) + (st-1) c1(F).c1(G)
                + t c2(F) + C(t,2) c1(F)^2        (s, t >= 2)

and, when G is a line bundle,

    c2(F(x)G) = C(s,2) c1(G)^2 + (s-1) c1(F).c1(G) + c2(F).

A product of two line bundles is again a line bundle, so there c2 = 0.

Riemann-Roch on a surface with chi(O) = 1 and K = -H reads

    chi(F) = rk(F) + (c1^2 + c1.H)/2 - c2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence, Union

from .errors import EmptySum, LatticeMismatch, ParityViolation
from .picard import DelPezzoSurface, DivisorClass, _is_int, format_divisor, parse_divisor


@dataclass(frozen=True)
class BundleNumerics:
    """(rank, c1, c2) with the exact first Chern class."""

    rank: int
    c1: DivisorClass
    c2: int

    def __post_init__(self) -> None:
        if (type(self.rank) is not int and not _is_int(self.rank)) or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        if type(self.c2) is not int and not _is_int(self.c2):
            raise TypeError(f"c2 must be an integer, got {self.c2!r}")

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
        return cls(int(data["rank"]), parse_divisor(data["c1"], surface), int(data["c2"]))


@dataclass(frozen=True)
class NumericClassData:
    """Reduced invariants (rank, c1^2, c1.H, c2) of a bundle."""

    rank: int
    c1_sq: int
    c1_dot_h: int
    c2: int

    def __post_init__(self) -> None:
        if (type(self.rank) is not int and not _is_int(self.rank)) or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        for name in ("c1_sq", "c1_dot_h", "c2"):
            value = getattr(self, name)
            if type(value) is not int and not _is_int(value):
                raise TypeError(f"{name} must be an integer")

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "c1_sq": self.c1_sq,
            "c1_dot_H": self.c1_dot_h,
            "c2": self.c2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> NumericClassData:
        return cls(
            int(data["rank"]),
            int(data["c1_sq"]),
            int(data["c1_dot_H"]),
            int(data["c2"]),
        )


AnyNumerics = Union[BundleNumerics, NumericClassData]


def reduce_numerics(f: BundleNumerics) -> NumericClassData:
    """Forget the exact c1, keeping (rank, c1^2, c1.H, c2)."""
    return NumericClassData(f.rank, f.c1_sq, f.c1_dot_h, f.c2)


def tensor_line(f: BundleNumerics, line: DivisorClass) -> BundleNumerics:
    """Twist by the line bundle with first Chern class ``line``."""
    if f.c1.num_exceptional != line.num_exceptional:
        raise LatticeMismatch("twist class lives on a different lattice")
    s = f.rank
    c1 = f.c1 + s * line
    c2 = comb(s, 2) * line.self_intersection + (s - 1) * f.c1.dot(line) + f.c2
    return BundleNumerics(s, c1, c2)


def twist_by_h(f: AnyNumerics, m: int, surface: DelPezzoSurface) -> AnyNumerics:
    """Twist by m copies of the hyperplane class, in either resolution."""
    if isinstance(f, BundleNumerics):
        surface.require(f.c1)
        return tensor_line(f, m * surface.anticanonical_class)
    d = surface.degree
    s = f.rank
    c1_sq = f.c1_sq + 2 * s * m * f.c1_dot_h + s * s * m * m * d
    c1_dot_h = f.c1_dot_h + s * m * d
    c2 = comb(s, 2) * m * m * d + (s - 1) * m * f.c1_dot_h + f.c2
    return NumericClassData(s, c1_sq, c1_dot_h, c2)


def tensor(f: BundleNumerics, g: BundleNumerics) -> BundleNumerics:
    """Numerics of the tensor product F (x) G."""
    if f.c1.num_exceptional != g.c1.num_exceptional:
        raise LatticeMismatch("tensor factors live on different lattices")
    s, t = f.rank, g.rank
    c1 = t * f.c1 + s * g.c1
    cross = f.c1.dot(g.c1)
    if s == 1 and t == 1:
        c2 = 0
    elif t == 1:
        c2 = comb(s, 2) * g.c1_sq + (s - 1) * cross + f.c2
    elif s == 1:
        c2 = comb(t, 2) * f.c1_sq + (t - 1) * cross + g.c2
    else:
        c2 = (
            comb(s, 2) * g.c1_sq
            + s * g.c2
            + (s * t - 1) * cross
            + t * f.c2
            + comb(t, 2) * f.c1_sq
        )
    return BundleNumerics(s * t, c1, c2)


def direct_sum(summands: Iterable[BundleNumerics] | Sequence[BundleNumerics]) -> BundleNumerics:
    """Numerics of a direct sum.  c2 picks up all pairwise c1 products."""
    items = list(summands)
    if not items:
        raise EmptySum("direct sum needs at least one summand")
    arity = items[0].c1.num_exceptional
    for item in items[1:]:
        if item.c1.num_exceptional != arity:
            raise LatticeMismatch("summands live on different lattices")
    rank = sum(item.rank for item in items)
    c1 = items[0].c1
    for item in items[1:]:
        c1 = c1 + item.c1
    c2 = sum(item.c2 for item in items)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            c2 += items[i].c1.dot(items[j].c1)
    return BundleNumerics(rank, c1, c2)


def dual(f: AnyNumerics) -> AnyNumerics:
    """Numerics of the dual bundle: c1 flips sign, c2 is unchanged."""
    if isinstance(f, NumericClassData):
        return NumericClassData(f.rank, f.c1_sq, -f.c1_dot_h, f.c2)
    return BundleNumerics(f.rank, -f.c1, f.c2)


def euler_char(f: AnyNumerics, surface: DelPezzoSurface) -> int:
    """Riemann-Roch: chi(F) = rank + (c1^2 + c1.H)/2 - c2."""
    if isinstance(f, BundleNumerics):
        surface.require(f.c1)
    numerator = f.c1_sq + f.c1_dot_h
    if numerator % 2:
        raise ParityViolation(
            f"c1^2 + c1.H = {numerator} is odd; not realizable on a surface lattice"
        )
    return f.rank * surface.euler_char_structure_sheaf + numerator // 2 - f.c2


def slope(f: AnyNumerics, surface: DelPezzoSurface) -> Fraction:
    """H-slope c1.H / rank as an exact rational."""
    if isinstance(f, BundleNumerics):
        surface.require(f.c1)
    return Fraction(f.c1_dot_h, f.rank)


def discriminant(f: AnyNumerics) -> int:
    """Delta(F) = 2 rk c2 - (rk - 1) c1^2, invariant under line twists."""
    return 2 * f.rank * f.c2 - (f.rank - 1) * f.c1_sq


def expected_moduli_dim(f: AnyNumerics) -> int:
    """Expected dimension Delta(F) - (rk^2 - 1) of the moduli space at F."""
    return discriminant(f) - (f.rank * f.rank - 1)
