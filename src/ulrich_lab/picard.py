"""Exact intersection theory on the Picard lattice of a del Pezzo surface.

A del Pezzo surface of degree d (3 <= d <= 8) is the blow-up of the
projective plane in t = 9 - d points in general position.  Its Picard
lattice is free on the line class L and the exceptional classes
E_1, ..., E_t, with

    L.L = 1,    E_i.E_j = -delta_ij,    L.E_i = 0.

A divisor class a*L - b_1*E_1 - ... - b_t*E_t is stored by its coordinate
vector and printed as ``(a;b_1,...,b_t)``.  The pairing of (a;b) with
(a';b') is therefore a*a' - sum(b_i*b_i').  The canonical class is
K = -3L + sum(E_i) = (-3;-1,...,-1), the hyperplane class of the
anticanonical embedding is H = -K = (3;1,...,1) with H.H = d, and
F = L - E_1 = (1;1,0,...,0) is the fiber class of a conic bundle
structure.

All arithmetic uses Python integers, which never overflow, so large
coordinates are exact and safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadPermutation, DegreeOutOfRange, LatticeMismatch, ParseError

MIN_DEGREE = 3
MAX_DEGREE = 8


def _is_int(value: object) -> bool:
    """True for Python integers, excluding ``bool`` (an ``int`` subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class DivisorClass:
    """Coordinates (a; b_1, ..., b_t) of the class a*L - sum(b_i * E_i)."""

    a: int
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(self.b))
        # Plain ints skip the helper call: this constructor is on every hot path.
        if type(self.a) is not int and not _is_int(self.a):
            raise TypeError(f"coordinate a must be an integer, got {self.a!r}")
        for entry in self.b:
            if type(entry) is not int and not _is_int(entry):
                raise TypeError(f"coordinate {entry!r} is not an integer")

    @classmethod
    def zero(cls, num_exceptional: int) -> DivisorClass:
        return cls(0, (0,) * num_exceptional)

    @property
    def num_exceptional(self) -> int:
        return len(self.b)

    def dot(self, other: DivisorClass) -> int:
        """Intersection number a*a' - sum(b_i*b_i')."""
        if self.num_exceptional != other.num_exceptional:
            raise LatticeMismatch(
                f"classes have {self.num_exceptional} and "
                f"{other.num_exceptional} exceptional coordinates"
            )
        return self.a * other.a - sum(x * y for x, y in zip(self.b, other.b))

    @property
    def self_intersection(self) -> int:
        return self.dot(self)

    @property
    def degree(self) -> int:
        """Pairing with the hyperplane class H = (3;1,...,1)."""
        return 3 * self.a - sum(self.b)

    def __add__(self, other: DivisorClass) -> DivisorClass:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if self.num_exceptional != other.num_exceptional:
            raise LatticeMismatch("cannot add classes from different lattices")
        return DivisorClass(self.a + other.a, tuple(x + y for x, y in zip(self.b, other.b)))

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> DivisorClass:
        return DivisorClass(-self.a, tuple(-x for x in self.b))

    def __mul__(self, scalar: int) -> DivisorClass:
        if not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(scalar * self.a, tuple(scalar * x for x in self.b))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_divisor(self)


@dataclass(frozen=True)
class DelPezzoSurface:
    """Del Pezzo surface of degree d, polarized by the anticanonical class."""

    degree: int

    def __post_init__(self) -> None:
        if not isinstance(self.degree, int) or not MIN_DEGREE <= self.degree <= MAX_DEGREE:
            raise DegreeOutOfRange(
                f"degree must be an integer in [{MIN_DEGREE}, {MAX_DEGREE}], got {self.degree!r}"
            )

    @property
    def num_exceptional(self) -> int:
        return 9 - self.degree

    @property
    def euler_char_structure_sheaf(self) -> int:
        """chi(O_X) = 1 for every rational surface."""
        return 1

    @property
    def canonical_class(self) -> DivisorClass:
        return DivisorClass(-3, (-1,) * self.num_exceptional)

    @property
    def anticanonical_class(self) -> DivisorClass:
        return DivisorClass(3, (1,) * self.num_exceptional)

    # The anticanonical class is the polarization throughout.
    hyperplane_class = anticanonical_class

    @property
    def fiber_class(self) -> DivisorClass:
        """F = L - E_1, the fiber of a conic bundle structure.  F.F = 0."""
        return DivisorClass(1, (1,) + (0,) * (self.num_exceptional - 1))

    @property
    def line_class(self) -> DivisorClass:
        return DivisorClass(1, (0,) * self.num_exceptional)

    def exceptional_class(self, i: int) -> DivisorClass:
        """The class E_i, 1-based."""
        if not 1 <= i <= self.num_exceptional:
            raise LatticeMismatch(f"exceptional index {i} outside 1..{self.num_exceptional}")
        coords = [0] * self.num_exceptional
        coords[i - 1] = -1
        return DivisorClass(0, tuple(coords))

    def zero_class(self) -> DivisorClass:
        return DivisorClass.zero(self.num_exceptional)

    def contains(self, x: DivisorClass) -> bool:
        return x.num_exceptional == self.num_exceptional

    def require(self, x: DivisorClass) -> DivisorClass:
        if not self.contains(x):
            raise LatticeMismatch(
                f"class {x} has {x.num_exceptional} exceptional coordinates, "
                f"surface of degree {self.degree} needs {self.num_exceptional}"
            )
        return x


def make_surface(degree: int) -> DelPezzoSurface:
    """Construct the degree-d del Pezzo surface, 3 <= d <= 8."""
    return DelPezzoSurface(degree)


def intersect(x: DivisorClass, y: DivisorClass, surface: DelPezzoSurface | None = None) -> int:
    """Intersection pairing of two divisor classes.

    When a surface is supplied, both classes are checked to live on it.
    """
    if surface is not None:
        surface.require(x)
        surface.require(y)
    return x.dot(y)


def permute_exceptionals(x: DivisorClass, p: Sequence[int]) -> DivisorClass:
    """Apply the permutation E_i -> E_{p[i-1]} to the coordinates of x.

    ``p`` lists the 1-based images of 1..t and must be a bijection.  The
    pairing is invariant under this action.
    """
    t = x.num_exceptional
    perm = tuple(p)
    if sorted(perm) != list(range(1, t + 1)):
        raise BadPermutation(f"{perm!r} is not a bijection of 1..{t}")
    coords = [0] * t
    for source, image in enumerate(perm):
        coords[image - 1] = x.b[source]
    return DivisorClass(x.a, tuple(coords))


def format_divisor(x: DivisorClass) -> str:
    """Render ``(a;b_1,...,b_t)`` with no whitespace."""
    return f"({x.a};{','.join(str(c) for c in x.b)})"


def parse_divisor(text: str, surface: DelPezzoSurface | None = None) -> DivisorClass:
    """Parse ``(a;b_1,...,b_t)``.

    Integers are an optional sign followed by ASCII digits 0-9; whitespace
    is permitted around every token.  Malformed input raises
    :class:`ParseError` carrying the offending character position.  When a
    surface is supplied the number of exceptional coordinates must match.
    """
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def integer() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        first_digit = pos
        while pos < n and text[pos] in "0123456789":
            pos += 1
        if pos == first_digit:
            raise ParseError("expected an integer", start)
        try:
            return int(text[start:pos])
        except ValueError:  # longer than the interpreter's int-string limit
            raise ParseError("integer too long", start) from None

    expect("(")
    a = integer()
    expect(";")
    coords = [integer()]
    skip_ws()
    while pos < n and text[pos] == ",":
        pos += 1
        coords.append(integer())
        skip_ws()
    expect(")")
    skip_ws()
    if pos != n:
        raise ParseError("trailing characters", pos)
    result = DivisorClass(a, tuple(coords))
    if surface is not None and not surface.contains(result):
        raise ParseError(
            f"expected {surface.num_exceptional} exceptional coordinates, got {len(coords)}",
            len(text),
        )
    return result


def sum_classes(classes: Iterable[DivisorClass]) -> DivisorClass:
    """Sum a non-empty iterable of classes on a common lattice."""
    items = list(classes)
    if not items:
        raise LatticeMismatch("cannot sum an empty family of divisor classes")
    total = items[0]
    for item in items[1:]:
        total = total + item
    return total
