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

Trusted construction.  Each value type checks its fields in its constructor,
the path of every user value (every coordinate is an ``int``, never a
``bool``), and its readers do not check them again.  A value formed by int
arithmetic on fields that were already checked is an int again, so checking
it a second time proves nothing.  Such results are built by private builders
that skip the checks: ``_trusted`` here for :class:`DivisorClass`, and
``_trusted_bundle``, ``_trusted_numeric``, ``_trusted_entry`` and
``_trusted_decomposition`` beside their types in ``chern``, ``syzygy`` and
``cubic``.  :func:`_trusted_builder` makes each one from its class, taking
the fields by name and in field order.  A kernel (below) that returns a
class or a bundle builds it in its own frame instead, exactly as the
builder does: ``object.__new__``, then each field's slot setter in field
order, the memo slots left unset.  Both read the names :func:`_building`
gives them, the one place that reads a value type's field slots, and the
contract below covers the values they build alike.

The contract of every builder: only library code calls it, only with ints
computed from checked values (coordinates, positive ranks, Chern numbers,
counts) or drawn as ints by the self-check's random generator, and only
with classes, numerics and cubics that are themselves checked or trusted.
That is safe because each public function that builds its result this way
first tests the type of its operands with :func:`_require_type`, which
accepts subclasses and raises ``TypeError`` naming the argument, so an
operand's fields are known to have passed a constructor.  An inline
``type(x) is Cls`` test runs first only where the ~150 ns it saves per hit
(at the benchmark's reference speed) comes to at least 0.1 % of some
``perfbench`` workload's request time, or where one call makes enough hits
to time: at both operands of ``chern.tensor``, the summands of
``direct_sum`` and the surface of ``euler_char``; at the pairings of
``cubic.chi_pair_closed_form``, the operands of ``chi_pair_oracle`` and the
class of ``kernel_bundle_of_cubic``; at the class and images of
:func:`permute_exceptionals`; and at the elements of
``cubic.decomposition_to_dict``, under 0.1 % of cli-session, but 53-61 ms
against 77-101 ms for an eager ``_require_type`` with its ``f"decs[{i}]"``
name on the 51,264 results of ``decompose (12;4,4,4,4,4,4) --r 4``
(min-median of 11 alternating runs, Python 3.11, shared 2-vCPU Xeon VM).

Kernel tables.  The integer arithmetic of the lattice primitives runs in
straight-line bodies, one per lattice width, that a :class:`_KernelTable`
generates from a template through the ``exec`` helper it shares with
:func:`_trusted_builder`.  A table maps a width to its kernel.  Widths
0..8 cover every del Pezzo lattice (t = 9 - d <= 6); each one's body is
built and stored the first time it is used, not at import.  A wider width
gets the table's ``loop``, that primitive's one loop, and stores nothing,
so only this module knows the bound.  ``_PAIRING``, ``_SQUARE`` and
``_SUM`` here serve :meth:`DivisorClass.dot`, ``self_intersection``, ``+``,
``chern.direct_sum``, ``euler_char`` and ``cubic``'s ``validate``, and
``_PERMUTE`` scatters the coordinates of :func:`permute_exceptionals`;
``chern`` builds ``_PRODUCT`` and ``_CHI_DUAL``, and ``checks`` builds its
case draws, ``_DRAW``, ``_BUNDLE_DRAW`` and ``_PERMUTATION_DRAW``.  The last
four have no loop and raise ``IndexError`` past width 8: their callers
never pass more than six coordinates.  Callers keep their guards, messages
and signatures, and index a table only for the int arithmetic on widths
they have checked.  A kernel raises nothing of its own, and its values
equal its table's loop's at every width (``_CHI_DUAL`` ends in
``chern._chi``, whose parity refusal no class meets).  The kernels of
``_PERMUTE``, ``_PRODUCT``, ``_DRAW`` and ``_BUNDLE_DRAW`` build the class
or bundle they return in their own frame, as ``chern.direct_sum`` builds
its sum, so no builder frame follows them; a table's loop calls the
builders.
In the self-check's draws and products, the loop, ``append``, ``zip``/``map``
and ``tuple()`` cost more than the arithmetic; the tables took
``run_all_checks()`` from 103 to 91 ms of process time (min of 9 runs,
median of 7 alternating pairs, Python 3.11, shared 2-vCPU Xeon VM).
Building in the kernel's frame, with the permutation's scatter and the
checks' shuffle written out and each case draw one kernel call, took it
from 92.8 to 85.4 ms (same method, 8 alternating pairs).  A builder frame
costs about 15 ns; the ``object.__new__`` and slot-setter calls it wraps
cost about 250 ns per class and 340 ns per bundle, and stay.

Slots.  The hot value types (:class:`DivisorClass`, ``BundleNumerics``,
``NumericClassData``, ``TraceEntry``, ``TwistedCubicClass`` and
``StableSumDecomposition``) declare ``__slots__`` in the class body, one
slot per field, so their instances have no ``__dict__``: a field read is
a fixed-offset load, and an instance is smaller.  A trusted builder makes
the instance with ``object.__new__`` and sets each field through its slot's
member-descriptor ``__set__``, in field order: :func:`_trusted_builder` binds
the setters once and generates the body unrolled, one call per field, as
``dataclasses`` generates ``__init__``.  That skips only the dataclass
``__init__`` and its checks, and leaves the instance the checked constructor
leaves.  The frozen ``__setattr__`` guards attribute assignment, not the
descriptors, so assigning to a field, or to any other name, still raises
``FrozenInstanceError``.  All six subclass :class:`_Value`, the one place
their pickle and copy state is decided: the dict of fields in field order,
the form pickles of these types have always had, written back past the
frozen ``__setattr__``.  A trusted result is therefore an ordinary
instance, the same under ``==``, ``hash``, ``repr``, ``fields()``,
``asdict``, pickling (every protocol), copying and ``dataclasses.replace``
(which runs the checks).  Instances take no weak references.

A class is immutable: only ``__post_init__``, ``_trusted`` and the
kernels that build a class in their own frame write ``a`` and ``b``, and
all do so before the instance is shared.  That is what lets
``hash(x)``, ``str(x)`` and ``repr(x)`` be computed once, on first use, and
kept in three slots that are not fields, ``_hash_memo``, ``_text_memo`` and
``_repr_memo``; they stay unset until then.  ``repr`` joins the other two
because every decomposition ``cubic`` returns shares the 72 census classes,
and a message that formats a tuple of parts calls ``repr`` on each: the
dataclass ``repr``, behind ``reprlib.recursive_repr``, rebuilt its text in
1.4-1.9 us a call, against about 0.1 us for a memo read.  The memoised text
is the dataclass text, subclasses included, and an int past the int-string
limit raises ``ValueError`` and leaves the memo unset.  ``==``,
``fields()`` and ``asdict`` never see the memos, and pickling and copying
carry only ``a`` and ``b`` (int-tuple hashes differ between 32- and 64-bit
builds).
"""

from __future__ import annotations

__all__ = [
    "DelPezzoSurface",
    "DivisorClass",
    "format_divisor",
    "intersect",
    "make_surface",
    "parse_divisor",
    "permute_exceptionals",
]

import re
from dataclasses import dataclass
from itertools import islice
from math import isqrt
from operator import add, mul, neg, sub
from typing import Callable, Iterator, Sequence

from .errors import BadPermutation, DegreeOutOfRange, LatticeMismatch, ParseError

MIN_DEGREE = 3
MAX_DEGREE = 8
_DEGREE_RANGE = f"degree must be an integer in [{MIN_DEGREE}, {MAX_DEGREE}]"
_RANK_RULE = "rank must be a positive integer"


def _is_int(value: object) -> bool:
    """True for Python integers, excluding ``bool`` (an ``int`` subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _shown(value: object, show: Callable[[object], str] = repr) -> str:
    """``show(value)`` for a refusal text, cut after 200 characters, or its type
    when ``show`` raises ``ValueError`` (an int past the int-string limit)."""
    try:
        text = show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"
    return text if len(text) <= 200 else text[:200] + "..."


def _require_type(value: object, types: tuple[type, ...], name: str) -> None:
    """Raise ``TypeError(f"{name} must be a <type>, got {_shown(value)}")``
    unless value is an instance of one of ``types``.

    Subclasses pass, anything else is refused before a field of it is read;
    the module docstring names the calls that test ``type(x) is Cls`` first.
    """
    if not isinstance(value, types):
        expected = " or ".join(cls.__name__ for cls in types)
        raise TypeError(f"{name} must be a {expected}, got {_shown(value)}")


def _require_int(value: object, message: str, exc: type[Exception] = ValueError,
                 lo: int | None = None, hi: int | None = None) -> None:
    """Raise ``exc(f"{message}, got {_shown(value)}")`` unless value is an int in [lo, hi].

    The one guard for integer arguments: ``bool``, floats and strings are
    refused like out-of-range integers, with the caller's exception class.
    An exact ``int`` is accepted without the call to :func:`_is_int`.
    """
    if ((type(value) is int or _is_int(value))
            and (lo is None or value >= lo) and (hi is None or value <= hi)):
        return
    raise exc(f"{message}, got {_shown(value)}")


def _as_tuple(values: object, name: str, limit: int | None = None) -> tuple:
    """``tuple(values)``, or ``TypeError(f"{name} must be iterable, got ...")``
    when values is not iterable at all.  Given a ``limit``, an iterable
    without ``__len__``, which may never end, is read to ``limit`` items at
    most."""
    try:
        iterator = iter(values)
    except TypeError:
        raise TypeError(f"{name} must be iterable, got {_shown(values)}") from None
    if limit is not None and not hasattr(values, "__len__"):
        iterator = islice(iterator, limit)
    return tuple(iterator)


def _require_keys(data: dict, keys: tuple[str, ...], what: str) -> None:
    """Raise ``ValueError(f"{what} is missing key(s) ...")`` naming every key
    of ``keys`` that ``data`` lacks, in the order of ``keys``."""
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} is missing key(s) {', '.join(missing)}")


class _Value:
    """Base of the slotted frozen value types: the one place their pickle and
    copy state is decided."""

    __slots__ = ()

    def __getstate__(self) -> dict:
        """The state: the fields, in field order."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __setstate__(self, state: dict) -> None:
        """Restore a state of :meth:`__getstate__`, past the frozen ``__setattr__``."""
        for name, value in state.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DivisorClass(_Value):
    """Coordinates (a; b_1, ..., b_t) of the class a*L - sum(b_i * E_i)."""

    # The fields, then the hash, text and repr memos (not fields: not annotated).
    __slots__ = ("a", "b", "_hash_memo", "_text_memo", "_repr_memo")

    a: int
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.b
        if type(b) is not tuple:
            b = _as_tuple(b, "b")
            object.__setattr__(self, "b", b)
        _require_int(self.a, "coordinate a must be an integer", TypeError)
        for entry in b:
            if not _is_int(entry):
                raise TypeError(f"coordinate {_shown(entry)} is not an integer")

    @classmethod
    def zero(cls, num_exceptional: int) -> DivisorClass:
        return cls(0, (0,) * num_exceptional)

    @property
    def num_exceptional(self) -> int:
        return len(self.b)

    def dot(self, other: DivisorClass) -> int:
        """Intersection number a*a' - sum(b_i*b_i')."""
        b, other_b = self.b, other.b
        width = len(b)
        if width != len(other_b):
            raise LatticeMismatch(
                f"classes have {width} and {len(other_b)} exceptional coordinates"
            )
        return _PAIRING[width](self.a, b, other.a, other_b)

    @property
    def self_intersection(self) -> int:
        b = self.b
        return _SQUARE[len(b)](self.a, b)

    @property
    def degree(self) -> int:
        """Pairing with the hyperplane class H = (3;1,...,1)."""
        return 3 * self.a - sum(self.b)

    def __add__(self, other: DivisorClass) -> DivisorClass:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        b, other_b = self.b, other.b
        width = len(b)
        if width != len(other_b):
            raise LatticeMismatch("cannot add classes from different lattices")
        return _trusted(self.a + other.a, _SUM[width](b, other_b))

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if len(self.b) != len(other.b):
            raise LatticeMismatch("cannot subtract classes from different lattices")
        return _trusted(self.a - other.a, tuple(map(sub, self.b, other.b)))

    def __neg__(self) -> DivisorClass:
        return _trusted(-self.a, tuple(map(neg, self.b)))

    def __mul__(self, scalar: int) -> DivisorClass:
        if not _is_int(scalar):
            return NotImplemented
        return _trusted(scalar * self.a, tuple(map(scalar.__mul__, self.b)))

    __rmul__ = __mul__

    # Defined in the class body, so @dataclass keeps it; the value is the one
    # the generated __hash__ gives, hash((a, b)).  An unset memo slot raises
    # AttributeError, once per instance.
    def __hash__(self) -> int:
        try:
            return self._hash_memo
        except AttributeError:
            h = hash((self.a, self.b))
            _set_hash_memo(self, h)
            return h

    def __str__(self) -> str:
        try:
            return self._text_memo
        except AttributeError:
            text = format_divisor(self)
            _set_text_memo(self, text)
            return text

    # The text of the dataclass __repr__ this replaces, subclasses included.
    # An int past the int-string limit raises ValueError and sets no memo.
    def __repr__(self) -> str:
        try:
            return self._repr_memo
        except AttributeError:
            text = f"{type(self).__qualname__}(a={self.a!r}, b={self.b!r})"
            _set_repr_memo(self, text)
            return text


_new = object.__new__
_set_hash_memo = DivisorClass._hash_memo.__set__
_set_text_memo = DivisorClass._text_memo.__set__
_set_repr_memo = DivisorClass._repr_memo.__set__


def _compiled(name: str, source: str, namespace: dict) -> Callable:
    """The function ``name`` that ``source`` defines, run in ``namespace``:
    the one ``exec`` of the generated bodies."""
    exec(source, namespace)
    return namespace[name]


def _building(*classes: type) -> dict:
    """What a body reads to build instances of the slotted dataclasses
    ``classes`` in its own frame: ``_new``, each class under its own name,
    and ``_set_<field>``, the member-descriptor ``__set__`` of each field's
    slot, in field order.  The one place that reads a value type's field
    slots; the classes that one body builds have no field name in common.
    """
    namespace = {"_new": _new}
    for cls in classes:
        namespace[cls.__name__] = cls
        namespace.update((f"_set_{name}", getattr(cls, name).__set__)
                         for name in cls.__dataclass_fields__)
    return namespace


def _trusted_builder(cls: type) -> Callable:
    """The trusted builder of the slotted dataclass ``cls``, taking its fields
    by name and in field order; see the module docstring.

    The body is generated once, as ``dataclasses`` generates ``__init__``,
    and unrolled: no loop runs per call.
    """
    names = list(cls.__dataclass_fields__)
    builder = f"_trusted_{cls.__name__}"
    sets = "".join(f"    _set_{name}(x, {name})\n" for name in names)
    params = ", ".join(names)
    source = f"def {builder}({params}):\n    x = _new({cls.__name__})\n{sets}    return x\n"
    return _compiled(builder, source, {"__name__": cls.__module__, **_building(cls)})


_trusted = _trusted_builder(DivisorClass)

# Widths 0..8 have a kernel table entry: every del Pezzo lattice (t = 9 - d
# <= 6) and the E_7 and E_8 lattices of degrees 2 and 1.
_KERNEL_WIDTHS = 9


class _KernelTable(dict):
    """The kernels of ``template`` by width; see the module docstring.

    A missing width 0..8 builds, stores and returns its body: once
    ``{name}`` is replaced, each braced fragment of the template is written
    once per coordinate, with ``#`` read as its index 1..t.
    """

    __slots__ = ("name", "template", "namespace", "loop")

    def __init__(self, name: str, template: str, namespace: dict,
                 loop: Callable | None = None) -> None:
        self.name, self.template, self.namespace, self.loop = name, template, namespace, loop

    def __missing__(self, width: int) -> Callable:
        if width >= _KERNEL_WIDTHS:
            if self.loop is None:
                raise IndexError(f"the {self.name} table has no entry for width {width}")
            return self.loop
        kernel = f"_{self.name}_{width}"
        source = re.sub(r"\{([^{}]*)\}", lambda fragment: "".join(
            fragment[1].replace("#", str(i)) for i in range(1, width + 1)),
            self.template.replace("{name}", kernel))
        built = self[width] = _compiled(kernel, source, self.namespace)
        return built


# The lattice kernels: int arithmetic on coordinates of one width, which the
# caller has checked, and the class a permutation builds.  Unpacking into a
# list display accepts width 0.
_KERNELS = {"__name__": __name__, **_building(DivisorClass)}
# a*c - sum(b_i d_i), the pairing of (a; b) with (c; d).
_PAIRING = _KernelTable("pairing", "def {name}(a, b, c, d):\n"
                                   "    [{u#, }] = b\n"
                                   "    [{v#, }] = d\n"
                                   "    return a * c{ - u# * v#}\n", _KERNELS,
                        lambda a, b, c, d: a * c - sum(map(mul, b, d)))
# a*a - sum(b_i^2), the square of (a; b).
_SQUARE = _KernelTable("square", "def {name}(a, b):\n"
                                 "    [{u#, }] = b\n"
                                 "    return a * a{ - u# * u#}\n", _KERNELS,
                       lambda a, b: a * a - sum(map(mul, b, b)))
# The coordinatewise sum of two b tuples.
_SUM = _KernelTable("sum", "def {name}(b, d):\n"
                           "    [{u#, }] = b\n"
                           "    [{v#, }] = d\n"
                           "    return ({u# + v#, })\n", _KERNELS,
                    lambda b, d: tuple(map(add, b, d)))


def _permute_loop(a: int, b: tuple[int, ...], p: tuple[int, ...]) -> DivisorClass:
    """The class (a; c) with c_{p_i} = b_i, for a bijection p of 1..t:
    ``_PERMUTE``'s entry past width 8."""
    coords = [0] * len(b)
    for image, value in zip(p, b):
        coords[image - 1] = value
    return _trusted(a, tuple(coords))


# The class (a; c) with c_{p_i} = b_i, scattered straight-line and built in
# the kernel's own frame.
_PERMUTE = _KernelTable("permute", "def {name}(a, b, p):\n"
                                   "    [{u#, }] = b\n"
                                   "    [{p#, }] = p\n"
                                   "    c = [{0, }]\n"
                                   "{    c[p# - 1] = u#\n}"
                                   "    x = _new(DivisorClass)\n"
                                   "    _set_a(x, a)\n"
                                   "    _set_b(x, tuple(c))\n"
                                   "    return x\n", _KERNELS, _permute_loop)


@dataclass(frozen=True)
class DelPezzoSurface:
    """Del Pezzo surface of degree d, polarized by the anticanonical class."""

    degree: int

    def __post_init__(self) -> None:
        _require_int(self.degree, _DEGREE_RANGE, DegreeOutOfRange, MIN_DEGREE, MAX_DEGREE)

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
        _require_int(i, f"exceptional index outside 1..{self.num_exceptional}",
                     LatticeMismatch, 1, self.num_exceptional)
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
                f"class {_shown(x, str)} has {x.num_exceptional} exceptional coordinates, "
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
        _require_type(surface, (DelPezzoSurface,), "surface")
    _require_type(x, (DivisorClass,), "x")
    _require_type(y, (DivisorClass,), "y")
    if surface is not None:
        surface.require(x)
        surface.require(y)
    return x.dot(y)


def permute_exceptionals(x: DivisorClass, p: Sequence[int]) -> DivisorClass:
    """Apply the permutation E_i -> E_{p[i-1]} to the coordinates of x.

    ``p`` lists the 1-based images of 1..t and must be a bijection.  The
    pairing is invariant under this action.  An iterable without ``len``,
    which may never end, is read to t + 1 images at most, and refused if it
    has more than t.
    """
    if type(x) is not DivisorClass:
        _require_type(x, (DivisorClass,), "x")
    b = x.b
    t = len(b)
    perm = p if type(p) is tuple else _as_tuple(p, "p", t + 1)
    for image in perm:
        if type(image) is not int:
            _require_int(image, "permutation images must be integers", BadPermutation)
    if sorted(perm) != list(range(1, t + 1)):
        if len(perm) > t and not hasattr(p, "__len__"):
            raise BadPermutation(f"p has more than {t} images, so it is not a bijection of 1..{t}")
        raise BadPermutation(f"{_shown(perm)} is not a bijection of 1..{t}")
    return _PERMUTE[t](x.a, b, perm)


def _classes_with(t: int, dot_h: int, square: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every (a, b) with t <= 8 exceptional coordinates, 3a - sum(b) = dot_h
    and a^2 - sum(b_i^2) = square, as int tuples in ascending (a, b) order.

    Cauchy-Schwarz bounds the search: n ints with sum m and sum of squares q
    have m^2 <= n q, so on all of b, (3a - dot_h)^2 <= t(a^2 - square).
    """
    lead = 9 - t
    return tuple((a, b) for a in _between_roots(lead, 3 * dot_h, t * (dot_h * dot_h - lead * square))
                 for b in _fillings(t, 3 * a - dot_h, a * a - square))


def _fillings(n: int, m: int, q: int) -> Iterator[tuple[int, ...]]:
    """Every int n-tuple with sum m and sum of squares q, in ascending order;
    a first entry x leaves n - 1 entries with (m - x)^2 <= (n - 1)(q - x^2)."""
    if not n:
        if not m and not q:
            yield ()
        return
    for x in _between_roots(n, m, (n - 1) * (n * q - m * m)):
        for rest in _fillings(n - 1, m - x, q - x * x):
            yield (x, *rest)


def _between_roots(lead: int, center: int, disc: int) -> range:
    """The ints x with (lead x - center)^2 <= disc, ascending, for lead > 0:
    lead x - center is an int, so isqrt(disc) bounds it, with no float."""
    if disc < 0:
        return range(0)
    root = isqrt(disc)
    return range(-((root - center) // lead), (center + root) // lead + 1)


def format_divisor(x: DivisorClass) -> str:
    """Render ``(a;b_1,...,b_t)`` with no whitespace."""
    _require_type(x, (DivisorClass,), "x")
    return f"({x.a};{','.join(map(str, x.b))})"


# The whole grammar of parse_divisor in one anchored pattern: \s is exactly
# str.isspace on str patterns, and [0-9] the ASCII digits the scanner takes.
# Group 1 is a, group 2 the comma-separated b_i; int() strips the same
# whitespace around each of them.
_INTEGER = r"\s*[+-]?[0-9]+\s*"
_DIVISOR_TEXT = re.compile(rf"\s*\(({_INTEGER});({_INTEGER}(?:,{_INTEGER})*)\)\s*")


def parse_divisor(text: str, surface: DelPezzoSurface | None = None) -> DivisorClass:
    """Parse ``(a;b_1,...,b_t)``.

    Integers are an optional sign followed by ASCII digits 0-9; whitespace
    is permitted around every token.  Malformed input raises
    :class:`ParseError` carrying the offending character position.  When a
    surface is supplied the number of exceptional coordinates must match.

    Well-formed text is read by one ``re.fullmatch`` of the whole grammar.
    Everything else (text the pattern refuses, an integer longer than the
    interpreter's int-string limit, a coordinate count that does not match
    the surface) goes to the character scanner, the only code that raises
    :class:`ParseError`, so every message and position comes from it.
    """
    _require_type(text, (str,), "text")
    if surface is not None:
        _require_type(surface, (DelPezzoSurface,), "surface")
    match = _DIVISOR_TEXT.fullmatch(text)
    if match is not None:
        try:
            result = _trusted(int(match[1]), tuple(map(int, match[2].split(","))))
        except ValueError:  # longer than the interpreter's int-string limit
            pass
        else:
            if surface is None or surface.contains(result):
                return result
    return _scan_divisor(text, surface)


def _scan_divisor(text: str, surface: DelPezzoSurface | None) -> DivisorClass:
    """The character scanner of :func:`parse_divisor`, on checked arguments."""
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
