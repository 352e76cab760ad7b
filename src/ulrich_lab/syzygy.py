"""Iterated syzygy bundles of Ulrich bundles and their exact rank theory.

Starting from a globally generated bundle E with h^0 = chi(E), the
kernel M_E of the evaluation map H^0(E) (x) O -> E has numerics

    rank(M_E) = h^0(E) - rank(E),   c1(M_E) = -c1(E),
    c2(M_E) = c1(E)^2 - c2(E),

and the iterated syzygy bundles are S_k(E) = M_{S_{k-1}(E)} (x) O(H)
with S_{-1}(E) = E.  For an Ulrich seed of rank r on the degree-d
surface the ranks N_k = rank(S_k) satisfy the three-term recurrence

    N_{-1} = r,   N_0 = r(d-1),   N_k = (d-2) N_{k-1} - N_{k-2},

whose characteristic roots are alpha_{1,2} = ((d-2) +- sqrt(D))/2 with
D = d(d-4).  For d = 4 the roots collide and N_k = (2k+3) r.  For d >= 5
they are units of the ring Z[alpha], alpha = alpha_1; writing
alpha^n = (x_n + y_n sqrt(D))/2 with integers x_n = (d-2) y_n (mod 2),

    N_k = r (alpha_1^{k+2} + alpha_1^{k+1} - alpha_2^{k+2} - alpha_2^{k+1}) / sqrt(D)
        = r (y_{k+2} + y_{k+1}).

The powers are formed in integers: every product halves its numerators
exactly, and an odd numerator (a value outside the ring) raises
:class:`NonIntegerResult` rather than rounding.

The ranks have three routes.  :func:`rank_by_recurrence` reads N_k off
``_recurrence_walk``, the one recurrence step, which also yields the stream
``_recurrence_ranks``.  ``_closed_form_ranks(d, r, k)``, the one closed-form
body, powers alpha to alpha^{k+1} and yields N_k, N_{k+1}, ... at one product
in Z[alpha] per row: :func:`rank_closed_form` reads one row,
:func:`rank_two_table_chern` two, and the CLI's ``sequence`` one per k.
:func:`iterate_syzygy` checks its rank column against the recurrence.

S_k(E) is defined for an Ulrich seed E only, and on the degree-3 surface
for k <= 0 only, as deeper syzygy bundles are not globally generated there.
Every route from a seed runs that contract as one preamble, ``_require_seed``,
which refuses in this order: an index that is not an int >= -1
(``ValueError``, in ``_INDEX_RULE`` naming the route's argument), a seed of
the wrong type (``TypeError``, naming ``seed``), then, by
:func:`ulrich_lab.ulrich.is_ulrich_candidate`, a surface of the wrong type
(``TypeError``), an exact c1 on another lattice (``LatticeMismatch``) or a
seed failing the numerical Ulrich conditions (:class:`NotUlrich`), and last
k > 0 on degree 3 (:class:`OutOfTheoremScope`).
:func:`rank_two_table_chern` runs it after its own degree rule.

:func:`closed_syzygy_chern` evaluates the closed alternating recursion for the
Chern data of the twisted bundles S_k(E)(-H) without running the
step-by-step iteration, which gives an independent route for
cross-checking.  Writing u_i = c1(S_i(E)(-H)), q_i = u_i^2,
p_i = u_i.H, the one-step relation forced by the kernel and twist
formulas is

    v_k = q_{k-1} + (N_{k-1}+1) p_{k-1} + C(N_{k-1}+1, 2) d - v_{k-1},

with v_0 = c1(E)^2 - c2(E), which unrolls to

    v_k = sum_{i<k} (-1)^{k+i+1} [q_i + (N_i+1) p_i + C(N_i+1,2) d]
          + (-1)^k v_0.

The sum telescopes, and the recurrence closes what is left (see
:func:`_closed_core`), so the closed Chern data of S_k need only the two
ranks N_{k-1} and N_k: one closed-form walk for :func:`rank_two_table_chern`,
and for :func:`closed_syzygy_chern` and :func:`closed_syzygy_chern_numeric`
the recurrence walk of :func:`rank_by_recurrence`, ``_rank_pair``.  Each
route costs O(k) steps, and ``_rank_pair`` caches its last (d, r, k), so the
three routes checked at one (d, r, k) share one walk.  :func:`iterate_syzygy`
steps in the reduced
data (rank, c1^2, c1.H, 2 c2 - c1^2) and keeps them as columns of k + 2 ints;
for an exact seed the column M_{-1} = 0, M_k = N_k - M_{k-1} joins them, and
c1(S_k) = -c1(S_{k-1}) + N_k H = (-1)^{k+1} c1(E) + M_k H gives the exact
c1 of any row from it.  One builder makes a row of the trace, and its exact
c1, the first time the row is read, by index or by iteration, and keeps it;
so every route is linear in k or better, and the last row costs no row in
between; ``_columns``, the one reader of records and drift, builds none.
One step from (n, q, p, w) of S_{k-1}, q = c1^2, p = c1.H, w = 2 c2 - c1^2,
is Riemann-Roch, the kernel and the twist by H:

    N_k = chi(S_{k-1}) - n = (p - w)/2,   u = N_k d - 2p,
    q' = q + N_k u,   p' = p + u,   w' = -(w + u),

so the rank check runs on ints of the size of N_k, and N_k u is the one
product of two big integers per step.  p - w = q + p (mod 2), even on a
lattice, and the step keeps it, so the parity refusal runs once, on the
seed, and a row's c2 = (w + q)/2 is exact.  :func:`iterate_syzygy` runs
this step on local ints, with no call per step; ``tests/test_proofs.py``
proves it equal to the (c1^2, c1.H, c2) step of ``chern._chi`` and
``chern._twist``, the kernel followed by the textbook twist.
"""

from __future__ import annotations

__all__ = [
    "QuadraticNumber",
    "SyzygyTrace",
    "TraceEntry",
    "closed_syzygy_chern",
    "closed_syzygy_chern_numeric",
    "discriminant_drift",
    "iterate_syzygy",
    "rank_by_recurrence",
    "rank_closed_form",
    "rank_two_table_chern",
    "syzygy_numerics",
]

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, islice
from typing import Iterator

from . import ulrich
from .chern import (
    AnyNumerics,
    BundleNumerics,
    NumericClassData,
    _BUNDLE,
    _NUMERICS,
    _check_reduced,
    _chi,
    _trusted_bundle,
    _trusted_numeric,
    discriminant,
    expected_moduli_dim,
    reduce_numerics,
)
from .errors import (
    DegreeOutOfRange,
    NoKernel,
    NonIntegerResult,
    NotUlrich,
    OutOfTheoremScope,
)
from .picard import (
    _DEGREE_RANGE,
    _RANK_RULE,
    MAX_DEGREE,
    MIN_DEGREE,
    DelPezzoSurface,
    DivisorClass,
    _as_tuple,
    _is_int,
    _new,
    _require_int,
    _require_type,
    _shown,
    _trusted,
    _trusted_builder,
    _Value,
)

_INDEX_RULE = "{} must be an integer >= -1"
_CLOSED_DEGREE_RULE = "closed form needs degree in [4, 8]"


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact element a + b*sqrt(radicand) of a real quadratic field.

    A general field element with Fraction coefficients and any positive
    radicand (no square-free reduction is needed); :meth:`as_integer` refuses
    anything that is not an honest rational integer.  The rank formulas no
    longer use it: they power in the integer ring Z[alpha].
    """

    a: Fraction
    b: Fraction
    radicand: int

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            value = getattr(self, name)
            if not (_is_int(value) or isinstance(value, Fraction)):
                raise TypeError(f"coefficient {name} must be an int or a Fraction, got {_shown(value)}")
            object.__setattr__(self, name, Fraction(value))
        _require_int(self.radicand, "radicand must be a positive integer", lo=1)

    def _coerce(self, other) -> QuadraticNumber | None:
        if isinstance(other, QuadraticNumber):
            if other.radicand != self.radicand:
                raise ValueError("mixed radicands")
            return other
        if _is_int(other) or isinstance(other, Fraction):
            return QuadraticNumber(Fraction(other), Fraction(0), self.radicand)
        return None

    def __add__(self, other) -> QuadraticNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadraticNumber(self.a + rhs.a, self.b + rhs.b, self.radicand)

    __radd__ = __add__

    def __neg__(self) -> QuadraticNumber:
        return QuadraticNumber(-self.a, -self.b, self.radicand)

    def __sub__(self, other) -> QuadraticNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> QuadraticNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> QuadraticNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadraticNumber(
            self.a * rhs.a + self.b * rhs.b * self.radicand,
            self.a * rhs.b + self.b * rhs.a,
            self.radicand,
        )

    __rmul__ = __mul__

    def conjugate(self) -> QuadraticNumber:
        return QuadraticNumber(self.a, -self.b, self.radicand)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.radicand

    def inverse(self) -> QuadraticNumber:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("quadratic number with zero norm")
        return QuadraticNumber(self.a / n, -self.b / n, self.radicand)

    def __truediv__(self, other) -> QuadraticNumber:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __pow__(self, exponent: int) -> QuadraticNumber:
        if not _is_int(exponent):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        e = abs(exponent)
        result = QuadraticNumber(Fraction(1), Fraction(0), self.radicand)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_integer(self) -> int:
        if not self.is_rational or self.a.denominator != 1:
            raise NonIntegerResult(f"{self} is not an integer")
        return int(self.a)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.radicand ** 0.5

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.radicand})"


def rank_by_recurrence(d: int, r: int, k: int) -> int:
    """N_k via N_{-1} = r, N_0 = r(d-1), N_k = (d-2)N_{k-1} - N_{k-2}.

    k has no upper bound.  The cost is O(k) steps, shared with the closed Chern
    routes checked at the same (d, r, k) (see ``_rank_pair``), on integers of
    about k log2(alpha) bits (about 1.4 bits per step at d = 5, 2.5 at d = 8,
    and linear growth at d = 4), so k = 10**30 never finishes; the CLI caps k
    at 200.
    """
    _require_int(d, _DEGREE_RANGE, DegreeOutOfRange, MIN_DEGREE, MAX_DEGREE)
    _require_int(r, _RANK_RULE, lo=1)
    _require_int(k, _INDEX_RULE.format("index k"), lo=-1)
    return _rank_pair(d, r, k)[1]


def _recurrence_walk(d: int, prev: int, cur: int) -> Iterator[int]:
    """prev, cur, then each next rank (d-2) cur - prev, without end: the one recurrence step."""
    yield prev
    while True:
        yield cur
        prev, cur = cur, (d - 2) * cur - prev


def _recurrence_ranks(d: int, r: int) -> Iterator[int]:
    """N_{-1}, N_0, N_1, ... without end, by the three-term recurrence.

    :func:`iterate_syzygy` runs an inline copy beside its step instead: fed
    from here, its rank cross-check costs 5-16 % more at k <= 200.
    """
    return _recurrence_walk(d, r, r * (d - 1))


@lru_cache(maxsize=1)
def _rank_pair(d: int, r: int, k: int) -> tuple[int, int]:
    """(N_{k-1}, N_k) for checked d, r and k >= -1, walked from (N_{-2}, N_{-1}) = (-r, r).

    The cache keeps the last (d, r, k), so the routes checked at one k walk once.
    """
    return tuple(islice(_recurrence_walk(d, -r, r), k + 1, k + 3))


def _ring_mul(u: tuple[int, int], v: tuple[int, int], radicand: int) -> tuple[int, int]:
    """Product of elements (x + y sqrt(radicand))/2 of Z[alpha], in that form.

    Ring elements give even numerators; an odd one raises NonIntegerResult.
    """
    (x1, y1), (x2, y2) = u, v
    x, y = x1 * x2 + radicand * y1 * y2, x1 * y2 + x2 * y1
    if x & 1 or y & 1:
        raise NonIntegerResult(f"({x} + {y}*sqrt({radicand}))/4 is not in Z[alpha]")
    return x >> 1, y >> 1


def _closed_form_ranks(d: int, r: int, k: int) -> Iterator[int]:
    """N_k, N_{k+1}, ... without end, as r (y_{n+2} + y_{n+1}): the one closed-form body.

    The guards run on the call, before any row.  Binary powering reaches
    alpha^{k+1}, then each row takes one product, alpha^{n+2} = alpha^{n+1} alpha.
    At d = 4 the radicand is 0, alpha = 1 and y_n = n, so N_k = (2k+3) r.
    """
    _require_int(d, _CLOSED_DEGREE_RULE, DegreeOutOfRange, 4, 8)
    _require_int(r, _RANK_RULE, lo=1)
    _require_int(k, _INDEX_RULE.format("index k"), lo=-1)
    radicand, alpha = d * (d - 4), (d - 2, 1)
    power, base, n = (2, 0), alpha, k + 1
    while n:
        if n & 1:
            power = _ring_mul(power, base, radicand)
        n >>= 1
        if n:
            base = _ring_mul(base, base, radicand)
    return _ring_ranks(power, alpha, radicand, r)


def _ring_ranks(power: tuple[int, int], alpha: tuple[int, int], radicand: int, r: int) -> Iterator[int]:
    """The rows of ``_closed_form_ranks`` from power = alpha^{k+1} (a closure costs more per call)."""
    while True:
        following = _ring_mul(power, alpha, radicand)
        yield r * (following[1] + power[1])
        power = following


def rank_closed_form(d: int, r: int, k: int) -> int:
    """N_k = r (y_{k+2} + y_{k+1}), the first row of ``_closed_form_ranks``.

    Never uses the recurrence: O(log k) products in Z[alpha], d = 4 included.
    """
    return next(_closed_form_ranks(d, r, k))


def syzygy_numerics(f: AnyNumerics, h0: int) -> AnyNumerics:
    """Numerics of the kernel of the evaluation map O^{h0} -> F.

    Requires h0 > rank(F); otherwise there is no kernel bundle.
    """
    _require_int(h0, "h0 must be an integer", TypeError)
    _require_type(f, _NUMERICS, "f")
    if h0 <= f.rank:
        raise NoKernel(f"h^0 = {_shown(h0)} does not exceed the rank {_shown(f.rank)}")
    if isinstance(f, BundleNumerics):
        return _trusted_bundle(h0 - f.rank, -f.c1, f.c1_sq - f.c2)
    return _trusted_numeric(h0 - f.rank, f.c1_sq, -f.c1_dot_h, f.c1_sq - f.c2)


@dataclass(frozen=True)
class TraceEntry(_Value):
    """One row of a syzygy trace: the numerics of S_k, k = -1 being the seed.

    The constructor checks the fields as :class:`NumericClassData` and
    :class:`BundleNumerics` do, so :meth:`as_numeric` and :meth:`as_bundle`
    build their results without a second check.
    """

    __slots__ = ("k", "rank", "c1", "c1_sq", "c1_dot_h", "c2")

    k: int
    rank: int
    c1: DivisorClass | None
    c1_sq: int
    c1_dot_h: int
    c2: int

    def __post_init__(self) -> None:
        _require_int(self.k, _INDEX_RULE.format("index k"), lo=-1)
        _check_reduced(self)
        if self.c1 is not None and not isinstance(self.c1, DivisorClass):
            raise TypeError(f"c1 must be a DivisorClass or None, got {_shown(self.c1)}")

    def as_numeric(self) -> NumericClassData:
        return _trusted_numeric(self.rank, self.c1_sq, self.c1_dot_h, self.c2)

    def as_bundle(self) -> BundleNumerics | None:
        if self.c1 is None:
            return None
        return _trusted_bundle(self.rank, self.c1, self.c2)

    @property
    def delta(self) -> int:
        return discriminant(self)  # reads only rank, c1_sq and c2

    @property
    def drift(self) -> int:
        return expected_moduli_dim(self)  # Delta - (rank^2 - 1)

    def to_dict(self) -> dict:
        return {"k": self.k, **self.as_numeric().to_dict(),
                "delta": self.delta, "drift": self.drift}


_trusted_entry = _trusted_builder(TraceEntry)


class _TraceRows(Sequence):
    """The rows of a :class:`SyzygyTrace`, kept as columns and built when read.

    Row i is the numerics of S_k with k = i - 1.  The columns are the ranks,
    c1^2, c1.H and w = 2 c2 - c1^2 of S_{-1}, ..., S_{k_max}, one int each per
    row; a row's c2 is (w + c1^2)/2.  For an exact seed c1(E) and the column
    M_{-1}, ..., M_{k_max} come with them, and row i has the class
    c1(S_k) = (-1)^{k+1} c1(E) + M_k H.  With
    H = (3; 1, ..., 1) that is (+-a + 3 M; +-b_1 + M, ..., +-b_t + M), the
    sign + on even i: int arithmetic on checked coordinates, so no re-check
    (see picard).

    :meth:`_row` is the one builder: it builds a row and its class the first
    time the row is read, by index, slice or iteration, and keeps it, so
    ``rows[i] is rows[i]`` and a second full iteration builds nothing.  As a
    value this is the tuple of its rows: ``==`` with that tuple holds,
    ``hash`` and ``repr`` are the tuple's, a slice is a tuple, and an index
    out of range raises IndexError.  Pickles and copies carry the columns
    only, w as kept, through ``_trace_rows``; a pickle of the former layout,
    with c2 for w, loads through the constructor.
    :meth:`SyzygyTrace.to_dict` and :func:`discriminant_drift` read the
    columns through ``_columns``, and build no row.
    """

    __slots__ = ("_ranks", "_c1_sqs", "_degrees", "_ws", "_c1", "_ms", "_rows")

    def __init__(self, ranks: list[int], c1_sqs: list[int], degrees: list[int], c2s: list[int],
                 c1: DivisorClass | None, ms: list[int] | None) -> None:
        # The layout of pickles written before they carried w, with c2 for w.
        self._fill(ranks, c1_sqs, degrees, [2 * c2 - q for q, c2 in zip(c1_sqs, c2s)], c1, ms)

    def _fill(self, ranks, c1_sqs, degrees, ws, c1, ms) -> _TraceRows:
        self._ranks, self._c1_sqs, self._degrees, self._ws = ranks, c1_sqs, degrees, ws
        self._c1, self._ms, self._rows = c1, ms, [None] * len(ranks)
        return self

    def _row(self, i: int) -> TraceEntry:
        row = self._rows[i]
        if row is None:
            c1 = self._c1
            if c1 is not None:  # m - x is m.__sub__(x), on odd rows
                m = self._ms[i]
                if i & 1:
                    c1 = _trusted(3 * m - c1.a, tuple(map(m.__sub__, c1.b)))
                else:
                    c1 = _trusted(3 * m + c1.a, tuple(map(m.__add__, c1.b)))
            q = self._c1_sqs[i]  # w = 2 c2 - q, so the halving is exact
            row = self._rows[i] = _trusted_entry(
                i - 1, self._ranks[i], c1, q, self._degrees[i], (self._ws[i] + q) >> 1)
        return row

    def __len__(self) -> int:
        return len(self._ranks)

    def __getitem__(self, index):
        # range() reads index as a tuple does: negative indexes, slices,
        # IndexError out of range and TypeError for a non-integer.
        position = range(len(self._ranks))[index]
        if type(position) is range:
            return tuple(map(self._row, position))
        return self._row(position)

    def __iter__(self) -> Iterator[TraceEntry]:
        return map(self._row, range(len(self._ranks)))

    def __eq__(self, other: object) -> bool:
        # Against another _TraceRows, tuple == rows falls back to rows.__eq__.
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return _trace_rows, (self._ranks, self._c1_sqs, self._degrees, self._ws, self._c1, self._ms)


def _trace_rows(ranks: list[int], c1_sqs: list[int], degrees: list[int], ws: list[int],
                c1: DivisorClass | None, ms: list[int] | None) -> _TraceRows:
    """The rows from checked columns, w as kept: :func:`iterate_syzygy` builds them
    so, and a pickle loads so."""
    return _new(_TraceRows)._fill(ranks, c1_sqs, degrees, ws, c1, ms)


@dataclass(frozen=True)
class SyzygyTrace:
    """The numerics of E = S_{-1}, S_0, ..., S_{k_max} on one surface.

    ``entries`` is a read-only sequence of :class:`TraceEntry` rows.  The one
    :func:`iterate_syzygy` returns builds each row when it is first read, and
    compares, hashes, prints and pickles as the tuple of its rows; it comes
    from checked columns and passes unread.  Other ``entries`` are read as a
    tuple of :class:`TraceEntry`, a bad row refused as ``entries[i]``.
    """

    surface: DelPezzoSurface
    seed: AnyNumerics
    entries: Sequence[TraceEntry]

    def __post_init__(self) -> None:
        _require_type(self.surface, (DelPezzoSurface,), "surface")
        _require_type(self.seed, _NUMERICS, "seed")
        if type(self.entries) is not _TraceRows:
            entries = _as_tuple(self.entries, "entries")
            for i, row in enumerate(entries):
                _require_type(row, (TraceEntry,), f"entries[{i}]")
            object.__setattr__(self, "entries", entries)

    def entry(self, k: int) -> TraceEntry:
        """The first row whose ``k`` is k; KeyError if there is none.

        The rows of an :func:`iterate_syzygy` trace run from k = -1, so row k
        is ``entries[k + 1]``; any other rows are searched in order.
        """
        entries = self.entries
        if _is_int(k):
            if type(entries) is not _TraceRows:
                for row in entries:
                    if row.k == k:
                        return row
            elif -1 <= k < len(entries) - 1:
                return entries[k + 1]
        raise KeyError(f"no trace entry for k = {_shown(k, str)}")

    def to_dict(self) -> dict:
        """The degree, the seed and one :meth:`TraceEntry.to_dict` record per row.

        Each record comes from ``_columns``, for rows passed in by hand too,
        so an :func:`iterate_syzygy` trace builds no row: with w = 2 c2 - c1^2,
        c2 = (w + c1^2)/2, delta = rk w + c1^2 and drift = rk (w - rk) + c1^2 + 1,
        as ``chern.discriminant`` and ``chern.expected_moduli_dim`` evaluate them.
        """
        records = [{"k": k, "rank": n, "c1_sq": q, "c1_dot_H": p, "c2": (w + q) >> 1,
                    "delta": n * w + q, "drift": n * (w - n) + q + 1}
                   for k, n, q, p, w in _columns(self.entries)]
        return {"d": self.surface.degree, "seed": self.seed.to_dict(), "entries": records}


def _columns(entries: Sequence[TraceEntry]) -> Iterator[tuple[int, int, int, int, int]]:
    """(k, rank, c1^2, c1.H, w = 2 c2 - c1^2) per row, the one reader of a trace's
    records: a :class:`_TraceRows`' columns, building no row, or else each row's fields."""
    if type(entries) is _TraceRows:
        return zip(count(-1), entries._ranks, entries._c1_sqs, entries._degrees, entries._ws)
    return ((row.k, row.rank, row.c1_sq, row.c1_dot_h, 2 * row.c2 - row.c1_sq) for row in entries)


def _require_seed(seed: AnyNumerics, types: tuple[type, ...], surface: DelPezzoSurface,
                  k: int, name: str) -> None:
    """The seed contract, in the order of the module docstring; k is named ``name``."""
    _require_int(k, _INDEX_RULE.format(name), lo=-1)
    _require_type(seed, types, "seed")
    if not ulrich.is_ulrich_candidate(seed, surface):
        raise NotUlrich(f"seed {_shown(seed)} fails the numerical Ulrich conditions")
    if surface.degree == 3 and k > 0:
        raise OutOfTheoremScope(f"degree 3 supports the first syzygy step only ({name} <= 0); "
                                "deeper iterations are not globally generated")


def iterate_syzygy(seed: AnyNumerics, surface: DelPezzoSurface, k_max: int) -> SyzygyTrace:
    """Run the syzygy-and-twist iteration from an Ulrich candidate seed.

    Every step runs on (rank, c1^2, c1.H, w = 2 c2 - c1^2), as the module
    docstring writes it: Riemann-Roch, the kernel and the twist by H, on
    local ints, with one product of two big integers; the parity refusal of
    Riemann-Roch runs once, on the seed, when k_max >= 0.  The rank of every
    computed S_k is cross-checked against the three-term recurrence, run
    beside the step.  Each field is collected in its own column, and the
    trace keeps the columns: a row is built only when it is read.  For a
    :class:`BundleNumerics` seed the exact classes come from
    c1(S_k) = (-1)^{k+1} c1(E) + M_k H, with M_{-1} = 0 and
    M_k = N_k - M_{k-1}, kept as one more column; the last row is built here,
    and its class is checked against the reduced c1^2 and c1.H.  A mismatch
    in either check would mean the transform formulas have fallen out of
    sync and raises RuntimeError.

    k_max has no upper bound.  The cost is O(k_max) steps on integers of
    about k_max log2(alpha) bits, as in :func:`rank_by_recurrence`.  The
    trace keeps k_max + 2 ints per column, so memory grows about as
    k_max^2 bits, and a row read costs one row, not the trace; the CLI caps
    k at 200.
    """
    _require_seed(seed, _NUMERICS, surface, k_max, "k_max")
    d = surface.degree
    n, q, p, w = seed.rank, seed.c1_sq, seed.c1_dot_h, 2 * seed.c2 - seed.c1_sq
    if k_max >= 0 and (q + p) & 1:  # p - w has the parity of q + p, and keeps it
        _chi(n, q, p, seed.c2)  # the parity refusal
    ranks, c1_sqs, degrees, ws = [n], [q], [p], [w]
    # From here on every value is int arithmetic on the checked seed.  The
    # recurrence runs from (N_{-1}, N_0) = (r, r(d-1)); prev is N_{k-1}.
    trace_coefficient = d - 2
    prev, expected_rank = n, n * (d - 1)
    for k in range(k_max + 1):
        # chi(O) = 1, so the kernel has rank N = chi(S_{k-1}) - prev = (p - w)/2.
        n = (p - w) >> 1
        if n != expected_rank:  # every rank of the recurrence is positive
            if n <= 0:
                raise NoKernel(f"chi = {n + prev} does not exceed rank {prev} at step {k}")
            raise RuntimeError(f"internal inconsistency: rank {n} at step {k}, "
                               f"recurrence predicts {expected_rank}")
        prev, expected_rank = n, trace_coefficient * n - prev
        # The kernel, then O(H): u = N d - 2p, q' = q + N u, p' = p + u, w' = -(w + u).
        u = n * d - p - p
        q += n * u
        p += u
        w = -(w + u)
        ranks.append(n)
        c1_sqs.append(q)
        degrees.append(p)
        ws.append(w)
    if isinstance(seed, BundleNumerics):
        # int.__rsub__(m, n) is n - m, so this is M_{-1} = 0, M_k = N_k - M_{k-1}.
        ms = list(accumulate(islice(ranks, 1, None), int.__rsub__, initial=0))
        entries = _trace_rows(ranks, c1_sqs, degrees, ws, seed.c1, ms)
        c1 = entries[-1].c1
        if (c1.self_intersection, c1.degree) != (q, p):
            raise RuntimeError(
                f"internal inconsistency: exact c1 = {c1} at step {k_max} disagrees with "
                f"the reduced (c1^2, c1.H) = ({q}, {p})"
            )
    else:
        entries = _trace_rows(ranks, c1_sqs, degrees, ws, None, None)
    return SyzygyTrace(surface, seed, entries)


def discriminant_drift(trace: SyzygyTrace) -> list[int]:
    """Delta(S_k) - (N_k^2 - 1) for every trace entry.

    For an Ulrich seed this list is constant, equal to the expected
    moduli dimension of the seed.  It is rk (w - rk) + c1^2 + 1, w = 2 c2 - c1^2,
    the one-product form of :func:`~ulrich_lab.chern.expected_moduli_dim`, on
    the rows of ``_columns``, so an :func:`iterate_syzygy` trace builds no row.
    """
    _require_type(trace, (SyzygyTrace,), "trace")
    return [n * (w - n) + q + 1 for _, n, q, _, w in _columns(trace.entries)]


def _closed_core(d: int, r: int, c1_sq: int, c1_dot_h: int, c2: int,
                 k: int, n_prev: int, n_k: int) -> tuple[int, int, int, int, int]:
    """(sign_k, m_k, c1^2, c1.H, c2) of S_k(E)(-H) from N_{k-1} and N_k, in O(1).

    c1(S_i(E)(-H)) = sign_i c1(E) + m_i H, sign_i = (-1)^{i+1}, m_0 = 0 and
    m_{i+1} = -(m_i + N_i).  So v_k = -sign_k (v_0 + sum_{i<k} sign_i [...]),
    and as N_i = -(m_i + m_{i+1}) the sum telescopes to -(k mod 2) c1^2
    + (k - m_k) c1.H + d (sum_{i<k} sign_i m_i - sign_k C(m_k, 2)).  The
    recurrence closes both remaining pieces:

        m_k = -sign_k r - (N_k + N_{k-1})/d,
        sum_{i<k} sign_i m_i = -k r + (r + sign_k N_{k-1})/d,

    (induct on k: the step is N_{k+1} = (d-2) N_k - N_{k-1}).  Both
    divisions are exact: N_0 + N_{-1} = r d, the step sends N_k + N_{k-1}
    to d N_k - (N_k + N_{k-1}) and moves r + sign_k N_{k-1} by
    -sign_k (N_k + N_{k-1}).  At k = -1,
    with N_{-2} = (d-2) r - N_0 = -r, the result is E(-H) itself.
    """
    sign = 1 if k % 2 else -1
    m = -sign * r - (n_k + n_prev) // d
    signed_sum = -k * r + (r + sign * n_prev) // d
    total = (c1_sq - c2 - k % 2 * c1_sq + (k - m) * c1_dot_h
             + d * (signed_sum - sign * (m * (m - 1) >> 1)))
    q = c1_sq + 2 * sign * m * c1_dot_h + m * m * d
    return sign, m, q, sign * c1_dot_h + m * d, -sign * total


def closed_syzygy_chern(seed: BundleNumerics, surface: DelPezzoSurface, k: int) -> tuple[DivisorClass, int]:
    """(c1, c2) of S_k(E)(-H) straight from the closed recursions.

    Never calls the step-by-step iteration, so it serves as an
    independent oracle for it.  k = -1 returns the untwisted seed data,
    matching the base row of the rank-2 table form.

    k has no upper bound: the ranks N_{k-1}, N_k come from the recurrence
    walk of :func:`rank_by_recurrence`, O(k) steps on integers of about
    k log2(alpha) bits, one walk for the routes checked at the same (d, r, k).
    The CLI caps k at 200.
    """
    _require_seed(seed, _BUNDLE, surface, k, "index k")
    d = surface.degree
    if k == -1:
        return seed.c1, seed.c2
    sign, m, _, _, c2 = _closed_core(d, seed.rank, seed.c1_sq, seed.c1_dot_h, seed.c2,
                                     k, *_rank_pair(d, seed.rank, k))
    return sign * seed.c1 + m * surface.anticanonical_class, c2


def closed_syzygy_chern_numeric(seed: NumericClassData, surface: DelPezzoSurface, k: int) -> NumericClassData:
    """Reduced-data form of :func:`closed_syzygy_chern`, including the rank N_k.

    An exact seed is read through its reduced data, so every k, the seed row
    k = -1 included, gives a :class:`NumericClassData`.  The cost in k is that
    of :func:`closed_syzygy_chern`: O(k) recurrence steps, one walk for the
    routes checked at the same (d, r, k), on integers of about k log2(alpha)
    bits, with no upper bound on k.
    """
    _require_seed(seed, _NUMERICS, surface, k, "index k")
    d = surface.degree
    if k == -1:
        return reduce_numerics(seed)
    n_prev, n_k = _rank_pair(d, seed.rank, k)
    _, _, *data = _closed_core(d, seed.rank, seed.c1_sq, seed.c1_dot_h, seed.c2, k, n_prev, n_k)
    return _trusted_numeric(n_k, *data)


def rank_two_table_chern(d: int, c1_sq: int, c2: int, k: int) -> NumericClassData:
    """Chern data v_{d,k} of the rank-2 tables, in reduced form.

    Hardwired to rank-2 Ulrich seeds on degrees 4..7, the range the
    tables cover; any other seed raises NotUlrich.  k = -1 returns the
    seed row.  The ranks N_{d,k-1} and N_{d,k} are the first two rows of
    one closed-form walk from k - 1, rather than the recurrence, so
    comparing with :func:`closed_syzygy_chern_numeric` cross-checks both
    routes.  Its one powering takes O(log k) products in Z[alpha] on
    integers of about k log2(alpha) bits, with no upper bound on k.
    """
    _require_int(d, "rank-2 tables cover degrees 4..7", OutOfTheoremScope, 4, 7)
    seed = NumericClassData(2, c1_sq, 2 * d, c2)
    _require_seed(seed, _NUMERICS, DelPezzoSurface(d), k, "index k")
    if k == -1:
        return seed
    n_prev, n_k = islice(_closed_form_ranks(d, 2, k - 1), 2)
    _, _, *data = _closed_core(d, 2, c1_sq, 2 * d, c2, k, n_prev, n_k)
    return _trusted_numeric(n_k, *data)
