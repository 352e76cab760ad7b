"""Numerical Ulrich conditions and stability criteria for polarized varieties.

An Ulrich bundle E of rank r on an n-dimensional polarized variety
(X, H) has h^0 = r * H^n, slope H^n + g - 1 where g is the sectional
genus, and vanishing cohomology after one and two hyperplane twists
down.  On a del Pezzo surface polarized by H = -K, with d = H^2,
Riemann-Roch gives chi(E(mH)) = chi(E) + m c1.H + r d m(m+1)/2, so
chi(E(-H)) - chi(E(-2H)) = c1.H - r d, and once c1.H = r d both equal
r + (c1^2 - r d)/2 - c2.  The numerical Ulrich conditions
chi(E(-H)) = chi(E(-2H)) = 0 are thus exactly c1.H = r d and
c2 = r + (c1^2 - r d)/2, and they force chi(E) = r d (proved as polynomial
identities by ``TestUlrichConditions`` in ``tests/test_proofs.py``).
One private body, ``_ulrich_c2``, holds the parity test and that c2:
:func:`ulrich_c2` refuses an odd c1^2 - r d with :class:`NotUlrichCompatible`,
and :func:`is_ulrich_candidate`, the Ulrich test of every syzygy route,
answers False for it.

The three criteria below are purely numerical sufficient conditions:

* Butler: (3 - n) H^n > H^{n-1}.K + 2 forces slope semistability.
* Koszul: (2 - n) H^n >= H^{n-1}.K + 4 makes the section ring Koszul;
  on a del Pezzo surface this is exactly d >= 4.
* Coprime: Butler together with gcd(H^n - 1, g) = 1 upgrades
  semistability to stability.
"""

from __future__ import annotations

__all__ = [
    "PolarizedData",
    "butler_semistability_criterion",
    "coprime_stability_criterion",
    "curve_section_genus",
    "is_ulrich_candidate",
    "koszul_criterion",
    "polarized_data_for",
    "prioritary_polarization_check",
    "ulrich_c2",
    "ulrich_profile",
]

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .chern import _NUMERICS, AnyNumerics, BundleNumerics
from .errors import NotUlrichCompatible, ParityViolation
from .picard import _RANK_RULE, DelPezzoSurface, _require_int, _require_keys, _require_type, _shown, intersect


@dataclass(frozen=True)
class PolarizedData:
    """Numerical data (n, H^n, H^{n-1}.K) of a polarized n-fold.

    The sectional genus formula needs (n-1)*H^n + H^{n-1}.K to be even;
    that parity is enforced at construction time.
    """

    n: int
    hn: int
    hk: int

    def __post_init__(self) -> None:
        _require_int(self.n, "dimension n must be an integer >= 2", lo=2)
        _require_int(self.hn, "H^n must be a positive integer", lo=1)
        _require_int(self.hk, "H^(n-1).K must be an integer", TypeError)
        if ((self.n - 1) * self.hn + self.hk) % 2:
            raise ParityViolation("(n-1)*H^n + H^(n-1).K = "
                                  f"{_shown((self.n - 1) * self.hn + self.hk)} is odd")

    def to_dict(self) -> dict:
        return {"n": self.n, "Hn": self.hn, "HK": self.hk}

    @classmethod
    def from_dict(cls, data: dict) -> PolarizedData:
        """The inverse of :meth:`to_dict`; a missing key raises ``ValueError``
        naming it."""
        _require_keys(data, ("n", "Hn", "HK"), "polarized data")
        return cls(data["n"], data["Hn"], data["HK"])


def polarized_data_for(surface: DelPezzoSurface) -> PolarizedData:
    """The (n, H^n, H.K) = (2, d, -d) data of an anticanonical surface."""
    _require_type(surface, (DelPezzoSurface,), "surface")
    return PolarizedData(2, surface.degree, -surface.degree)


def curve_section_genus(p: PolarizedData) -> int:
    """Sectional genus g = ((n-1) H^n + H^{n-1}.K)/2 + 1.

    A negative result is returned as computed but flagged with a
    RuntimeWarning, since it signals degenerate input data.
    """
    _require_type(p, (PolarizedData,), "p")
    g = ((p.n - 1) * p.hn + p.hk) // 2 + 1
    if g < 0:
        warnings.warn(f"negative sectional genus {g}", RuntimeWarning, stacklevel=2)
    return g


def ulrich_profile(rank: int, p: PolarizedData) -> tuple[int, Fraction]:
    """(h^0, slope) = (rank * H^n, H^n + g - 1) of a rank-r Ulrich bundle."""
    _require_int(rank, _RANK_RULE, lo=1)
    g = curve_section_genus(p)
    return rank * p.hn, Fraction(p.hn + g - 1)


def butler_semistability_criterion(p: PolarizedData) -> bool:
    """(3 - n) H^n > H^{n-1}.K + 2, strict."""
    _require_type(p, (PolarizedData,), "p")
    return (3 - p.n) * p.hn > p.hk + 2


def koszul_criterion(p: PolarizedData) -> bool:
    """(2 - n) H^n >= H^{n-1}.K + 4."""
    _require_type(p, (PolarizedData,), "p")
    return (2 - p.n) * p.hn >= p.hk + 4


def coprime_stability_criterion(p: PolarizedData) -> bool:
    """Butler's bound together with gcd(H^n - 1, g) = 1."""
    g = curve_section_genus(p)
    return butler_semistability_criterion(p) and gcd(p.hn - 1, g) == 1


def ulrich_c2(rank: int, c1_sq: int, surface: DelPezzoSurface) -> int:
    """The unique c2 an Ulrich bundle of given rank and c1^2 can have.

    Combining chi(E(-H)) = 0 with c1.H = rank*d gives
    c2 = rank + (c1^2 - rank*d)/2; the difference must be even.
    """
    _require_int(rank, _RANK_RULE, lo=1)
    _require_int(c1_sq, "c1^2 must be an integer", TypeError)
    _require_type(surface, (DelPezzoSurface,), "surface")
    d = surface.degree
    c2 = _ulrich_c2(rank, c1_sq, d)
    if c2 is None:
        raise NotUlrichCompatible(f"c1^2 = {_shown(c1_sq)} and rank*d = {_shown(rank * d)} "
                                  "differ by an odd number")
    return c2


def _ulrich_c2(rank: int, c1_sq: int, d: int) -> int | None:
    """c2 = rank + (c1^2 - rank*d)/2, or None when c1^2 - rank*d is odd."""
    excess = c1_sq - rank * d
    return None if excess % 2 else rank + excess // 2


def is_ulrich_candidate(f: AnyNumerics, surface: DelPezzoSurface) -> bool:
    """Check the numerical Ulrich conditions.

    Requires c1.H = rank*d and the c2 value of :func:`ulrich_c2`, which
    together are chi(E(-H)) = chi(E(-2H)) = 0 (see the module docstring), so
    no Riemann-Roch is evaluated.  Never raises on honest numeric input;
    it simply answers False.  These read only (rank, c1^2, c1.H, c2), so
    an exact c1 is checked against the lattice and then read at most once
    for each.  An operand of neither resolution raises TypeError.
    """
    _require_type(surface, (DelPezzoSurface,), "surface")
    _require_type(f, _NUMERICS, "f")
    if isinstance(f, BundleNumerics):
        surface.require(f.c1)
    r, d = f.rank, surface.degree
    return f.c1_dot_h == r * d and f.c2 == _ulrich_c2(r, f.c1_sq, d)


def prioritary_polarization_check(surface: DelPezzoSurface) -> int:
    """H.(K + F), where F is the conic-bundle fiber class.

    The caller only needs this to be negative; the exact value on the
    degree-d surface is 2 - d.
    """
    _require_type(surface, (DelPezzoSurface,), "surface")
    k = surface.canonical_class
    f = surface.fiber_class
    return intersect(surface.anticanonical_class, k + f, surface)
