"""Exact numerics of Ulrich bundles and their iterated syzygy bundles
on anticanonically embedded del Pezzo surfaces.

The package computes only with numerical invariants: Picard-lattice
divisor classes, ranks and Chern classes.  Everything is exact
(integers and rationals; the closed rank formula powers in the integer
ring Z[alpha] of a real quadratic field); nothing is floating point.

Each layer module (``picard``, ``chern``, ``ulrich``, ``syzygy``,
``cubic`` and ``errors``) lists the public names it defines in its own
``__all__``, and the package re-exports exactly their union.
"""

from . import chern, cubic, errors, picard, syzygy, ulrich
from .chern import *
from .cubic import *
from .errors import *
from .picard import *
from .syzygy import *
from .ulrich import *

__version__ = "0.1.0"

__all__ = sorted(chern.__all__ + cubic.__all__ + errors.__all__
                 + picard.__all__ + syzygy.__all__ + ulrich.__all__)
