"""Golden fixtures: the published invariant tables the tools must reproduce.

Consumers recompute every value and diff against these rows rather than
printing them, so a regression in the calculus surfaces as a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .picard import DivisorClass, parse_divisor


@dataclass(frozen=True)
class ModuliRow:
    """One row of the rank-2 moduli-dimension table on degrees 4..7."""

    degree: int
    c1_sq: int
    c2: int
    dim: int


# The rank-2 Ulrich moduli rows as the source publishes them (not a census).
MODULI_DIM_ROWS: tuple[ModuliRow, ...] = (
    ModuliRow(4, 12, 4, 1),
    ModuliRow(4, 16, 6, 5),
    ModuliRow(5, 16, 5, 1),
    ModuliRow(5, 20, 7, 5),
    ModuliRow(6, 20, 6, 1),
    ModuliRow(6, 24, 8, 5),
    ModuliRow(7, 24, 7, 1),
    ModuliRow(7, 26, 8, 3),
    ModuliRow(7, 28, 9, 5),
)

# A lattice class realizing each row's (c1^2, c1.H = 2d), used to
# exercise the exact-class code paths.  Any class with the right
# numbers serves.
MODULI_ROW_WITNESS_C1: dict[tuple[int, int], str] = {
    (4, 12): "(4;1,1,1,1,0)",
    (4, 16): "(6;2,2,2,2,2)",
    (5, 16): "(5;2,2,1,0)",
    (5, 20): "(6;2,2,2,2)",
    (6, 20): "(5;2,1,0)",
    (6, 24): "(6;2,2,2)",
    (7, 24): "(5;1,0)",
    (7, 26): "(6;3,1)",
    (7, 28): "(6;2,2)",
}


def moduli_row_witness(row: ModuliRow) -> DivisorClass:
    return parse_divisor(MODULI_ROW_WITNESS_C1[(row.degree, row.c1_sq)])


@dataclass(frozen=True)
class CubicPairRow:
    """One row of the rank-4 partner table on the cubic surface.

    The rank-2 seed has c1 equal to the sum of the two listed twisted
    cubics and second Chern class ``seed_c2``; its rank-4 partner sits
    at (-c1, partner_c2) and both moduli spaces have dimension ``dim``.
    Twisting the partner by a line bundle c1' moves its c2 along
    6 c1'^2 + 3 c1(partner).c1' + partner_c2.
    """

    part_tags: tuple[str, str]
    parts: tuple[str, str]
    seed_c2: int
    partner_c2: int
    dim: int

    def part_divisors(self) -> tuple[DivisorClass, DivisorClass]:
        return parse_divisor(self.parts[0]), parse_divisor(self.parts[1])


CUBIC_PAIR_ROWS: tuple[CubicPairRow, ...] = (
    CubicPairRow(("A", "C"), ("(1;0,0,0,0,0,0)", "(3;2,1,1,1,1,0)"), 3, 5, 1),
    CubicPairRow(("B", "B"), ("(2;1,1,1,0,0,0)", "(2;0,0,0,1,1,1)"), 4, 6, 3),
    CubicPairRow(("A", "E"), ("(1;0,0,0,0,0,0)", "(5;2,2,2,2,2,2)"), 5, 7, 5),
)
