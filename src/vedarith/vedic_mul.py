"""Cross-product ("vertically and crosswise") multiplication.

The product of two digit sequences is assembled from per-column cross
products: column c sums every digit pair whose indices add to c.  Each
digit-by-digit product stands in for one small parallel multiply unit; a
single carry-resolution sweep then turns the column sums into digits.
For 4-bit digits this is exactly the classic decomposition of a 16x16
multiply into sixteen 4x4 units feeding seven cross-product columns.
"""

from __future__ import annotations

from . import backend, numeral
from .numeral import Natural, Record

GROUP_BITS = (1, 2, 4, 8)


class StructureReport(Record):
    """How many d x d multiply units and cross-product columns an N-bit
    operand pair decomposes into."""

    __slots__ = ("operand_bits", "group_bits", "module_count", "column_count")


def multiply(x: Natural, y: Natural) -> Natural:
    """Product via cross-product column sums and one carry sweep."""
    base = numeral.same_base(x, y)
    xs = list(x.digits)
    ys = xs if x.digits == y.digits else list(y.digits)  # a square: duplex
    out = backend.kernels().mul_vedic(xs, ys, int(base))
    return numeral._from_canonical(tuple(out), base)


def structure_report(operand_bits: int, group_bits: int) -> StructureReport:
    """Block/column counts when N-bit operands are split into d-bit groups."""
    if group_bits not in GROUP_BITS:
        raise ValueError(f"group width must be one of {GROUP_BITS}")
    if operand_bits <= 0 or operand_bits % group_bits != 0:
        raise ValueError(
            f"operand width must be a positive multiple of {group_bits}"
        )
    groups = operand_bits // group_bits
    return StructureReport(
        operand_bits=operand_bits,
        group_bits=group_bits,
        module_count=groups * groups,
        column_count=2 * groups - 1,
    )
