"""Conventional baselines: restoring/non-restoring division and a shift-add
multiplier.

The dividers are the classic bit-serial hardware formulations.  Like the
straight divider they take the operands' digit tuples and return digits in
their base; their kernels expand to base 2 on entry and pack back on exit.
The multiplier scans multiplier digits in the operands' own base.  The
bit kernels skip the leading steps that can only yield quotient bit 0, as
the straight divider does, but count one step per dividend bit.  These
exist as correctness cross-checks and benchmark opponents for the straight
divider and the cross-product multiplier.
"""

from __future__ import annotations

from .numeral import Natural
from .vedic_div import DivResult, _divide
from .vedic_mul import _multiply


def restoring_divide(dividend: Natural, divisor: Natural) -> DivResult:
    """Bit-serial restoring division (subtract, restore on underflow)."""
    return _divide(dividend, divisor, "div_restoring")[0]


def nonrestoring_divide(dividend: Natural, divisor: Natural) -> DivResult:
    """Bit-serial non-restoring division (alternate add/subtract, one final
    add-back when the last partial is negative)."""
    return _divide(dividend, divisor, "div_nonrestoring")[0]


def shift_add_multiply(x: Natural, y: Natural) -> Natural:
    """Accumulate one shifted, digit-scaled copy of x per digit of y."""
    return _multiply(x, y, "mul_shift_add")
