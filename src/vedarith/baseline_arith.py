"""Conventional baselines: restoring/non-restoring division and a shift-add
multiplier.

The dividers are the classic bit-serial hardware formulations, so operands
are converted to base 2 on entry and results converted back on exit; the
multiplier scans multiplier digits in the operands' own base.  The bit
kernels skip the leading steps that can only yield quotient bit 0, as the
straight divider does, but count one step per dividend bit.  These exist
as correctness cross-checks and benchmark opponents for the straight
divider and the cross-product multiplier.
"""

from __future__ import annotations

from . import backend, numeral
from .numeral import Natural
from .vedic_div import DivResult


def restoring_divide(dividend: Natural, divisor: Natural) -> DivResult:
    """Bit-serial restoring division (subtract, restore on underflow)."""
    return _bit_divide(dividend, divisor, "div_restoring")


def nonrestoring_divide(dividend: Natural, divisor: Natural) -> DivResult:
    """Bit-serial non-restoring division (alternate add/subtract, one final
    add-back when the last partial is negative)."""
    return _bit_divide(dividend, divisor, "div_nonrestoring")


def shift_add_multiply(x: Natural, y: Natural) -> Natural:
    """Accumulate one shifted, digit-scaled copy of x per digit of y."""
    base = numeral.same_base(x, y)
    out = backend.kernels().mul_shift_add(list(x.digits), list(y.digits), int(base))
    return numeral._from_canonical(tuple(out), base)


def _bit_divide(dividend: Natural, divisor: Natural, kernel: str) -> DivResult:
    """Run the named bit-serial kernel of the active backend on base-2
    copies of the operands; the result comes back in their base."""
    base = numeral.same_base(dividend, divisor)
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero")
    b = int(base)
    q, r, _ = getattr(backend.kernels(), kernel)(
        numeral.bits_of(dividend.digits, b), numeral.bits_of(divisor.digits, b)
    )
    return DivResult(
        numeral._from_canonical(tuple(numeral.digits_of(q, b)), base),
        numeral._from_canonical(tuple(numeral.digits_of(r, b)), base),
    )
