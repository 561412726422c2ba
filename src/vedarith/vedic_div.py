"""Straight (at-sight) division.

Only the divisor's leading digit ever divides anything: each quotient
digit is estimated from the top of the running partial divided by that
digit alone.  The remaining low digits form the "flag"; their product with
the digit is owed by the partial too, so the kernel compares the partial
with the whole multiple divisor * q and steps q down while the multiple
exceeds it.  Those steps are the adjust count of the step; the multiple
is then subtracted once.

Divisors whose leading digit is small are scaled up by a single-digit
factor first, which caps the adjust count at two per step; the remainder
is de-scaled exactly at the end.  The kernels (`backend.kernels()`) do
all of this on a `Natural`'s digit tuple; this module wraps the results.
"""

from __future__ import annotations

from typing import NamedTuple

from . import backend, numeral
from .numeral import Natural, Record


class DivResult(Record):
    """Quotient/remainder pair: quotient * divisor + remainder = dividend."""

    __slots__ = ("quotient", "remainder")

    # written out: every division builds one, and Record's loop costs more
    def __init__(self, quotient: Natural, remainder: Natural):
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "remainder", remainder)


class DivisionStep(NamedTuple):
    """One quotient digit of a traced division.

    `partial_dividend` (K) is the two-digit window the estimate divides,
    `q_estimate` the digit before the adjust loop, `q`/`r` the final digit
    and running remainder of the leading-digit division.
    """

    step: int
    partial_dividend: int
    q_estimate: int
    adjustments: int
    q: int
    r: int

    def as_line(self) -> str:
        return (
            f"step={self.step} K={self.partial_dividend} "
            f"q_est={self.q_estimate} adjusts={self.adjustments} "
            f"q={self.q} r={self.r}"
        )


def divide(dividend: Natural, divisor: Natural) -> DivResult:
    """Straight division; Euclidean identity and remainder bound hold."""
    return _divide(dividend, divisor, "div_straight")[0]


def divide_traced(
    dividend: Natural, divisor: Natural
) -> tuple[DivResult, tuple[DivisionStep, ...]]:
    """Like divide, also returning one DivisionStep per quotient column."""
    result, (_, raw) = _divide(dividend, divisor, "div_straight", True)
    return result, tuple(map(DivisionStep._make, raw))


def _divide(dividend: Natural, divisor: Natural, kernel: str, *flags):
    """Every divider's one path on Naturals: the operands' common base, the
    zero check, then the active backend's named kernel on their digit
    tuples.  Returns the DivResult and the kernel's remaining fields."""
    base = numeral.same_base(dividend, divisor)
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero")
    q, r, *fields = getattr(backend.kernels(), kernel)(
        dividend.digits, divisor.digits, int(base), *flags
    )
    quotient = numeral._from_canonical(q, base)
    return DivResult(quotient, numeral._from_canonical(r, base)), fields
