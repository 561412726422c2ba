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
all of this on digit lists; this module converts to and from `Natural`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import backend, numeral
from .numeral import Natural


@dataclass(frozen=True)
class DivResult:
    """Quotient/remainder pair: quotient * divisor + remainder = dividend."""

    quotient: Natural
    remainder: Natural


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
    result, _ = _divide_full(dividend, divisor, want_trace=False)
    return result


def divide_traced(
    dividend: Natural, divisor: Natural
) -> tuple[DivResult, tuple[DivisionStep, ...]]:
    """Like divide, also returning one DivisionStep per quotient column."""
    return _divide_full(dividend, divisor, want_trace=True)


def _divide_full(dividend: Natural, divisor: Natural, want_trace: bool):
    base = numeral.same_base(dividend, divisor)
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero")
    q, r, _, raw = backend.kernels().div_straight(
        list(dividend.digits), list(divisor.digits), int(base), want_trace
    )
    result = DivResult(
        numeral._from_canonical(tuple(q), base),
        numeral._from_canonical(tuple(r), base),
    )
    trace = tuple(map(DivisionStep._make, raw)) if raw is not None else None
    return result, trace
