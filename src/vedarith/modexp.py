"""Left-to-right square-and-multiply modular exponentiation.

Every modular product is one multiplication followed by one division, and
both are pluggable: a Strategy picks the multiplier (cross-product or
shift-add) and the divider (straight, restoring or non-restoring), so the
same exponentiation can be timed against each arithmetic backend.  Results
are identical for every combination.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import baseline_arith, numeral, vedic_div, vedic_mul
from .numeral import Base, Natural, Ordering

# The algorithm registry: every name a Strategy, the bench or the CLI
# accepts, mapped to its public function.
MULTIPLIERS = {
    "vedic": vedic_mul.multiply,
    "shift_add": baseline_arith.shift_add_multiply,
}
DIVIDERS = {
    "vedic": vedic_div.divide,
    "restoring": baseline_arith.restoring_divide,
    "nonrestoring": baseline_arith.nonrestoring_divide,
}


@dataclass(frozen=True)
class Strategy:
    """Which multiplier and divider implementations to run on."""

    multiplier: str = "vedic"
    divider: str = "vedic"

    def __post_init__(self):
        if self.multiplier not in MULTIPLIERS:
            raise ValueError(f"unknown multiplier {self.multiplier!r}")
        if self.divider not in DIVIDERS:
            raise ValueError(f"unknown divider {self.divider!r}")

    def multiply(self, a: Natural, b: Natural) -> Natural:
        return MULTIPLIERS[self.multiplier](a, b)

    def divide(self, a: Natural, b: Natural) -> vedic_div.DivResult:
        return DIVIDERS[self.divider](a, b)


DEFAULT_STRATEGY = Strategy()


def all_strategies() -> tuple[Strategy, ...]:
    """Every multiplier/divider combination (six in total)."""
    return tuple(
        Strategy(m, d) for m in MULTIPLIERS for d in DIVIDERS
    )


@dataclass(frozen=True)
class ExponentScan:
    """Exponent bits, most significant first; empty for exponent zero."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if self.bits and self.bits[0] != 1:
            raise ValueError("nonzero exponent must start with a 1 bit")

    @classmethod
    def from_natural(cls, b: Natural) -> "ExponentScan":
        return cls(tuple(reversed(numeral.to_bits(b))))

    @property
    def bit_length(self) -> int:
        return len(self.bits)

    @property
    def popcount(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class ModPowCounts:
    """Modular multiplications performed: squarings plus conditional
    multiplies; the leading exponent bit is absorbed by initializing the
    accumulator to the base."""

    squarings: int
    multiplies: int


def mod_reduce(a: Natural, n: Natural, strategy: Strategy = DEFAULT_STRATEGY) -> Natural:
    """Remainder of a by n, using the strategy's divider."""
    if n.is_zero():
        raise ZeroDivisionError("modulus is zero")
    if numeral.compare(a, n) is Ordering.LESS:
        return a
    return strategy.divide(a, n).remainder


def mod_mul(
    a: Natural, b: Natural, n: Natural, strategy: Strategy = DEFAULT_STRATEGY
) -> Natural:
    """(a * b) mod n via the strategy's multiplier then divider."""
    if n.is_zero():
        raise ZeroDivisionError("modulus is zero")
    a = mod_reduce(a, n, strategy)
    b = mod_reduce(b, n, strategy)
    return mod_reduce(strategy.multiply(a, b), n, strategy)


def mod_pow(
    a: Natural,
    b: Natural,
    n: Natural,
    strategy: Strategy = DEFAULT_STRATEGY,
    literal: bool = False,
) -> Natural:
    """a**b mod n by scanning exponent bits from the most significant end."""
    if literal:
        value, _ = _literal_pow(a, b, n, strategy, want_trace=False)
        return value
    value, _, _ = _fast_pow(a, b, n, strategy, want_trace=False)
    return value


def mod_pow_counted(
    a: Natural, b: Natural, n: Natural, strategy: Strategy = DEFAULT_STRATEGY
) -> tuple[Natural, ModPowCounts]:
    value, counts, _ = _fast_pow(a, b, n, strategy, want_trace=False)
    return value, counts


def mod_pow_traced(
    a: Natural,
    b: Natural,
    n: Natural,
    strategy: Strategy = DEFAULT_STRATEGY,
    literal: bool = False,
) -> tuple[Natural, tuple[str, ...]]:
    """Result plus one trace line per step (bit index, operation, value)."""
    if literal:
        value, trace = _literal_pow(a, b, n, strategy, want_trace=True)
        return value, tuple(trace)
    value, _, trace = _fast_pow(a, b, n, strategy, want_trace=True)
    return value, tuple(trace)


def _check_modulus(n: Natural) -> None:
    if n.is_zero() or numeral.compare(n, numeral.one(n.base)) is Ordering.EQUAL:
        raise ValueError("modulus must be greater than 1")


def _fast_pow(a: Natural, b: Natural, n: Natural, strategy, want_trace: bool):
    """Square-and-multiply with the redundant leading squaring removed:
    the accumulator starts at a (reduced), so squarings = bitlen(b) - 1 and
    conditional multiplies = popcount(b) - 1."""
    _check_modulus(n)
    numeral.same_base(a, n)
    scan = ExponentScan.from_natural(b)
    trace: list | None = [] if want_trace else None
    if not scan.bits:
        return numeral.one(n.base), ModPowCounts(0, 0), trace
    base_val = mod_reduce(a, n, strategy)
    m = base_val
    k = scan.bit_length - 1
    if want_trace:
        trace.append(f"j={k} op=init m={numeral.format(m)}")
    squarings = 0
    multiplies = 0
    for idx, bit in enumerate(scan.bits[1:], start=1):
        j = k - idx
        m = mod_mul(m, m, n, strategy)
        squarings += 1
        if want_trace:
            trace.append(f"j={j} op=square m={numeral.format(m)}")
        if bit:
            m = mod_mul(m, base_val, n, strategy)
            multiplies += 1
            if want_trace:
                trace.append(f"j={j} op=multiply m={numeral.format(m)}")
    return m, ModPowCounts(squarings, multiplies), trace


def _literal_pow(a: Natural, b: Natural, n: Natural, strategy, want_trace: bool):
    """The unoptimized variant: m starts at 1 and every bit is squared,
    including the leading one.  The bookkeeping variable l is carried along
    exactly as printed (l = 2*j, then l = l+1 on set bits) even though it
    never influences the result."""
    _check_modulus(n)
    numeral.same_base(a, n)
    scan = ExponentScan.from_natural(b)
    trace: list | None = [] if want_trace else None
    base_val = mod_reduce(a, n, strategy)
    m = numeral.one(n.base)
    l = 0
    k = scan.bit_length - 1
    for idx, bit in enumerate(scan.bits):
        j = k - idx
        l = 2 * j
        m = mod_mul(m, m, n, strategy)
        if want_trace:
            trace.append(f"j={j} l={l} op=square m={numeral.format(m)}")
        if bit:
            l = l + 1
            m = mod_mul(m, base_val, n, strategy)
            if want_trace:
                trace.append(f"j={j} l={l} op=multiply m={numeral.format(m)}")
    return m, trace
