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
    value, _ = _ladder(a, b, n, strategy, literal, want_trace=False)
    return value


def mod_pow_traced(
    a: Natural,
    b: Natural,
    n: Natural,
    strategy: Strategy = DEFAULT_STRATEGY,
    literal: bool = False,
) -> tuple[Natural, tuple[str, ...]]:
    """Result plus one trace line per step (bit index, operation, value)."""
    value, trace = _ladder(a, b, n, strategy, literal, want_trace=True)
    return value, tuple(trace)


def _check_modulus(n: Natural) -> None:
    if n.is_zero() or numeral.compare(n, numeral.one(n.base)) is Ordering.EQUAL:
        raise ValueError("modulus must be greater than 1")


def _ladder(
    a: Natural, b: Natural, n: Natural, strategy, literal: bool, want_trace: bool
):
    """Square-and-multiply over the exponent bits j = top .. 0: one
    squaring per bit, then one multiply by a when bit j is set.

    The fast variant starts the accumulator at a (reduced) in place of the
    leading bit, so squarings = bitlen(b) - 1 and multiplies =
    popcount(b) - 1.  The literal variant is the unoptimized one: it
    starts at 1 and squares on every bit, including the leading one, and
    its trace lines carry the bookkeeping variable l exactly as printed
    (l = 2*j, then l = l+1 on set bits), which never influences the
    result."""
    _check_modulus(n)
    numeral.same_base(a, n)
    bits = numeral.to_bits(b)  # bits[j] is exponent bit j
    k = len(bits) - 1
    trace: list | None = [] if want_trace else None
    if k < 0:
        return numeral.one(n.base), trace
    base_val = mod_reduce(a, n, strategy)
    if literal:
        m, top = numeral.one(n.base), k
    else:
        m, top = base_val, k - 1
        if want_trace:
            trace.append(f"j={k} op=init m={numeral.format(m)}")
    for j in range(top, -1, -1):
        m = mod_mul(m, m, n, strategy)
        if want_trace:
            l = f" l={2 * j}" if literal else ""
            trace.append(f"j={j}{l} op=square m={numeral.format(m)}")
        if bits[j]:
            m = mod_mul(m, base_val, n, strategy)
            if want_trace:
                l = f" l={2 * j + 1}" if literal else ""
                trace.append(f"j={j}{l} op=multiply m={numeral.format(m)}")
    return m, trace
