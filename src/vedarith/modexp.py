"""Left-to-right square-and-multiply modular exponentiation.

Every modular product is one multiplication followed by one division, and
both are pluggable: a Strategy picks the multiplier (cross-product or
shift-add) and the divider (straight, restoring or non-restoring), so the
same exponentiation can be timed against each arithmetic backend.  Results
are identical for every combination.

A modular product works on the operands' digit tuples: one kernel
multiply, then one kernel division of the product whose quotient is
dropped; the operands themselves are never reduced.
"""

from __future__ import annotations

from . import backend, baseline_arith, numeral, vedic_div, vedic_mul
from .numeral import Natural, Record


class Algorithm(Record):
    """One registered algorithm: its public function on Naturals (`run`),
    and the name of the kernel that does its work on digit tuples; every
    kernel takes `(xs, ys, base)`."""

    __slots__ = ("run", "kernel")


# The algorithm registry: every name a Strategy, the bench or the CLI
# accepts, mapped to its public function and its kernel.
MULTIPLIERS = {
    "vedic": Algorithm(vedic_mul.multiply, "mul_vedic"),
    "shift_add": Algorithm(baseline_arith.shift_add_multiply, "mul_shift_add"),
}
DIVIDERS = {
    "vedic": Algorithm(vedic_div.divide, "div_straight"),
    "restoring": Algorithm(baseline_arith.restoring_divide, "div_restoring"),
    "nonrestoring": Algorithm(baseline_arith.nonrestoring_divide, "div_nonrestoring"),
}


class Strategy(Record):
    """Which multiplier and divider implementations to run on."""

    __slots__ = ("multiplier", "divider")

    def __init__(self, multiplier: str = "vedic", divider: str = "vedic"):
        if multiplier not in MULTIPLIERS:
            raise ValueError(f"unknown multiplier {multiplier!r}")
        if divider not in DIVIDERS:
            raise ValueError(f"unknown divider {divider!r}")
        super().__init__(multiplier, divider)


DEFAULT_STRATEGY = Strategy()


def all_strategies() -> tuple[Strategy, ...]:
    """Every multiplier/divider combination (six in total)."""
    return tuple(
        Strategy(m, d) for m in MULTIPLIERS for d in DIVIDERS
    )


def _reduce(xs: tuple, ns: tuple, base: int, divider: Algorithm) -> tuple:
    """The remainder of digit tuple xs by n's digits ns; xs itself when
    its value is below n (length first, then the big-endian digits).  No
    value is below a zero n, so every call with one reaches the check."""
    if len(xs) < len(ns) or (len(xs) == len(ns) and xs[::-1] < ns[::-1]):
        return xs
    if not ns:
        raise ZeroDivisionError("modulus is zero")
    return getattr(backend.kernels(), divider.kernel)(xs, ns, base)[1]


def mod_reduce(a: Natural, n: Natural, strategy: Strategy = DEFAULT_STRATEGY) -> Natural:
    """Remainder of a by n, using the strategy's divider; a itself when it
    is already below n."""
    numeral.same_base(a, n)
    rs = _reduce(a.digits, n.digits, int(n.base), DIVIDERS[strategy.divider])
    return a if rs is a.digits else numeral._from_canonical(rs, n.base)


def mod_mul(
    a: Natural, b: Natural, n: Natural, strategy: Strategy = DEFAULT_STRATEGY
) -> Natural:
    """(a * b) mod n via the strategy's multiplier then divider: one kernel
    product and one reduction of it.  The operands are not reduced first,
    since (a * b) mod n = ((a mod n) * (b mod n)) mod n and every caller's
    operands are already below n.  `mod_mul(a, a, n)` hands the multiplier
    one tuple, so the cross-product multiplier squares by its duplex path."""
    numeral.same_base(a, n)
    numeral.same_base(b, n)
    base = int(n.base)
    multiply = getattr(backend.kernels(), MULTIPLIERS[strategy.multiplier].kernel)
    product = multiply(a.digits, b.digits, base)
    rs = _reduce(product, n.digits, base, DIVIDERS[strategy.divider])
    return numeral._from_canonical(rs, n.base)


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
    if n.digits in ((), (1,)):
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
