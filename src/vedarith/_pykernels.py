"""Pure-Python digit-array kernels.

Inputs and outputs are canonical little-endian digit lists (no trailing
most-significant zeros; zero is the empty list).  `_ckernels` is the
compiled twin: same functions, same digit-level algorithms, bit-identical
results.  Everything here is deliberately digit-serial; no function ever
falls back to machine-word multiplication or division of whole operands.

A square (`mul_vedic(xs, xs)`) takes the duplex column sums.

All three dividers keep the partial remainder in a fixed-width big-endian
window and change it only by `_window_sub`, one borrow sweep of a row
padded to the window's width: M+1 digits and the rows divisor*q for
straight division, len(y)+2 bits in two's complement and the rows +y and
-y for the two bit dividers, which share one body (`_bit_divide`).
Like straight division, which preloads the dividend's top M-1 digits,
the bit dividers preload its top len(y)-1 bits, whose steps could only
yield quotient bit 0; their step count stays one per dividend bit.
Straight division keeps each divisor's scale, normalized digits and rows
(built on first use) in a `_Divisor` record; the last divisor's record is
kept, so a run of divisions by one modulus normalizes it and builds each
row once.
"""

from __future__ import annotations

from functools import lru_cache

NAME = "pure"


def _trim(digits: list) -> list:
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


def _window_sub(a: list, b: list, base: int, sweep) -> None:
    # a -= b on equal-width big-endian windows: one borrow sweep over the
    # indices in sweep, least significant first; a borrow out of the top
    # is dropped, so the window wraps like a fixed-width register
    borrow = 0
    for i in sweep:
        t = a[i] - b[i] - borrow
        if t < 0:
            a[i] = t + base
            borrow = 1
        else:
            a[i] = t
            borrow = 0


def _carry(cols: list, base: int) -> list:
    # column sums of any size -> digits, one left-to-right carry pass
    out = []
    carry = 0
    for s in cols:
        t = s + carry
        out.append(t % base)
        carry = t // base
    while carry:
        out.append(carry % base)
        carry //= base
    return _trim(out)


def _scale(digits: list, factor: int, base: int) -> list:
    # digits * single-digit factor
    return _carry([d * factor for d in digits], base) if factor else []


def mul_vedic(xs: list, ys: list, base: int) -> list:
    """Cross-product multiplication: column sums for every digit diagonal,
    then a single left-to-right carry-resolution sweep.  A square (`xs is
    ys`) takes the duplex sums: each distinct digit pair once, doubled."""
    if not xs or not ys:
        return []
    cols = [0] * (len(xs) + len(ys) - 1)
    square = xs is ys
    for i, xi in enumerate(xs):
        if xi == 0:
            continue
        k, row = i, ys
        if square:
            # duplex: the middle square, then each later digit once, doubled
            cols[i + i] += xi * xi
            k, row, xi = i + i + 1, xs[i + 1 :], xi + xi
        for y in row:
            cols[k] += xi * y
            k += 1
    return _carry(cols, base)


def mul_shift_add(xs: list, ys: list, base: int) -> list:
    """Row-wise schoolbook multiplication: one shifted digit-scaled addend
    per multiplier digit, accumulated as it goes."""
    if not xs or not ys:
        return []
    res = [0] * (len(xs) + len(ys))
    for j, d in enumerate(ys):
        if d == 0:
            continue
        carry = 0
        k = j
        for x in xs:
            t = res[k] + x * d + carry
            res[k] = t % base
            carry = t // base
            k += 1
        while carry:
            t = res[k] + carry
            res[k] = t % base
            carry = t // base
            k += 1
    return _trim(res)


class _Divisor(dict):
    """One divisor's fixed work for straight division.

    `scale` is the single-digit factor that lifts the leading digit to at
    least ceil(base/2), `dy` the scaled digits, `main` their leading digit,
    and `self[q]` the subtrahend dy*q, big-endian, zero-padded to M+1 digits.
    """

    __slots__ = ("base", "scale", "dy", "main")

    def __init__(self, ys: tuple, base: int):
        self.base = base
        self.scale = 1 if ys[-1] >= (base + 1) // 2 else base // (ys[-1] + 1)
        self.dy = ys if self.scale == 1 else _scale(ys, self.scale, base)
        assert len(self.dy) == len(ys), "normalization must not grow the divisor"
        self.main = self.dy[-1]

    def __missing__(self, q: int) -> list:
        row = _scale(self.dy, q, self.base)[::-1]
        self[q] = row = [0] * (len(self.dy) + 1 - len(row)) + row
        return row


# The record of the last divisor, keyed on (tuple(ys), base): the tuple is
# a private, immutable copy, so a caller that later mutates its list
# cannot make a stale record match.
_divisor = lru_cache(maxsize=1)(_Divisor)


def div_straight(xs: list, ys: list, base: int, want_trace: bool = False):
    """Straight (at-sight) division by the divisor's leading digit.

    The divisor is normalized by a single-digit scale so its leading digit
    is at least ceil(base/2); each quotient digit is estimated by dividing
    the top of the running partial by that digit alone, then repaired by
    the adjust loop (at most 2 iterations after normalization).  The lower
    divisor digits act as the flag: their product with the quotient digit
    is subtracted from the running partial as one multi-digit value.

    The scale, the normalized divisor and its rows dy*q come from the
    divisor's `_Divisor` record.  The running partial is a window of M+1
    big-endian digits (M = len(ys)); a step drops its top digit, zero as
    the partial stays below the divisor, and appends the next.  At equal
    width list order is numeric order: the adjust loop steps down while the
    window is below the padded row, then `_window_sub` subtracts it in one
    borrow sweep, as in the bit dividers.

    Returns (quotient, remainder, max_adjust, trace) with trace a list of
    (step, K, q_estimate, adjustments, q, r) tuples or None.
    """
    M = len(ys)
    if M == 0:
        raise ZeroDivisionError("division by zero")
    trace = [] if want_trace else None
    d = _divisor(tuple(ys), base)
    scale = d.scale
    dx = xs if scale == 1 else _scale(xs, scale, base)
    L = len(dx)
    if L < M:
        return [], list(xs), 0, trace
    main = d.main
    W = [0, 0] + dx[: L - M : -1]  # the top M-1 digits; each step adds one
    sweep = range(M, -1, -1)
    quotient = []
    max_adjust = 0
    for step, digit in enumerate(dx[L - M :: -1], 1):
        del W[0]
        W.append(digit)
        K = W[0] * base + W[1]
        qhat = K // main
        if qhat >= base:
            qhat = base - 1
        q_est = qhat
        sub = d[qhat]
        while W < sub:
            qhat -= 1
            sub = d[qhat]
        adj = q_est - qhat
        if qhat:
            _window_sub(W, sub, base, sweep)
        quotient.append(qhat)
        if adj > max_adjust:
            max_adjust = adj
        if want_trace:
            trace.append((step, K, q_est, adj, qhat, K - main * qhat))
    if scale != 1:
        # de-scale the remainder; exact by construction
        carry = 0
        for i, w in enumerate(W):
            cur = carry * base + w
            W[i] = cur // scale
            carry = cur % scale
        assert carry == 0, "scaled remainder must divide exactly"
    return _trim(quotient[::-1]), _trim(W[::-1]), max_adjust, trace


def _bit_divide(x_bits: list, y_bits: list, restoring: bool):
    # The partial remainder is a window of len(y_bits) + 2 big-endian bits
    # in two's complement, room for every partial from -2y to 2y, and starts
    # as the dividend's top k bits, which are below y.  Each step shifts in
    # one dividend bit, then changes the window only by one borrow sweep of
    # the padded row plus (+y) or minus (-y).
    if not y_bits:
        raise ZeroDivisionError("division by zero")
    n = len(x_bits)
    w = len(y_bits) + 2
    k = min(n, len(y_bits) - 1)
    sweep = range(w - 1, -1, -1)
    plus = [0, 0] + y_bits[::-1]
    minus = [0] * w
    _window_sub(minus, plus, 2, sweep)
    W = [0] * (w - k) + x_bits[n - k :][::-1]
    Q = [0] * n
    for i in range(n - 1 - k, -1, -1):
        sign = W.pop(0)  # the previous partial's sign
        W.append(x_bits[i])
        if not restoring:
            _window_sub(W, minus if sign else plus, 2, sweep)
            Q[i] = 1 - W[0]
        elif W >= plus:
            _window_sub(W, plus, 2, sweep)
            Q[i] = 1
    if W[0]:
        _window_sub(W, minus, 2, sweep)  # the final add-back
    return _trim(Q), _trim(W[::-1]), n


def div_restoring(x_bits: list, y_bits: list):
    """Bit-serial restoring division: shift in one dividend bit, compare
    the partial with the divisor, subtract it only when the partial is not
    below it.  The partial is a fixed window of len(y_bits) + 2 bits that
    one borrow sweep of the zero-padded divisor changes; it starts as the
    dividend's top len(y_bits) - 1 bits, whose steps could not subtract.

    Returns (quotient_bits, remainder_bits, subtract_attempts), one attempt
    per dividend bit."""
    return _bit_divide(x_bits, y_bits, True)


def div_nonrestoring(x_bits: list, y_bits: list):
    """Bit-serial non-restoring division: shift in one dividend bit, then
    subtract the divisor when the previous partial is non-negative, else
    add it, with no intermediate restore; the quotient bit is the inverted
    new sign, and one final add-back follows when the last partial is
    negative.  The partial is a fixed window of len(y_bits) + 2 bits in
    two's complement; adding y is one borrow sweep of the padded row -y.
    It starts as the top len(y_bits) - 1 dividend bits X with sign 0, so
    the first step gives 2X + b - y, as the textbook's does after its first
    len(y_bits) - 1 steps, all negative with quotient bit 0.

    Returns (quotient_bits, remainder_bits, addsub_steps), one step per
    dividend bit."""
    return _bit_divide(x_bits, y_bits, False)
