"""Pure-Python digit-array kernels.

Inputs and outputs are canonical little-endian digit lists (no trailing
most-significant zeros; zero is the empty list).  `_ckernels` is the
compiled twin: same functions, same digit-level algorithms, bit-identical
results.  Everything here is deliberately digit-serial; no function ever
falls back to machine-word multiplication or division of whole operands.

A square (`mul_vedic(xs, xs)`) takes the duplex column sums.  Straight
division keeps each divisor's scale, normalized digits and rows divisor*q
(built on first use, big-endian, padded to the width of the division's
fixed window) in a `_Divisor` record; the last divisor's record is kept,
so a run of divisions by one modulus normalizes it and builds each row once.
"""

from __future__ import annotations

from functools import lru_cache

NAME = "pure"


def _trim(digits: list) -> list:
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


def _cmp(a: list, b: list) -> int:
    n = len(a)
    m = len(b)
    if n != m:
        return -1 if n < m else 1
    for i in range(n - 1, -1, -1):
        x = a[i]
        y = b[i]
        if x != y:
            return -1 if x < y else 1
    return 0


def _sub_inplace(a: list, b: list, base: int) -> list:
    # a -= b, requires a >= b; walks b's digits, then the borrow run only
    borrow = 0
    for i, y in enumerate(b):
        t = a[i] - y - borrow
        if t < 0:
            a[i] = t + base
            borrow = 1
        else:
            a[i] = t
            borrow = 0
    i = len(b)
    while borrow:
        if a[i]:
            a[i] -= 1
            borrow = 0
        else:
            a[i] = base - 1
        i += 1
    return _trim(a)


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
    window is below the padded row, then one borrow sweep subtracts it.

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
            borrow = 0
            for i in sweep:
                t = W[i] - sub[i] - borrow
                if t < 0:
                    W[i] = t + base
                    borrow = 1
                else:
                    W[i] = t
                    borrow = 0
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


def div_restoring(x_bits: list, y_bits: list):
    """Bit-serial restoring division: shift in one dividend bit, attempt a
    subtraction of the divisor, keep it only when it does not underflow.

    Returns (quotient_bits, remainder_bits, subtract_attempts)."""
    if not y_bits:
        raise ZeroDivisionError("division by zero")
    n = len(x_bits)
    R: list = []
    Q = [0] * n
    attempts = 0
    for i in range(n - 1, -1, -1):
        R.insert(0, x_bits[i])
        _trim(R)
        attempts += 1
        if _cmp(R, y_bits) >= 0:
            _sub_inplace(R, y_bits, 2)
            Q[i] = 1
    return _trim(Q), R, attempts


def div_nonrestoring(x_bits: list, y_bits: list):
    """Bit-serial non-restoring division: add or subtract the divisor each
    step depending on the running sign, no intermediate restore, one final
    add-back when the last partial is negative.

    Returns (quotient_bits, remainder_bits, addsub_steps)."""
    if not y_bits:
        raise ZeroDivisionError("division by zero")
    n = len(x_bits)
    R: list = []  # magnitude of the partial remainder
    neg = False
    Q = [0] * n
    for i in range(n - 1, -1, -1):
        bit = x_bits[i]
        if not neg:
            R.insert(0, bit)
            _trim(R)
            if _cmp(R, y_bits) >= 0:
                _sub_inplace(R, y_bits, 2)
            else:
                R = _rsub(y_bits, R)
                neg = True
        else:
            R.insert(0, 0)
            _trim(R)
            if bit:
                _sub_inplace(R, [1], 2)
            if _cmp(R, y_bits) <= 0:
                R = _rsub(y_bits, R)
                neg = False
            else:
                _sub_inplace(R, y_bits, 2)
        Q[i] = 0 if neg else 1
    if neg:
        R = _rsub(y_bits, R)
    return _trim(Q), R, n


def _rsub(a: list, b: list) -> list:
    # a - b into a fresh list (base 2), requires a >= b
    out = list(a)
    return _sub_inplace(out, b, 2)
