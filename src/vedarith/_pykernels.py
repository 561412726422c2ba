"""Pure-Python digit-array kernels.

Inputs and outputs are canonical little-endian digit lists (no trailing
most-significant zeros; zero is the empty list).  `_ckernels` is the
compiled twin: same functions, same digit-level algorithms, bit-identical
results.  Everything here is deliberately digit-serial; no function ever
falls back to machine-word multiplication or division of whole operands.

Straight division keeps each divisor's fixed work in a `_Divisor` record:
the single-digit normalizing scale, the normalized digits and their
leading digit, and the rows divisor*q, each filled the first time a
quotient digit needs it.  The record of the last divisor seen is kept, so
a run of divisions by one modulus (as in modular exponentiation)
normalizes it once and builds each row once.
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


def _scale(digits: list, factor: int, base: int) -> list:
    # digits * single-digit factor, one carry pass
    if factor == 0 or not digits:
        return []
    out = []
    carry = 0
    for d in digits:
        t = d * factor + carry
        out.append(t % base)
        carry = t // base
    while carry:
        out.append(carry % base)
        carry //= base
    return _trim(out)


def mul_vedic(xs: list, ys: list, base: int) -> list:
    """Cross-product multiplication: column sums for every digit diagonal,
    then a single left-to-right carry-resolution sweep."""
    m, n = len(xs), len(ys)
    if m == 0 or n == 0:
        return []
    cols = [0] * (m + n - 1)
    for i in range(m):
        xi = xs[i]
        if xi == 0:
            continue
        for j in range(n):
            cols[i + j] += xi * ys[j]
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


def mul_shift_add(xs: list, ys: list, base: int) -> list:
    """Row-wise schoolbook multiplication: one shifted digit-scaled addend
    per multiplier digit, accumulated as it goes."""
    m, n = len(xs), len(ys)
    if m == 0 or n == 0:
        return []
    res = [0] * (m + n)
    for j in range(n):
        d = ys[j]
        if d == 0:
            continue
        carry = 0
        for i in range(m):
            t = res[i + j] + xs[i] * d + carry
            res[i + j] = t % base
            carry = t // base
        k = j + m
        while carry:
            t = res[k] + carry
            res[k] = t % base
            carry = t // base
            k += 1
    return _trim(res)


class _Divisor:
    """One divisor's fixed work for straight division.

    `scale` is the single-digit factor that lifts the leading digit to at
    least ceil(base/2), `dy` the scaled digits, `main` their leading digit,
    and `rows[q]` the subtrahend dy*q, None until first needed.
    """

    __slots__ = ("base", "scale", "dy", "main", "rows")

    def __init__(self, ys: tuple, base: int):
        self.base = base
        self.scale = 1 if ys[-1] >= (base + 1) // 2 else base // (ys[-1] + 1)
        self.dy = ys if self.scale == 1 else _scale(ys, self.scale, base)
        assert len(self.dy) == len(ys), "normalization must not grow the divisor"
        self.main = self.dy[-1]
        self.rows = [None] * base

    def row(self, q: int) -> list:
        r = self.rows[q]
        if r is None:
            r = self.rows[q] = _scale(self.dy, q, self.base)
        return r


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

    The scale, the normalized divisor and its multiples come from the
    divisor's `_Divisor` record, so repeated divisions by one divisor do
    that work once; each step only compares against the memoized multiple
    of its digit estimate, steps down on overshoot, and subtracts once.

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
    rows = d.rows
    top = base - 1
    W: list = []  # running partial, always < divisor before each shift
    quotient = []
    max_adjust = 0
    step = 0
    for t in range(L):
        W.insert(0, dx[L - 1 - t])
        _trim(W)
        if t < M - 1:
            continue
        step += 1
        # K = the top of the partial, at most two digits' worth
        K = (W[M - 1] if len(W) > M - 1 else 0) + base * (W[M] if len(W) > M else 0)
        qhat = K // main
        if qhat > top:
            qhat = top
        q_est = qhat
        sub = rows[qhat]
        if sub is None:
            sub = d.row(qhat)
        adj = 0
        while _cmp(W, sub) < 0:
            qhat -= 1
            sub = d.row(qhat)
            adj += 1
        _sub_inplace(W, sub, base)
        quotient.append(qhat)
        if adj > max_adjust:
            max_adjust = adj
        if want_trace:
            trace.append((step, K, q_est, adj, qhat, K - main * qhat))
    quotient.reverse()
    _trim(quotient)
    if scale != 1:
        # de-scale the remainder; exact by construction
        carry = 0
        for i in range(len(W) - 1, -1, -1):
            cur = carry * base + W[i]
            W[i] = cur // scale
            carry = cur % scale
        assert carry == 0, "scaled remainder must divide exactly"
        _trim(W)
    return quotient, W, max_adjust, trace


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
