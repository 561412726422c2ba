"""Pure-Python digit-array kernels, and the home of every pure digit loop.

Inputs and outputs are the canonical little-endian digit tuples a `Natural`
holds (no trailing most-significant zeros; zero is `()`).  `_ckernels` is the
compiled twin: same functions, same digit-level algorithms, bit-identical
results.  Everything here is deliberately digit-serial; no function ever
falls back to machine-word multiplication or division of whole operands.
The trailing-zero trim `_trim`, the carry pass `_carry`, the borrow sweep
`_window_sub` and short division `_short_divide` are written once, here;
`Natural`'s constructor trims with `_trim`, `numeral`'s add and sub use the
others, and `_ckernels` has one C twin of each of the last three
(`resolve_carries`, `window_sub`, `short_divide`).

A square (`mul_vedic(xs, xs)`) takes the duplex column sums.

Every kernel takes `(xs, ys, base)`, by position only; the bit dividers
convert to bits and back inside (`_bits_of`/`_digits_of`, the package's
one base-2 conversion).  All three dividers keep the partial remainder in a
fixed-width big-endian window and change it only by `_window_sub`, one
borrow sweep of a row padded to the window's width: M+1 digits and the
rows divisor*q for straight division, len(y)+2 bits in two's complement
and the rows +y and (non-restoring only) -y for the two bit dividers,
which share one body (`_bit_divide`).  Like straight division, which
preloads the dividend's top M-1 digits, the bit dividers preload its top
len(y)-1 bits, whose steps could only yield quotient bit 0; their step
count stays one per dividend bit.
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
    # a -= b on equal-width windows: one borrow sweep over the indices in
    # sweep, least significant first (the order is all it needs, so a
    # window may be big- or little-endian); a borrow out of the top is
    # dropped, so the window wraps like a fixed-width register
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


def _short_divide(digits: list, divisor: int, base: int) -> int:
    # digits //= divisor in place on big-endian digits, top digit first;
    # returns the remainder
    r = 0
    for i, d in enumerate(digits):
        digits[i], r = divmod(r * base + d, divisor)
    return r


def _scale(digits: list, factor: int, base: int) -> list:
    # digits * single-digit factor
    return _carry([d * factor for d in digits], base) if factor else []


def mul_vedic(xs: tuple, ys: tuple, base: int, /) -> tuple:
    """Cross-product multiplication: column sums for every digit diagonal,
    then a single left-to-right carry-resolution sweep.  A square (`xs is
    ys`) takes the duplex sums: each distinct digit pair once, doubled."""
    if not xs or not ys:
        return ()
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
    return tuple(_carry(cols, base))


def mul_shift_add(xs: tuple, ys: tuple, base: int, /) -> tuple:
    """Row-wise schoolbook multiplication: one shifted digit-scaled addend
    per multiplier digit, accumulated as it goes."""
    if not xs or not ys:
        return ()
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
    return tuple(_trim(res))


class _Divisor(dict):
    """One divisor's fixed work for straight division.

    `scale` is base // (top + 1) (Knuth's step D1): it lifts the leading
    digit to at least floor(base/2).  `dy` is the scaled digits, `main` their
    leading digit, `self[q]` the row dy*q, big-endian, padded to M+1 digits.
    """

    __slots__ = ("base", "scale", "dy", "main")

    def __init__(self, ys: tuple, base: int):
        self.base = base
        self.scale = base // (ys[-1] + 1)
        self.dy = ys if self.scale == 1 else _scale(ys, self.scale, base)
        assert len(self.dy) == len(ys), "normalization must not grow the divisor"
        self.main = self.dy[-1]

    def __missing__(self, q: int) -> list:
        row = _scale(self.dy, q, self.base)[::-1]
        self[q] = row = [0] * (len(self.dy) + 1 - len(row)) + row
        return row


_divisor = lru_cache(maxsize=1)(_Divisor)


def div_straight(xs: tuple, ys: tuple, base: int, want_trace: bool = False, /):
    """Straight (at-sight) division by the divisor's leading digit.

    The divisor is normalized by a single-digit scale so its leading digit
    is at least floor(base/2); each quotient digit is estimated by dividing
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
    d = _divisor(ys, base)
    scale = d.scale
    dx = xs if scale == 1 else _scale(xs, scale, base)
    L = len(dx)
    if L < M:
        return (), xs, 0, trace
    main = d.main
    W = [0, 0, *dx[: L - M : -1]]  # the top M-1 digits; each step adds one
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
        carry = _short_divide(W, scale, base)
        assert carry == 0, "scaled remainder must divide exactly"
    return tuple(_trim(quotient[::-1])), tuple(_trim(W[::-1])), max_adjust, trace


@lru_cache(maxsize=None)
def _bit_tables(base: int):
    # For base 2**w with w <= 8: w, the w little-endian bits of every digit
    # and the digit of each bit tuple; None for any other base.
    w = base.bit_length() - 1
    if base != 1 << w or w > 8:
        return None
    bits = [tuple(d >> i & 1 for i in range(w)) for d in range(base)]
    return w, bits, dict(zip(bits, range(base)))


def _bits_of(digits, base: int) -> list:
    """The trimmed little-endian bits of little-endian digits in any base
    2..65536: by table for a power of two up to 256, else by digit-serial
    short division by 2**16, sixteen halvings per pass."""
    tables = _bit_tables(base)
    if tables is None:
        xs, bits = list(reversed(digits)), []  # big-endian
        while xs:
            r = _short_divide(xs, 1 << 16, base)
            bits += [r >> j & 1 for j in range(16)]
            while xs and not xs[0]:
                del xs[0]
        return _trim(bits)
    table = tables[1]
    return _trim([b for d in digits for b in table[d]])


def _digits_of(bits: list, base: int) -> tuple:
    """The canonical little-endian digits in any base 2..65536 of
    little-endian bits: by table for a power of two up to 256, else by
    digit-serial multiplication by 2**16, sixteen doublings per pass, top
    bits first."""
    tables = _bit_tables(base)
    if tables is None:
        digits = []
        for s in range((len(bits) - 1) // 16 * 16, -1, -16):
            cols = [d << 16 for d in digits] or [0]
            cols[0] += sum(b << j for j, b in enumerate(bits[s : s + 16]))
            digits = _carry(cols, base)
        return tuple(digits)
    w, _, digit = tables
    groups = zip(*[iter(bits + [0] * (-len(bits) % w))] * w)
    return tuple(_trim(list(map(digit.__getitem__, groups))))


def _bit_divide(xs: tuple, ys: tuple, base: int, restoring: bool):
    # On the operands' bits, the partial remainder is a window of
    # len(y_bits) + 2 big-endian bits in two's complement, room for every
    # partial from -2y to 2y, and starts as the dividend's top k bits, which
    # are below y.  Each step shifts in one dividend bit, then changes the
    # window only by one borrow sweep of the padded row plus (+y) or, in
    # non-restoring only, minus (-y): restoring never sets the sign bit.
    y_bits = _bits_of(ys, base)
    if not y_bits:
        raise ZeroDivisionError("division by zero")
    x_bits = _bits_of(xs, base)
    n = len(x_bits)
    w = len(y_bits) + 2
    k = min(n, len(y_bits) - 1)
    sweep = range(w - 1, -1, -1)
    plus = [0, 0] + y_bits[::-1]
    if not restoring:
        minus = [0] * w
        _window_sub(minus, plus, 2, sweep)
    W = [0] * (w - k) + x_bits[n - k :][::-1]
    Q = [0] * (n - k)  # the preloaded top k quotient bits are 0
    for i in range(n - 1 - k, -1, -1):
        sign = W.pop(0)  # the previous partial's sign
        W.append(x_bits[i])
        if not restoring:
            _window_sub(W, minus if sign else plus, 2, sweep)
            Q[i] = 1 - W[0]
        elif W >= plus:
            _window_sub(W, plus, 2, sweep)
            Q[i] = 1
    if not restoring and W[0]:
        _window_sub(W, minus, 2, sweep)  # the final add-back
    return _digits_of(Q, base), _digits_of(W[::-1], base), n


def div_restoring(xs: tuple, ys: tuple, base: int, /):
    """Bit-serial restoring division: shift in one dividend bit, compare
    the partial with the divisor, subtract it only when the partial is not
    below it.  The partial is a fixed window of len(y_bits) + 2 bits that
    one borrow sweep of the zero-padded divisor changes; it starts as the
    dividend's top len(y_bits) - 1 bits, whose steps could not subtract.

    Returns (quotient, remainder, subtract_attempts) in base, one attempt
    per dividend bit."""
    return _bit_divide(xs, ys, base, True)


def div_nonrestoring(xs: tuple, ys: tuple, base: int, /):
    """Bit-serial non-restoring division: shift in one dividend bit, then
    subtract the divisor when the previous partial is non-negative, else
    add it, with no intermediate restore; the quotient bit is the inverted
    new sign, and one final add-back follows when the last partial is
    negative.  The partial is a fixed window of len(y_bits) + 2 bits in
    two's complement; adding y is one borrow sweep of the padded row -y.
    It starts as the top len(y_bits) - 1 dividend bits X with sign 0, so
    the first step gives 2X + b - y, as the textbook's does after its first
    len(y_bits) - 1 steps, all negative with quotient bit 0.

    Returns (quotient, remainder, addsub_steps) in base, one step per
    dividend bit."""
    return _bit_divide(xs, ys, base, False)
