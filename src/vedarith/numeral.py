"""Natural numbers as little-endian digit sequences in a small set of radixes.

A value is an immutable tuple of digits plus the base it lives in.  Zero is
the empty tuple, so canonical form is unique and equality is structural.
Mixed-base operations are rejected instead of silently converted.

Digits are never packed into machine words: every algorithm in this package
works digit by digit, which is the whole point of the library.
"""

from __future__ import annotations

import enum

from . import _pykernels


class ParseError(ValueError):
    """A numeral string could not be parsed; carries the offending offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class BaseMismatchError(ValueError):
    """Two operands with different bases were combined."""


class UnderflowError(ArithmeticError):
    """Subtraction would have produced a negative value."""


class Base(enum.IntEnum):
    """Supported radixes."""

    BIN = 2
    QUAT = 4
    DEC = 10
    HEX = 16
    BYTE = 256


# Base 16 is the default: one digit per 4-bit group.
DEFAULT_BASE = Base.HEX


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class Record:
    """Immutable value whose fields are its `__slots__`: positional or
    keyword construction, equality and hashing on the field values within
    one type, and a `Type(field=value, ...)` repr.  The methods are written
    once here, so no class factory generates them on import."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if len(values) != len(fields) or named:
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = (f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(args)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Natural(Record):
    """Unsigned integer as little-endian digits (digits[0] least significant).

    The constructor canonicalizes: trailing most-significant zeros are
    stripped, so the zero value is always the empty tuple.
    """

    __slots__ = ("digits", "base")

    def __init__(self, digits: tuple[int, ...], base: Base = DEFAULT_BASE):
        base = Base(base)
        digits = tuple(digits)
        n = len(digits)
        while n > 0 and digits[n - 1] == 0:
            n -= 1
        if n != len(digits):
            digits = digits[:n]
        for d in digits:
            # exactly int: floats and bools would reach the kernels, where
            # the two backends treat them differently
            if type(d) is not int:
                raise TypeError(f"digit {d!r} is not an int")
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {int(base)}")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "base", base)

    def is_zero(self) -> bool:
        return not self.digits

    def __bool__(self) -> bool:
        return bool(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __repr__(self) -> str:
        return f"Natural({format(self)!r}, base={int(self.base)})"


def _from_canonical(digits: tuple[int, ...], base: Base) -> Natural:
    """Wrap digits that are already canonical and range-checked (kernel
    outputs), skipping constructor validation."""
    x = object.__new__(Natural)
    object.__setattr__(x, "digits", digits)
    object.__setattr__(x, "base", base)
    return x


def zero(base: Base = DEFAULT_BASE) -> Natural:
    return Natural((), base)


def one(base: Base = DEFAULT_BASE) -> Natural:
    return Natural((1,), base)


_HEX_VALUES = {c: int(c, 16) for c in "0123456789abcdefABCDEF"}


def parse(text: str, base: Base = DEFAULT_BASE) -> Natural:
    """Parse a numeral string into a canonical Natural.

    Base 2/4/10/16 use one character per digit; base 256 uses hex with two
    characters per digit (odd-length input is padded with a leading zero).
    """
    base = Base(base)
    if not text:
        raise ParseError("empty numeral", offset=0)
    values = []
    for i, ch in enumerate(text):
        v = _HEX_VALUES.get(ch)
        if v is None or (base is not Base.BYTE and v >= int(base)):
            raise ParseError(
                f"invalid digit {ch!r} for base {int(base)} at offset {i}", offset=i
            )
        values.append(v)
    if base is Base.BYTE:
        if len(values) % 2:
            values.insert(0, 0)
        digits = [values[i] * 16 + values[i + 1] for i in range(0, len(values), 2)]
    else:
        digits = values
    digits.reverse()
    return Natural(tuple(digits), base)


def format(x: Natural) -> str:
    """Format a Natural; inverse of parse.  Zero formats as "0"."""
    if x.is_zero():
        return "0"
    if x.base is Base.BYTE:
        text = "".join("%02x" % d for d in reversed(x.digits))
        return text.lstrip("0") or "0"
    if x.base is Base.HEX:
        return "".join("%x" % d for d in reversed(x.digits))
    return "".join(str(d) for d in reversed(x.digits))


def same_base(a: Natural, b: Natural) -> Base:
    if a.base is not b.base:
        raise BaseMismatchError(
            f"operands have different bases: {int(a.base)} vs {int(b.base)}"
        )
    return a.base


def compare(a: Natural, b: Natural) -> Ordering:
    """Total order on values of the same base: length first, then the
    big-endian digits."""
    same_base(a, b)
    ka = len(a.digits), a.digits[::-1]
    kb = len(b.digits), b.digits[::-1]
    return Ordering((ka > kb) - (ka < kb))


def add(a: Natural, b: Natural) -> Natural:
    """Digit-wise addition: the column sums, then one carry pass."""
    beta = int(same_base(a, b))
    xs, ys = a.digits, b.digits
    if len(xs) < len(ys):
        xs, ys = ys, xs
    cols = [x + y for x, y in zip(xs, ys)] + list(xs[len(ys):])
    return _from_canonical(tuple(_pykernels._carry(cols, beta)), a.base)


def sub(a: Natural, b: Natural) -> Natural:
    """Digit-wise subtraction, one borrow sweep; requires a >= b."""
    beta = int(same_base(a, b))
    if compare(a, b) is Ordering.LESS:
        raise UnderflowError("subtraction underflow: minuend is smaller")
    out, n = list(a.digits), len(a.digits)
    ys = b.digits + (0,) * (n - len(b.digits))
    _pykernels._window_sub(out, ys, beta, range(n))
    return _from_canonical(tuple(_pykernels._trim(out)), a.base)


def to_int(x: Natural) -> int:
    """Value as a machine integer.  Conversion/oracle plumbing only: the
    arithmetic operations themselves never round-trip through this."""
    v = 0
    for d in reversed(x.digits):
        v = v * int(x.base) + d
    return v


def from_int(value: int, base: Base = DEFAULT_BASE) -> Natural:
    """Build a canonical Natural from a nonnegative machine integer."""
    if value < 0:
        raise ValueError("Natural cannot represent a negative value")
    beta = int(Base(base))
    digits = []
    while value:
        value, d = divmod(value, beta)
        digits.append(d)
    return Natural(tuple(digits), base)


def convert(x: Natural, base: Base) -> Natural:
    """Re-express the same value in another base."""
    base = Base(base)
    if x.base is base:
        return x
    return from_int(to_int(x), base)


def bit_length(x: Natural) -> int:
    return len(to_bits(x))


def to_bits(x: Natural) -> list[int]:
    """Little-endian bit list of the value (canonical: no leading zeros)."""
    return _pykernels._bits_of(x.digits, int(x.base))


def from_bits(bits: list[int], base: Base = DEFAULT_BASE) -> Natural:
    """Inverse of to_bits for any supported base."""
    # exactly int, as Natural requires of digits: 1.0 and True equal 1
    if any(type(b) is not int or b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    base = Base(base)
    return _from_canonical(_pykernels._digits_of(bits, int(base)), base)
