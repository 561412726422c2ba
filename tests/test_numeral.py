import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import ALL_BASES, nat, package_env, val
from vedarith import numeral
from vedarith.bench import BenchConfig, BenchRecord
from vedarith.modexp import Algorithm, Strategy
from vedarith.numeral import (
    Base,
    BaseMismatchError,
    Natural,
    Ordering,
    ParseError,
    UnderflowError,
)
from vedarith.rsa import KeyPair, RsaPrivateKey, RsaPublicKey
from vedarith.vedic_div import DivResult
from vedarith.vedic_mul import StructureReport, multiply

bases = st.sampled_from(ALL_BASES)
values = st.integers(min_value=0, max_value=1 << 130)


def test_parse_zero_is_empty_sequence():
    assert numeral.parse("0", Base.HEX).digits == ()
    assert numeral.parse("0000", Base.DEC).digits == ()


def test_parse_decimal_dividend():
    assert numeral.parse("35001", Base.DEC).digits == (1, 0, 0, 5, 3)


def test_parse_hex_positional():
    assert numeral.parse("8931", Base.HEX).digits == (0x1, 0x3, 0x9, 0x8)


def test_parse_leading_zeros_absorbed():
    assert numeral.format(numeral.parse("00ff", Base.HEX)) == "ff"


def test_parse_byte_base_pairs():
    assert numeral.parse("00ff", Base.BYTE).digits == (0xFF,)
    assert numeral.parse("0100", Base.BYTE).digits == (0x00, 0x01)
    # odd length gets an implicit leading zero
    assert numeral.parse("fff", Base.BYTE).digits == (0xFF, 0x0F)


def test_parse_errors_name_offset():
    with pytest.raises(ParseError) as err:
        numeral.parse("12x4", Base.DEC)
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        numeral.parse("10201", Base.BIN)
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        numeral.parse("", Base.HEX)
    assert err.value.offset == 0


def test_format_examples():
    assert numeral.format(Natural((), Base.HEX)) == "0"
    assert numeral.format(Natural((1, 0, 0, 5, 3), Base.DEC)) == "35001"


def test_constructor_canonicalizes_and_validates():
    assert Natural((1, 0), Base.HEX).digits == (1,)
    assert Natural((0, 0, 0), Base.HEX).digits == ()
    with pytest.raises(ValueError):
        Natural((16,), Base.HEX)
    with pytest.raises(ValueError):
        Natural((-1,), Base.HEX)
    # a bad digit that equals 0 is checked, not trimmed away
    for digits in ((1, 0.0), (1, False), (0.0,), (False,), (1, -0.0)):
        for base in ALL_BASES:
            with pytest.raises(TypeError, match="not an int"):
                Natural(digits, base)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1", None], ids=repr)
def test_constructor_rejects_non_int_digits(bad):
    with pytest.raises(TypeError, match="not an int"):
        Natural((bad, 2), Base.HEX)


@pytest.mark.parametrize("base", ALL_BASES, ids=int)
@given(data=st.data())
def test_constructor_checks_every_digit_at_any_position(base, data):
    beta = int(base)
    digits = list(numeral.from_int(data.draw(values), base).digits)
    digits += [0] * data.draw(st.integers(0, 3))
    bad = data.draw(
        st.booleans()
        | st.sampled_from([0.0, -0.0])
        | st.floats()
        | st.integers(max_value=-1)
        | st.integers(min_value=beta)
    )
    # from the bottom digit up to one past the last trailing zero
    digits.insert(data.draw(st.integers(0, len(digits))), bad)
    if type(bad) is int:
        with pytest.raises(ValueError, match="out of range"):
            Natural(digits, base)
    else:
        with pytest.raises(TypeError, match="not an int"):
            Natural(digits, base)


@pytest.mark.parametrize("bad", [0.0, -0.0, False, True, 3.0], ids=repr)
def test_from_int_takes_exactly_an_int(bad):
    for base in ALL_BASES:
        with pytest.raises(TypeError, match=r"^value .* is not an int$"):
            numeral.from_int(bad, base)


def test_equality_is_structural_including_base():
    assert nat(255, Base.HEX) != nat(255, Base.BYTE)
    assert nat(255, Base.HEX) == nat(255, Base.HEX)
    assert hash(nat(255, Base.HEX)) == hash(Natural((15, 15, 0), Base.HEX))
    assert repr(nat(255, Base.BYTE)) == "Natural('ff', base=256)"
    assert repr(Natural((), Base.DEC)) == "Natural('0', base=10)"


_N, _E, _I = nat(3233), nat(17), nat(2753)
VALUE_TYPES = [
    (Natural, ((1, 2), Base.HEX)),
    (DivResult, (nat(454), nat(43))),
    (StructureReport, (16, 4, 16, 7)),
    (Strategy, ("shift_add", "restoring")),
    (RsaPublicKey, (_N, _E)),
    (RsaPrivateKey, (_N, _I)),
    (
        KeyPair,
        (RsaPublicKey(_N, _E), RsaPrivateKey(_N, _I), nat(61), nat(53), nat(3120)),
    ),
    (BenchRecord, ("mul", "vedic", 16, 4, 4000, "ab", "pure")),
    (BenchConfig, ((8, 16), 3, 7, ("mul",), None, False)),
    (Algorithm, (multiply, "mul_vedic")),
]


@pytest.mark.parametrize(
    "cls, values", VALUE_TYPES, ids=[t.__name__ for t, _ in VALUE_TYPES]
)
def test_value_types_are_immutable_records(cls, values):
    a = cls(*values)
    assert tuple(getattr(a, f) for f in cls.__slots__) == values
    b = cls(**dict(zip(cls.__slots__, values)))
    assert a == b and hash(a) == hash(b) and a is not b
    assert pickle.loads(pickle.dumps(a)) == a
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, values[0])
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    if cls is not Natural:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls.__slots__, values))
        assert repr(a) == f"{cls.__name__}({fields})"


def test_values_of_different_types_differ():
    assert RsaPublicKey(_N, _E) != RsaPrivateKey(_N, _E)
    assert DivResult(_N, _E) != (_N, _E)


def test_importing_the_library_loads_no_class_factory():
    # a fresh interpreter: the package's value types are plain slotted classes
    code = "import sys, vedarith, vedarith.rsa, vedarith.randgen, vedarith.bench\n"
    code += "import vedarith.selftest\n"
    code += "print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_compare_examples():
    z = numeral.zero(Base.DEC)
    assert numeral.compare(z, z) is Ordering.EQUAL
    assert (
        numeral.compare(numeral.parse("77", Base.DEC), numeral.parse("35001", Base.DEC))
        is Ordering.LESS
    )
    assert (
        numeral.compare(numeral.parse("ff", Base.HEX), numeral.parse("f0", Base.HEX))
        is Ordering.GREATER
    )


def test_add_examples():
    x = numeral.parse("f", Base.HEX)
    assert numeral.add(x, numeral.parse("1", Base.HEX)) == numeral.parse("10", Base.HEX)
    assert numeral.add(x, numeral.zero(Base.HEX)) == x
    got = numeral.add(numeral.parse("34958", Base.DEC), numeral.parse("43", Base.DEC))
    assert numeral.format(got) == "35001"


def test_sub_examples():
    x = numeral.parse("70", Base.DEC)
    assert numeral.format(numeral.sub(x, numeral.parse("28", Base.DEC))) == "42"
    assert numeral.sub(x, x).digits == ()
    assert numeral.sub(x, x) == numeral.zero(Base.DEC)
    got = numeral.sub(numeral.parse("100", Base.HEX), numeral.parse("1", Base.HEX))
    assert numeral.format(got) == "ff"


def test_sub_underflow():
    with pytest.raises(UnderflowError):
        numeral.sub(nat(3), nat(4))


def test_base_mismatch_rejected():
    a, b = nat(5, Base.HEX), nat(5, Base.DEC)
    for op in (numeral.add, numeral.sub, numeral.compare):
        with pytest.raises(BaseMismatchError):
            op(a, b)


def test_unsupported_base_rejected():
    with pytest.raises(ValueError):
        Base(7)


@given(values, bases)
def test_roundtrip_parse_format(v, base):
    x = numeral.from_int(v, base)
    assert numeral.parse(numeral.format(x), base) == x
    assert val(x) == v


@given(values, values, bases)
def test_add_matches_integers_and_commutes(a, b, base):
    na, nb = numeral.from_int(a, base), numeral.from_int(b, base)
    s = numeral.add(na, nb)
    assert val(s) == a + b
    assert s == numeral.add(nb, na)


@given(values, values, values, bases)
def test_add_associates(a, b, c, base):
    na, nb, nc = (numeral.from_int(v, base) for v in (a, b, c))
    left = numeral.add(numeral.add(na, nb), nc)
    right = numeral.add(na, numeral.add(nb, nc))
    assert left == right


@given(values, values, bases)
def test_sub_inverts_add(a, b, base):
    lo, hi = sorted((a, b))
    nhi, nlo = numeral.from_int(hi, base), numeral.from_int(lo, base)
    assert numeral.add(numeral.sub(nhi, nlo), nlo) == nhi


@given(values, values, bases)
def test_add_and_sub_results_are_canonical(a, b, base):
    # both wrap their digits without the constructor's checks
    lo, hi = sorted((a, b))
    nhi, nlo = numeral.from_int(hi, base), numeral.from_int(lo, base)
    for got in (numeral.add(nhi, nlo), numeral.sub(nhi, nlo), numeral.sub(nhi, nhi)):
        built = Natural(got.digits, base)
        assert got == built and hash(got) == hash(built)
        assert got.digits == built.digits and got.base is base


@given(values, values, bases)
def test_compare_is_consistent_with_integers(a, b, base):
    got = numeral.compare(numeral.from_int(a, base), numeral.from_int(b, base))
    want = Ordering.LESS if a < b else Ordering.GREATER if a > b else Ordering.EQUAL
    assert got is want


def test_exhaustive_small_ground_truth():
    # add/sub/compare against machine integers for all pairs below 256
    for base in ALL_BASES:
        naturals = [numeral.from_int(v, base) for v in range(256)]
        for a in range(256):
            for b in range(256):
                s = numeral.add(naturals[a], naturals[b])
                assert val(s) == a + b
                assert not s.digits or s.digits[-1] != 0
                want = (
                    Ordering.LESS
                    if a < b
                    else Ordering.GREATER
                    if a > b
                    else Ordering.EQUAL
                )
                assert numeral.compare(naturals[a], naturals[b]) is want
                if a >= b:
                    assert val(numeral.sub(naturals[a], naturals[b])) == a - b


@given(values, bases, bases)
def test_convert_preserves_value(v, src, dst):
    x = numeral.from_int(v, src)
    y = numeral.convert(x, dst)
    assert y.base is Base(dst)
    assert val(y) == v


@given(values, bases)
def test_bits_roundtrip(v, base):
    x = numeral.from_int(v, base)
    assert numeral.bit_length(x) == v.bit_length()
    assert numeral.from_bits(numeral.to_bits(x), base) == x


def test_from_bits_takes_only_the_ints_0_and_1():
    # 1.0 and True equal 1 but are no int digits; 2 and -1 are out of range
    for bits in (
        [1.0, 1],
        [True, False, True],
        [1.0, 0.0, 1.0],
        [1, 0.0],
        [1, False],
        [0, 2],
        [-1],
    ):
        for base in ALL_BASES:
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                numeral.from_bits(bits, base)
