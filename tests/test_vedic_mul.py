from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import ALL_BASES, nat, scaled, val
from vedarith import backend, numeral, vedic_mul
from vedarith.numeral import Base, BaseMismatchError, Natural
from vedarith.randgen import Lcg64

bases = st.sampled_from(ALL_BASES)
values = st.integers(min_value=0, max_value=1 << 120)


def test_multiply_identities():
    x = nat(0xDEADBEEF)
    assert vedic_mul.multiply(x, numeral.zero(Base.HEX)).is_zero()
    assert vedic_mul.multiply(x, numeral.one(Base.HEX)) == x


def test_multiply_all_ones_square():
    # (16**4 - 1)**2 == 16**8 - 2*16**4 + 1
    x = numeral.parse("ffff", Base.HEX)
    assert numeral.format(vedic_mul.multiply(x, x)) == "fffe0001"


def test_square_takes_the_duplex_path(monkeypatch):
    # equal operands reach the kernel as one tuple, whether they are one
    # Natural or two with separate digit tuples; the digits are the same
    seen = []
    kernels = backend.kernels()

    def spy(xs, ys, base):
        seen.append(xs is ys)
        return kernels.mul_vedic(xs, ys, base)

    monkeypatch.setattr(backend, "kernels", lambda: SimpleNamespace(mul_vedic=spy))
    rng = Lcg64(0x5A)
    for base in ALL_BASES:
        for _ in range(50):
            a = rng.bits(rng.below(300) + 1)
            x = numeral.from_int(a, base)
            same = vedic_mul.multiply(x, x)
            twin = Natural(list(x.digits), base)  # a separate digit tuple
            assert same.digits == vedic_mul.multiply(x, twin).digits
            assert val(same) == a * a
    assert seen and all(seen)
    vedic_mul.multiply(nat(0xABC), nat(0xABD))
    assert seen[-1] is False


def test_multiply_quotient_times_divisor():
    got = vedic_mul.multiply(numeral.parse("454", Base.DEC), numeral.parse("77", Base.DEC))
    assert numeral.format(got) == "34958"
    total = numeral.add(got, numeral.parse("43", Base.DEC))
    assert numeral.format(total) == "35001"


def test_multiply_base_mismatch():
    with pytest.raises(BaseMismatchError):
        vedic_mul.multiply(nat(3, Base.HEX), nat(3, Base.DEC))


@given(values, values, bases)
def test_multiply_matches_integers_and_commutes(a, b, base):
    x, y = numeral.from_int(a, base), numeral.from_int(b, base)
    p = vedic_mul.multiply(x, y)
    assert val(p) == a * b
    assert p == vedic_mul.multiply(y, x)


@given(values, values, values, bases)
def test_multiply_distributes_over_add(a, b, c, base):
    x, y, z = (numeral.from_int(v, base) for v in (a, b, c))
    left = vedic_mul.multiply(x, numeral.add(y, z))
    right = numeral.add(vedic_mul.multiply(x, y), vedic_mul.multiply(x, z))
    assert left == right


def test_multiply_random_wide_operands_against_oracle():
    rng = Lcg64(0xA5)
    for _ in range(scaled(100_000, 4_000)):
        a = rng.bits(rng.below(256) + 1)
        b = rng.bits(rng.below(256) + 1)
        x, y = numeral.from_int(a, Base.HEX), numeral.from_int(b, Base.HEX)
        assert val(vedic_mul.multiply(x, y)) == a * b


def test_structure_report_16x16():
    rep = vedic_mul.structure_report(16, 4)
    assert rep.module_count == 16
    assert rep.column_count == 7


def test_structure_report_single_module():
    rep = vedic_mul.structure_report(4, 4)
    assert rep.module_count == 1
    assert rep.column_count == 1


def test_structure_report_matches_pair_enumeration():
    # oracle: enumerate the (i, j) pairs with i + j = c directly
    for n, d in [(8, 4), (16, 4), (32, 4), (64, 4), (8, 1), (24, 8), (6, 2)]:
        groups = n // d
        pairs = [(i, j) for i in range(groups) for j in range(groups)]
        columns = {i + j for i, j in pairs}
        rep = vedic_mul.structure_report(n, d)
        assert rep.module_count == len(pairs)
        assert rep.column_count == len(columns)


def test_structure_report_rejects_bad_widths():
    with pytest.raises(ValueError):
        vedic_mul.structure_report(10, 4)
    with pytest.raises(ValueError):
        vedic_mul.structure_report(0, 4)
    with pytest.raises(ValueError):
        vedic_mul.structure_report(12, 3)
