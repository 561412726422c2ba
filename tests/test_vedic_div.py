import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_BASES, nat, scaled, val
from vedarith import _pykernels, numeral, vedic_div, vedic_mul
from vedarith.numeral import Base, BaseMismatchError, Ordering
from vedarith.randgen import Lcg64

bases = st.sampled_from(ALL_BASES)
values = st.integers(min_value=0, max_value=1 << 120)
divisors = st.integers(min_value=1, max_value=1 << 120)


def test_divisor_record_examples():
    d = _pykernels._Divisor((7, 7), 10)  # 77
    assert (d.main, d.scale) == (7, 1)
    d = _pykernels._Divisor((1,), 16)
    assert (d.main, d.scale) == (8, 8)
    d = _pykernels._Divisor((3, 15), 16)  # 0xf3
    assert (d.main, d.scale) == (15, 1)


@given(divisors, bases)
def test_divisor_record_scale_and_leading_digit_bound(d, base):
    ys = numeral.from_int(d, base).digits
    beta = int(base)
    record = _pykernels._Divisor(ys, beta)
    assert 1 <= record.scale < beta
    assert record.main >= (beta + 1) // 2
    assert len(record.dy) == len(ys)
    assert sum(v * beta**i for i, v in enumerate(record.dy)) == d * record.scale


@given(values, divisors, bases)
@settings(max_examples=60)
def test_adjust_repairs_overestimate(a, b, base):
    # the estimate never undershoots; each adjust steps it down by one
    x, y = numeral.from_int(a, base), numeral.from_int(b, base)
    _, trace = vedic_div.divide_traced(x, y)
    for s in trace:
        assert 0 <= s.q == s.q_estimate - s.adjustments < int(base)
        assert s.adjustments <= 2


@given(values, divisors, bases)
@settings(max_examples=60)
def test_adjust_stops_once_partial_is_covered(a, b, base):
    # each step keeps the largest digit whose multiple the partial covers,
    # so the traced digits spell out the true quotient
    x, y = numeral.from_int(a, base), numeral.from_int(b, base)
    _, trace = vedic_div.divide_traced(x, y)
    spelled = 0
    for s in trace:
        spelled = spelled * int(base) + s.q
    assert spelled == a // b


def test_adjust_with_zero_flags_is_identity():
    # every digit below the (scaled) leading one is zero: nothing is owed,
    # so the estimate K // main is always the quotient digit
    rng = Lcg64(0xF1A6)
    for text, base in [
        ("700", Base.DEC), ("300", Base.DEC), ("3", Base.DEC),
        ("80", Base.HEX), ("1", Base.HEX), ("100", Base.HEX),
    ]:
        y = numeral.parse(text, base)
        for _ in range(50):
            a = rng.bits(rng.below(64) + 1)
            res, trace = vedic_div.divide_traced(numeral.from_int(a, base), y)
            assert (val(res.quotient), val(res.remainder)) == divmod(a, val(y))
            assert all(s.adjustments == 0 for s in trace)


def test_golden_division():
    x = numeral.parse("35001", Base.DEC)
    y = numeral.parse("77", Base.DEC)
    result = vedic_div.divide(x, y)
    assert numeral.format(result.quotient) == "454"
    assert numeral.format(result.remainder) == "43"


def test_golden_trace():
    x = numeral.parse("35001", Base.DEC)
    y = numeral.parse("77", Base.DEC)
    _, trace = vedic_div.divide_traced(x, y)
    lines = [s.as_line() for s in trace]
    # the adjust from 5 to 4 leaves r=7, and the next partial dividend is 42
    hit = [
        i
        for i, s in enumerate(trace)
        if s.q_estimate == 5 and s.q == 4 and s.r == 7 and s.adjustments == 1
    ]
    assert hit, lines
    assert trace[hit[0] + 1].partial_dividend == 42, lines


def test_trace_is_deterministic():
    x = numeral.parse("35001", Base.DEC)
    y = numeral.parse("77", Base.DEC)
    assert vedic_div.divide_traced(x, y) == vedic_div.divide_traced(x, y)


def test_divide_trivial_cases():
    x = nat(0xABCDE)
    one = numeral.one(Base.HEX)
    assert vedic_div.divide(x, one) == vedic_div.DivResult(x, numeral.zero(Base.HEX))
    res = vedic_div.divide(numeral.zero(Base.HEX), x)
    assert res.quotient.is_zero() and res.remainder.is_zero()


def test_divide_hex_case_against_oracle_chain():
    # repeated subtraction gives 0x8931 / 0x2f = 747 rem 12; frozen in hex
    from conftest import repeated_subtraction_divmod

    assert repeated_subtraction_divmod(0x8931, 0x2F) == (747, 12)
    res = vedic_div.divide(numeral.parse("8931", Base.HEX), numeral.parse("2f", Base.HEX))
    assert numeral.format(res.quotient) == "2eb"
    assert numeral.format(res.remainder) == "c"


def test_divide_errors():
    with pytest.raises(ZeroDivisionError):
        vedic_div.divide(nat(5), numeral.zero(Base.HEX))
    with pytest.raises(BaseMismatchError):
        vedic_div.divide(nat(5, Base.HEX), nat(5, Base.DEC))


def test_exhaustive_small_domain():
    cases = scaled(1 << 14, 1 << 9)
    top_divisor = scaled(1 << 7, 1 << 5)
    naturals = [nat(v) for v in range(cases)]
    divisors_ = [(y, nat(y)) for y in range(1, top_divisor + 1)]
    for x in range(cases):
        nx = naturals[x]
        for y, ny in divisors_:
            res, trace = vedic_div.divide_traced(nx, ny)
            assert (val(res.quotient), val(res.remainder)) == divmod(x, y)
            assert max((s.adjustments for s in trace), default=0) <= 2


@given(values, divisors, bases)
@settings(max_examples=60)
def test_euclidean_identity_checked_cross_module(a, b, base):
    x, y = numeral.from_int(a, base), numeral.from_int(b, base)
    res = vedic_div.divide(x, y)
    recomposed = numeral.add(vedic_mul.multiply(res.quotient, y), res.remainder)
    assert recomposed == x
    assert numeral.compare(res.remainder, y) is Ordering.LESS


def test_random_wide_operands_against_oracle_with_adjust_bound():
    rng = Lcg64(0x51)
    for _ in range(scaled(20_000, 1_000)):
        a = rng.bits(rng.below(256) + 1)
        b = rng.bits(rng.below(200) + 1) or 1
        res, trace = vedic_div.divide_traced(nat(a), nat(b))
        assert (val(res.quotient), val(res.remainder)) == divmod(a, b)
        assert max((s.adjustments for s in trace), default=0) <= 2


def test_normalization_transparency():
    rng = Lcg64(0x1DEA)
    for base in ALL_BASES:
        beta = int(base)
        for _ in range(200):
            a = rng.bits(rng.below(64) + 1)
            b = rng.bits(rng.below(48) + 1) or 1
            x, y = numeral.from_int(a, base), numeral.from_int(b, base)
            s = _pykernels._Divisor(y.digits, beta).scale
            plain = vedic_div.divide(x, y)
            ns = numeral.from_int(s, base)
            scaled_res = vedic_div.divide(
                vedic_mul.multiply(x, ns), vedic_mul.multiply(y, ns)
            )
            assert scaled_res.quotient == plain.quotient
            assert val(scaled_res.remainder) == val(plain.remainder) * s
