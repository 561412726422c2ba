import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_BASES, nat, repeated_subtraction_divmod, scaled, val
from vedarith import _pykernels, backend, baseline_arith, numeral, vedic_div, vedic_mul
from vedarith.numeral import Base, BaseMismatchError
from vedarith.randgen import Lcg64

bases = st.sampled_from(ALL_BASES)
values = st.integers(min_value=0, max_value=1 << 120)


def test_divmod_oracle_chain():
    # ground the machine divmod oracle in literal repeated subtraction once
    for x in range(0, 1 << 10, 7):
        for y in range(1, 1 << 7, 5):
            assert repeated_subtraction_divmod(x, y) == divmod(x, y)


def test_restoring_golden_case():
    res = baseline_arith.restoring_divide(
        numeral.parse("35001", Base.DEC), numeral.parse("77", Base.DEC)
    )
    assert numeral.format(res.quotient) == "454"
    assert numeral.format(res.remainder) == "43"


def test_nonrestoring_golden_case():
    res = baseline_arith.nonrestoring_divide(
        numeral.parse("35001", Base.DEC), numeral.parse("77", Base.DEC)
    )
    assert numeral.format(res.quotient) == "454"
    assert numeral.format(res.remainder) == "43"


def test_divide_by_one_and_zero_dividend():
    x = nat(0x1234)
    one = numeral.one(Base.HEX)
    for fn in (baseline_arith.restoring_divide, baseline_arith.nonrestoring_divide):
        res = fn(x, one)
        assert res.quotient == x and res.remainder.is_zero()
        res = fn(numeral.zero(Base.HEX), x)
        assert res.quotient.is_zero() and res.remainder.is_zero()


def test_division_by_zero():
    for fn in (baseline_arith.restoring_divide, baseline_arith.nonrestoring_divide):
        with pytest.raises(ZeroDivisionError):
            fn(nat(5), numeral.zero(Base.HEX))


def test_base_mismatch():
    with pytest.raises(BaseMismatchError):
        baseline_arith.restoring_divide(nat(5, Base.HEX), nat(5, Base.DEC))
    with pytest.raises(BaseMismatchError):
        baseline_arith.shift_add_multiply(nat(5, Base.HEX), nat(5, Base.DEC))


def test_subtract_attempt_count_is_dividend_bit_length():
    kernels = backend.kernels()
    rng = Lcg64(3)
    for _ in range(300):
        a = rng.bits(rng.below(120) + 1)
        b = rng.bits(rng.below(60) + 1) or 1
        base = (2, 10, 16, 256)[rng.below(4)]
        xs, ys = nat(a, base).digits, nat(b, base).digits
        assert kernels.div_restoring(xs, ys, base)[2] == a.bit_length()
        assert kernels.div_nonrestoring(xs, ys, base)[2] == a.bit_length()
    assert kernels.div_restoring((), (1, 0, 0, 1), 2)[2] == 0


def test_bit_dividers_skip_the_steps_that_can_only_yield_zero(monkeypatch):
    # An n-bit dividend and an m-bit divisor take n - m + 1 steps (none
    # when n < m); the m - 1 steps above them would hold fewer bits than
    # the divisor.  Every window change is one `_window_sub` sweep.
    sweeps = 0
    window_sub = _pykernels._window_sub

    def counting(*args):
        nonlocal sweeps
        sweeps += 1
        window_sub(*args)

    monkeypatch.setattr(_pykernels, "_window_sub", counting)

    def bits(v):
        return tuple((v >> i) & 1 for i in range(v.bit_length()))

    def value(bs):
        return sum(b << i for i, b in enumerate(bs))

    for y in range(1, 1 << 6):
        ys, m = bits(y), y.bit_length()
        for x in range(1 << 10):
            xs, n = bits(x), x.bit_length()
            steps = max(0, n - m + 1)
            q, r = divmod(x, y)
            sweeps = 0
            got = _pykernels.div_restoring(xs, ys, 2)
            assert (value(got[0]), value(got[1]), got[2]) == (q, r, n)
            # one subtraction per quotient bit 1, all of them in the steps
            # that run; no -y row is built
            assert sweeps == bin(q).count("1") and q < 1 << steps
            sweeps = 0
            got = _pykernels.div_nonrestoring(xs, ys, 2)
            assert (value(got[0]), value(got[1]), got[2]) == (q, r, n)
            # building -y, one add or subtract per step, and the add-back
            # when the last partial is negative (its quotient bit is 0)
            assert sweeps == 1 + steps + (steps > 0 and q % 2 == 0), (x, y)


def test_results_come_back_in_the_callers_base():
    for base in ALL_BASES:
        x, y = numeral.from_int(35001, base), numeral.from_int(77, base)
        res = baseline_arith.restoring_divide(x, y)
        assert res.quotient.base is base
        assert (val(res.quotient), val(res.remainder)) == (454, 43)


@given(values, st.integers(min_value=1, max_value=1 << 120), bases)
@settings(max_examples=60)
def test_both_baselines_match_integers(a, b, base):
    x, y = numeral.from_int(a, base), numeral.from_int(b, base)
    want = divmod(a, b)
    res = baseline_arith.restoring_divide(x, y)
    assert (val(res.quotient), val(res.remainder)) == want
    res = baseline_arith.nonrestoring_divide(x, y)
    assert (val(res.quotient), val(res.remainder)) == want


def test_three_way_agreement_on_random_wide_pairs():
    rng = Lcg64(0xD1CE)
    for _ in range(scaled(100_000, 1_000)):
        a = rng.bits(rng.below(256) + 1)
        b = rng.bits(rng.below(256) + 1) or 1
        x, y = nat(a), nat(b)
        want = divmod(a, b)
        got_v = vedic_div.divide(x, y)
        got_r = baseline_arith.restoring_divide(x, y)
        got_n = baseline_arith.nonrestoring_divide(x, y)
        assert (val(got_v.quotient), val(got_v.remainder)) == want
        assert got_r == got_v
        assert got_n == got_v


def test_shift_add_multiply_identity_and_golden():
    x = nat(0xBEEF)
    assert baseline_arith.shift_add_multiply(x, numeral.one(Base.HEX)) == x
    got = baseline_arith.shift_add_multiply(
        numeral.parse("454", Base.DEC), numeral.parse("77", Base.DEC)
    )
    assert numeral.format(got) == "34958"


@given(values, values, bases)
def test_shift_add_equals_cross_product_multiplier(a, b, base):
    x, y = numeral.from_int(a, base), numeral.from_int(b, base)
    assert baseline_arith.shift_add_multiply(x, y) == vedic_mul.multiply(x, y)


def test_multipliers_agree_on_random_wide_operands():
    rng = Lcg64(0xFADE)
    for _ in range(scaled(20_000, 1_000)):
        a = rng.bits(rng.below(256) + 1)
        b = rng.bits(rng.below(256) + 1)
        x, y = nat(a), nat(b)
        got = baseline_arith.shift_add_multiply(x, y)
        assert val(got) == a * b
        assert got == vedic_mul.multiply(x, y)
