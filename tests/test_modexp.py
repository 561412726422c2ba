import pytest

from conftest import nat, scaled, val
from vedarith import modexp, numeral
from vedarith.modexp import Strategy
from vedarith.numeral import Base
from vedarith.randgen import Lcg64


def naive_mod_pow(a: int, b: int, n: int) -> int:
    # oracle: b - 1 successive modular multiplications
    m = 1 % n
    for _ in range(b):
        m = (m * a) % n
    return m


def test_strategy_validation():
    Strategy("vedic", "nonrestoring")
    with pytest.raises(ValueError):
        Strategy("karatsuba", "vedic")
    with pytest.raises(ValueError):
        Strategy("vedic", "srt")
    assert len(modexp.all_strategies()) == 6


def test_mod_reduce_examples():
    n = nat(100)
    assert modexp.mod_reduce(nat(7), n) == nat(7)
    got = modexp.mod_reduce(numeral.parse("35001", Base.DEC), numeral.parse("77", Base.DEC))
    assert numeral.format(got) == "43"
    with pytest.raises(ZeroDivisionError):
        modexp.mod_reduce(nat(7), numeral.zero(Base.HEX))


def test_mod_reduce_same_for_every_divider():
    rng = Lcg64(11)
    for _ in range(scaled(2_000, 200)):
        a = rng.bits(rng.below(256) + 1)
        n = rng.bits(rng.below(128) + 1) or 1
        outs = {
            val(modexp.mod_reduce(nat(a), nat(n), Strategy("vedic", d)))
            for d in modexp.DIVIDERS
        }
        assert outs == {a % n}


def test_mod_mul_examples():
    n = nat(3233)
    assert modexp.mod_mul(nat(5), numeral.zero(Base.HEX), n).is_zero()
    # oracle: 65 * 65 = 4225, one subtraction of 3233 leaves 992
    assert val(modexp.mod_mul(nat(65), nat(65), n)) == 992


def test_mod_mul_reduces_oversized_operands():
    rng = Lcg64(23)
    for _ in range(500):
        a = rng.bits(40)
        b = rng.bits(40)
        n = rng.bits(20) or 1
        assert val(modexp.mod_mul(nat(a), nat(b), nat(n))) == (a * b) % n


def test_modular_product_identity():
    # (a mod n) * (b mod n) mod n == (a * b) mod n, checked cross-module
    from vedarith import vedic_mul

    rng = Lcg64(31)
    for _ in range(scaled(10_000, 500)):
        a = rng.bits(rng.below(64) + 1)
        b = rng.bits(rng.below(64) + 1)
        n = rng.bits(rng.below(16) + 1) or 1
        na, nb, nn = nat(a), nat(b), nat(n)
        left = modexp.mod_mul(
            modexp.mod_reduce(na, nn), modexp.mod_reduce(nb, nn), nn
        )
        right = modexp.mod_reduce(vedic_mul.multiply(na, nb), nn)
        assert left == right


def test_mod_pow_trivial_and_fermat():
    n = nat(97)
    for a in (0, 1, 5, 96):
        assert val(modexp.mod_pow(nat(a), numeral.zero(Base.HEX), n)) == 1
    # Fermat's little theorem with gcd(7, 11) = 1
    assert val(modexp.mod_pow(nat(7), nat(10), nat(11))) == 1


def test_mod_pow_rsa_toy_value():
    # oracle: 17 successive multiplications by 65 mod 3233
    want = naive_mod_pow(65, 17, 3233)
    assert want == 2790
    assert val(modexp.mod_pow(nat(65), nat(17), nat(3233))) == 2790


def test_mod_pow_modulus_validation():
    with pytest.raises(ValueError):
        modexp.mod_pow(nat(5), nat(3), numeral.one(Base.HEX))
    with pytest.raises(ValueError):
        modexp.mod_pow(nat(5), nat(3), numeral.zero(Base.HEX))


def test_mod_pow_multiplication_count_contract(monkeypatch):
    counts = {"square": 0, "multiply": 0}
    mod_mul = modexp.mod_mul

    def counting_mod_mul(x, y, n, strategy):
        counts["square" if x is y else "multiply"] += 1
        return mod_mul(x, y, n, strategy)

    monkeypatch.setattr(modexp, "mod_mul", counting_mod_mul)
    rng = Lcg64(47)
    for _ in range(300):
        b = rng.bits(rng.below(40) + 1)
        a = rng.bits(16)
        n = rng.bits(24) | 1
        if n <= 1:
            continue
        counts.update(square=0, multiply=0)
        assert val(modexp.mod_pow(nat(a), nat(b), nat(n))) == pow(a, b, n)
        if b == 0:
            assert counts == {"square": 0, "multiply": 0}
        else:
            assert counts["square"] == b.bit_length() - 1
            assert counts["multiply"] == bin(b).count("1") - 1


def test_mod_pow_strategy_invariance():
    strategies = modexp.all_strategies()
    rng = Lcg64(59)
    for _ in range(scaled(10_000, 300)):
        a = rng.bits(rng.below(64) + 1)
        b = rng.bits(rng.below(64) + 1)
        n = rng.bits(rng.below(64) + 1)
        if n <= 1:
            continue
        outs = {val(modexp.mod_pow(nat(a), nat(b), nat(n), s)) for s in strategies}
        assert outs == {pow(a, b, n)}


def test_literal_variant_matches_fast_path():
    rng = Lcg64(61)
    for _ in range(200):
        a = rng.bits(16)
        b = rng.bits(rng.below(16) + 1)
        n = (rng.bits(16) | 1) + 2
        fast = modexp.mod_pow(nat(a), nat(b), nat(n))
        literal = modexp.mod_pow(nat(a), nat(b), nat(n), literal=True)
        assert fast == literal


def test_traces():
    # the lines the CLI prints, so in base 10
    a, n = nat(65, Base.DEC), nat(3233, Base.DEC)
    value, lines = modexp.mod_pow_traced(a, nat(17, Base.DEC), n)
    assert val(value) == 2790
    # one init line, then bitlen-1 squares and popcount-1 multiplies
    assert lines == (
        "j=4 op=init m=65",
        "j=3 op=square m=992",
        "j=2 op=square m=1232",
        "j=1 op=square m=1547",
        "j=0 op=square m=789",
        "j=0 op=multiply m=2790",
    )

    value, lines = modexp.mod_pow_traced(a, nat(17, Base.DEC), n, literal=True)
    assert val(value) == 2790
    # the literal variant squares on every bit, including the leading one,
    # and carries the bookkeeping variable exactly as printed: l = 2*j, then +1
    assert lines == (
        "j=4 l=8 op=square m=1",
        "j=4 l=9 op=multiply m=65",
        "j=3 l=6 op=square m=992",
        "j=2 l=4 op=square m=1232",
        "j=1 l=2 op=square m=1547",
        "j=0 l=0 op=square m=789",
        "j=0 l=1 op=multiply m=2790",
    )

    value, lines = modexp.mod_pow_traced(a, nat(0, Base.DEC), n, literal=True)
    assert (val(value), lines) == (1, ())
    value, lines = modexp.mod_pow_traced(a, nat(1, Base.DEC), n, literal=True)
    assert val(value) == 65
    assert lines == ("j=0 l=0 op=square m=1", "j=0 l=1 op=multiply m=65")


def test_mod_pow_accepts_exponent_in_any_base():
    b_dec = numeral.parse("17", Base.DEC)
    assert val(modexp.mod_pow(nat(65), b_dec, nat(3233))) == 2790


def test_mod_mul_on_both_backends_matches_int(compiled, monkeypatch):
    # every strategy and base, operands 0, 1, n-1, n, beyond n and a is b,
    # with the backend switched between calls on one modulus
    from vedarith import backend

    monkeypatch.setitem(backend._BACKENDS, "compiled", compiled)
    rng = Lcg64(67)
    for base in (Base.BIN, Base.QUAT, Base.DEC, Base.HEX, Base.BYTE):
        for _ in range(scaled(12, 4)):
            n = rng.bits(rng.below(40) + 2) | 2
            values = (0, 1, n - 1, n, n + 1, 2 * n, rng.bits(90), rng.below(n))
            for s in modexp.all_strategies():
                for a in values:
                    for name in ("pure", "compiled"):
                        with backend.use(name):
                            x = nat(a, base)
                            assert val(modexp.mod_mul(x, x, nat(n, base), s)) == a * a % n
                            got = modexp.mod_mul(x, nat(values[-2], base), nat(n, base), s)
                            assert val(got) == a * values[-2] % n
                            assert got.base is base


def test_mod_mul_rejects_mixed_bases():
    n = nat(3233)
    with pytest.raises(numeral.BaseMismatchError):
        modexp.mod_mul(nat(5, Base.DEC), nat(7), n)
    with pytest.raises(numeral.BaseMismatchError):
        modexp.mod_mul(nat(5), nat(7, Base.DEC), n)
    with pytest.raises(numeral.BaseMismatchError):
        modexp.mod_reduce(nat(5, Base.DEC), n)
    with pytest.raises(ZeroDivisionError):
        modexp.mod_mul(nat(5), nat(7), numeral.zero(Base.HEX))


def test_restoring_kernel_runs_once_per_reduction_not_below_n(monkeypatch):
    # the kernel is looked up at every call, so a wrapper set on the module
    # after n was already used sees every division: one per reduced value
    # that is not below n
    from vedarith import _pykernels, backend

    calls = []
    kernel = _pykernels.div_restoring

    def counting(x_bits, y_bits):
        calls.append(1)
        return kernel(x_bits, y_bits)

    strategy = Strategy("vedic", "restoring")
    rng = Lcg64(71)
    with backend.use("pure"):
        for _ in range(40):
            n = rng.bits(24) | 3
            a, e = rng.bits(rng.below(40) + 1), rng.bits(rng.below(20) + 1) | 1
            want = a >= n  # the base is reduced once, then each product
            m = base = a % n
            for bit in bin(e)[3:]:
                want += m * m >= n
                m = m * m % n
                if bit == "1":
                    want += m * base >= n
                    m = m * base % n
            modexp.mod_reduce(nat(a), nat(n), strategy)  # n used before the wrapper
            with monkeypatch.context() as patch:
                patch.setattr(_pykernels, "div_restoring", counting)
                calls.clear()
                got = modexp.mod_pow(nat(a), nat(e), nat(n), strategy)
            assert val(got) == pow(a, e, n)
            assert len(calls) == want
