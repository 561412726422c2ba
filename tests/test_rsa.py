import math

import pytest
from hypothesis import example, given, strategies as st

from conftest import ALL_BASES, nat, val
from vedarith import modexp, numeral, rsa
from vedarith.numeral import Base
from vedarith.randgen import Lcg64


def trial_division_is_prime(v: int) -> bool:
    # independent oracle
    if v < 2:
        return False
    f = 2
    while f * f <= v:
        if v % f == 0:
            return False
        f += 1
    return True


def test_is_prime_edges():
    assert not rsa.is_prime(numeral.zero(Base.HEX))
    assert not rsa.is_prime(numeral.one(Base.HEX))
    assert rsa.is_prime(nat(2))
    assert rsa.is_prime(nat(3))


def test_is_prime_small_exhaustive_against_oracle():
    for v in range(2000):
        assert rsa.is_prime(nat(v)) == trial_division_is_prime(v), v


def test_is_prime_examples():
    assert rsa.is_prime(nat(61))
    assert rsa.is_prime(nat(53))
    assert not rsa.is_prime(nat(3233))  # 61 * 53


def test_is_prime_beyond_trial_range():
    # Mersenne prime 2**31 - 1 and known composites on the Miller-Rabin path
    assert rsa.is_prime(nat(2**31 - 1))
    assert not rsa.is_prime(nat(2**31))
    assert not rsa.is_prime(nat((2**31 - 1) * (2**31 + 11)))
    assert rsa.is_prime(nat(2**61 - 1))
    # strong-pseudoprime trap: Carmichael number
    assert not rsa.is_prime(nat(561))


def test_is_prime_rejects_the_twelve_base_pseudoprime():
    # psi12: a strong pseudoprime to every base 2..37; witness 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert rsa.is_prime(nat(399165290221)) and rsa.is_prime(nat(798330580441))
    assert not rsa.is_prime(nat(psi12))
    assert not rsa.is_prime(nat(psi12, Base.DEC))


def miller_rabin_oracle(v: int) -> bool:
    # Python-int Miller-Rabin to the first thirteen primes: exact below psi13
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if v < 2 or any(v % p == 0 for p in bases):
        return v in bases
    d, s = v - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, v)
        if x in (1, v - 1):
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def test_is_prime_accepts_the_primes_that_divide_a_base():
    # each divides one of the seven bases, whose residue is then 0 and skipped
    for v in (73, 193, 407521, 299210837):
        assert any(w % v == 0 for w in rsa.MR_BASES_64), v
        assert rsa.is_prime(nat(v)) and rsa.is_prime(nat(v, Base.DEC)), v


def test_is_prime_rejects_composites_below_2_to_the_64():
    # products of the base-dividing primes, Carmichael numbers, and the
    # least strong pseudoprimes to the first k primes (OEIS A014233, k <= 12)
    a014233 = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
    )
    for v in (14089, 5329, 561, 41041, *a014233):
        assert not miller_rabin_oracle(v), v
        assert not rsa.is_prime(nat(v)) and not rsa.is_prime(nat(v, Base.DEC)), v


def test_is_prime_seven_bases_agree_with_the_thirteen():
    rng = Lcg64(64)
    for _ in range(200):
        v = (rng.below(2**64 - 2**32) + 2**32) | 1
        assert rsa.is_prime(nat(v)) == miller_rabin_oracle(v), v


def test_is_prime_picks_its_bases_by_the_size_of_n(monkeypatch):
    calls = []
    mod_pow = modexp.mod_pow

    def counting(*args):
        calls.append(args)
        return mod_pow(*args)

    monkeypatch.setattr(modexp, "mod_pow", counting)
    # the widest prime below 2**64, the least above it, and a 70-bit prime
    for v, exponentiations in ((2**64 - 59, 7), (2**64 + 13, 13), (2**70 - 35, 13)):
        assert miller_rabin_oracle(v), v
        calls.clear()
        assert rsa.is_prime(nat(v)), v
        assert len(calls) == exponentiations, v


def test_is_prime_trial_divides_by_every_prime_below_1000(monkeypatch):
    calls = []
    monkeypatch.setattr(modexp, "mod_pow", lambda *args: calls.append(args))
    # 64-bit composites whose least prime factor is above the witnesses
    for p, q in (
        (43, 214497024112901773),
        (409, 22551031874950559),
        (997, 9251125413094069),
    ):
        assert miller_rabin_oracle(q) and 2**63 <= p * q < 2**64
        assert not rsa.is_prime(nat(p * q)), p
        assert rsa.is_prime(nat(p)), p
    assert calls == []


def test_is_prime_random_against_oracle():
    rng = Lcg64(13)
    for _ in range(300):
        v = rng.bits(22)
        assert rsa.is_prime(nat(v)) == trial_division_is_prime(v), v


def _random_prime(rng: Lcg64, nbits: int) -> int:
    while True:
        v = rng.bits(nbits) | (1 << (nbits - 1)) | 1
        if rsa.is_prime(nat(v)):
            return v


def test_keygen_private_exponent_matches_the_inverse_oracle():
    rng = Lcg64(17)
    for _ in range(50):
        p, q = 0, 0
        while p == q:
            p, q = (_random_prime(rng, rng.below(33) + 8) for _ in range(2))
        totient = (p - 1) * (q - 1)
        j = 0
        while math.gcd(j, totient) != 1:
            j = rng.below(totient - 2) + 2
        pair = rsa.keygen(nat(p), nat(q), nat(j))
        assert val(pair.private.exponent) == pow(j, -1, totient), (p, q, j)
    with pytest.raises(ValueError, match="shares a factor with .*: gcd = 4$"):
        rsa.keygen(nat(61), nat(53), nat(4))


def test_keygen_classic_pair(toy_keypair):
    # oracle: 17 * 2753 = 46801 = 15 * 3120 + 1
    assert 17 * 2753 == 15 * 3120 + 1
    pair = toy_keypair
    assert val(pair.public.modulus) == 3233
    assert val(pair.totient) == 3120
    assert val(pair.public.exponent) == 17
    assert val(pair.private.exponent) == 2753


def test_keygen_tiny_pair():
    # oracle: exhaustive inverse search over 0..7 gives 3 * 3 = 9 = 1 mod 8
    assert [i for i in range(8) if (3 * i) % 8 == 1] == [3]
    pair = rsa.keygen(nat(3), nat(5), nat(3))
    assert val(pair.public.modulus) == 15
    assert val(pair.totient) == 8
    assert val(pair.private.exponent) == 3


def test_keygen_rejects_bad_inputs():
    with pytest.raises(ValueError, match="distinct"):
        rsa.keygen(nat(61), nat(61), nat(17))
    with pytest.raises(ValueError, match="p = 3c is not prime"):
        rsa.keygen(numeral.convert(numeral.parse("60", Base.DEC), Base.HEX), nat(53), nat(17))
    with pytest.raises(ValueError, match="q ="):
        rsa.keygen(nat(61), nat(55), nat(17))
    with pytest.raises(ValueError, match="gcd"):
        rsa.keygen(nat(61), nat(53), nat(4))  # gcd(4, 3120) = 4
    with pytest.raises(ValueError, match="1 < j"):
        rsa.keygen(nat(61), nat(53), numeral.one(Base.HEX))


def test_keygen_rejects_primes_beyond_the_exact_bound():
    # psi13 is a strong pseudoprime to all thirteen witnesses, so is_prime
    # passes it; keygen refuses it by width before any primality test
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    assert rsa.is_prime(nat(psi13))
    mersenne61 = (1 << 61) - 1
    with pytest.raises(ValueError, match="p = .* wider than 81 bits"):
        rsa.keygen(nat(psi13), nat(mersenne61), nat(65537))
    with pytest.raises(ValueError, match="q = .* wider than 81 bits"):
        rsa.keygen(nat(mersenne61), nat(psi13), nat(65537))


def test_keygen_invariants_hold(toy_keypair):
    pair = toy_keypair
    assert val(pair.p) * val(pair.q) == val(pair.public.modulus)
    assert (val(pair.public.exponent) * val(pair.private.exponent)) % val(
        pair.totient
    ) == 1
    assert pair.public.modulus == pair.private.modulus


def test_encrypt_decrypt_fixed_points(toy_keypair):
    zero = numeral.zero(Base.HEX)
    one = numeral.one(Base.HEX)
    assert rsa.encrypt(zero, toy_keypair.public).is_zero()
    assert rsa.encrypt(one, toy_keypair.public) == one
    assert rsa.decrypt(zero, toy_keypair.private).is_zero()


def test_encrypt_classic_value(toy_keypair):
    c = rsa.encrypt(nat(65), toy_keypair.public)
    assert val(c) == 2790
    assert val(rsa.decrypt(nat(2790), toy_keypair.private)) == 65


def test_encrypt_output_below_modulus(toy_keypair):
    rng = Lcg64(19)
    for _ in range(100):
        m = nat(rng.below(3233))
        assert val(rsa.encrypt(m, toy_keypair.public)) < 3233


def test_message_too_large(toy_keypair):
    with pytest.raises(rsa.MessageTooLargeError):
        rsa.encrypt(nat(3233), toy_keypair.public)
    with pytest.raises(rsa.MessageTooLargeError):
        rsa.decrypt(nat(9999), toy_keypair.private)


def test_tiny_key_roundtrip_exhaustive():
    pair = rsa.keygen(nat(3), nat(5), nat(3))
    for m in range(15):
        nm = nat(m)
        assert rsa.decrypt(rsa.encrypt(nm, pair.public), pair.private) == nm


def test_strategy_independence(toy_keypair):
    m = nat(1234)
    outs = {
        val(rsa.encrypt(m, toy_keypair.public, s)) for s in modexp.all_strategies()
    }
    assert len(outs) == 1


def test_keygen_random_is_seed_deterministic():
    a = rsa.keygen_random(32, seed=99)
    b = rsa.keygen_random(32, seed=99)
    assert a == b
    c = rsa.keygen_random(32, seed=100)
    assert c != a


def test_keygen_random_produces_working_keys():
    for seed in (1, 2, 3):
        pair = rsa.keygen_random(24, seed=seed)
        assert rsa.is_prime(pair.p) and rsa.is_prime(pair.q)
        assert (val(pair.public.exponent) * val(pair.private.exponent)) % val(
            pair.totient
        ) == 1
        m = nat(4242 % val(pair.public.modulus))
        assert rsa.decrypt(rsa.encrypt(m, pair.public), pair.private) == m


def test_keygen_random_rejects_tiny_width():
    with pytest.raises(ValueError):
        rsa.keygen_random(4, seed=1)


def test_key_file_roundtrip(tmp_path, toy_keypair):
    pub_path = tmp_path / "k.pub"
    priv_path = tmp_path / "k.priv"
    rsa.save_key(pub_path, toy_keypair.public)
    rsa.save_key(priv_path, toy_keypair.private)
    assert pub_path.read_text() == "base=16\nn=ca1\nexp=11\nkind=public\n"
    assert rsa.load_key(pub_path) == toy_keypair.public
    assert rsa.load_key(priv_path) == toy_keypair.private
    assert isinstance(rsa.load_key(priv_path), rsa.RsaPrivateKey)


@given(
    st.integers(min_value=2, max_value=1 << 300),
    st.integers(min_value=0, max_value=1 << 300),
    st.sampled_from(ALL_BASES),
    st.sampled_from((rsa.RsaPublicKey, rsa.RsaPrivateKey)),
)
@example(0xABC, 0x1, Base.BYTE, rsa.RsaPrivateKey)  # an odd number of hex characters
def test_key_files_round_trip_in_every_base(tmp_path_factory, n, e, base, kind):
    key = kind(nat(n, base), nat(e, base))
    path = tmp_path_factory.getbasetemp() / "round-trip.key"
    rsa.save_key(path, key)
    assert rsa.load_key(path) == key


def test_key_file_rejects_unknown_and_missing_lines(tmp_path):
    path = tmp_path / "bad.key"
    path.write_text("base=16\nn=ca1\nexp=11\nkind=public\ncomment=hello\n")
    with pytest.raises(rsa.KeyFileError, match="unknown line"):
        rsa.load_key(path)
    path.write_text("base=16\nn=ca1\nkind=public\n")
    with pytest.raises(rsa.KeyFileError, match="missing"):
        rsa.load_key(path)
    path.write_text("base=16\nbase=16\nn=ca1\nexp=11\nkind=public\n")
    with pytest.raises(rsa.KeyFileError, match="duplicate"):
        rsa.load_key(path)
    path.write_text("base=16\nn=ca1\nexp=11\nkind=master\n")
    with pytest.raises(rsa.KeyFileError, match="kind"):
        rsa.load_key(path)
    # only the spelling save_key writes: no sign, padding or underscore
    for base in ("12", " 16", "1_6", "+16", "016", "16\t"):
        path.write_text(f"base={base}\nn=ca1\nexp=11\nkind=public\n")
        with pytest.raises(rsa.KeyFileError, match="base"):
            rsa.load_key(path)


def test_message_bytes_helpers():
    m = rsa.message_to_natural(b"hi", Base.HEX)
    assert val(m) == 0x6869
    assert rsa.natural_to_message(m) == b"hi"
    assert rsa.natural_to_message(numeral.zero(Base.HEX)) == b""


def test_keygen_random_proves_each_prime_once(monkeypatch):
    proved = []
    is_prime = rsa.is_prime

    def counting(n):
        verdict = is_prime(n)
        if verdict:
            proved.append(val(n))
        return verdict

    monkeypatch.setattr(rsa, "is_prime", counting)
    pair = rsa.keygen_random(128, 5)
    assert sorted(proved) == sorted([val(pair.p), val(pair.q)])
    # the same key as before the second proof was dropped
    assert numeral.format(pair.public.modulus) == "d081645accad9085bb90a106f958088f"
    assert val(pair.public.exponent) == 17
    assert numeral.format(pair.private.exponent) == "c43d8ba0c0a35ad684850de3d7254471"


def test_keygen_random_width_bound():
    # primes of bits // 2 bits must stay below 2**81, where is_prime is exact
    assert rsa.MAX_PRIME_BITS == 81
    for bits in (164, 165, 1024):
        with pytest.raises(ValueError, match="at most 163 bits"):
            rsa.keygen_random(bits, 1)
    with pytest.raises(ValueError, match="at least 8"):
        rsa.keygen_random(7, 1)
