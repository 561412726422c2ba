"""Textbook RSA at desk scale: five-step key generation, encryption
L = M**J mod N and decryption M = L**I mod N, all on the package's own
modular exponentiation.

The message space is a single residue 0 <= M < N: no padding, no blocking,
no side-channel hardening.  This is an educational arithmetic exercise,
not production cryptography.
"""

from __future__ import annotations

import math
from itertools import compress
from pathlib import Path

from . import modexp, numeral, vedic_mul
from .baseline_arith import shift_add_multiply
from .modexp import DEFAULT_STRATEGY, Strategy
from .numeral import Base, Natural, Ordering, Record
from .randgen import Lcg64


class KeyFileError(ValueError):
    """A key file did not match the expected line format."""


class MessageTooLargeError(ValueError):
    """Message or ciphertext is not below the modulus."""


class RsaPublicKey(Record):
    __slots__ = ("modulus", "exponent")


class RsaPrivateKey(Record):
    __slots__ = ("modulus", "exponent")


class KeyPair(Record):
    __slots__ = ("public", "private", "p", "q", "totient")


# Strong-pseudoprime witnesses: the first thirteen primes, which no
# composite below psi13 = 3317044064679887385961981 (about 2**81.46) passes
# (Sorenson and Webster, Math. Comp. 86 (2017)).  The first twelve are not
# enough: 318665857834031151167461 = 399165290221 * 798330580441 passes them.
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Below 2**64 seven bases do the same work (J. Sinclair, 2011, checked
# against Feitsma and Galway's list of every base-2 strong pseudoprime below
# 2**64), under the convention that a base whose residue mod n is 0 is
# skipped: the primes 73, 193, 407521 and 299210837 each divide one of them.
MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# Widest prime either keygen takes: below 2**81 < psi13 is_prime is exact.
MAX_PRIME_BITS = 81


def _primes_below(limit: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return tuple(compress(range(limit), sieve))


# Trial divisors: every prime below 1000, the thirteen witnesses among them.
SMALL_PRIMES = _primes_below(1000)


def is_prime(n: Natural) -> bool:
    """Primality test: trial division by every prime below 1000, then
    Miller-Rabin to the seven bases MR_BASES_64 when n < 2**64 and to the
    thirteen witnesses otherwise, skipping a base that n divides.  The
    modular exponentiations run on this package's own arithmetic.  Exact
    below psi13, small n included; above it, True only means a strong
    probable prime to those thirteen bases."""
    v = numeral.to_int(n)
    if v < 2:
        return False
    for p in SMALL_PRIMES:
        if v % p == 0:
            return v == p
    one = numeral.one(n.base)
    n_minus_1 = numeral.sub(n, one)
    # n - 1 = d * 2**s with d odd
    bits = numeral.to_bits(n_minus_1)
    s = 0
    while bits[s] == 0:
        s += 1
    d = numeral.from_bits(bits[s:], Base.BIN)
    for w in MR_BASES_64 if v < 2**64 else MR_WITNESSES:
        w %= v
        if w == 0:
            continue
        x = modexp.mod_pow(numeral.from_int(w, n.base), d, n)
        if x == one or x == n_minus_1:
            continue
        for _ in range(s - 1):
            x = modexp.mod_mul(x, x, n)
            if x == n_minus_1:
                break
        else:
            return False
    return True


def keygen(p: Natural, q: Natural, j: Natural) -> KeyPair:
    """Build a key pair from chosen primes and public exponent.

    Checks every stated precondition, derives the private exponent as the
    inverse of j modulo (p-1)(q-1), the one in [0, totient) that Python's
    `pow(j, -1, totient)` gives, and re-verifies j*i = 1 (mod totient) with
    the package's own modular arithmetic before returning.  p and q
    may not be wider than MAX_PRIME_BITS, so both primality proofs are
    exact.
    """
    numeral.same_base(p, q)
    numeral.same_base(p, j)
    for name, prime in (("p", p), ("q", q)):
        if numeral.bit_length(prime) > MAX_PRIME_BITS:
            raise ValueError(
                f"{name} = {numeral.format(prime)} is wider than {MAX_PRIME_BITS} "
                f"bits: primality is proved only below 2**{MAX_PRIME_BITS}"
            )
    if not is_prime(p):
        raise ValueError(f"p = {numeral.format(p)} is not prime")
    if not is_prime(q):
        raise ValueError(f"q = {numeral.format(q)} is not prime")
    if numeral.compare(p, q) is Ordering.EQUAL:
        raise ValueError("primes p and q must be distinct")
    return _key_pair(p, q, j)


def _key_pair(p: Natural, q: Natural, j: Natural) -> KeyPair:
    """The key pair of two distinct proved primes p, q of one base and a
    public exponent j of that base; checks j and the derived exponent."""
    one = numeral.one(p.base)
    modulus = vedic_mul.multiply(p, q)
    # cross-check the modulus with the second multiplier
    if numeral.compare(modulus, shift_add_multiply(p, q)) is not Ordering.EQUAL:
        raise AssertionError("multiplier cross-check failed for the modulus")
    totient = vedic_mul.multiply(numeral.sub(p, one), numeral.sub(q, one))
    if (
        numeral.compare(j, one) is not Ordering.GREATER
        or numeral.compare(j, totient) is not Ordering.LESS
    ):
        raise ValueError("public exponent must satisfy 1 < j < (p-1)(q-1)")
    j_int, k_int = numeral.to_int(j), numeral.to_int(totient)
    g = math.gcd(j_int, k_int)
    if g != 1:
        raise ValueError(
            "public exponent shares a factor with (p-1)(q-1): "
            f"gcd = {numeral.format(numeral.from_int(g, p.base))}"
        )
    private_exp = numeral.from_int(pow(j_int, -1, k_int), p.base)
    if modexp.mod_mul(j, private_exp, totient) != one:
        raise AssertionError("private exponent failed the inverse check")
    return KeyPair(
        public=RsaPublicKey(modulus, j),
        private=RsaPrivateKey(modulus, private_exp),
        p=p,
        q=q,
        totient=totient,
    )


# Deterministic public-exponent candidates tried before random draws.
_J_CANDIDATES = (3, 5, 17, 257, 65537)


def keygen_random(bits: int, seed: int) -> KeyPair:
    """Seeded key generation: primes of bits//2 bits each are drawn from the
    LCG and retried until prime and distinct; identical seeds give identical
    key pairs, in hex.  Each prime is proved once, by the draw; bits//2 may
    not exceed MAX_PRIME_BITS, where that proof stops being exact."""
    if bits < 8:
        raise ValueError("modulus width must be at least 8 bits")
    half = bits // 2
    if half > MAX_PRIME_BITS:
        raise ValueError(
            f"modulus width must be at most {2 * MAX_PRIME_BITS + 1} bits: "
            f"primality is proved only below 2**{MAX_PRIME_BITS}"
        )
    rng = Lcg64(seed)
    p = _draw_prime(rng, half)
    while True:
        q = _draw_prime(rng, half)
        if numeral.compare(p, q) is not Ordering.EQUAL:
            break
    one = numeral.one(p.base)
    totient = vedic_mul.multiply(numeral.sub(p, one), numeral.sub(q, one))
    k_int = numeral.to_int(totient)
    j_int = None
    for cand in _J_CANDIDATES:
        if 1 < cand < k_int and math.gcd(cand, k_int) == 1:
            j_int = cand
            break
    while j_int is None:
        cand = rng.below(k_int - 3) + 3
        if math.gcd(cand, k_int) == 1:
            j_int = cand
    return _key_pair(p, q, numeral.from_int(j_int, p.base))


def _draw_prime(rng: Lcg64, nbits: int) -> Natural:
    while True:
        v = rng.bits(nbits) | (1 << (nbits - 1)) | 1  # full width, odd
        candidate = numeral.from_int(v)
        if is_prime(candidate):
            return candidate


def encrypt(
    m: Natural, key: RsaPublicKey, strategy: Strategy = DEFAULT_STRATEGY
) -> Natural:
    """Cipher residue m**J mod N; m must be below the modulus."""
    if numeral.compare(m, key.modulus) is not Ordering.LESS:
        raise MessageTooLargeError("message must be smaller than the modulus")
    return modexp.mod_pow(m, key.exponent, key.modulus, strategy)


def decrypt(
    l: Natural, key: RsaPrivateKey, strategy: Strategy = DEFAULT_STRATEGY
) -> Natural:
    """Message residue l**I mod N; l must be below the modulus."""
    if numeral.compare(l, key.modulus) is not Ordering.LESS:
        raise MessageTooLargeError("ciphertext must be smaller than the modulus")
    return modexp.mod_pow(l, key.exponent, key.modulus, strategy)


# --- key files -------------------------------------------------------------
#
# Text format, one item per line, nothing else allowed:
#   base=16
#   n=<numeral>
#   exp=<numeral>
#   kind=public|private

_KEY_FIELDS = ("base", "n", "exp", "kind")


def save_key(path, key: RsaPublicKey | RsaPrivateKey) -> None:
    kind = "public" if isinstance(key, RsaPublicKey) else "private"
    base = key.modulus.base
    lines = [
        f"base={int(base)}",
        f"n={numeral.format(key.modulus)}",
        f"exp={numeral.format(key.exponent)}",
        f"kind={kind}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_key(path) -> RsaPublicKey | RsaPrivateKey:
    fields: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        name, sep, value = line.partition("=")
        if not sep or name not in _KEY_FIELDS:
            raise KeyFileError(f"unknown line {lineno}: {line!r}")
        if name in fields:
            raise KeyFileError(f"duplicate field {name!r} on line {lineno}")
        fields[name] = value
    missing = [f for f in _KEY_FIELDS if f not in fields]
    if missing:
        raise KeyFileError(f"missing fields: {', '.join(missing)}")
    try:
        base = Base(int(fields["base"]))
    except ValueError as exc:
        raise KeyFileError(f"unsupported base {fields['base']!r}") from exc
    modulus = numeral.parse(fields["n"], base)
    exponent = numeral.parse(fields["exp"], base)
    if fields["kind"] == "public":
        return RsaPublicKey(modulus, exponent)
    if fields["kind"] == "private":
        return RsaPrivateKey(modulus, exponent)
    raise KeyFileError(f"kind must be public or private, got {fields['kind']!r}")


def message_to_natural(data: bytes, base: Base = numeral.DEFAULT_BASE) -> Natural:
    """Big-endian byte-string encoding of a short message."""
    v = int.from_bytes(data, "big")
    return numeral.from_int(v, base)


def natural_to_message(x: Natural) -> bytes:
    v = numeral.to_int(x)
    return v.to_bytes((v.bit_length() + 7) // 8, "big") if v else b""
