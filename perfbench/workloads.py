"""Seeded workloads for the benchmark, the layers its traced run wraps, and
the counts the traced run must reproduce.

Each workload draws its inputs from `randgen.Lcg64` streams seeded through
`derive_seed`, so one seed always gives the same inputs.  `op` is the timed
operation and calls only public functions of the package; `check` compares
its output against a Python-`int` oracle and runs outside the timer.
"""

from __future__ import annotations

import sys

from vedarith import backend, baseline_arith, modexp, numeral, rsa, vedic_div, vedic_mul
from vedarith.numeral import Base
from vedarith.randgen import Lcg64, derive_seed


def mod_muls(e: int) -> int:
    """mod_mul calls of one mod_pow: the leading exponent bit initializes
    the accumulator, every later bit squares, every later set bit multiplies."""
    return (e.bit_length() - 1) + (bin(e).count("1") - 1)


def restoring_attempts(a: int, e: int, n: int) -> int:
    """Subtract attempts the restoring divider makes inside mod_pow(a, e, n):
    one per dividend bit, for every reduction whose input is not below n."""
    total = 0

    def reduce(x):
        nonlocal total
        if x >= n:
            total += x.bit_length()
        return x % n

    base = reduce(a)
    m = base
    for bit in bin(e)[3:]:
        m = reduce(reduce(m) * reduce(m))
        if bit == "1":
            m = reduce(reduce(m) * reduce(base))
    return total


class Workload:
    """One seeded input stream.  The harness calls `setup_step` once per
    set-up round, then `next_input` and `op` for each op, with `check` and
    `expected` outside the op's timer."""

    def __init__(self, seed: int):
        self.seed = seed

    def traced_setup(self):
        """Set-up work that the traced run times once; none by default."""

    def expected(self, inp):
        """(mod_mul calls, restoring subtract attempts) that op(inp) makes."""
        return 0, 0


class RsaRoundtrip(Workload):
    """Parse a message numeral, encrypt, decrypt and format it again, on
    the default Strategy.  Set-up draws one 128-bit key per set-up round;
    ops rotate over the keys so that one key's exponent does not set the
    figure for the whole seed."""

    name = "rsa-roundtrip"
    MODULUS_BITS = 128

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys = []
        self.rng = Lcg64(derive_seed(seed, self.name))
        self.count = 0

    def key_seed(self, index: int) -> int:
        return derive_seed(self.seed, f"{self.name}/key{index}")

    def setup_step(self):
        self.keys.append(
            rsa.keygen_random(self.MODULUS_BITS, self.key_seed(len(self.keys)))
        )

    def traced_setup(self):
        rsa.keygen_random(self.MODULUS_BITS, self.key_seed(0))

    def next_input(self):
        key = self.keys[self.count % len(self.keys)]
        self.count += 1
        m = self.rng.below(numeral.to_int(key.public.modulus))
        return key, m, "%x" % m

    def op(self, inp):
        key, _, text = inp
        c = rsa.encrypt(numeral.parse(text, Base.HEX), key.public)
        return c, numeral.format(rsa.decrypt(c, key.private))

    def check(self, inp, out):
        key, m, text = inp
        c, back = out
        n = numeral.to_int(key.public.modulus)
        e = numeral.to_int(key.public.exponent)
        return numeral.to_int(c) == pow(m, e, n) and back == text

    def expected(self, inp):
        key = inp[0]
        calls = mod_muls(numeral.to_int(key.public.exponent))
        calls += mod_muls(numeral.to_int(key.private.exponent))
        return calls, 0


class StrategySweep(Workload):
    """One seeded (a, e, n) through mod_pow on every multiplier/divider
    pairing; the six results must agree with each other and with pow."""

    name = "strategy-sweep"
    MODULUS_BITS = 48
    EXPONENT_BITS = 32

    def setup_step(self):
        self.rng = Lcg64(derive_seed(self.seed, self.name))
        self.strategies = modexp.all_strategies()

    def next_input(self):
        n = self.rng.bits(self.MODULUS_BITS) | (1 << (self.MODULUS_BITS - 1))
        a = self.rng.below(n)
        e = self.rng.bits(self.EXPONENT_BITS) | (1 << (self.EXPONENT_BITS - 1))
        return (a, e, n), tuple(numeral.from_int(v) for v in (a, e, n))

    def op(self, inp):
        a, e, n = inp[1]
        return tuple(modexp.mod_pow(a, e, n, s) for s in self.strategies)

    def check(self, inp, out):
        a, e, n = inp[0]
        want = pow(a, e, n)
        return len(out) == len(self.strategies) and all(
            numeral.to_int(r) == want for r in out
        )

    def expected(self, inp):
        a, e, n = inp[0]
        restoring = sum(s.divider == "restoring" for s in self.strategies)
        return 6 * mod_muls(e), restoring * restoring_attempts(a, e, n)


class DigitOps(Workload):
    """multiply(a, b), then divide(add(p, c), b) with c < b, expecting
    (a, c).  Operands are 16-256 bits in bases 10, 16 and 256 in turn, with
    a fresh divisor every op; every other divisor has a leading digit below
    ceil(base/2), so half the divisions take the single-digit scaling path."""

    name = "digit-ops"
    BASES = (Base.DEC, Base.HEX, Base.BYTE)
    MIN_BITS = 16
    MAX_BITS = 256

    def setup_step(self):
        self.rng = Lcg64(derive_seed(self.seed, self.name))
        self.count = 0

    def _operand(self):
        span = self.MAX_BITS - self.MIN_BITS + 1
        bits = self.MIN_BITS + self.rng.below(span)
        return self.rng.bits(bits) | (1 << (bits - 1))

    def next_input(self):
        base = self.BASES[self.count % len(self.BASES)]
        want_scaled = self.count % 2 == 0
        self.count += 1
        a = self._operand()
        while True:
            b = self._operand()
            divisor = numeral.from_int(b, base)
            if (divisor.digits[-1] < (int(base) + 1) // 2) == want_scaled:
                break
        c = self.rng.below(b)
        return (a, b, c), (numeral.from_int(a, base), divisor, numeral.from_int(c, base))

    def op(self, inp):
        a, b, c = inp[1]
        p = vedic_mul.multiply(a, b)
        r = vedic_div.divide(numeral.add(p, c), b)
        return p, r.quotient, r.remainder

    def check(self, inp, out):
        a, b, c = inp[0]
        p, q, r = (numeral.to_int(x) for x in out)
        return p == a * b and (q, r) == (a, c)


WORKLOADS = {w.name: w for w in (RsaRoundtrip, StrategySweep, DigitOps)}


# --- traced layers ---------------------------------------------------------


def _count_mul(counts, args, result):
    products = len(args[0]) * len(args[1])
    counts["digit_products"] = counts.get("digit_products", 0) + products


def _count_div_straight(counts, args, result):
    ys, base = args[1], args[2]
    counts["quotient_digits"] = counts.get("quotient_digits", 0) + len(result[0])
    counts["max_adjust"] = max(counts.get("max_adjust", 0), result[2])
    counts["scaled"] = counts.get("scaled", 0) + (ys[-1] < (base + 1) // 2)


def _count_result(field):
    def count(counts, args, result):
        counts[field] = counts.get(field, 0) + result[2]

    return count


def _count_reduce(counts, args, result):
    # mod_reduce hands its input back unchanged when it is already below n
    counts["divides"] = counts.get("divides", 0) + (result is not args[0])


def install_layers(tracer):
    """Wrap every layer's public entry points wherever they are looked up."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "vedarith"]
    kernels = backend.kernels()
    layers = [
        ("kernels.mul_vedic", kernels.mul_vedic, _count_mul),
        ("kernels.mul_shift_add", kernels.mul_shift_add, None),
        ("kernels.div_straight", kernels.div_straight, _count_div_straight),
        ("kernels.div_restoring", kernels.div_restoring, _count_result("subtract_attempts")),
        ("kernels.div_nonrestoring", kernels.div_nonrestoring, _count_result("addsub_steps")),
        ("vedic_mul.multiply", vedic_mul.multiply, None),
        ("vedic_div.divide", vedic_div.divide, None),
        ("baseline_arith.shift_add_multiply", baseline_arith.shift_add_multiply, None),
        ("baseline_arith.restoring_divide", baseline_arith.restoring_divide, None),
        ("baseline_arith.nonrestoring_divide", baseline_arith.nonrestoring_divide, None),
        ("modexp.mod_pow", modexp.mod_pow, None),
        ("modexp.mod_mul", modexp.mod_mul, None),
        ("modexp.mod_reduce", modexp.mod_reduce, _count_reduce),
        ("rsa.keygen_random", rsa.keygen_random, None),
        ("rsa.keygen", rsa.keygen, None),
        ("rsa.is_prime", rsa.is_prime, None),
        ("rsa.encrypt", rsa.encrypt, None),
        ("rsa.decrypt", rsa.decrypt, None),
    ]
    layers += [
        (f"numeral.{fn}", getattr(numeral, fn), None)
        for fn in ("parse", "format", "add", "compare", "to_bits", "from_bits")
    ]
    for name, fn, count in layers:
        tracer.install(modules, name, fn, count)
