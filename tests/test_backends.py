"""Differential tests: the compiled kernels must match the pure ones
bit for bit, and the dispatcher must honor explicit selection."""

import os

import pytest

from vedarith import _pykernels, backend
from vedarith.randgen import Lcg64

compiled_available = "compiled" in backend.available()
needs_compiled = pytest.mark.skipif(
    not compiled_available, reason="compiled kernels not built"
)


def to_int(digits, base):
    return sum(d * base**i for i, d in enumerate(digits))


def check_division(xs, ys, base):
    q, r, _, _ = _pykernels.div_straight(xs, ys, base)
    want = divmod(to_int(xs, base), to_int(ys, base))
    assert (to_int(q, base), to_int(r, base)) == want


def rand_digits(rng, maxlen, base):
    out = [rng.below(base) for _ in range(rng.below(maxlen + 1))]
    while out and out[-1] == 0:
        out.pop()
    return out


def test_pure_backend_always_available():
    assert "pure" in backend.available()
    assert backend.kernels().NAME in ("pure", "compiled")


def test_use_switches_and_restores():
    before = backend.active_name()
    with backend.use("pure"):
        assert backend.active_name() == "pure"
    assert backend.active_name() == before
    with pytest.raises(ValueError):
        with backend.use("gpu"):
            pass


@needs_compiled
def test_compiled_is_default_when_built():
    if os.environ.get("VEDARITH_BACKEND"):
        pytest.skip("backend pinned by environment")
    assert backend.active_name() == "compiled"


def test_kernels_agree_on_random_digit_lists(compiled):
    rng = Lcg64(0xBEEF)
    for trial in range(4000):
        base = (2, 4, 10, 16, 256)[rng.below(5)]
        xs = rand_digits(rng, 40, base)
        ys = rand_digits(rng, 40, base)
        assert compiled.mul_vedic(xs, ys, base) == _pykernels.mul_vedic(xs, ys, base)
        assert compiled.mul_shift_add(xs, ys, base) == _pykernels.mul_shift_add(
            xs, ys, base
        )
        if ys:
            want_trace = trial % 4 == 0
            got = compiled.div_straight(xs, ys, base, want_trace)
            assert got == _pykernels.div_straight(xs, ys, base, want_trace)
    # repeated and alternating divisors, so the pure twin's divisor record
    # is exercised both freshly built and reused
    for base in (2, 4, 10, 16, 256):
        a = rand_digits(rng, 12, base) or [1]
        b = rand_digits(rng, 12, base) or [base - 1]
        for ys in (a, a, a, b, a, b, b, a):
            xs = rand_digits(rng, 40, base)
            for want_trace in (False, True):
                got = compiled.div_straight(xs, ys, base, want_trace)
                assert got == _pykernels.div_straight(xs, ys, base, want_trace)


def test_bit_kernels_agree(compiled):
    rng = Lcg64(0xF00D)
    for _ in range(4000):
        xs = rand_digits(rng, 96, 2)
        ys = rand_digits(rng, 64, 2)
        if not ys:
            ys = [1]
        assert compiled.div_restoring(xs, ys) == _pykernels.div_restoring(xs, ys)
        assert compiled.div_nonrestoring(xs, ys) == _pykernels.div_nonrestoring(xs, ys)


def test_kernels_agree_on_edge_shapes(compiled):
    cases = [
        ([], [], 16),
        ([], [1], 16),
        ([5], [1], 16),
        ([0, 0, 1], [1, 1], 2),
        ([15] * 8, [15] * 8, 16),
        ([255] * 6, [255, 255], 256),
        ([1], [9, 9], 10),
    ]
    for xs, ys, base in cases:
        assert compiled.mul_vedic(xs, ys, base) == _pykernels.mul_vedic(xs, ys, base)
        if ys:
            assert compiled.div_straight(xs, ys, base, True) == _pykernels.div_straight(
                xs, ys, base, True
            )


def test_division_by_zero_raised_by_kernels():
    for mod in backend.available().values():
        with pytest.raises(ZeroDivisionError):
            mod.div_straight([1], [], 16, False)
        with pytest.raises(ZeroDivisionError):
            mod.div_restoring([1], [])
        with pytest.raises(ZeroDivisionError):
            mod.div_nonrestoring([1], [])


def test_divisor_record_keeps_bases_apart():
    xs = [7, 1, 9, 2, 4]
    ys = [3, 5]  # 53 in base 10, 0x53 in base 16
    for base in (10, 16, 10, 16, 16, 10):
        check_division(xs, ys, base)
    assert _pykernels._divisor(ys, 16) is _pykernels._divisor(ys, 16)
    assert _pykernels._divisor(ys, 10).base == 10


def test_divisor_record_ignores_caller_mutation():
    xs = [7, 1, 9, 2, 4, 8]
    for original in ([3, 9], [3, 2]):  # unscaled and scaled divisor, base 10
        ys = list(original)
        check_division([1, 0, 0, 0, 1], ys, 10)
        ys[0] = 6
        for dividend in (xs, [9] * 8):  # quotient digits not seen before
            check_division(dividend, list(original), 10)
        check_division(xs, ys, 10)
        ys[-1] = 1
        check_division(xs, ys, 10)
        ys.append(4)
        check_division(xs, ys, 10)


def test_divisor_record_reuse_keeps_the_trace():
    rng = Lcg64(0xD1CE)
    for base in (2, 10, 16, 256):
        ys = rand_digits(rng, 6, base) + [1]  # scaled unless base 2
        xs = rand_digits(rng, 30, base) + [base - 1]
        _pykernels.div_straight([1], [1] * (len(ys) + 1), base)  # evict ys
        fresh = _pykernels.div_straight(xs, ys, base, True)
        warm = _pykernels.div_straight(xs, ys, base, True)
        assert warm == fresh
        check_division(xs, ys, base)
