"""Differential tests: the compiled kernels must match the pure ones
bit for bit, and the dispatcher must honor explicit selection."""

import inspect
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import build_ckernels, c_compiler, package_env
from vedarith import _pykernels, backend, modexp
from vedarith.randgen import Lcg64


def to_int(digits, base):
    return sum(d * base**i for i, d in enumerate(digits))


def check_division(xs, ys, base):
    q, r, _, _ = _pykernels.div_straight(xs, ys, base)
    want = divmod(to_int(xs, base), to_int(ys, base))
    assert (to_int(q, base), to_int(r, base)) == want


def to_digits(value, base):
    out = []
    while value:
        value, d = divmod(value, base)
        out.append(d)
    return out


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


def test_compiled_is_default_when_built(compiled, monkeypatch):
    monkeypatch.setitem(backend._BACKENDS, "compiled", compiled)
    monkeypatch.delenv("VEDARITH_BACKEND", raising=False)
    assert backend._initial() is compiled


def test_backend_pinned_by_environment(monkeypatch):
    monkeypatch.setenv("VEDARITH_BACKEND", "pure")
    assert backend._initial() is _pykernels
    monkeypatch.setenv("VEDARITH_BACKEND", "gpu")
    with pytest.raises(ImportError, match="'gpu'"):
        backend._initial()


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
    # one-digit divisors (a two-digit window), and dividends exactly as long
    # as the divisor (a single step)
    for base in (2, 4, 10, 16, 256):
        for _ in range(100):
            one = [1 + rng.below(base - 1)]
            wide = rand_digits(rng, 12, base) + [1 + rng.below(base - 1)]
            exact = [rng.below(base) for _ in wide[1:]] + [1 + rng.below(base - 1)]
            for xs, ys in ((rand_digits(rng, 40, base), one), (exact, wide)):
                check_division(xs, ys, base)
                for want_trace in (False, True):
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


def test_duplex_square_matches_general_product(compiled):
    # mul_vedic(xs, xs) takes the duplex path, mul_vedic(xs, list(xs)) the
    # general one; both must give the integer square, on both twins
    rng = Lcg64(0xD0B1)
    for base in (2, 4, 10, 16, 256, 65536):
        cases = [[], [1], [base - 1], [base - 1] * 300]
        cases += [[base - 1] * rng.below(300) for _ in range(3)]
        cases += [rand_digits(rng, 40, base) for _ in range(200)]
        for xs in cases:
            want = to_digits(to_int(xs, base) ** 2, base)
            for kernels in (_pykernels, compiled):
                assert kernels.mul_vedic(xs, xs, base) == want, (kernels.NAME, base)
                assert kernels.mul_vedic(xs, list(xs), base) == want


def test_twins_share_every_kernel_signature(compiled):
    # the C side's signatures come from the "--" text signatures at the top
    # of its docstrings, so a drifted docstring fails here too
    def shape(kernel):
        params = inspect.signature(kernel).parameters.values()
        return [(p.name, p.default) for p in params]

    algorithms = (*modexp.MULTIPLIERS.values(), *modexp.DIVIDERS.values())
    for name in sorted({a.kernel for a in algorithms}):
        assert shape(getattr(_pykernels, name)) == shape(getattr(compiled, name)), name


def test_bit_kernels_agree(compiled):
    # powers of two expand by shift and mask in C, any other base by
    # halving; 96 bits of dividend and 64 of divisor at most in every base
    rng = Lcg64(0xF00D)
    for base in (2, 3, 10, 16, 256, 65535, 65536):
        width = (base - 1).bit_length()
        for _ in range(600):
            xs = rand_digits(rng, 96 // width, base)
            ys = rand_digits(rng, 64 // width, base) or [1]
            for name in ("div_restoring", "div_nonrestoring"):
                got = getattr(compiled, name)(xs, ys, base)
                assert got == getattr(_pykernels, name)(xs, ys, base), (name, base)


def test_kernels_agree_on_edge_shapes(compiled):
    cases = [
        ([], [], 16),
        ([], [1], 16),
        ([5], [1], 16),
        ([0, 0, 1], [1, 1], 2),
        ([15] * 8, [15] * 8, 16),
        ([255] * 6, [255, 255], 256),
        ([1], [9, 9], 10),
        ([9, 9], [1, 0, 1], 10),  # scaling lengthens the dividend to the divisor
        ([1, 0, 1], [1, 1, 1, 1, 1], 2),
        ([255] * 300, [255] * 300, 256),
        ([255] * 300, [255] * 7, 256),
        ([1] * 1000, [1] * 1000, 2),
        ([1] * 1000, [1] * 13, 2),
    ]
    # the bit dividers' window holds len(ys) + 2 bits
    y = to_digits(45, 2)
    cases += [
        ([1, 0, 1, 1, 0, 1], [1], 2),  # one-bit divisor: a three-bit window
        ([1, 1, 0, 1, 0, 1, 1], [0, 0, 0, 1], 2),  # a power of two
        ([0, 1, 1, 0, 1, 1, 1, 0, 1], [1] * 5, 2),  # all ones
        (y, y, 2),
        (to_digits(2 * 45 - 1, 2), y, 2),  # the widest partial, 2y - 1
        (to_digits(2 * 45, 2), y, 2),  # last quotient bit 0: the final add-back
        (to_digits(4 * 45 + 44, 2), y, 2),  # the add-back after one step more
        (to_digits(45 // 2, 2), y, 2),  # one bit shorter: every step preloaded
        ([1, 1], y, 2),  # shorter than the divisor: no step, no add-back
        ([], y, 2),
    ]
    for xs, ys, base in cases:
        for name in ("mul_vedic", "mul_shift_add"):
            got = getattr(compiled, name)(xs, ys, base)
            assert got == getattr(_pykernels, name)(xs, ys, base), (name, base)
            got = getattr(compiled, name)(xs, xs, base)  # a square
            assert got == getattr(_pykernels, name)(xs, xs, base), (name, base)
        if not ys:
            continue
        want = divmod(to_int(xs, base), to_int(ys, base))
        got = compiled.div_straight(xs, ys, base, True)
        assert got == _pykernels.div_straight(xs, ys, base, True), base
        assert (to_int(got[0], base), to_int(got[1], base)) == want, base
        for name in ("div_restoring", "div_nonrestoring"):
            got = getattr(compiled, name)(xs, ys, base)
            assert got == getattr(_pykernels, name)(xs, ys, base), (name, base)
            assert (to_int(got[0], base), to_int(got[1], base)) == want, (name, xs, ys)


def test_compiled_kernels_do_not_leak(compiled):
    xs, ys = [7, 1, 9, 2, 4, 8, 3], [3, 2]  # ys is scaled in base 10
    bits, ybits = [1, 0, 1, 1, 0, 1, 1, 1], [1, 0, 1]

    def calls():
        compiled.mul_vedic(xs, ys, 10)
        compiled.mul_vedic(xs, xs, 10)  # duplex square
        compiled.mul_shift_add(xs, ys, 10)
        compiled.div_straight(xs, ys, 10)
        compiled.div_straight(xs, ys, 10, True)
        compiled.div_straight(ys, xs, 10, True)  # dividend shorter: early return
        compiled.div_restoring(bits, ybits, 2)
        compiled.div_nonrestoring(bits, ybits, 2)
        compiled.div_nonrestoring(ybits, bits, 2)  # dividend shorter: no step
        compiled.div_nonrestoring([0, 1, 0, 1], ybits, 2)  # 2y: the final add-back
        compiled.div_restoring(xs, ys, 10)  # halving and doubling
        compiled.div_nonrestoring(xs, ys, 10)
        compiled.div_restoring([7, 1, 9, 2], [3, 2], 256)  # shift and mask
        compiled.div_nonrestoring([7, 1, 9, 2], [3, 2], 256)
        for kernel, args, error in (
            (compiled.div_straight, (xs, [], 10), ZeroDivisionError),
            (compiled.div_restoring, (bits, [], 2), ZeroDivisionError),
            (compiled.div_restoring, (bits, [1, 2], 2), ValueError),
            (compiled.div_nonrestoring, (xs, ys, 1), ValueError),
            (compiled.mul_vedic, (xs, [3, -2], 10), OverflowError),
            (compiled.mul_shift_add, (xs, [3, -2], 10), OverflowError),
            (compiled.div_straight, ([7, -1], ys, 10, True), OverflowError),
            (compiled.div_nonrestoring, (bits, [1, -1], 2), OverflowError),
            (compiled.div_straight, (xs, [9999, 1], 10, True), ValueError),
        ):
            # plain try: pytest.raises keeps state that tracemalloc counts
            try:
                kernel(*args)
            except error:
                pass
            else:
                raise AssertionError(f"{kernel.__name__} did not raise {error}")

    for _ in range(100):
        calls()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            calls()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 4096, f"traced memory grew by {grown} bytes"


def test_compiled_kernels_pass_the_sanitizers(tmp_path):
    # AddressSanitizer sees an out-of-bounds read or write that -Wall and
    # tracemalloc do not; the uninstrumented interpreter needs the runtime
    # preloaded, and PYTHONMALLOC=malloc puts its objects on the checked heap
    cc = c_compiler()
    flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    target = build_ckernels(cc, tmp_path, flags)
    libasan = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True, check=True
    ).stdout.strip()
    env = package_env(
        LD_PRELOAD=libasan, PYTHONMALLOC="malloc", ASAN_OPTIONS="detect_leaks=0"
    )
    corpus = Path(__file__).with_name("sanitizer_corpus.py")
    done = subprocess.run(
        [sys.executable, str(corpus), str(target), "3000"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "3000 rounds clean\n"


def test_compiled_kernels_reject_out_of_range_input(compiled):
    # input the buffer sizes do not allow for: a digit not below the base,
    # a base below 2 or above 2**16
    for kernel, args in (
        (compiled.div_straight, ([1], [9999, 1], 10)),
        (compiled.div_straight, ([5], [3], 0)),
        (compiled.div_straight, ([5], [3], 1)),
        (compiled.mul_vedic, ([1], [1], 0)),
        (compiled.mul_shift_add, ([1], [1], 0)),
        (compiled.mul_vedic, ([1], [1], 1 << 17)),
        (compiled.mul_vedic, ([10], [1], 10)),
        (compiled.div_restoring, ([2], [1], 2)),
        (compiled.div_nonrestoring, ([1], [1, 10], 10)),
        (compiled.div_restoring, ([1], [1], 1 << 17)),
    ):
        with pytest.raises(ValueError):
            kernel(*args)


def test_division_by_zero_raised_by_kernels():
    for mod in backend.available().values():
        with pytest.raises(ZeroDivisionError):
            mod.div_straight([1], [], 16, False)
        with pytest.raises(ZeroDivisionError):
            mod.div_restoring([1], [], 16)
        with pytest.raises(ZeroDivisionError):
            mod.div_nonrestoring([1], [], 10)


def test_divisor_record_keeps_bases_apart():
    xs = [7, 1, 9, 2, 4]
    ys = [3, 5]  # 53 in base 10, 0x53 in base 16
    for base in (10, 16, 10, 16, 16, 10):
        check_division(xs, ys, base)
    assert _pykernels._divisor(tuple(ys), 16) is _pykernels._divisor(tuple(ys), 16)
    assert _pykernels._divisor(tuple(ys), 10).base == 10


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
