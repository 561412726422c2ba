"""Differential tests: the compiled kernels must match the pure ones
bit for bit, and the dispatcher must honor explicit selection."""

import inspect
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_ckernels, c_compiler, package_env, setup_build_ext
from vedarith import _pykernels, backend, modexp
from vedarith.randgen import Lcg64


KERNELS = sorted(
    {a.kernel for a in (*modexp.MULTIPLIERS.values(), *modexp.DIVIDERS.values())}
)


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
    return tuple(out)


def rand_digits(rng, maxlen, base):
    out = [rng.below(base) for _ in range(rng.below(maxlen + 1))]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


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


@pytest.fixture
def fake(monkeypatch):
    # a backend that is never called, only selected: no C build needed
    monkeypatch.setitem(backend._BACKENDS, "fake", types.SimpleNamespace(NAME="fake"))


def in_thread(fn):
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    return out[0]


def test_thread_started_inside_use_reads_the_default(fake):
    before = backend.active_name()
    with backend.use("fake"):
        assert backend.active_name() == "fake"
        assert in_thread(backend.active_name) == before


def test_use_in_a_worker_thread_leaves_the_main_thread_alone(fake):
    before = backend.active_name()
    entered, release = threading.Event(), threading.Event()
    seen = []

    def worker():
        with backend.use("fake"):
            seen.append(backend.active_name())
            entered.set()
            release.wait(10)
        seen.append(backend.active_name())

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(10)
        assert backend.active_name() == before
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert seen == ["fake", before]
    assert backend.active_name() == before


def test_nested_use_restores_in_lifo_order(fake):
    before = backend.active_name()
    with backend.use("fake") as outer:
        assert outer.NAME == "fake"
        with backend.use("pure") as inner:
            assert inner is backend.kernels() is _pykernels
            with backend.use("fake"):
                assert backend.active_name() == "fake"
            assert backend.active_name() == "pure"
        assert backend.active_name() == "fake"
    assert backend.active_name() == before


def test_use_restores_after_an_exception(fake):
    before = backend.active_name()
    with pytest.raises(RuntimeError, match="inside"):
        with backend.use("fake"):
            raise RuntimeError("raised inside the block")
    assert backend.active_name() == before


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
            one = (1 + rng.below(base - 1),)
            wide = rand_digits(rng, 12, base) + (1 + rng.below(base - 1),)
            exact = (*(rng.below(base) for _ in wide[1:]), 1 + rng.below(base - 1))
            for xs, ys in ((rand_digits(rng, 40, base), one), (exact, wide)):
                check_division(xs, ys, base)
                for want_trace in (False, True):
                    got = compiled.div_straight(xs, ys, base, want_trace)
                    assert got == _pykernels.div_straight(xs, ys, base, want_trace)
    # repeated and alternating divisors, so the pure twin's divisor record
    # is exercised both freshly built and reused
    for base in (2, 4, 10, 16, 256):
        a = rand_digits(rng, 12, base) or (1,)
        b = rand_digits(rng, 12, base) or (base - 1,)
        for ys in (a, a, a, b, a, b, b, a):
            xs = rand_digits(rng, 40, base)
            for want_trace in (False, True):
                got = compiled.div_straight(xs, ys, base, want_trace)
                assert got == _pykernels.div_straight(xs, ys, base, want_trace)


PROPERTY_BASES = (2, 3, 4, 10, 16, 100, 255, 256, 65535, 65536)


def canonical(base, max_digits):
    digit = st.integers(min_value=0, max_value=base - 1)
    return st.lists(digit, max_size=max_digits).map(lambda ds: tuple(_pykernels._trim(ds)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kernels_agree_by_property(compiled, data):
    # every kernel of both twins on canonical tuples; squares pass one tuple
    # twice, and the bit dividers take at most 96 bits over 64, as above
    base = data.draw(st.sampled_from(PROPERTY_BASES), label="base")
    xs = data.draw(canonical(base, 40), label="xs")
    ys = data.draw(canonical(base, 40), label="ys")
    for name in ("mul_vedic", "mul_shift_add"):
        for a, b in ((xs, ys), (xs, xs)):
            got = getattr(compiled, name)(a, b, base)
            assert got == getattr(_pykernels, name)(a, b, base), name
            assert to_int(got, base) == to_int(a, base) * to_int(b, base)
    if ys:
        want = divmod(to_int(xs, base), to_int(ys, base))
        for want_trace in (False, True):
            got = compiled.div_straight(xs, ys, base, want_trace)
            assert got == _pykernels.div_straight(xs, ys, base, want_trace)
            assert (to_int(got[0], base), to_int(got[1], base)) == want
    width = (base - 1).bit_length()
    bxs = data.draw(canonical(base, 96 // width), label="bit dividend")
    bys = data.draw(canonical(base, 64 // width).filter(bool), label="bit divisor")
    want = divmod(to_int(bxs, base), to_int(bys, base))
    for name in ("div_restoring", "div_nonrestoring"):
        got = getattr(compiled, name)(bxs, bys, base)
        assert got == getattr(_pykernels, name)(bxs, bys, base), name
        assert (to_int(got[0], base), to_int(got[1], base)) == want, name


def test_duplex_square_matches_general_product(compiled):
    # mul_vedic(xs, xs) takes the duplex path, mul_vedic(xs, tuple(list(xs)))
    # the general one; both must give the integer square, on both twins
    rng = Lcg64(0xD0B1)
    for base in (2, 4, 10, 16, 256, 65536):
        cases = [(), (1,), (base - 1,), (base - 1,) * 300]
        cases += [(base - 1,) * rng.below(300) for _ in range(3)]
        cases += [rand_digits(rng, 40, base) for _ in range(200)]
        for xs in cases:
            want = to_digits(to_int(xs, base) ** 2, base)
            for kernels in (_pykernels, compiled):
                assert kernels.mul_vedic(xs, xs, base) == want, (kernels.NAME, base)
                assert kernels.mul_vedic(xs, tuple(list(xs)), base) == want


def test_twins_share_every_kernel_signature(compiled):
    # the C side's signatures come from the "--" text signatures at the top
    # of its docstrings, so a drifted docstring fails here too
    def shape(kernel):
        params = inspect.signature(kernel).parameters.values()
        return [(p.name, p.default, p.kind) for p in params]

    for name in KERNELS:
        assert shape(getattr(_pykernels, name)) == shape(getattr(compiled, name)), name


def test_twins_take_kernel_arguments_by_position_only(compiled):
    for kernels in (_pykernels, compiled):
        for name in KERNELS:
            with pytest.raises(TypeError):
                getattr(kernels, name)((5,), (3,), base=10)
        with pytest.raises(TypeError):
            kernels.div_straight((5,), (3,), 10, want_trace=True)


def test_bit_kernels_agree(compiled):
    # powers of two expand by shift and mask in C, any other base sixteen
    # bits per short division by 2**16, as in the pure twin; 96 bits of
    # dividend and 64 of divisor at most in every base
    rng = Lcg64(0xF00D)
    for base in (2, 3, 10, 16, 256, 65535, 65536):
        width = (base - 1).bit_length()
        for _ in range(600):
            xs = rand_digits(rng, 96 // width, base)
            ys = rand_digits(rng, 64 // width, base) or (1,)
            for name in ("div_restoring", "div_nonrestoring"):
                got = getattr(compiled, name)(xs, ys, base)
                assert got == getattr(_pykernels, name)(xs, ys, base), (name, base)
    # either side of the sixteen-bit passes of a base that is not a power of
    # two: values of exactly 15, 16, 17, 32 and 33 bits, 2**(16k) - 1 and
    # 2**(16k), and dividends of over 1024 bits
    edges = [v for b in (15, 16, 17, 32, 33) for v in (1 << (b - 1), (1 << b) - 1)]
    edges += [(1 << 48) - 1, 1 << 48]
    for base in (3, 10, 65535):
        for x in (*edges, 1 << 1024, (1 << 1040) - 1):
            for y in edges:
                xs, ys = to_digits(x, base), to_digits(y, base)
                for name in ("div_restoring", "div_nonrestoring"):
                    got = getattr(compiled, name)(xs, ys, base)
                    assert got == getattr(_pykernels, name)(xs, ys, base), (name, x, y)
                    assert (to_int(got[0], base), to_int(got[1], base)) == divmod(x, y)


def test_kernels_agree_on_edge_shapes(compiled):
    cases = [
        ((), (), 16),
        ((), (1,), 16),
        ((5,), (1,), 16),
        ((0, 0, 1), (1, 1), 2),
        ((15,) * 8, tuple([15] * 8), 16),  # equal, not one tuple: the general path
        ((255,) * 6, (255, 255), 256),
        ((1,), (9, 9), 10),
        ((9, 9), (1, 0, 1), 10),  # scaling lengthens the dividend to the divisor
        ((1, 0, 1), (1, 1, 1, 1, 1), 2),
        ((255,) * 300, (255,) * 300, 256),
        ((255,) * 300, (255,) * 7, 256),
        ((1,) * 1000, (1,) * 1000, 2),
        ((1,) * 1000, (1,) * 13, 2),
    ]
    # the bit dividers' window holds len(ys) + 2 bits
    y = to_digits(45, 2)
    cases += [
        ((1, 0, 1, 1, 0, 1), (1,), 2),  # one-bit divisor: a three-bit window
        ((1, 1, 0, 1, 0, 1, 1), (0, 0, 0, 1), 2),  # a power of two
        ((0, 1, 1, 0, 1, 1, 1, 0, 1), (1,) * 5, 2),  # all ones
        (y, y, 2),
        (to_digits(2 * 45 - 1, 2), y, 2),  # the widest partial, 2y - 1
        (to_digits(2 * 45, 2), y, 2),  # last quotient bit 0: the final add-back
        (to_digits(4 * 45 + 44, 2), y, 2),  # the add-back after one step more
        (to_digits(45 // 2, 2), y, 2),  # one bit shorter: every step preloaded
        ((1, 1), y, 2),  # shorter than the divisor: no step, no add-back
        ((), y, 2),
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
    xs, ys = (7, 1, 9, 2, 4, 8, 3), (3, 2)  # ys is scaled in base 10
    bits, ybits = (1, 0, 1, 1, 0, 1, 1, 1), (1, 0, 1)
    long_xs, long_ys = to_digits(3**650, 10), to_digits(7**360, 10)  # 1031, 1011 bits

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
        compiled.div_nonrestoring((0, 1, 0, 1), ybits, 2)  # 2y: the final add-back
        compiled.div_restoring(xs, ys, 10)  # one sixteen-bit pass each way
        compiled.div_nonrestoring(xs, ys, 10)
        compiled.div_restoring(long_xs, long_ys, 10)  # many passes
        compiled.div_nonrestoring(long_xs, long_ys, 10)
        compiled.div_restoring((7, 1, 9, 2), (3, 2), 256)  # shift and mask
        compiled.div_nonrestoring((7, 1, 9, 2), (3, 2), 256)
        for kernel, args, error in (
            (compiled.div_straight, (xs, (), 10), ZeroDivisionError),
            (compiled.div_restoring, (bits, (), 2), ZeroDivisionError),
            (compiled.div_restoring, (bits, (1, 2), 2), ValueError),
            (compiled.div_nonrestoring, (xs, ys, 1), ValueError),
            (compiled.mul_vedic, (xs, (3, -2), 10), OverflowError),
            (compiled.mul_vedic, (ys, ys, 3), ValueError),  # a square, digit 3
            (compiled.mul_shift_add, (xs, (3, -2), 10), OverflowError),
            (compiled.div_straight, ((7, -1), ys, 10, True), OverflowError),
            (compiled.div_nonrestoring, (bits, (1, -1), 2), OverflowError),
            (compiled.div_straight, (xs, (9999, 1), 10, True), ValueError),
            (compiled.mul_vedic, (list(xs), ys, 10), TypeError),
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
    # the short path of div_straight hands back the dividend itself
    refs = sys.getrefcount(ys)
    for _ in range(1000):
        assert compiled.div_straight(ys, xs, 10)[1] is ys
    assert sys.getrefcount(ys) == refs
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
    target = build_ckernels(tmp_path, flags)
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


def test_setup_warns_and_goes_on_when_the_compile_fails(tmp_path):
    # setuptools warns, and the build succeeds without the extension, so an
    # install falls back to the pure twin; a build that succeeds is the one
    # every test using the `compiled` fixture loads
    done, target = setup_build_ext(tmp_path, "false", [])
    assert done.returncode == 0, done.stderr
    assert 'building extension "vedarith._ckernels" failed' in done.stderr
    assert not list(tmp_path.rglob(target.name))


def test_compiled_kernels_reject_out_of_range_input(compiled):
    # input the buffer sizes do not allow for: a digit not below the base,
    # a base below 2 or above 2**16; and digits in any container but a tuple
    for kernel, args, error in (
        (compiled.div_straight, ((1,), (9999, 1), 10), ValueError),
        (compiled.div_straight, ((5,), (3,), 0), ValueError),
        (compiled.div_straight, ((5,), (3,), 1), ValueError),
        (compiled.mul_vedic, ((1,), (1,), 0), ValueError),
        (compiled.mul_shift_add, ((1,), (1,), 0), ValueError),
        (compiled.mul_vedic, ((1,), (1,), 1 << 17), ValueError),
        (compiled.mul_vedic, ((10,), (1,), 10), ValueError),
        (compiled.div_restoring, ((2,), (1,), 2), ValueError),
        (compiled.div_nonrestoring, ((1,), (1, 10), 10), ValueError),
        (compiled.div_restoring, ((1,), (1,), 1 << 17), ValueError),
        (compiled.mul_vedic, ([1], (1,), 10), TypeError),
        (compiled.mul_shift_add, ((1,), [1], 10), TypeError),
        (compiled.div_straight, ([5], (3,), 10), TypeError),
        (compiled.div_restoring, ((5,), [3], 10), TypeError),
        (compiled.div_nonrestoring, ([5], (3,), 10), TypeError),
    ):
        with pytest.raises(error):
            kernel(*args)


def test_division_by_zero_raised_by_kernels():
    for mod in backend.available().values():
        with pytest.raises(ZeroDivisionError):
            mod.div_straight((1,), (), 16, False)
        with pytest.raises(ZeroDivisionError):
            mod.div_restoring((1,), (), 16)
        with pytest.raises(ZeroDivisionError):
            mod.div_nonrestoring((1,), (), 10)


def test_divisor_record_keeps_bases_apart():
    xs = (7, 1, 9, 2, 4)
    ys = (3, 5)  # 53 in base 10, 0x53 in base 16
    for base in (10, 16, 10, 16, 16, 10):
        check_division(xs, ys, base)
    assert _pykernels._divisor(ys, 16) is _pykernels._divisor(ys, 16)
    assert _pykernels._divisor(ys, 10).base == 10


def test_divisor_record_reuse_keeps_the_trace():
    rng = Lcg64(0xD1CE)
    for base in (2, 10, 16, 256):
        ys = rand_digits(rng, 6, base) + (1,)  # scaled unless base 2
        xs = rand_digits(rng, 30, base) + (base - 1,)
        _pykernels.div_straight((1,), (1,) * (len(ys) + 1), base)  # evict ys
        fresh = _pykernels.div_straight(xs, ys, base, True)
        warm = _pykernels.div_straight(xs, ys, base, True)
        assert warm == fresh
        check_division(xs, ys, base)


@pytest.mark.parametrize("base", (3, 5, 7, 255, 65535))
def test_odd_bases_normalize_to_at_least_half_the_base(base, compiled):
    # base // (top + 1) lifts the leading digit to at least floor(base/2),
    # one short of ceil(base/2) in an odd base ((1,) stays 1 in base 3) and
    # still enough for adjust <= 2; the C twin's leading digit is read off
    # its trace, whose last field is K - main * q
    rng = Lcg64(0x0DD + base)
    tops = [1, base // 2, base // 2 + 1, base - 1]
    tops += [1 + rng.below(base - 1) for _ in range(40)]
    for top in tops:
        ys = rand_digits(rng, 6, base) + (top,)
        record = _pykernels._Divisor(ys, base)
        assert record.main >= base // 2
        assert len(record.dy) == len(ys)
        assert to_int(record.dy, base) == to_int(ys, base) * record.scale
        xs = rand_digits(rng, 30, base) + (1 + rng.below(base - 1),)
        want = divmod(to_int(xs, base), to_int(ys, base))
        for kernels in (_pykernels, compiled):
            q, r, max_adjust, trace = kernels.div_straight(xs, ys, base, True)
            assert (to_int(q, base), to_int(r, base)) == want, kernels.NAME
            assert max_adjust <= 2, kernels.NAME
            mains = {(K - rest) // digit for _, K, _, _, digit, rest in trace if digit}
            assert mains <= {record.main}, kernels.NAME
