"""Seeded differential corpus for a sanitizer build of the C twin.

    python tests/sanitizer_corpus.py <built _ckernels module> <rounds>

Loads the given build of `_ckernels.c` and runs all five kernels against
the pure twin, traced and not, on the same random and edge shapes in
bases 2 to 65536, then drives every error path.  A mismatch raises; under
AddressSanitizer and UndefinedBehaviorSanitizer an out-of-bounds access
aborts the process with a report on stderr.
"""

import importlib.util
import sys

from vedarith import _pykernels
from vedarith.randgen import Lcg64

BASES = (2, 3, 4, 10, 16, 256, 65535, 65536)


def load(path):
    spec = importlib.util.spec_from_file_location("vedarith._ckernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shape(rng, maxlen, base):
    """A canonical digit list: empty, one digit, all top digits, a power of
    the base, or random digits."""
    n = rng.below(maxlen) + 1
    kind = rng.below(6)
    if kind == 0:
        return []
    if kind == 1:
        return [rng.below(base - 1) + 1]
    if kind == 2:
        return [base - 1] * n
    if kind == 3:
        return [0] * (n - 1) + [1]
    out = [rng.below(base) for _ in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def agree(c, name, *args):
    got = getattr(c, name)(*args)
    want = getattr(_pykernels, name)(*args)
    if got != want:
        raise AssertionError(f"{name}{args}: compiled {got} != pure {want}")


def raises(error, kernel, *args):
    try:
        kernel(*args)
    except error:
        return
    raise AssertionError(f"{kernel.__name__}{args} did not raise {error.__name__}")


def run(c, rounds, seed=0x5A17):
    rng = Lcg64(seed)
    for r in range(rounds):
        base = BASES[r % len(BASES)] if r % 3 else rng.below(65535) + 2
        xs, ys = shape(rng, 24, base), shape(rng, 12, base)
        agree(c, "mul_vedic", xs, ys, base)
        agree(c, "mul_vedic", xs, xs, base)  # the duplex square
        agree(c, "mul_shift_add", xs, ys, base)
        if ys:
            agree(c, "div_straight", xs, ys, base, False)
            agree(c, "div_straight", xs, ys, base, True)
            agree(c, "div_restoring", xs, ys, base)
            agree(c, "div_nonrestoring", xs, ys, base)

        # error paths: a digit not below the base, at a random place; a
        # negative digit; a base out of range; no divisor
        bad = (xs or [1]) + ys
        bad[rng.below(len(bad))] = base
        for name in ("mul_vedic", "mul_shift_add"):
            raises(ValueError, getattr(c, name), bad, [1], base)
            raises(ValueError, getattr(c, name), [1], bad, base)
            raises(OverflowError, getattr(c, name), [1], [1, -1], base)
            raises(ValueError, getattr(c, name), [1], [1], (0, 1, 65537)[r % 3])
        raises(ValueError, c.div_straight, bad, [1], base, r % 2 == 0)
        raises(ValueError, c.div_straight, [1], bad, base, r % 2 == 0)
        raises(OverflowError, c.div_straight, [-1], [1], base)
        raises(ValueError, c.div_straight, [1], [1], (0, 1, 65537)[r % 3])
        raises(ZeroDivisionError, c.div_straight, xs, [], base, r % 2 == 0)
        for name in ("div_restoring", "div_nonrestoring"):
            raises(ValueError, getattr(c, name), bad, [1], base)
            raises(ValueError, getattr(c, name), [1], bad, base)
            raises(OverflowError, getattr(c, name), [1, -1], [1], base)
            raises(ValueError, getattr(c, name), [1], [1], (0, 1, 65537)[r % 3])
            raises(ZeroDivisionError, getattr(c, name), xs, [], base)


if __name__ == "__main__":
    rounds = int(sys.argv[2])
    run(load(sys.argv[1]), rounds)
    print(rounds, "rounds clean")
