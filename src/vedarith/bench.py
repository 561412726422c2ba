"""Benchmark harness: paired seeded workloads, CSV output.

Timings are relative software measurements on the host machine; the point
is the comparison between algorithms (and between the compiled and pure
kernels), never absolute figures.  Each operation is one `_TABLE` entry.
For each operation and width the operand stream is drawn once from a
per-cell subseed, so every algorithm of a cell consumes the identical
stream; the stream checksum is a CSV column that makes the pairing
checkable.  The cyclic garbage collector is paused while a cell's timer
runs.  After the timer stops, every result digit is folded into one
checksum per cell; all algorithms and backends of a cell must produce the
same checksum, and the cell checksums fold into the run's result checksum.
"""

from __future__ import annotations

import gc
import time

from . import backend, modexp, numeral, rsa
from .modexp import Strategy
from .numeral import Base, Record
from .randgen import Lcg64, derive_seed, fnv_fold

CSV_HEADER = "operation,algorithm,bits,iterations,total_ns,ns_per_op,operand_checksum"

_FNV_OFFSET = 0xCBF29CE484222325


def _hex(rng: Lcg64, bits: int) -> numeral.Natural:
    return numeral.from_int(rng.bits(bits) | 1 << (bits - 1), Base.HEX)


def _odd(rng: Lcg64, bits: int) -> numeral.Natural:
    return numeral.from_int(rng.bits(bits) | 1 << (bits - 1) | 1, Base.HEX)


def _draw_mul(rng: Lcg64, width: int):
    args = _hex(rng, width), _hex(rng, width)
    return args, args


def _draw_div(rng: Lcg64, width: int):
    args = _hex(rng, width), _hex(rng, max(4, width // 8 * 4))
    return args, args


def _draw_modpow(rng: Lcg64, width: int):
    # a fixed-size exponent: a full-width one would be infeasible at 1024
    args = _hex(rng, width), _hex(rng, min(16, width)), _odd(rng, width)
    return args, args


def _draw_encrypt(rng: Lcg64, width: int):
    # a synthetic odd modulus: encryption cost does not depend on key validity
    n = _odd(rng, width)
    m = _hex(rng, max(1, width - 1))
    e = numeral.from_int(65537 if width >= 20 else 17, Base.HEX)
    return (m, rsa.RsaPublicKey(n, e)), (n, m)


def _mul(name: str):
    fn = modexp.MULTIPLIERS[name].run
    return lambda args: fn(*args).digits


def _div(name: str):
    fn = modexp.DIVIDERS[name].run

    def run(args):
        res = fn(*args)
        return res.quotient.digits + res.remainder.digits
    return run


def _paired(fn):
    # the modexp/rsa cells pair the cross-product multiplier with each divider
    def factory(name: str):
        strategy = Strategy("vedic", name)
        return lambda args: fn(*args, strategy).digits
    return factory


# operation -> (registry compared, operand draw, runner factory).  A draw
# returns the op's arguments and the values the operand checksum folds; a
# factory maps an algorithm name to a callable from arguments to digits.
_TABLE = {
    "mul": (modexp.MULTIPLIERS, _draw_mul, _mul),
    "div": (modexp.DIVIDERS, _draw_div, _div),
    "modpow": (modexp.DIVIDERS, _draw_modpow, _paired(modexp.mod_pow)),
    "rsa_encrypt": (modexp.DIVIDERS, _draw_encrypt, _paired(rsa.encrypt)),
}
OPERATIONS = tuple(_TABLE)


class BenchRecord(Record):
    """One algorithm timed on one backend over one cell's operand stream."""

    __slots__ = ("operation", "algorithm", "operand_bits", "iterations",
                 "total_ns", "operand_checksum", "backend")

    @property
    def ns_per_op(self) -> float:
        return self.total_ns / self.iterations


class BenchConfig(Record):
    __slots__ = ("widths", "iterations", "seed", "operations", "algorithms",
                 "compare_backends")

    def __init__(self, widths=(64, 256, 1024), iterations: int = 1000,
                 seed: int = 2024, operations=("mul", "div"), algorithms=None,
                 compare_backends: bool = False):
        widths = tuple(int(w) for w in widths)
        for w in widths:
            if w <= 0 or w % 4 != 0:
                raise ValueError(f"width {w} is not a positive multiple of 4")
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        operations = tuple(operations)
        for op in operations:
            if op not in _TABLE:
                raise ValueError(f"unknown operation {op!r}")
        if algorithms is not None:
            algorithms = tuple(algorithms)
            known = {a for algos, _, _ in _TABLE.values() for a in algos}
            for a in algorithms:
                if a not in known:
                    raise ValueError(f"unknown algorithm {a!r}")
            for op in operations:
                algos = _TABLE[op][0]
                if not any(a in algorithms for a in algos):
                    raise ValueError(f"operation {op!r} compares {', '.join(algos)}; "
                                     "the algorithm subset names none of them")
        super().__init__(widths, iterations, seed, operations, algorithms,
                         compare_backends)


def _operands(operation: str, width: int, config: BenchConfig):
    """The (operation, width) cell's operand stream and its checksum."""
    rng = Lcg64(derive_seed(config.seed, f"{operation}/{width}"))
    draw = _TABLE[operation][1]
    checksum = _FNV_OFFSET
    stream = []
    for _ in range(config.iterations):
        args, folded = draw(rng, width)
        for x in folded:
            checksum = fnv_fold(checksum, x.digits)
        stream.append(args)
    return stream, "%016x" % checksum


def _time_cell(run, operands, iterations: int) -> tuple[int, int]:
    run(operands[0])  # warmup
    results = [None] * iterations
    count = len(operands)
    # as timeit does: otherwise a collection pass lands in whichever timer
    # is running when the allocation count trips it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for k in range(iterations):
            results[k] = run(operands[k % count])
        total = time.perf_counter_ns() - t0
    finally:
        if was_enabled:
            gc.enable()
    sink = _FNV_OFFSET
    for digits in results:
        sink = fnv_fold(sink, digits)
    return total, sink


def backend_names(config: BenchConfig) -> list[str]:
    """The backends every cell is timed on: all available ones under
    `compare_backends`, else the active one."""
    if config.compare_backends:
        return sorted(backend.available())
    return [backend.active_name()]


def run_suite(config: BenchConfig) -> tuple[list[BenchRecord], str]:
    """All records plus the result checksum: the cells' result checksums,
    folded in order.  Raises AssertionError when two algorithms or backends
    of one cell disagree."""
    records: list[BenchRecord] = []
    sink = _FNV_OFFSET
    names = backend_names(config)
    for operation in config.operations:
        algos, _, runner = _TABLE[operation]
        if config.algorithms is not None:
            algos = [a for a in algos if a in config.algorithms]
        for width in config.widths:
            operands, checksum = _operands(operation, width, config)
            expected = None
            for algorithm in algos:
                run = runner(algorithm)
                for name in names:
                    with backend.use(name):
                        total, cell_sink = _time_cell(run, operands, config.iterations)
                    if expected is None:
                        expected = cell_sink
                    elif cell_sink != expected:
                        raise AssertionError(
                            f"{operation}/{width}: {algorithm} on {name} "
                            "disagrees with the cell's other results"
                        )
                    records.append(BenchRecord(operation, algorithm, width,
                                               config.iterations, total,
                                               checksum, name))
            sink = fnv_fold(sink, (expected,))
    return records, "%016x" % sink


def bench_suite(config: BenchConfig) -> list[BenchRecord]:
    records, _ = run_suite(config)
    return records


def csv_lines(records: list[BenchRecord], compare_backends: bool = False):
    yield CSV_HEADER + (",backend" if compare_backends else "")
    for rec in records:
        row = (
            f"{rec.operation},{rec.algorithm},{rec.operand_bits},"
            f"{rec.iterations},{rec.total_ns},{rec.ns_per_op:.1f},"
            f"{rec.operand_checksum}"
        )
        yield row + (f",{rec.backend}" if compare_backends else "")
