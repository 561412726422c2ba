"""Benchmark harness: paired seeded workloads, CSV output.

Timings are relative software measurements on the host machine; the point
is the comparison between algorithms (and between the compiled and pure
kernels), never absolute figures.  For each operation and width the
operand stream is generated once from a per-cell subseed, so every
algorithm of a cell consumes the identical stream; the stream checksum is
emitted as a CSV column to make the pairing checkable.  Every result digit
is folded into one checksum per cell after the cell's timer stops; all
algorithms and backends of a cell must produce the same checksum, and the
cell checksums fold into the run's result checksum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import backend, modexp, numeral, rsa
from .modexp import Strategy
from .numeral import Base
from .randgen import Lcg64, derive_seed

OPERATIONS = ("mul", "div", "modpow", "rsa_encrypt")
# the modexp/rsa cells pair the cross-product multiplier with each divider
_OP_ALGOS = {
    "mul": modexp.MULTIPLIERS,
    "div": modexp.DIVIDERS,
    "modpow": modexp.DIVIDERS,
    "rsa_encrypt": modexp.DIVIDERS,
}

CSV_HEADER = "operation,algorithm,bits,iterations,total_ns,ns_per_op,operand_checksum"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class BenchRecord:
    operation: str
    algorithm: str
    operand_bits: int
    iterations: int
    total_ns: int
    ns_per_op: float
    operand_checksum: str
    backend: str | None = None

    def csv_row(self, with_backend: bool = False) -> str:
        row = (
            f"{self.operation},{self.algorithm},{self.operand_bits},"
            f"{self.iterations},{self.total_ns},{self.ns_per_op:.1f},"
            f"{self.operand_checksum}"
        )
        if with_backend:
            row += f",{self.backend}"
        return row


@dataclass
class BenchConfig:
    widths: tuple = (64, 256, 1024)
    iterations: int = 1000
    seed: int = 2024
    operations: tuple = ("mul", "div")
    algorithms: tuple | None = None
    compare_backends: bool = False

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        for w in self.widths:
            if w <= 0 or w % 4 != 0:
                raise ValueError(f"width {w} is not a positive multiple of 4")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        self.operations = tuple(self.operations)
        for op in self.operations:
            if op not in OPERATIONS:
                raise ValueError(f"unknown operation {op!r}")
        if self.algorithms is not None:
            self.algorithms = tuple(self.algorithms)
            known = {a for algos in _OP_ALGOS.values() for a in algos}
            for a in self.algorithms:
                if a not in known:
                    raise ValueError(f"unknown algorithm {a!r}")


def _fold(checksum: int, digits) -> int:
    for d in digits:
        checksum = ((checksum ^ d) * _FNV_PRIME) & _MASK
    return checksum


class _Workload:
    """Operand stream plus per-algorithm callables for one (op, width) cell."""

    def __init__(self, operation: str, width: int, count: int, seed: int):
        rng = Lcg64(derive_seed(seed, f"{operation}/{width}"))
        checksum = _FNV_OFFSET
        operands = []
        if operation == "mul":
            for _ in range(count):
                a = rng.natural_with_bits(width, Base.HEX)
                b = rng.natural_with_bits(width, Base.HEX)
                checksum = _fold(_fold(checksum, a.digits), b.digits)
                operands.append((a, b))
        elif operation == "div":
            divisor_bits = max(4, (width // 2) // 4 * 4)
            for _ in range(count):
                x = rng.natural_with_bits(width, Base.HEX)
                y = rng.natural_with_bits(divisor_bits, Base.HEX)
                checksum = _fold(_fold(checksum, x.digits), y.digits)
                operands.append((x, y))
        elif operation == "modpow":
            # fixed-size exponent: the comparison axis is the arithmetic
            # width, and a full-width exponent would be infeasible at 1024
            exp_bits = min(16, width)
            for _ in range(count):
                a = rng.natural_with_bits(width, Base.HEX)
                e = rng.natural_with_bits(exp_bits, Base.HEX)
                n = numeral.from_int(
                    numeral.to_int(rng.natural_with_bits(width, Base.HEX)) | 1,
                    Base.HEX,
                )
                checksum = _fold(
                    _fold(_fold(checksum, a.digits), e.digits), n.digits
                )
                operands.append((a, e, n))
        elif operation == "rsa_encrypt":
            # synthetic width-sized odd modulus with a conventional public
            # exponent: encryption cost does not depend on key validity
            e = 65537 if width >= 20 else 17
            for _ in range(count):
                n = numeral.from_int(
                    numeral.to_int(rng.natural_with_bits(width, Base.HEX)) | 1,
                    Base.HEX,
                )
                m = rng.natural_with_bits(max(1, width - 1), Base.HEX)
                key = rsa.RsaPublicKey(n, numeral.from_int(e, Base.HEX))
                checksum = _fold(_fold(checksum, n.digits), m.digits)
                operands.append((m, key))
        else:
            raise ValueError(f"unknown operation {operation!r}")
        self.operation = operation
        self.operands = operands
        self.checksum = "%016x" % checksum

    def runner(self, algorithm: str):
        op = self.operation
        if op == "mul":
            fn = modexp.MULTIPLIERS[algorithm].run
            return lambda args: fn(*args).digits
        if op == "div":
            fn = modexp.DIVIDERS[algorithm].run

            def run_div(args, fn=fn):
                res = fn(*args)
                return res.quotient.digits + res.remainder.digits

            return run_div
        if op == "modpow":
            strategy = Strategy("vedic", algorithm)
            return lambda args: modexp.mod_pow(*args, strategy).digits
        if op == "rsa_encrypt":
            strategy = Strategy("vedic", algorithm)
            return lambda args: rsa.encrypt(*args, strategy).digits
        raise ValueError(f"unknown operation {op!r}")


def _time_cell(run, operands, iterations: int) -> tuple[int, int]:
    run(operands[0])  # warmup
    results = [None] * iterations
    count = len(operands)
    t0 = time.perf_counter_ns()
    for k in range(iterations):
        results[k] = run(operands[k % count])
    total = time.perf_counter_ns() - t0
    sink = _FNV_OFFSET
    for digits in results:
        sink = _fold(sink, digits)
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
        algos = _OP_ALGOS[operation]
        if config.algorithms is not None:
            algos = tuple(a for a in algos if a in config.algorithms)
        for width in config.widths:
            workload = _Workload(operation, width, config.iterations, config.seed)
            expected = None
            for algorithm in algos:
                run = workload.runner(algorithm)
                for name in names:
                    with backend.use(name):
                        total, cell_sink = _time_cell(
                            run, workload.operands, config.iterations
                        )
                    if expected is None:
                        expected = cell_sink
                    elif cell_sink != expected:
                        raise AssertionError(
                            f"{operation}/{width}: {algorithm} on {name} "
                            "disagrees with the cell's other results"
                        )
                    records.append(
                        BenchRecord(
                            operation=operation,
                            algorithm=algorithm,
                            operand_bits=width,
                            iterations=config.iterations,
                            total_ns=total,
                            ns_per_op=total / config.iterations,
                            operand_checksum=workload.checksum,
                            backend=name,
                        )
                    )
            if expected is not None:
                sink = _fold(sink, (expected,))
    return records, "%016x" % sink


def bench_suite(config: BenchConfig) -> list[BenchRecord]:
    records, _ = run_suite(config)
    return records


def csv_lines(records: list[BenchRecord], compare_backends: bool = False):
    header = CSV_HEADER + (",backend" if compare_backends else "")
    yield header
    for rec in records:
        yield rec.csv_row(with_backend=compare_backends)
