import gc

import pytest

from vedarith import backend, bench, modexp
from vedarith.bench import BenchConfig, BenchRecord, CSV_HEADER


def small_config(**kw):
    defaults = dict(widths=(8, 16), iterations=3, seed=7, operations=("mul", "div"))
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="multiple of 4"):
        BenchConfig(widths=(10,))
    with pytest.raises(ValueError, match="multiple of 4"):
        BenchConfig(widths=(0,))
    with pytest.raises(ValueError, match="iterations"):
        BenchConfig(iterations=0)
    with pytest.raises(ValueError, match="operation"):
        BenchConfig(operations=("fft",))
    with pytest.raises(ValueError, match="algorithm"):
        BenchConfig(algorithms=("magic",))


def test_an_algorithm_subset_must_name_an_algorithm_of_every_operation():
    # a subset that names none of an operation's algorithms would time
    # nothing for it and still print a result checksum
    with pytest.raises(ValueError) as err:
        BenchConfig(operations=("mul", "modpow"), algorithms=("shift_add",))
    assert str(err.value) == (
        "operation 'modpow' compares vedic, restoring, nonrestoring; "
        "the algorithm subset names none of them"
    )
    with pytest.raises(ValueError, match="'mul' compares vedic, shift_add;"):
        BenchConfig(operations=("mul",), algorithms=("restoring",))
    assert BenchConfig(algorithms=("vedic",)).operations == ("mul", "div")


def test_record_arithmetic_and_rows():
    rec = BenchRecord("mul", "vedic", 16, 4, 4000, "ab", "pure")
    # derived, not stored: a record cannot carry a rate its totals disagree with
    assert isinstance(BenchRecord.ns_per_op, property)
    assert "ns_per_op" not in BenchRecord.__slots__
    assert rec.ns_per_op == rec.total_ns / rec.iterations == 1000.0
    with pytest.raises(TypeError):
        BenchRecord("mul", "vedic", 16, 4, 4000, "ab")  # the backend is required
    odd = BenchRecord("div", "restoring", 8, 3, 4001, "cd", "compiled")
    assert list(bench.csv_lines([rec, odd])) == [
        CSV_HEADER,
        "mul,vedic,16,4,4000,1000.0,ab",
        "div,restoring,8,3,4001,1333.7,cd",
    ]
    assert list(bench.csv_lines([rec, odd], compare_backends=True)) == [
        CSV_HEADER + ",backend",
        "mul,vedic,16,4,4000,1000.0,ab,pure",
        "div,restoring,8,3,4001,1333.7,cd,compiled",
    ]


def test_timer_pauses_the_collector_and_restores_its_state():
    seen = []

    def run(args):
        seen.append(gc.isenabled())
        if args == "fail" and len(seen) > 1:  # after the warmup call
            raise RuntimeError("run failed")
        return (len(seen),)

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            bench._time_cell(run, ["ok"], 3)
            assert seen == [enabled, False, False, False]
            assert gc.isenabled() is enabled
            seen.clear()
            with pytest.raises(RuntimeError, match="run failed"):
                bench._time_cell(run, ["fail"], 3)
            assert seen == [enabled, False]
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_suite_produces_paired_records():
    records = bench.bench_suite(small_config())
    # 2 mul algorithms + 3 div algorithms, for each of 2 widths
    assert len(records) == (2 + 3) * 2
    by_cell = {}
    for rec in records:
        assert rec.iterations == 3
        assert rec.total_ns > 0
        assert rec.ns_per_op == pytest.approx(rec.total_ns / rec.iterations)
        by_cell.setdefault((rec.operation, rec.operand_bits), set()).add(
            rec.operand_checksum
        )
    # every algorithm of a cell consumed the identical operand stream
    assert all(len(sums) == 1 for sums in by_cell.values())


def test_suite_is_seed_deterministic_in_operands():
    a = bench.bench_suite(small_config())
    b = bench.bench_suite(small_config())
    assert [r.operand_checksum for r in a] == [r.operand_checksum for r in b]
    c = bench.bench_suite(small_config(seed=8))
    assert [r.operand_checksum for r in c] != [r.operand_checksum for r in a]


def test_all_operations_run():
    config = small_config(
        widths=(8,), operations=("mul", "div", "modpow", "rsa_encrypt")
    )
    records = bench.bench_suite(config)
    assert {r.operation for r in records} == {"mul", "div", "modpow", "rsa_encrypt"}
    assert {r.algorithm for r in records if r.operation == "modpow"} == {
        "vedic",
        "restoring",
        "nonrestoring",
    }


def test_algorithm_subset_filter():
    records = bench.bench_suite(small_config(algorithms=("vedic",)))
    assert {r.algorithm for r in records} == {"vedic"}


def test_csv_lines_shape():
    records, sink = bench.run_suite(small_config(widths=(8,)))
    lines = list(bench.csv_lines(records))
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(records) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        int(fields[2]), int(fields[3]), int(fields[4])
        float(fields[5])
    assert len(sink) == 16


def test_result_checksum_does_not_cancel_between_algorithms():
    # both multipliers give equal results; the checksum must still carry them
    _, sink = bench.run_suite(small_config(widths=(8,), operations=("mul",)))
    assert sink != "%016x" % bench._FNV_OFFSET
    _, other = bench.run_suite(small_config(widths=(8,), operations=("mul",), seed=8))
    assert other != sink


def test_cell_results_must_agree(monkeypatch):
    wrong = modexp.Algorithm(lambda a, b: a, "mul_shift_add")
    monkeypatch.setitem(modexp.MULTIPLIERS, "shift_add", wrong)
    with pytest.raises(AssertionError, match="mul/8: shift_add"):
        bench.run_suite(small_config(widths=(8,), operations=("mul",)))


def test_compare_backends_mode(monkeypatch, compiled):
    monkeypatch.setitem(backend._BACKENDS, "compiled", compiled)
    config = small_config(widths=(8,), operations=("mul",), compare_backends=True)
    records = bench.bench_suite(config)
    assert {r.backend for r in records} == {"pure", "compiled"}
    lines = list(bench.csv_lines(records, compare_backends=True))
    assert lines[0] == CSV_HEADER + ",backend"
    # same operands regardless of backend
    assert len({r.operand_checksum for r in records}) == 1
