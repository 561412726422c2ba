"""The benchmark harness counts a wrong kernel result as a failed op.

Kernels return digit tuples, so the wrong product is built as a new tuple: a
fake that assigned into the result would raise, and the op would fail before
the workload's `check` saw the product."""

from pathlib import Path

from vedarith import backend

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_harness_check_counts_a_wrong_product_as_failed(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    kernels = backend.kernels()
    real = kernels.mul_vedic

    def wrong_low_digit(xs, ys, base):
        out = real(xs, ys, base)
        return ((out[0] + 1) % base, *out[1:])

    w = workloads.WORKLOADS["digit-ops"](3)
    w.setup_step()
    assert run.run_phase(w, 0, 30).failed == 0
    monkeypatch.setattr(kernels, "mul_vedic", wrong_low_digit)
    inp = w.next_input()
    assert not w.check(inp, w.op(inp))
    phase = run.run_phase(w, 0, 30)
    assert phase.failed == phase.attempted == 30
