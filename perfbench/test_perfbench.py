"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vedarith import backend, modexp  # noqa: E402


def _workload(name, seed=3):
    w = workloads.WORKLOADS[name](seed)
    w.setup_step()
    return w


def test_fake_multiplier_with_a_wrong_digit_raises_fail_ratio(monkeypatch):
    kernels = backend.kernels()
    real = kernels.mul_vedic

    def wrong_low_digit(xs, ys, base):
        out = real(xs, ys, base)
        out[0] = (out[0] + 1) % base
        return out

    w = _workload("digit-ops")
    assert run.run_phase(w, 0, 30).failed == 0
    monkeypatch.setattr(kernels, "mul_vedic", wrong_low_digit)
    phase = run.run_phase(w, 0, 30)
    assert phase.failed == phase.attempted == 30
    assert phase.ops_per_s == 0
    _, metrics, _ = run.traced(w, 0, workloads.install_layers)
    assert metrics["fail_ratio"]["value"] == 1.0


def _fake_layers():
    module = types.ModuleType("fake_layers")

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    def middle(x):
        try:
            module.leaf(-1)
        except ValueError:
            pass
        return module.leaf(x) + module.leaf(x)

    def top(x):
        return module.middle(x) + module.leaf(x)

    module.leaf, module.middle, module.top = leaf, middle, top
    return module


def test_self_times_plus_harness_sum_to_traced_wall_time():
    module = _fake_layers()
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: next(ticks))
    for name in ("top", "middle", "leaf"):
        tracer.install([module], name, getattr(module, name))
    t0 = tracer.clock()
    for x in range(5):
        module.top(x)
        tracer.clock()  # harness work between calls
    wall = tracer.clock() - t0
    tracer.uninstall()

    assert module.top.__name__ == "top"
    harness = tracer.harness_s(wall)
    self_total = sum(s.self_s for s in tracer.stats.values())
    assert harness > 0 and all(s.self_s > 0 for s in tracer.stats.values())
    assert self_total + harness == wall
    assert tracer.stats["leaf"].calls == 20
    assert tracer.stats["top"].total_s == tracer.root_s


def test_layer_self_times_plus_harness_sum_to_wall_on_real_ops():
    tracer = spans.Tracer()
    w = _workload("strategy-sweep")
    workloads.install_layers(tracer)
    t0 = tracer.clock()
    try:
        phase = run.run_phase(w, 0, 1)
    finally:
        wall = tracer.clock() - t0
        tracer.uninstall()
    assert phase.failed == 0
    self_total = sum(s.self_s for s in tracer.stats.values())
    assert self_total + tracer.harness_s(wall) == pytest.approx(wall, rel=1e-9)
    assert 0 < tracer.harness_s(wall) < wall


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_passes_its_count_self_checks(name):
    _, metrics, problems = run.traced(_workload(name), 0, workloads.install_layers)
    assert problems == []
    assert metrics["fail_ratio"]["value"] == 0


def test_a_wrapper_that_misses_a_call_path_fails_the_self_check():
    def install_but_miss_fast_pow(tracer):
        workloads.install_layers(tracer)
        # _fast_pow looks mod_mul up in modexp's globals: leave that untraced
        modexp.mod_mul = modexp.mod_mul.__wrapped__

    _, _, problems = run.traced(_workload("strategy-sweep"), 0, install_but_miss_fast_pow)
    assert any(p.startswith("modexp.mod_mul.calls") for p in problems)


def test_restoring_attempt_model_matches_the_kernel_count():
    a, e, n = 0x1234567, 0xB7, 0x9ABCDEF
    tracer = spans.Tracer()
    workloads.install_layers(tracer)
    try:
        modexp.mod_pow(*(workloads.numeral.from_int(v) for v in (a, e, n)),
                       modexp.Strategy("vedic", "restoring"))
    finally:
        tracer.uninstall()
    counted = tracer.stats["kernels.div_restoring"].counts["subtract_attempts"]
    assert counted == workloads.restoring_attempts(a, e, n) > 0


def test_outputs_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    w = _workload("digit-ops")
    e2e = run.end_to_end(run.run_phase(w, 0, 20), 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()
    }
    _, layers, _ = run.traced(w, 0, workloads.install_layers)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "digit-ops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
