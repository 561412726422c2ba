"""Closed-loop benchmark for vedarith.

    python3 perfbench/run.py --workload rsa-roundtrip --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` on whatever kernel backend it selects by default.  One process, one
thread, one client: each op starts when the previous one has finished, and
its output is checked against a Python-`int` oracle after its timer stops.

`--trace 0` times the ops for `--seconds` (and at least MIN_OPS ops) and
reports the end-to-end metrics.  `--trace 1` alternates blocks of untraced
ops with blocks where every layer's entry points are wrapped in spans, and
reports the per-layer metrics; it fails when the spans miss counts that the
workload's inputs fix in advance.

Stdout ends with a `{"meta": ...}` line (backend, Python, CPU, seed,
commit) and then the one-line JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
PACKAGE = ("vedarith", "vedarith.rsa", "vedarith.randgen")
IMPORT_EVERY_S = 1.0
SETUP_ROUNDS = 5
TRACE_BLOCK_S = 0.5
MAX_ADJUST = 2

clock = time.perf_counter

# Per-layer metrics: span name -> fields.  Spans in SETUP_SPANS come from a
# traced key generation, all others from the traced ops.
SPAN_FIELDS = {
    "kernels.div_straight": ("calls", "self_s", "quotient_digits", "max_adjust", "scaled_ratio"),
    "kernels.mul_vedic": ("calls", "self_s", "digit_products"),
    "kernels.div_restoring": ("calls", "self_s", "subtract_attempts"),
    "kernels.div_nonrestoring": ("calls", "self_s", "addsub_steps"),
    "kernels.mul_shift_add": ("calls", "self_s"),
    "numeral.to_bits": ("calls", "self_s"),
    "numeral.from_bits": ("calls", "self_s"),
    "numeral.parse": ("calls", "self_s"),
    "numeral.format": ("calls", "self_s"),
    "numeral.add": ("calls", "self_s"),
    "numeral.compare": ("calls", "self_s"),
    "vedic_mul.multiply": ("calls", "self_s"),
    "vedic_div.divide": ("calls", "self_s"),
    "baseline_arith.shift_add_multiply": ("self_s",),
    "baseline_arith.restoring_divide": ("self_s",),
    "baseline_arith.nonrestoring_divide": ("self_s",),
    "modexp.mod_pow": ("calls", "self_s"),
    "modexp.mod_mul": ("calls", "self_s"),
    "modexp.mod_reduce": ("calls", "self_s", "divide_ratio"),
    "rsa.keygen_random": ("s",),
    "rsa.is_prime": ("calls", "self_s"),
}
SETUP_SPANS = ("rsa.keygen_random", "rsa.is_prime")
UNITS = {"self_s": "s", "s": "s", "scaled_ratio": "ratio", "divide_ratio": "ratio"}


class Phase:
    """One stretch of closed-loop ops."""

    def __init__(self):
        self.latencies = []  # seconds, one per attempted op
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.expected_mod_muls = 0
        self.expected_attempts = 0

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.timed_s


def run_phase(
    workload, seconds: float, min_ops: int, expect=False, between=None, phase=None
) -> Phase:
    """Closed-loop ops for `seconds` and at least `min_ops` ops, added to
    `phase` (a new one by default)."""
    phase = Phase() if phase is None else phase
    min_ops += phase.attempted
    start = clock()
    while phase.attempted < min_ops or clock() - start < seconds:
        inp = workload.next_input()
        phase.attempted += 1
        if expect:
            mod_muls, attempts = workload.expected(inp)
            phase.expected_mod_muls += mod_muls
            phase.expected_attempts += attempts
        t0 = clock()
        try:
            out = workload.op(inp)
        except Exception:
            dt = clock() - t0
            if not phase.failed:
                traceback.print_exc()
            ok = False
        else:
            dt = clock() - t0
            ok = workload.check(inp, out)
        phase.timed_s += dt
        phase.latencies.append(dt)
        phase.failed += not ok
        if between is not None:
            between()
    return phase


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "vedarith"}


def fresh_import() -> float:
    """Seconds to import the package from scratch.  Modules that were loaded
    before the call stay the ones in use."""
    loaded = _package_modules()
    for name in loaded:
        del sys.modules[name]
    t0 = clock()
    for name in PACKAGE:
        importlib.import_module(name)
    elapsed = clock() - t0
    if loaded:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
        gc.collect()
    return elapsed


class ImportSampler:
    """Called between ops; times a fresh import about once a second, so
    that the import samples spread over the run instead of one moment."""

    def __init__(self, first: float):
        self.times = [first]
        self.due = clock() + IMPORT_EVERY_S

    def __call__(self):
        if clock() >= self.due:
            self.times.append(fresh_import())
            self.due = clock() + IMPORT_EVERY_S


def end_to_end(phase: Phase, setup_s: float) -> dict:
    lat = phase.latencies
    values = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _field(stat: spans.Stat, field: str):
    if field == "calls":
        return stat.calls
    if field == "self_s":
        return stat.self_s
    if field == "s":
        return stat.total_s
    if field.endswith("_ratio"):
        key = {"scaled_ratio": "scaled", "divide_ratio": "divides"}[field]
        return stat.counts.get(key, 0) / stat.calls if stat.calls else 0.0
    return stat.counts.get(field, 0)


def traced(workload, seconds: float, install_layers):
    """Untraced and traced ops in alternating blocks, so that both meet the
    same host load; returns (phases, per-layer metrics, problems)."""
    setup = spans.Tracer()
    install_layers(setup)
    try:
        workload.traced_setup()
    finally:
        setup.uninstall()

    plain, phase = Phase(), Phase()
    ops = spans.Tracer()
    block = min(TRACE_BLOCK_S, seconds / 2)
    wall = 0.0
    start = clock()
    while not plain.attempted or clock() - start < seconds:
        run_phase(workload, block, 1, phase=plain)
        install_layers(ops)
        t0 = clock()
        try:
            run_phase(workload, block, 1, expect=True, phase=phase)
        finally:
            wall += clock() - t0
            ops.uninstall()

    metrics = {}
    for name, fields in SPAN_FIELDS.items():
        stat = (setup if name in SETUP_SPANS else ops).stats[name]
        for field in fields:
            metrics[f"{name}.{field}"] = (_field(stat, field), UNITS.get(field, "count"))
    metrics["harness.self_s"] = (ops.harness_s(wall), "s")
    # rates of attempted ops, so that the ratio stays defined when ops fail
    rate = phase.attempted / phase.timed_s
    metrics["trace.overhead_ratio"] = (rate * plain.timed_s / plain.attempted, "ratio")
    failed = plain.failed + phase.failed
    metrics["fail_ratio"] = (failed / (plain.attempted + phase.attempted), "ratio")

    s = ops.stats
    problems = []
    if s["modexp.mod_mul"].calls != phase.expected_mod_muls:
        problems.append(
            f"modexp.mod_mul.calls {s['modexp.mod_mul'].calls} != "
            f"{phase.expected_mod_muls} implied by the exponents"
        )
    attempts = s["kernels.div_restoring"].counts.get("subtract_attempts", 0)
    if attempts != phase.expected_attempts:
        problems.append(
            f"kernels.div_restoring.subtract_attempts {attempts} != "
            f"{phase.expected_attempts} dividend bits"
        )
    adjust = s["kernels.div_straight"].counts.get("max_adjust", 0)
    if adjust > MAX_ADJUST:
        problems.append(f"kernels.div_straight.max_adjust {adjust} > {MAX_ADJUST}")
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return (plain, phase), result, problems


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, phases) -> dict:
    from vedarith import backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend.active_name(),
        "ckernels_importable": "compiled" in backend.available(),
        "VEDARITH_BACKEND": os.environ.get("VEDARITH_BACKEND"),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "latency_samples": [len(p.latencies) for p in phases],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        first_import_s = fresh_import()
        where = Path(sys.modules["vedarith"].__file__).resolve()
        if not where.is_relative_to(SRC):
            raise ImportError(f"found at {where}")
    except ImportError as exc:
        print(f"cannot import vedarith from {SRC}: {exc}", file=sys.stderr)
        return 2
    # imported only now, so that it binds the package's final import
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = clock()
        workload.setup_step()
        rounds.append(clock() - t0)

    problems = []
    if args.trace:
        phases, metrics, problems = traced(workload, args.seconds, workloads.install_layers)
    else:
        imports = ImportSampler(first_import_s)
        phases = (run_phase(workload, args.seconds, MIN_OPS, between=imports),)
        setup_s = statistics.median(imports.times) + statistics.median(rounds)
        metrics = end_to_end(phases[0], setup_s)
    for problem in problems:
        print(f"trace self-check failed: {problem}", file=sys.stderr)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and not problems
    print(json.dumps({"meta": metadata(args, phases)}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
