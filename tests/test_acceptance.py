"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py -v` to see them), plus the
selftest.  They run on pure here and again on the compiled twin in
test_acceptance_compiled.py.

Everything is exact integer arithmetic, so tolerances are equalities; the
stated runtime ceilings are asserted alongside the results.
"""

import time

import pytest

from conftest import nat, val
from vedarith import backend, bench, cli, modexp, numeral, rsa, selftest, vedic_div, vedic_mul
from vedarith.bench import BenchConfig
from vedarith.modexp import Strategy
from vedarith.numeral import Base, Ordering
from vedarith.randgen import Lcg64


@pytest.fixture(scope="module", autouse=True)
def _on_pure():
    with backend.use("pure"):
        yield


@pytest.fixture(scope="module")
def division_small_suite(_on_pure):
    """The exhaustive three-way division sweep, shared by criteria 4 and 9
    and the selftest."""
    return selftest.division_agreement_small()


def _report(num: int, desc: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {desc} ({elapsed:.2f}s)"
    if detail and not ok:
        line += f" :: {detail}"
    print(line)
    assert ok, f"criterion {num}: {detail or desc}"


def test_criterion_1_golden_cli_division(capsys):
    t0 = time.perf_counter()
    code = cli.main(["div", "35001", "77", "--base", "10", "--algo", "vedic"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = code == 0 and out == "q=454 r=43\n" and elapsed < 1.0
    with capsys.disabled():
        _report(1, "CLI div 35001/77 prints q=454 r=43 in under 1s", ok, elapsed, out)


def test_criterion_2_golden_trace():
    t0 = time.perf_counter()
    x = numeral.parse("35001", Base.DEC)
    y = numeral.parse("77", Base.DEC)
    result, trace = vedic_div.divide_traced(x, y)
    answer_ok = (
        numeral.format(result.quotient) == "454"
        and numeral.format(result.remainder) == "43"
    )
    adjust_ok = False
    for i, step in enumerate(trace[:-1]):
        if (
            step.q_estimate == 5
            and step.q == 4
            and step.r == 7
            and step.adjustments >= 1
            and trace[i + 1].partial_dividend == 42
        ):
            adjust_ok = True
    elapsed = time.perf_counter() - t0
    detail = "; ".join(s.as_line() for s in trace)
    _report(
        2,
        "trace shows K=42 after an adjust from q=5 to q=4 with r=7",
        answer_ok and adjust_ok,
        elapsed,
        detail,
    )


def test_criterion_3_exhaustive_multiplier_equivalence():
    t0 = time.perf_counter()
    suite = selftest.multiplier_exhaustive_8bit()
    elapsed = time.perf_counter() - t0
    ok = suite.failed == 0 and suite.passed == 65536 and elapsed < 60.0
    _report(
        3,
        f"65536/65536 products agree across vedic, shift-add and the oracle",
        ok,
        elapsed,
        suite.detail,
    )


def test_criterion_4_exhaustive_division_agreement(division_small_suite):
    t0 = time.perf_counter()
    suite = division_small_suite
    cases_ok = suite.failed == 0 and suite.passed == (1 << 12) * (1 << 6)
    # plus the Euclidean identity and remainder bound on wide random pairs,
    # recomposed digit-level with the package's own multiplier/comparator
    rng = Lcg64(0xE0C1)
    random_ok = True
    detail = suite.detail
    for k in range(100_000):
        x = nat(rng.bits(rng.below(256) + 1))
        y = nat(rng.bits(rng.below(256) + 1) or 1)
        res = vedic_div.divide(x, y)
        recomposed = numeral.add(vedic_mul.multiply(res.quotient, y), res.remainder)
        if recomposed != x or numeral.compare(res.remainder, y) is not Ordering.LESS:
            random_ok = False
            detail = f"random pair #{k}: {numeral.format(x)} / {numeral.format(y)}"
            break
    elapsed = time.perf_counter() - t0
    ok = cases_ok and random_ok and elapsed < 300.0
    _report(
        4,
        "262144 exhaustive divisions agree three ways; Euclidean identity "
        "and remainder bound hold on 100000 random wide pairs",
        ok,
        elapsed,
        detail,
    )


def test_criterion_5_modexp_against_naive_oracle():
    t0 = time.perf_counter()
    strategies = modexp.all_strategies()
    rng = Lcg64(0x5EED)
    ok = True
    detail = ""
    for k in range(10_000):
        a = rng.below(1 << 10)
        b = rng.below(1 << 10)
        n = rng.below((1 << 10) - 2) + 2
        want = 1 % n
        for _ in range(b):  # naive oracle: b successive modular products
            want = (want * a) % n
        outs = {val(modexp.mod_pow(nat(a), nat(b), nat(n), s)) for s in strategies}
        if outs != {want}:
            ok = False
            detail = f"triple #{k}: {a}^{b} mod {n}: {outs} != {want}"
            break
    if ok:
        for k in range(10_000):
            a, b = rng.bits(40), rng.bits(40)
            n = rng.below((1 << 16) - 1) + 1
            na, nb, nn = nat(a), nat(b), nat(n)
            left = modexp.mod_mul(
                modexp.mod_reduce(na, nn), modexp.mod_reduce(nb, nn), nn
            )
            right = modexp.mod_reduce(vedic_mul.multiply(na, nb), nn)
            if left != right:
                ok = False
                detail = f"identity #{k}: a={a} b={b} n={n}"
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(
        5,
        "mod_pow matches the naive oracle across all 6 strategies on 10000 "
        "triples; modular-product identity holds on 10000 more",
        ok,
        elapsed,
        detail,
    )


def test_criterion_6_rsa_exhaustive_roundtrip():
    t0 = time.perf_counter()
    # confirm the private exponent with the extended-Euclid oracle first
    def ext_gcd(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = ext_gcd(b, a % b)
        return g, y, x - (a // b) * y

    g, inv, _ = ext_gcd(17, 3120)
    inv %= 3120
    oracle_ok = g == 1 and inv == 2753 and (17 * 2753) % 3120 == 1

    pair = rsa.keygen(nat(61), nat(53), nat(17))
    key_ok = (
        val(pair.public.modulus) == 3233
        and val(pair.private.exponent) == 2753
        and val(pair.totient) == 3120
    )
    suite = selftest.rsa_roundtrip_toy()
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and key_ok and suite.failed == 0 and suite.passed == 3233
    ok = ok and elapsed < 120.0
    _report(
        6,
        "keypair (61,53,17) has I=2753 and decrypt(encrypt(M))=M for all "
        "3233 residues",
        ok,
        elapsed,
        suite.detail,
    )


def test_criterion_7_structure_report():
    t0 = time.perf_counter()
    rep = vedic_mul.structure_report(16, 4)
    ok = rep.module_count == 16 and rep.column_count == 7
    detail = f"16-bit: {rep}"
    for n in (8, 16, 32, 64):
        groups = n // 4
        pairs = [(i, j) for i in range(groups) for j in range(groups)]
        columns = {i + j for i, j in pairs}
        rep = vedic_mul.structure_report(n, 4)
        if rep.module_count != len(pairs) or rep.column_count != len(columns):
            ok = False
            detail = f"N={n}: {rep} vs enumerated {len(pairs)}/{len(columns)}"
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "structure report gives 16 modules / 7 columns at 16x4 and matches "
        "pair enumeration for N in {8,16,32,64}",
        ok,
        elapsed,
        detail,
    )


def test_criterion_8_benchmark_harness():
    t0 = time.perf_counter()
    config = BenchConfig(
        widths=(64, 256, 1024),
        iterations=1000,
        seed=0xBE7C,
        operations=("mul", "div"),
    )
    records = bench.bench_suite(config)
    lines = list(bench.csv_lines(records))
    ok = lines[0] == bench.CSV_HEADER
    detail = ""
    parsed = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            ok = False
            detail = f"malformed row: {line}"
            break
        parsed.append(fields)
    if ok:
        # paired operand streams: one checksum per (operation, width)
        stream = {}
        for op, algo, bits, iters, total, per, chk in parsed:
            stream.setdefault((op, bits), set()).add(chk)
            if int(iters) < 1000:
                ok = False
                detail = f"iterations below 1000 in {op}/{algo}"
        if ok and not all(len(s) == 1 for s in stream.values()):
            ok = False
            detail = f"unpaired operand streams: {stream}"
    if ok:
        by_algo = {}
        for op, algo, bits, _, _, per, _ in parsed:
            by_algo.setdefault((op, algo), []).append((int(bits), float(per)))
        for key, cells in by_algo.items():
            cells.sort()
            times = [t for _, t in cells]
            if times != sorted(times):
                ok = False
                detail = f"ns_per_op not non-decreasing for {key}: {cells}"
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "bench CSV is well-formed with paired operand streams and "
        "non-decreasing ns_per_op over widths 64/256/1024",
        ok,
        elapsed,
        detail,
    )


def test_criterion_9_adjust_bound(division_small_suite):
    t0 = time.perf_counter()
    max_adjust = division_small_suite.stats["max_adjust"]
    elapsed = time.perf_counter() - t0
    _report(
        9,
        f"no step of the exhaustive division domain needed more than 2 "
        f"adjust iterations (worst seen: {max_adjust})",
        division_small_suite.failed == 0 and max_adjust <= 2,
        elapsed,
    )


def test_selftest_passes_every_suite(capsys, monkeypatch, division_small_suite):
    # the division sweep is the one criteria 4 and 9 already ran on this backend
    monkeypatch.setattr(selftest, "division_agreement_small", lambda: division_small_suite)
    code = cli.main(["selftest"])
    assert code == 0 and capsys.readouterr().out == (
        "multiplier-exhaustive-8bit: pass=65536 fail=0 ok\n"
        "division-agreement-small: pass=262144 fail=0 ok\n"
        "golden-trace-division: pass=3 fail=0 ok\n"
        "rsa-roundtrip-3233: pass=3233 fail=0 ok\n"
        "total: pass=330916 fail=0\n"
    )
