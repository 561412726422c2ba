"""Exhaustive small-domain verification suites.

These are the heavyweight ground-truth checks: every multiplier against
machine-integer products over the full 8-bit square, every divider against
machine-integer divmod over a 2**12 x 2**6 grid, the classic worked
division with its step trace, and a full encrypt/decrypt sweep of the toy
RSA modulus 3233.  The CLI `selftest` subcommand and the acceptance tests
both run them.
"""

from __future__ import annotations

from . import baseline_arith, numeral, rsa, vedic_div, vedic_mul
from .numeral import Base, Record


class SuiteResult(Record):
    __slots__ = ("name", "passed", "failed", "detail", "stats")

    def __init__(self, name: str, passed: int, failed: int, detail: str = "",
                 stats: dict | None = None):
        super().__init__(name, passed, failed, detail, {} if stats is None else stats)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        status = "ok" if self.ok else "FAILED"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: pass={self.passed} fail={self.failed} {status}{extra}"


def multiplier_exhaustive_8bit() -> SuiteResult:
    """vedic == shift-add == machine product for all pairs below 256 (base 16)."""
    values = [numeral.from_int(v, Base.HEX) for v in range(256)]
    passed = failed = 0
    first_bad = ""
    for a in range(256):
        na = values[a]
        for b in range(256):
            nb = values[b]
            want = a * b
            got_v = numeral.to_int(vedic_mul.multiply(na, nb))
            got_s = numeral.to_int(baseline_arith.shift_add_multiply(na, nb))
            if got_v == want == got_s:
                passed += 1
            else:
                failed += 1
                if not first_bad:
                    first_bad = f"{a}*{b}: vedic={got_v} shift_add={got_s} want={want}"
    return SuiteResult("multiplier-exhaustive-8bit", passed, failed, first_bad)


def division_agreement_small() -> SuiteResult:
    """straight == restoring == non-restoring == machine divmod for all
    dividends below 2**12 and divisors 1..2**6 (base 16); also tracks the
    worst adjust-loop count seen (stats["max_adjust"])."""
    dividends = [numeral.from_int(v, Base.HEX) for v in range(1 << 12)]
    divisors = [(d, numeral.from_int(d, Base.HEX)) for d in range(1, (1 << 6) + 1)]
    passed = failed = 0
    max_adjust = 0
    first_bad = ""
    for x, nx in enumerate(dividends):
        for y, ny in divisors:
            want = (x // y, x % y)
            res_v, steps = vedic_div.divide_traced(nx, ny)
            for step in steps:
                if step.adjustments > max_adjust:
                    max_adjust = step.adjustments
            got_v = (numeral.to_int(res_v.quotient), numeral.to_int(res_v.remainder))
            res_r = baseline_arith.restoring_divide(nx, ny)
            got_r = (numeral.to_int(res_r.quotient), numeral.to_int(res_r.remainder))
            res_n = baseline_arith.nonrestoring_divide(nx, ny)
            got_n = (numeral.to_int(res_n.quotient), numeral.to_int(res_n.remainder))
            if got_v == want == got_r == got_n:
                passed += 1
            else:
                failed += 1
                if not first_bad:
                    first_bad = (
                        f"{x}/{y}: vedic={got_v} restoring={got_r} "
                        f"nonrestoring={got_n} want={want}"
                    )
    return SuiteResult(
        "division-agreement-small",
        passed,
        failed,
        first_bad,
        stats={"max_adjust": max_adjust},
    )


def golden_trace_division() -> SuiteResult:
    """The classic worked division 35001/77: final answer 454 r 43, with a
    step that adjusts q from 5 to 4 leaving r = 7, followed by the partial
    dividend K = 42."""
    x = numeral.parse("35001", Base.DEC)
    y = numeral.parse("77", Base.DEC)
    result, trace = vedic_div.divide_traced(x, y)
    checks = [
        numeral.format(result.quotient) == "454",
        numeral.format(result.remainder) == "43",
    ]
    hit = False
    for i, step in enumerate(trace):
        if (
            step.q_estimate == 5
            and step.q == 4
            and step.r == 7
            and step.adjustments == 1
            and i + 1 < len(trace)
            and trace[i + 1].partial_dividend == 42
        ):
            hit = True
            break
    checks.append(hit)
    passed = sum(checks)
    failed = len(checks) - passed
    detail = "" if failed == 0 else "trace: " + "; ".join(s.as_line() for s in trace)
    return SuiteResult("golden-trace-division", passed, failed, detail)


def rsa_roundtrip_toy() -> SuiteResult:
    """decrypt(encrypt(m)) == m for every residue of the 3233 modulus."""
    base = Base.HEX
    pair = rsa.keygen(
        numeral.from_int(61, base),
        numeral.from_int(53, base),
        numeral.from_int(17, base),
    )
    passed = failed = 0
    first_bad = ""
    for m in range(3233):
        nm = numeral.from_int(m, base)
        back = numeral.to_int(rsa.decrypt(rsa.encrypt(nm, pair.public), pair.private))
        if back == m:
            passed += 1
        else:
            failed += 1
            if not first_bad:
                first_bad = f"m={m} came back as {back}"
    return SuiteResult("rsa-roundtrip-3233", passed, failed, first_bad)


def run_all() -> list[SuiteResult]:
    return [
        multiplier_exhaustive_8bit(),
        division_agreement_small(),
        golden_trace_division(),
        rsa_roundtrip_toy(),
    ]
