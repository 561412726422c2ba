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


def _tally(name: str, cases, stats: dict | None = None) -> SuiteResult:
    """One sweep's result: each case yields None for a pass or the
    failure's detail, and the first failure's detail is kept."""
    passed = failed = 0
    first_bad = ""
    for bad in cases:
        if bad is None:
            passed += 1
        else:
            failed += 1
            first_bad = first_bad or bad
    return SuiteResult(name, passed, failed, first_bad, stats)


def multiplier_exhaustive_8bit() -> SuiteResult:
    """vedic == shift-add == machine product for all pairs below 256 (base 16)."""
    values = [numeral.from_int(v, Base.HEX) for v in range(256)]

    def cases():
        for a, na in enumerate(values):
            for b, nb in enumerate(values):
                want = a * b
                got_v = numeral.to_int(vedic_mul.multiply(na, nb))
                got_s = numeral.to_int(baseline_arith.shift_add_multiply(na, nb))
                yield None if got_v == want == got_s else (
                    f"{a}*{b}: vedic={got_v} shift_add={got_s} want={want}"
                )
    return _tally("multiplier-exhaustive-8bit", cases())


def division_agreement_small() -> SuiteResult:
    """straight == restoring == non-restoring == machine divmod for all
    dividends below 2**12 and divisors 1..2**6 (base 16); also tracks the
    worst adjust-loop count seen (stats["max_adjust"])."""
    dividends = [numeral.from_int(v, Base.HEX) for v in range(1 << 12)]
    divisors = [(d, numeral.from_int(d, Base.HEX)) for d in range(1, (1 << 6) + 1)]
    stats = {"max_adjust": 0}

    def cases():
        for x, nx in enumerate(dividends):
            for y, ny in divisors:
                want = (x // y, x % y)
                res_v, steps = vedic_div.divide_traced(nx, ny)
                for step in steps:
                    if step.adjustments > stats["max_adjust"]:
                        stats["max_adjust"] = step.adjustments
                got_v = (numeral.to_int(res_v.quotient), numeral.to_int(res_v.remainder))
                res_r = baseline_arith.restoring_divide(nx, ny)
                got_r = (numeral.to_int(res_r.quotient), numeral.to_int(res_r.remainder))
                res_n = baseline_arith.nonrestoring_divide(nx, ny)
                got_n = (numeral.to_int(res_n.quotient), numeral.to_int(res_n.remainder))
                yield None if got_v == want == got_r == got_n else (
                    f"{x}/{y}: vedic={got_v} restoring={got_r} "
                    f"nonrestoring={got_n} want={want}"
                )
    return _tally("division-agreement-small", cases(), stats)


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

    def cases():
        for m in range(3233):
            nm = numeral.from_int(m, base)
            back = numeral.to_int(rsa.decrypt(rsa.encrypt(nm, pair.public), pair.private))
            yield None if back == m else f"m={m} came back as {back}"
    return _tally("rsa-roundtrip-3233", cases())


def run_all() -> list[SuiteResult]:
    return [
        multiplier_exhaustive_8bit(),
        division_agreement_small(),
        golden_trace_division(),
        rsa_roundtrip_toy(),
    ]
