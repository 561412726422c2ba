"""Command-line front end.

Exit status: 0 on success, 1 for arithmetic/domain errors (message on
stderr), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, backend, modexp, numeral, rsa, vedic_div
from .modexp import Strategy
from .numeral import Base


class _UsageError(Exception):
    pass


def _base_arg(text: str) -> Base:
    try:
        return Base(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"base must be one of {sorted(int(b) for b in Base)}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vedarith",
        description="digit-level multiply/divide/modpow/RSA toolbox and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mul", help="multiply two naturals")
    p_mul.add_argument("a")
    p_mul.add_argument("b")
    p_mul.add_argument("--base", type=_base_arg, default=Base.DEC)
    p_mul.add_argument("--algo", choices=modexp.MULTIPLIERS, default="vedic")
    p_mul.set_defaults(func=_cmd_mul)

    p_div = sub.add_parser("div", help="divide, printing quotient and remainder")
    p_div.add_argument("x")
    p_div.add_argument("y")
    p_div.add_argument("--base", type=_base_arg, default=Base.DEC)
    p_div.add_argument("--algo", choices=modexp.DIVIDERS, default="vedic")
    p_div.add_argument(
        "--trace", action="store_true", help="print one line per quotient digit"
    )
    p_div.set_defaults(func=_cmd_div)

    p_pow = sub.add_parser("modpow", help="a**b mod n")
    p_pow.add_argument("a")
    p_pow.add_argument("b")
    p_pow.add_argument("n")
    p_pow.add_argument("--base", type=_base_arg, default=Base.DEC)
    p_pow.add_argument("--mul", choices=modexp.MULTIPLIERS, default="vedic")
    p_pow.add_argument("--div", choices=modexp.DIVIDERS, default="vedic")
    p_pow.add_argument(
        "--literal",
        action="store_true",
        help="square before every bit instead of starting at the leading one",
    )
    p_pow.add_argument("--trace", action="store_true")
    p_pow.set_defaults(func=_cmd_modpow)

    p_kg = sub.add_parser("keygen", help="write a public/private key file pair")
    p_kg.add_argument("--p")
    p_kg.add_argument("--q")
    p_kg.add_argument("--j")
    p_kg.add_argument("--bits", type=int)
    p_kg.add_argument("--seed", type=int, help="LCG seed for --bits (default 1)")
    p_kg.add_argument(
        "--base", type=_base_arg, help="base of --p/--q/--j (default 10)"
    )
    p_kg.add_argument("--out", default="rsa_key", help="output path prefix")
    p_kg.set_defaults(func=_cmd_keygen)

    for name, helptext in (
        ("encrypt", "raise a message to the public exponent"),
        ("decrypt", "raise a ciphertext to the private exponent"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--key", required=True)
        p.add_argument("value")
        p.add_argument("--base", type=_base_arg, default=Base.DEC)
        p.add_argument(
            "--text",
            action="store_true",
            help="treat the message as a byte string instead of a numeral",
        )
        p.set_defaults(func=_cmd_encrypt if name == "encrypt" else _cmd_decrypt)

    p_st = sub.add_parser("selftest", help="run the exhaustive verification suites")
    p_st.set_defaults(func=_cmd_selftest)

    p_info = sub.add_parser("info", help="print the version and the active backend")
    p_info.set_defaults(func=_cmd_info)

    p_b = sub.add_parser("bench", help="run the benchmark suite, CSV on stdout")
    p_b.add_argument("--widths", help="comma-separated operand bit widths")
    p_b.add_argument("--iterations", type=int)
    p_b.add_argument("--seed", type=int)
    # bench.OPERATIONS, spelled out: `bench` is imported only by its command
    p_b.add_argument("--ops", help="comma-separated subset of: mul,div,modpow,rsa_encrypt")
    p_b.add_argument("--algos", help="comma-separated algorithm subset")
    p_b.add_argument(
        "--compare-backends",
        action="store_true",
        help="run every cell on every available backend, adding a CSV column",
    )
    p_b.set_defaults(func=_cmd_bench)

    return parser


def _cmd_mul(args) -> int:
    a = numeral.parse(args.a, args.base)
    b = numeral.parse(args.b, args.base)
    print(numeral.format(modexp.MULTIPLIERS[args.algo].run(a, b)))
    return 0


def _cmd_div(args) -> int:
    if args.trace and args.algo != "vedic":
        raise _UsageError("--trace is only available with --algo vedic")
    x = numeral.parse(args.x, args.base)
    y = numeral.parse(args.y, args.base)
    if args.trace:
        result, steps = vedic_div.divide_traced(x, y)
        for step in steps:
            print(step.as_line())
    else:
        result = modexp.DIVIDERS[args.algo].run(x, y)
    print(f"q={numeral.format(result.quotient)} r={numeral.format(result.remainder)}")
    return 0


def _cmd_modpow(args) -> int:
    a = numeral.parse(args.a, args.base)
    b = numeral.parse(args.b, args.base)
    n = numeral.parse(args.n, args.base)
    strategy = Strategy(args.mul, args.div)
    if args.trace:
        value, lines = modexp.mod_pow_traced(a, b, n, strategy, literal=args.literal)
        for line in lines:
            print(line)
    else:
        value = modexp.mod_pow(a, b, n, strategy, literal=args.literal)
    print(numeral.format(value))
    return 0


def _cmd_keygen(args) -> int:
    manual = [args.p, args.q, args.j]
    if any(v is not None for v in manual) and (args.bits, args.seed) != (None, None):
        raise _UsageError("give either --bits/--seed or --p/--q/--j, not both")
    if args.bits is not None:
        if args.base is not None:
            raise _UsageError("--base applies to --p/--q/--j; --bits keys are hex")
        try:
            pair = rsa.keygen_random(args.bits, 1 if args.seed is None else args.seed)
        except ValueError as exc:  # a --bits width out of range
            raise _UsageError(str(exc)) from exc
    else:
        if any(v is None for v in manual):
            raise _UsageError("keygen needs --p, --q and --j (or --bits)")
        base = Base.DEC if args.base is None else args.base
        p, q, j = (numeral.convert(numeral.parse(v, base), Base.HEX) for v in manual)
        pair = rsa.keygen(p, q, j)
    pub_path = f"{args.out}.pub"
    priv_path = f"{args.out}.priv"
    rsa.save_key(pub_path, pair.public)
    rsa.save_key(priv_path, pair.private)
    print(f"public key:  {pub_path}")
    print(f"private key: {priv_path}")
    print(f"modulus bits: {numeral.bit_length(pair.public.modulus)}")
    return 0


def _load_value(args, modulus_base: Base):
    if args.text:
        return rsa.message_to_natural(args.value.encode("utf-8"), modulus_base)
    value = numeral.parse(args.value, args.base)
    return numeral.convert(value, modulus_base)


def _cmd_encrypt(args) -> int:
    key = rsa.load_key(args.key)
    if not isinstance(key, rsa.RsaPublicKey):
        raise ValueError("encrypt needs a public key file")
    m = _load_value(args, key.modulus.base)
    out = rsa.encrypt(m, key)
    print(numeral.format(numeral.convert(out, args.base)))
    return 0


def _cmd_decrypt(args) -> int:
    key = rsa.load_key(args.key)
    if not isinstance(key, rsa.RsaPrivateKey):
        raise ValueError("decrypt needs a private key file")
    l = numeral.convert(numeral.parse(args.value, args.base), key.modulus.base)
    out = rsa.decrypt(l, key)
    if args.text:
        sys.stdout.buffer.write(rsa.natural_to_message(out) + b"\n")
    else:
        print(numeral.format(numeral.convert(out, args.base)))
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all()
    for res in results:
        print(res.line())
    bad = [r for r in results if not r.ok]
    total_pass = sum(r.passed for r in results)
    total_fail = sum(r.failed for r in results)
    print(f"total: pass={total_pass} fail={total_fail}")
    return 1 if bad else 0


def _cmd_info(args) -> int:
    pinned = os.environ.get("VEDARITH_BACKEND")
    print(f"vedarith {__version__}")
    print(f"backend: {backend.active_name()}")
    print(f"pinned by VEDARITH_BACKEND: {pinned or 'no'}")
    print(f"compiled import: {backend.COMPILED_IMPORT_ERROR or 'ok'}")
    return 0


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")


def _cmd_bench(args) -> int:
    from . import bench

    given = {"compare_backends": args.compare_backends}
    if args.widths:
        given["widths"] = _csv_ints(args.widths)
    if args.iterations is not None:
        given["iterations"] = args.iterations
    if args.seed is not None:
        given["seed"] = args.seed
    if args.ops:
        given["operations"] = args.ops.split(",")
    if args.algos:
        given["algorithms"] = args.algos.split(",")
    try:
        config = bench.BenchConfig(**given)
    except ValueError as exc:
        raise _UsageError(str(exc))
    print(
        "# relative software timings on this host; FPGA-era area/delay "
        "figures for these algorithms are not comparable",
        file=sys.stderr,
    )
    print(f"# backend: {','.join(bench.backend_names(config))}", file=sys.stderr)
    records, sink = bench.run_suite(config)
    for line in bench.csv_lines(records, config.compare_backends):
        print(line)
    print(f"# result checksum: {sink}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
