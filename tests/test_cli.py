import subprocess
import sys

import pytest

from conftest import package_env
from vedarith import __version__, backend, cli, modexp, numeral, rsa, selftest
from vedarith.numeral import Base


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_div_golden_case(capsys):
    code, out, _ = run(capsys, "div", "35001", "77", "--base", "10", "--algo", "vedic")
    assert code == 0
    assert out == "q=454 r=43\n"


def test_div_baseline_algorithms(capsys):
    for algo in modexp.DIVIDERS:
        code, out, _ = run(capsys, "div", "35001", "77", "--algo", algo)
        assert code == 0 and out == "q=454 r=43\n"


def test_div_trace(capsys):
    code, out, _ = run(capsys, "div", "35001", "77", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "q=454 r=43"
    assert any("K=42" in line for line in lines)
    assert any("q_est=5" in line and "q=4" in line and "r=7" in line for line in lines)


def test_div_trace_needs_vedic(capsys):
    code, _, err = run(capsys, "div", "9", "3", "--algo", "restoring", "--trace")
    assert code == 2
    assert "trace" in err


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "ffff", "ffff", "--base", "16")
    assert code == 0 and out == "fffe0001\n"
    for algo in modexp.MULTIPLIERS:
        code, out, _ = run(capsys, "mul", "454", "77", "--algo", algo)
        assert code == 0 and out == "34958\n"


def test_modpow(capsys):
    code, out, _ = run(capsys, "modpow", "7", "10", "11")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "modpow", "65", "17", "3233", "--mul", "shift_add", "--div", "nonrestoring")
    assert code == 0 and out == "2790\n"
    code, out, _ = run(capsys, "modpow", "65", "17", "3233", "--literal")
    assert code == 0 and out == "2790\n"


def test_modpow_trace(capsys):
    code, out, _ = run(capsys, "modpow", "65", "17", "3233", "--trace", "--literal")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "2790"
    assert any(line.startswith("j=4 l=9 op=multiply") for line in lines)


def test_keygen_encrypt_decrypt_files(capsys, tmp_path):
    prefix = str(tmp_path / "key")
    code, out, _ = run(capsys, "keygen", "--p", "61", "--q", "53", "--j", "17", "--out", prefix)
    assert code == 0
    assert (tmp_path / "key.pub").exists() and (tmp_path / "key.priv").exists()

    code, out, _ = run(capsys, "encrypt", "--key", f"{prefix}.pub", "65")
    assert code == 0 and out == "2790\n"

    code, out, _ = run(capsys, "decrypt", "--key", f"{prefix}.priv", "2790")
    assert code == 0 and out == "65\n"

    # --base reads --p/--q/--j in another base; the key files match
    hex_prefix = str(tmp_path / "hexkey")
    code, _, _ = run(
        capsys, "keygen", "--p", "3d", "--q", "35", "--j", "11", "--base", "16", "--out", hex_prefix
    )
    assert code == 0
    assert (tmp_path / "hexkey.priv").read_text() == (tmp_path / "key.priv").read_text()


def test_keygen_seeded(capsys, tmp_path):
    prefix = str(tmp_path / "rk")
    code, out, _ = run(capsys, "keygen", "--bits", "24", "--seed", "5", "--out", prefix)
    assert code == 0
    key = rsa.load_key(f"{prefix}.pub")
    assert isinstance(key, rsa.RsaPublicKey)
    # same seed, same key files
    prefix2 = str(tmp_path / "rk2")
    run(capsys, "keygen", "--bits", "24", "--seed", "5", "--out", prefix2)
    assert (tmp_path / "rk.pub").read_text() == (tmp_path / "rk2.pub").read_text()


def test_keygen_argument_validation(capsys, tmp_path):
    code, _, err = run(capsys, "keygen", "--p", "61", "--q", "53")
    assert code == 2 and "keygen needs" in err
    code, _, err = run(capsys, "keygen", "--bits", "24", "--p", "61", "--q", "53", "--j", "17")
    assert code == 2
    prefix = str(tmp_path / "k")
    manual = ("--p", "61", "--q", "53", "--j", "17", "--out", prefix)
    code, out, err = run(capsys, "keygen", *manual, "--seed", "5")
    assert code == 2 and "not both" in err and out == ""
    # seeded keys are always hex, so --base has nothing to apply to
    code, out, err = run(capsys, "keygen", "--bits", "24", "--base", "10", "--out", prefix)
    assert code == 2 and "--base" in err and out == ""
    assert list(tmp_path.iterdir()) == []
    for bits in ("4", "164"):
        code, out, err = run(capsys, "keygen", "--bits", bits)
        assert code == 2 and err.startswith("usage error: modulus width") and out == ""


def test_keygen_refuses_a_prime_beyond_the_exact_bound(capsys, tmp_path):
    # psi13 passes is_prime but is composite; keygen refuses it by width
    prefix = str(tmp_path / "k")
    psi13 = "3317044064679887385961981"
    code, out, err = run(capsys, "keygen", "--p", psi13, "--q", "53", "--j", "17", "--out", prefix)
    assert code == 1 and "wider than 81 bits" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_encrypt_requires_public_key(capsys, tmp_path):
    pair = rsa.keygen_random(24, seed=3)
    priv = tmp_path / "k.priv"
    rsa.save_key(priv, pair.private)
    code, _, err = run(capsys, "encrypt", "--key", str(priv), "5")
    assert code == 1 and "public" in err


def test_text_roundtrip(capsys, tmp_path):
    prefix = str(tmp_path / "tk")
    run(capsys, "keygen", "--bits", "40", "--seed", "11", "--out", prefix)
    code, out, _ = run(capsys, "encrypt", "--key", f"{prefix}.pub", "--text", "hi")
    assert code == 0
    cipher = out.strip()
    code, out, _ = run(capsys, "decrypt", "--key", f"{prefix}.priv", "--text", cipher)
    assert code == 0 and out == "hi\n"


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "div", "5", "0")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "div", "5x", "3")
    assert code == 1 and "offset" in err
    code, _, err = run(capsys, "mul", "ff", "1")  # hex digit under base 10
    assert code == 1
    code, _, err = run(capsys, "encrypt", "--key", "/nonexistent.key", "5")
    assert code == 1
    code, _, err = run(capsys, "modpow", "4", "2", "1")
    assert code == 1


def test_usage_errors_exit_2(capsys):
    assert cli.main(["div", "1", "2", "--algo", "schoolbook"]) == 2
    assert cli.main(["div", "1"]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["mul", "1", "2", "--base", "7"]) == 2
    assert cli.main(["bench", "--widths", "10"]) == 2
    assert cli.main(["bench", "--ops", "fft"]) == 2
    assert cli.main(["bench", "--ops", "modpow", "--algos", "shift_add"]) == 2
    assert "usage error: operation 'modpow' compares" in capsys.readouterr().err


def test_selftest_reporting(capsys, monkeypatch):
    fake = [
        selftest.SuiteResult("alpha", 10, 0),
        selftest.SuiteResult("beta", 9, 1, "first mismatch"),
    ]
    monkeypatch.setattr(selftest, "run_all", lambda: fake)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "alpha: pass=10 fail=0 ok" in out
    assert "beta: pass=9 fail=1 FAILED (first mismatch)" in out
    assert "total: pass=19 fail=1" in out

    monkeypatch.setattr(selftest, "run_all", lambda: fake[:1])
    code, out, _ = run(capsys, "selftest")
    assert code == 0


def test_bench_cli_csv(capsys):
    code, out, err = run(
        capsys, "bench", "--widths", "8,16", "--iterations", "2", "--ops", "mul", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("operation,algorithm,bits,")
    assert len(lines) == 1 + 2 * 2
    assert "not comparable" in err
    assert "result checksum" in err


def test_bench_cli_names_its_backend(capsys):
    with backend.use("pure"):
        code, out, err = run(
            capsys, "bench", "--widths", "8", "--iterations", "1", "--ops", "mul"
        )
    assert code == 0
    assert len(out.splitlines()) == 3
    assert "# backend: pure" in err.splitlines()


def test_info_names_the_backend_and_why(capsys, monkeypatch):
    monkeypatch.delenv("VEDARITH_BACKEND", raising=False)
    code, out, _ = run(capsys, "info")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == [
        f"vedarith {__version__}",
        f"backend: {backend.active_name()}",
        "pinned by VEDARITH_BACKEND: no",
    ]
    reason = lines[3].removeprefix("compiled import: ")
    assert (reason == "ok") == ("compiled" in backend.available()), reason
    assert reason == (backend.COMPILED_IMPORT_ERROR or "ok")


def test_info_when_the_environment_pins_the_backend():
    done = subprocess.run(
        [sys.executable, "-m", "vedarith.cli", "info"],
        env=package_env(VEDARITH_BACKEND="pure"),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1:3] == ["backend: pure", "pinned by VEDARITH_BACKEND: pure"]
    assert lines[3].startswith("compiled import: ")


def test_cli_import_loads_no_class_factory():
    # `bench` and `selftest` are imported only by their commands
    code = "import sys, vedarith.cli\nprint('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_bench_help_lists_every_operation(capsys):
    from vedarith import bench

    assert cli.main(["bench", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "subset of: " + ",".join(bench.OPERATIONS) in help_text


def test_cli_output_parses_back(capsys):
    # numeric output always round-trips through the numeral layer
    code, out, _ = run(capsys, "mul", "123456789", "987654321")
    assert code == 0
    assert numeral.to_int(numeral.parse(out.strip(), Base.DEC)) == 123456789 * 987654321
