import hashlib
import json
from pathlib import Path

import pytest

from checks import Checker, load_digests, reference_output
from child import Launcher, child_env, compile_bytecode
from run import Session
from workloads import Call, emit_sweep

SRC = Path(__file__).resolve().parents[2] / "src"
CSV = Call(("pi-wh", "--p", "3", "--max-degree", "24", "--format", "csv"))
JSON = Call(("cohomology", "--p", "5", "--max-degree", "30", "--format", "json"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reference_matches_the_cli_golden_bytes():
    ref = reference_output(CSV)
    assert ref.startswith(b"degree,valuation,generators\n11,1,sigma(beta1)\n")


@pytest.mark.parametrize("call", [CSV, JSON])
def test_corrupted_output_fails(call):
    good = reference_output(call)
    checker = Checker({})
    assert checker.failure(call, 0, good, b"", good) is None
    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 1
    for bad in (bytes(flipped), good[:-1], good + b"\n", b""):
        assert checker.failure(call, 0, bad, b"", bad) is not None


def test_pinned_digest_wins_over_the_reference():
    good = reference_output(CSV)
    assert Checker({CSV.key: _sha(good)}).failure(CSV, 0, good, b"", good) is None
    pinned_other = Checker({CSV.key: _sha(b"other")})
    assert pinned_other.failure(CSV, 0, good, b"", good) is not None


def test_exit_code_traceback_and_stray_stdout_fail():
    good = reference_output(CSV)
    checker = Checker({})
    assert checker.failure(CSV, 3, good, b"", good) == "exit code 3"
    trace = b"Traceback (most recent call last):\n  ...\n"
    assert checker.failure(CSV, 0, good, trace, good) is not None
    to_file = Call(CSV.args, to_file=True)
    assert checker.failure(to_file, 0, b"", b"", good) is None
    assert checker.failure(to_file, 0, good, b"", good) is not None


def test_verify_must_report_zero_failed():
    call = Call(("verify", "--p", "3"))
    checker = Checker({})
    ok = b"p=3  x  pass  fine\n10 passed, 0 failed, 0 skipped\n"
    bad = b"p=3  x  fail  oops\n9 passed, 1 failed, 0 skipped\n"
    assert checker.failure(call, 0, ok, b"", ok) is None
    assert checker.failure(call, 0, bad, b"", bad) is not None


def test_cohomology_total_must_be_the_sum_of_its_pieces():
    doc = json.loads(reference_output(JSON))
    first = next(iter(doc["payload"]["total"]))
    doc["payload"]["total"][first] += 1
    tampered = json.dumps(doc, indent=2).encode() + b"\n"
    # Pin the tampered bytes so only the sum check can catch them.
    checker = Checker({JSON.key: _sha(tampered)})
    assert "sum of its pieces" in checker.failure(JSON, 0, tampered, b"", tampered)


def test_pinned_digests_cover_the_fixed_workloads_and_seed_zero():
    digests = load_digests()
    assert "cohomology --p 3 --max-degree 400" in digests
    assert "verify --p 17" in digests
    assert all(call.key in digests for call in emit_sweep(0))


def test_session_counts_a_corrupted_output_as_failed(tmp_path):
    env = child_env(SRC)
    compile_bytecode(SRC, env)
    calls = [CSV, Call(CSV.args, to_file=True)]
    with Launcher(env, tmp_path) as launcher:
        run = Session(launcher, Checker({}), tmp_path).run(calls, False)
    assert run.failures == [] and len(run.call_walls) == 2

    # A stand-in package whose CLI emits the right bytes with one flipped.
    fake = tmp_path / "fake"
    (fake / "whcalc").mkdir(parents=True)
    (fake / "whcalc" / "__init__.py").write_text("")
    corrupt = bytearray(reference_output(CSV))
    corrupt[40] ^= 1
    (fake / "whcalc" / "__main__.py").write_text(
        "import sys\n"
        f"data = {bytes(corrupt)!r}\n"
        "if '--out' in sys.argv:\n"
        "    open(sys.argv[sys.argv.index('--out') + 1], 'wb').write(data)\n"
        "else:\n"
        "    sys.stdout.buffer.write(data)\n"
    )
    with Launcher(child_env(fake), tmp_path) as launcher:
        run = Session(launcher, Checker({}), tmp_path).run(calls, False)
    assert len(run.failures) == 2
    assert all("differs from the expected bytes" in f for f in run.failures)
