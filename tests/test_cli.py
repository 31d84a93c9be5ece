"""CLI contract: exit codes, byte stability, projections, golden files."""

import json
import os
import stat
import subprocess
import sys
import threading
from importlib import resources

import pytest

import whcalc.verify
from whcalc import cli, emit, render
from whcalc.errors import InconsistencyError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_json_envelope_header(capsys):
    code, out, _ = run_cli(
        capsys, "pi-wh", "--p", "3", "--max-degree", "24"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["format"] == "whcalc.v1"
    assert doc["header"]["tool"] == "whcalc"
    assert doc["header"]["command"] == "pi-wh --p 3 --max-degree 24"
    assert doc["payload"]["kind"] == "torsion-profile"
    assert out.endswith("\n")


def test_byte_stability(capsys):
    args = ("ahss", "--p", "3", "--max-degree", "20", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_golden_files_bit_exact(capsys, tmp_path):
    jobs = [
        ("pi_wh_p3_d24.json", ["pi-wh", "--p", "3", "--max-degree", "24"]),
        ("pi_wh_p5_d84.json", ["pi-wh", "--p", "5", "--max-degree", "84"]),
        (
            "cohomology_p3_d40.json",
            ["cohomology", "--p", "3", "--max-degree", "40"],
        ),
        (
            "cohomology_p5_d60.json",
            ["cohomology", "--p", "5", "--max-degree", "60"],
        ),
    ]
    for fname, argv in jobs:
        target = tmp_path / fname
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""
        golden = (
            resources.files("whcalc").joinpath("golden").joinpath(fname)
        ).read_bytes()
        assert target.read_bytes() == golden


def test_out_matches_stdout(capsys, tmp_path):
    argv = ["cohomology", "--p", "3", "--max-degree", "12", "--format", "csv"]
    code, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "report.csv"
    code2, out2, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_text(encoding="utf-8") == out


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "pi-wh", "--p", "3", "--max-degree", "5", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "taken").mkdir()  # os.replace onto a directory fails
    code, _, err = run_cli(
        capsys, "pi-wh", "--p", "3", "--max-degree", "5",
        "--out", str(tmp_path / "taken"),
    )
    assert code == 2
    assert list(tmp_path.iterdir()) == [tmp_path / "taken"]


def test_out_keeps_links_modes_and_special_files(capsys, tmp_path):
    argv = ["pi-wh", "--p", "3", "--max-degree", "5"]
    _, expected, _ = run_cli(capsys, *argv)
    real = tmp_path / "real.json"
    real.write_text("old", encoding="utf-8")
    real.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run_cli(capsys, *argv, "--out", str(link))[0] == 0
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text(encoding="utf-8") == expected
    assert real.stat().st_mode & 0o7777 == 0o640
    assert sorted(tmp_path.iterdir()) == [link, real]

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(fifo.read_text(encoding="utf-8")),
        daemon=True,
    )
    reader.start()
    assert run_cli(capsys, *argv, "--out", str(fifo))[0] == 0
    reader.join(timeout=30)
    assert got == [expected]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_out_through_a_link_to_a_pipe(tmp_path):
    link = tmp_path / "stdout"
    link.symlink_to("/proc/self/fd/1")  # resolves in the child to its pipe
    argv = ["-m", "whcalc", "pi-wh", "--p", "3", "--max-degree", "5"]
    direct = subprocess.run([sys.executable, *argv], capture_output=True)
    linked = subprocess.run(
        [sys.executable, *argv, "--out", str(link)], capture_output=True
    )
    assert (linked.returncode, linked.stderr) == (0, b"")
    assert linked.stdout == direct.stdout
    assert link.is_symlink()


@pytest.mark.parametrize("redirect,why", [
    (">&-", "it is closed"),
    (">/dev/full", "No space left on device"),
])
@pytest.mark.parametrize("argv", [
    ["pi-wh", "--p", "3", "--max-degree", "24"],
    ["verify", "--p", "3"],
    ["--version"],
])
def test_closed_or_failing_stdout_exits_2(redirect, why, argv):
    if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh",
         sys.executable, "-m", "whcalc", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {why}\n"


# An E2 chart of about 11,000 JSON lines, many batches.
LARGE = ["ahss", "--p", "13", "--target", "j-cp", "--page", "e2",
         "--max-degree", "392"]
# An E2 chart to degree 300 or to 3000 (7.5 MB of JSON, 3.3 MB of CSV,
# far more than a pipe holds), above the default degree cap.
HUGE = ["ahss", "--p", "29", "--target", "j-cp", "--page", "e2",
        "--max-degree"]
HUGE_ENV = {**os.environ, cli.CAP_ENV: "3000"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_failing_mid_stream_exits_2(fmt):
    argv = [sys.executable, "-m", "whcalc", *HUGE, "3000", "--format", fmt]
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=HUGE_ENV)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: cannot write stdout: No space left on device\n"
        )
    # the reader takes a few bytes and goes away
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=HUGE_ENV)
    assert proc.stdout.read(10)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    assert proc.stderr.read() == "error: cannot write stdout: Broken pipe\n"
    proc.stderr.close()


@pytest.mark.parametrize("fmt,writer", [
    ("json", "write_envelope"),
    ("csv", "write_lines"),
])
def test_out_failing_mid_stream_leaves_no_file(capsys, tmp_path, monkeypatch,
                                               fmt, writer):
    real = getattr(emit, writer)

    def fail_after_one_chunk(*args):
        *head, write = args
        written = []

        def write_once(chunk):
            if written:
                raise OSError(28, "No space left on device")
            written.append(chunk)
            write(chunk)

        real(*head, write_once)

    monkeypatch.setattr(emit, "BATCH_LINES", 8)
    monkeypatch.setattr(emit, writer, fail_after_one_chunk)
    fresh = tmp_path / "fresh.out"
    argv = [*LARGE, "--format", fmt]
    code, out, err = run_cli(capsys, *argv, "--out", str(fresh))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {fresh}: No space left on device\n"
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept.out"
    kept.write_text("old", encoding="utf-8")
    assert run_cli(capsys, *argv, "--out", str(kept))[0] == 2
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text(encoding="utf-8") == "old"


def test_out_whose_owner_cannot_be_kept_is_copied_in_place(
    capsys, tmp_path, monkeypatch
):
    _, expected, _ = run_cli(capsys, *LARGE)
    target = tmp_path / "chart.json"
    target.write_text("old", encoding="utf-8")

    def refuse(*args):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "chown", refuse)
    assert run_cli(capsys, *LARGE, "--out", str(target))[0] == 0
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text(encoding="utf-8") == expected


# A lean parent, since Linux carries a parent's peak RSS into a child it
# spawns: it runs `python ARGS...` with stdout on the null device and prints
# the child's exit code and peak RSS in kB.
_PEAK_RSS = (
    "import os, sys\n"
    "null = os.open(os.devnull, os.O_WRONLY)\n"
    "argv = [sys.executable, *sys.argv[1:]]\n"
    "pid = os.posix_spawn(sys.executable, argv, os.environ,\n"
    "                     file_actions=[(os.POSIX_SPAWN_DUP2, null, 1)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _peak_rss_mb(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(whcalc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PEAK_RSS, "-m", "whcalc", *argv],
        capture_output=True,
        text=True,
        env={**HUGE_ENV, "PYTHONPATH": src},
        check=True,
    )
    code, kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kb / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kB")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_peak_rss_is_flat_in_output_size(fmt):
    small = _peak_rss_mb(*HUGE, "300", "--format", fmt)
    large = _peak_rss_mb(*HUGE, "3000", "--format", fmt)
    assert large - small < 8


# The CLI renders the library's payload, whose cohomology degrees are ints;
# the re-parsed JSON holds them as strings, and both render the same bytes.
@pytest.mark.parametrize("base", [
    ["ahss", "--p", "3", "--max-degree", "20", "--page", "einf"],
    ["pi-wh", "--p", "5", "--max-degree", "84"],
    ["cohomology", "--p", "5", "--max-degree", "60"],
], ids=["ahss", "pi-wh", "cohomology"])
def test_projections_rerender_from_json_payload(capsys, base):
    _, json_out, _ = run_cli(capsys, *base, "--format", "json")
    payload = json.loads(json_out)["payload"]
    for fmt, fn in (
        ("csv", render.to_csv),
        ("ascii-chart", render.to_ascii),
        ("svg-chart", render.to_svg),
    ):
        code, out, _ = run_cli(capsys, *base, "--format", fmt)
        assert code == 0
        assert out == fn(payload)


def test_svg_chart_content(capsys):
    code, out, _ = run_cli(
        capsys,
        "ahss", "--p", "3", "--max-degree", "23", "--page", "einf",
        "--format", "svg-chart",
    )
    assert code == 0
    assert out.startswith("<?xml")
    assert 'xmlns="http://www.w3.org/2000/svg"' in out
    assert "hatch" in out  # aggregate-only cells are hatched


def test_exit_code_precondition(capsys):
    assert run_cli(capsys, "pi-wh", "--p", "37", "--max-degree", "24")[0] == 2
    assert run_cli(capsys, "pi-wh", "--p", "4", "--max-degree", "5")[0] == 2
    assert run_cli(capsys, "pi-wh", "--p", "3", "--max-degree", "-2")[0] == 2


def test_exit_code_window(capsys):
    code, _, err = run_cli(capsys, "ahss", "--p", "3", "--max-degree", "200")
    assert code == 3
    assert "s-cpbar" in err  # --target defaulted to the stunted chart
    assert run_cli(capsys, "pi-wh", "--p", "3", "--max-degree", "25")[0] == 3


def test_assume_regular_override(capsys):
    code, out, _ = run_cli(
        capsys,
        "pi-wh", "--p", "37", "--max-degree", "24", "--assume-regular",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["assumptions"][0].startswith(
        "odd prime, regularity assumed"
    )
    assert doc["header"]["command"].endswith("--assume-regular")


IRREGULAR = (
    "p=37 is an irregular prime; the computation assumes an odd regular prime"
)
UNVERIFIED = (
    "regularity of p=1009 is not verified beyond the configured bound 1000"
)
FLAG = "pass --assume-regular to override"


@pytest.mark.parametrize("argv,why,hint", [
    (("pi-wh", "--p", "37", "--max-degree", "24"), IRREGULAR, FLAG),
    (("cohomology", "--p", "37", "--max-degree", "24"), IRREGULAR, FLAG),
    (("verify", "--p", "3,37"), IRREGULAR, "verify checks regular primes only"),
    (("pi-wh", "--p", "1009", "--max-degree", "24"), UNVERIFIED, FLAG),
    (("cohomology", "--p", "1009", "--max-degree", "24"), UNVERIFIED, FLAG),
], ids=["pi-wh", "cohomology", "verify", "pi-wh-unverified",
        "cohomology-unverified"])
def test_irregular_prime_names_an_override_that_exists(
    capsys, argv, why, hint
):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {why} ({hint})\n"


def test_degree_cap(capsys, monkeypatch):
    assert run_cli(capsys, "pi-wh", "--p", "3", "--max-degree", "513")[0] == 3
    monkeypatch.setenv(cli.CAP_ENV, "100")
    assert run_cli(capsys, "pi-wh", "--p", "3", "--max-degree", "101")[0] == 3
    monkeypatch.setenv(cli.CAP_ENV, "600")
    code, _, err = run_cli(capsys, "pi-wh", "--p", "3", "--max-degree", "513")
    assert code == 3  # now refused by the torsion window, not the cap
    assert "torsion profile" in err


def test_bad_integers_name_their_source(capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV, "abc")
    code, out, err = run_cli(capsys, "pi-wh", "--p", "3", "--max-degree", "5")
    assert (code, out) == (2, "")
    assert err == f"error: {cli.CAP_ENV}: 'abc' is not an integer\n"
    code, out, err = run_cli(capsys, "verify", "--p", "3,3x")
    assert (code, out) == (2, "")
    assert err == "error: --p: '3x' is not an integer\n"


def test_inconsistency_maps_to_exit_1(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InconsistencyError("forced mismatch")

    monkeypatch.setattr(cli.emit, "pi_wh", boom)
    code, _, err = run_cli(capsys, "pi-wh", "--p", "3", "--max-degree", "5")
    assert code == 1
    assert "forced mismatch" in err


def test_argparse_errors_exit_2(capsys):
    for argv in (
        ["pi-wh", "--p", "3"],  # missing --max-degree
        ["pi-wh", "--p", "x", "--max-degree", "4"],
        ["ahss", "--p", "3", "--max-degree", "4", "--target", "bogus"],
        ["cohomology", "--p", "3", "--max-degree", "4", "--piece", "bogus"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "10 passed, 0 failed, 0 skipped"
    assert all(ln.startswith("p=3  ") and "  pass  " in ln for ln in lines[:-1])
    assert run_cli(capsys, "verify", "--p", "37")[0] == 2
    assert run_cli(capsys, "verify", "--p", "foo")[0] == 2


def test_verify_default_primes(capsys, monkeypatch):
    seen = {}

    def fake_run_checks(primes, deep=False):
        seen["primes"] = [p.p for p in primes]
        seen["deep"] = deep
        from whcalc.verify import CheckResult

        return [CheckResult(3, "stub", "pass", "")]

    monkeypatch.setattr(whcalc.verify, "run_checks", fake_run_checks)
    assert run_cli(capsys, "verify")[0] == 0
    assert seen == {"primes": [3, 5, 7], "deep": False}
    assert run_cli(capsys, "verify", "--p", "3,5", "--deep")[0] == 0
    assert seen == {"primes": [3, 5], "deep": True}
    assert run_cli(capsys, "verify", "--p", "5,3,,3, 5")[0] == 0
    assert seen == {"primes": [5, 3], "deep": False}


@pytest.mark.parametrize("primes", [",", "", " , ,"])
def test_verify_empty_prime_list_exits_2(capsys, monkeypatch, primes):
    def fake_run_checks(primes, deep=False):
        raise AssertionError("no check may run without a prime")

    monkeypatch.setattr(whcalc.verify, "run_checks", fake_run_checks)
    code, out, err = run_cli(capsys, "verify", "--p", primes)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "names no prime" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    from whcalc.verify import CheckResult

    monkeypatch.setattr(
        whcalc.verify,
        "run_checks",
        lambda primes, deep=False: [CheckResult(3, "stub", "fail", "boom")],
    )
    code, out, _ = run_cli(capsys, "verify", "--p", "3")
    assert code == 1
    assert "fail" in out


def test_subcommand_wrappers(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "argv", ["pi-wh", "--p", "3", "--max-degree", "11"]
    )
    assert cli.pi_wh_main() == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["header"]["command"] == "pi-wh --p 3 --max-degree 11"
    monkeypatch.setattr(sys, "argv", ["verify", "--p", "37"])
    assert cli.verify_main() == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "whcalc", "pi-wh", "--p", "3",
         "--max-degree", "24"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    golden = (
        resources.files("whcalc").joinpath("golden").joinpath("pi_wh_p3_d24.json")
    ).read_text("utf-8")
    assert proc.stdout == golden


def test_csv_projection_of_profile(capsys):
    code, out, _ = run_cli(
        capsys, "pi-wh", "--p", "3", "--max-degree", "24", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "degree,valuation,generators"
    assert "11,1,sigma(beta1)" in lines
    assert "14,3,sigma(alpha1_beta1)" in lines


def test_piece_filtering(capsys):
    code, out, _ = run_cli(
        capsys,
        "cohomology", "--p", "5", "--max-degree", "40", "--piece", "ker",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert list(payload["pieces"]) == ["sigma^2 C_1/A(b,Q1)"]
    assert "total" not in payload
    code, out, _ = run_cli(
        capsys,
        "cohomology", "--p", "5", "--max-degree", "40", "--piece", "total",
    )
    payload = json.loads(out)["payload"]
    assert payload["pieces"] == {}
    assert payload["total"]
