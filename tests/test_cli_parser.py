"""The table-driven CLI parser against the argparse parser it replaced.

`reference_parser` is the argparse declaration the CLI used to build on
every call, kept here as the oracle: on valid argv both must give the same
values, and on invalid argv both must exit 2.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from whcalc import __version__, cli, emit


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="odd regular prime")
    sp.add_argument(
        "--max-degree", type=int, required=True, help="top degree (inclusive)"
    )
    sp.add_argument("--format", choices=emit.FORMATS, default="json")
    sp.add_argument("--out", help="write to this file instead of stdout")


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whcalc")
    parser.add_argument(
        "--version", action="version", version=f"whcalc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pi = sub.add_parser("pi-wh")
    _add_common(pi)
    pi.add_argument("--assume-regular", action="store_true")
    ah = sub.add_parser("ahss")
    _add_common(ah)
    ah.add_argument("--target", choices=emit.TARGETS, default="s-cpbar")
    ah.add_argument("--page", choices=emit.PAGES, default="einf")
    co = sub.add_parser("cohomology")
    _add_common(co)
    co.add_argument("--piece", choices=emit.PIECES, default="all")
    co.add_argument("--assume-regular", action="store_true")
    ve = sub.add_parser("verify")
    ve.add_argument("--p", default="3,5,7")
    ve.add_argument("--deep", action="store_true")
    return parser


REFERENCE = reference_parser()


def outcome(parse, argv):
    """("ok", values), or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return ("ok", parse(list(argv)))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())


def new(argv):
    return outcome(cli.parse_args, argv)


def old(argv):
    return outcome(lambda a: vars(REFERENCE.parse_args(a)), argv)


BASE = {
    "pi-wh": ["--p", "3", "--max-degree", "24"],
    "ahss": ["--p", "5", "--max-degree", "40"],
    "cohomology": ["--p", "5", "--max-degree", "60"],
    "verify": [],
}
CHOICES = {
    "--format": emit.FORMATS,
    "--target": emit.TARGETS,
    "--page": emit.PAGES,
    "--piece": emit.PIECES,
}


def _valid_corpus():
    corpus = [[cmd, *base] for cmd, base in BASE.items()]
    for cmd in ("pi-wh", "ahss", "cohomology"):
        base = [cmd, *BASE[cmd]]
        for flag in ("--format", "--target", "--page", "--piece"):
            if flag in ("--target", "--page") and cmd != "ahss":
                continue
            if flag == "--piece" and cmd != "cohomology":
                continue
            for choice in CHOICES[flag]:
                corpus.append([*base, flag, choice])
                corpus.append([*base, f"{flag}={choice}"])
                corpus.append([*base, flag[:4], choice])  # a unique prefix
        corpus += [
            [*base, "--out", "x.json"],
            [*base, "--out=x.json"],
            [*base, "--out="],
            [*base, "--out", "-1.5"],  # a negative number is a value
            [*base, "--out", "-x y"],  # so is a token with a space
            [*base, "--o", "a", "--ou", "b"],  # the last flag wins
            [cmd, "--max=7", "--p", "11"],
            [cmd, "--p", "3", "--p", "5", "--max-degree", "-2"],
            [cmd, "--p", " 7 ", "--max-degree", "1_0"],
            [cmd, "--p=-3", "--max-d", "0"],
            [cmd, "--p", "3", "--max-d", "4", "--f", "csv", "--f", "json"],
        ]
    for cmd in ("pi-wh", "cohomology"):
        corpus += [
            [cmd, *BASE[cmd], "--assume-regular"],
            [cmd, *BASE[cmd], "--a"],
            [cmd, "--assume-regular", *BASE[cmd], "--assume-regular"],
        ]
    corpus += [
        ["ahss", *BASE["ahss"], "--pa", "e2", "--t", "j-cp", "--pag=einf"],
        ["cohomology", *BASE["cohomology"], "--pi", "ker", "--piece", "hp"],
        ["verify", "--p", "3,5"],
        ["verify", "--p=", "--deep"],
        ["verify", "--d", "--p", "5,3,,3, 5"],
        ["verify", "--p", "-3"],
        ["verify", "--deep", "--deep"],
    ]
    return corpus


INVALID = [
    [],
    ["nonsense"],
    ["-5"],
    ["--p", "3", "verify"],
    ["--foo", "verify"],
    ["pi-wh"],
    ["pi-wh", "--p", "3"],
    ["pi-wh", "--max-degree", "4"],
    ["pi-wh", "--p", "x", "--max-degree", "4"],
    ["pi-wh", "--p", "3.0", "--max-degree", "4"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--p"],
    ["pi-wh", "--p=3=4", "--max-degree", "4"],
    ["pi-wh", "--p", "-", "--max-degree", "4"],
    ["pi-wh", "--p", "3", "--max-degree", "-0x"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--out", "-x"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--out", "--p"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--out", "-h"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--out", "--"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--format", "CSV"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--format="],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--assume-regular=1"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--target", "j-cp"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "extra"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "-"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--"],
    ["pi-wh", "--p", "3", "--max-degree", "4", "--", "x"],
    ["pi-wh", "--", "--p", "3", "--max-degree", "4"],
    ["pi-wh", "-p", "3", "--max-degree", "4"],
    ["pi-wh", "--version"],
    ["ahss", "--p", "3", "--max-degree", "4", "--target", "bogus"],
    ["ahss", "--p", "3", "--max-degree", "4", "--page", "e3"],
    ["ahss", "--p", "3", "--max-degree", "4", "--assume-regular"],
    ["cohomology", "--p", "3", "--max-degree", "4", "--piece", "bogus"],
    ["cohomology", "--p", "3", "--max-degree", "4", "--pa", "e2"],
    ["verify", "--p"],
    ["verify", "-p", "3"],
    ["verify", "x"],
    ["verify", "--deep=yes"],
    ["verify", "--", "--deep"],
    ["verify", "--max-degree", "4"],
]


@pytest.mark.parametrize("argv", _valid_corpus(), ids=" ".join)
def test_valid_argv_gives_the_reference_values(argv):
    got = new(argv)
    assert got[0] == "ok", got
    assert got == old(argv)


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_invalid_argv_exits_2_with_a_usage_line(argv):
    assert old(argv)[:2] == ("exit", 2)
    kind, code, out, err = new(argv)
    assert (kind, code, out) == ("exit", 2, "")
    usage, error = err.splitlines()
    prog = usage.removeprefix("usage: ").partition(" [-h]")[0]
    assert prog in ["whcalc", *(f"whcalc {cmd}" for cmd in cli.COMMANDS)]
    assert error.startswith(f"{prog}: error: ")


def test_error_messages_read_as_argparse_wrote_them():
    for argv in INVALID:
        ref = old(argv)[3].splitlines()[-1]
        if "unrecognized arguments" in ref:
            continue  # argparse names the umbrella command there
        assert new(argv)[3].splitlines()[-1] == ref, argv


def test_an_ambiguous_option_is_named_as_typed():
    # argparse lists the umbrella's flags here, not the command's, so the
    # case is not in INVALID, where the whole message is compared
    argv = ["pi-wh", "--p", "3", "--max-degree", "24", "--=1"]
    kind, code, out, err = new(argv)
    assert (kind, code, out) == ("exit", 2, "")
    assert err.splitlines()[-1] == (
        "whcalc pi-wh: error: ambiguous option: --=1 could match --help, "
        "--p, --max-degree, --format, --out, --assume-regular"
    )
    assert old(argv)[:2] == ("exit", 2)
    assert "ambiguous option: --=1 could match " in old(argv)[3]


@pytest.mark.parametrize("argv", [
    ["--version"], ["--vers"], ["--version", "pi-wh"], ["--foo", "--version"],
])
def test_version(argv):
    assert new(argv) == ("exit", 0, f"whcalc {__version__}\n", "")
    assert old(argv)[:3] == new(argv)[:3]


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he", "pi-wh"], ["pi-wh", "-h"],
    ["ahss", "--p", "3", "--help"], ["cohomology", "--h"], ["verify", "-h"],
    ["pi-wh", "extra", "-h"],
])
def test_help_exits_0_with_usage_and_every_flag(argv):
    kind, code, out, err = new(argv)
    assert (kind, code, err) == ("exit", 0, "")
    assert old(argv)[:2] == ("exit", 0)
    command = argv[0] if argv[0] in cli.COMMANDS else None
    assert out.startswith(cli._usage(command) + "\n\n")
    flags = cli.COMMANDS[command][1] if command else ["--version"]
    assert all(f"  {flag}" in out for flag in ["-h, --help", *flags])


TOKENS = st.sampled_from([
    "pi-wh", "ahss", "cohomology", "verify", "--p", "--p=3", "--max-degree",
    "--max", "--m=4", "--format", "--f=csv", "--out", "--o", "--target",
    "--t", "--page", "--pa", "--piece", "--pi", "--assume-regular", "--a",
    "--deep", "--d", "--version", "-h", "--help", "--", "-", "-x", "-1",
    "-1.5", "3", "5", "40", "x", "3,5", "a b", "-a b", "csv", "json", "e2",
    "einf", "j-cp", "ker", "total", "",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(TOKENS, max_size=8))
def test_any_argv_gives_the_reference_outcome(argv):
    # From Python 3.12 on, argparse reads a '--' before the command as the
    # end of the umbrella's flags; the CLI exits 2 there, as 3.10 and 3.11 do.
    starts = [i for i, token in enumerate(argv) if token in cli.COMMANDS]
    assume("--" not in argv[: starts[0] if starts else None])
    got, ref = new(argv), old(argv)
    if ref[0] == "exit":
        ref = ref[:2]
        got = got[:2]
    assert got == ref
