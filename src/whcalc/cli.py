"""Command-line front end.

One umbrella command with four subcommands (pi-wh, ahss, cohomology,
verify), each also installed as a standalone script.  Exit codes are part
of the contract: 0 success, 1 internal inconsistency (an oracle
disagreed), 2 precondition failure (bad flags, irregular prime) or I/O
failure, 3 window or range violation.  JSON output is byte-stable for
fixed flags; csv, ascii-chart and svg-chart are pure projections of the
same payload.  Each call is a cold process, so `render` and `verify` are
imported only on the paths that use them, `run` ends the process without
the interpreter's teardown, and the flags are read from a table by a
small parser that keeps argparse's grammar (`--flag=value`, unique
prefixes, the last of a repeated flag wins, `-h`, exit 2 with a usage
line) without its imports.
"""

import atexit
import os
import sys

from . import emit
from ._version import __version__
from .arith import OddPrime, ensure_regular
from .errors import InconsistencyError, PreconditionError, WindowError

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_PRECONDITION = 2
EXIT_WINDOW = 3

CAP_ENV = "WHCALC_MAX_DEGREE_CAP"
DEFAULT_CAP = 512

# Each flag maps to (kind, default, help).  The kind is int or str for a
# flag that takes a value, a tuple for a value from those choices, or bool
# for a switch; a flag whose default is _REQUIRED must be given.
_REQUIRED = object()
_HELP = (None, None, "show this help message and exit")
_UMBRELLA_FLAGS = {"--version": (None, None, "show the version and exit")}
_EMIT_FLAGS = {
    "--p": (int, _REQUIRED, "odd regular prime"),
    "--max-degree": (int, _REQUIRED, "top degree (inclusive)"),
    "--format": (emit.FORMATS, "json", ""),
    "--out": (str, None, "write to this file instead of stdout"),
}
_ASSUME_REGULAR = (
    bool, False, "accept a prime beyond the regularity oracle's range"
)
COMMANDS = {
    "pi-wh": (
        "p-torsion profile of the Whitehead spectrum homotopy",
        {**_EMIT_FLAGS, "--assume-regular": _ASSUME_REGULAR},
    ),
    "ahss": (
        "spectral-sequence chart pages",
        {
            **_EMIT_FLAGS,
            "--target": (emit.TARGETS, "s-cpbar", ""),
            "--page": (emit.PAGES, "einf", ""),
        },
    ),
    "cohomology": (
        "mod-p cohomology dimension report",
        {
            **_EMIT_FLAGS,
            "--piece": (emit.PIECES, "all", ""),
            "--assume-regular": _ASSUME_REGULAR,
        },
    ),
    "verify": (
        "run the oracle-equivalence suite",
        {
            "--p": (
                str, "3,5,7", "comma-separated odd primes (default 3,5,7)"
            ),
            "--deep": (bool, False, "use the large verification bounds"),
        },
    ),
}


def _flags(command: str | None) -> dict:
    """The flags of `command`, or of the umbrella command for None."""
    flags = COMMANDS[command][1] if command else _UMBRELLA_FLAGS
    return {"-h": _HELP, "--help": _HELP, **flags}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: whcalc [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    words = [f"usage: whcalc {command} [-h]"]
    for flag, (kind, default, _) in COMMANDS[command][1].items():
        if kind is not bool:
            flag += " " + _metavar(flag, kind)
        words.append(flag if default is _REQUIRED else f"[{flag}]")
    return " ".join(words)


def _metavar(flag: str, kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return _dest(flag).upper()


def _row(name: str, text: str) -> str:
    if not text:
        return f"  {name}"
    if len(name) > 20:
        return f"  {name}\n{'':24}{text}"
    return f"  {name:<20}  {text}"


def _help(command: str | None) -> str:
    lines = [_usage(command), ""]
    if command is None:
        lines += [
            "p-primary homotopy and cohomology calculator for the Whitehead "
            "spectrum of a point at odd regular primes",
            "",
            "commands:",
        ]
        lines += [_row(name, text) for name, (text, _) in COMMANDS.items()]
        lines.append("")
    lines.append("options:")
    for flag, (kind, _, text) in _flags(command).items():
        if flag == "-h":
            continue
        name = "-h, --help" if flag == "--help" else flag
        if kind not in (None, bool):
            name += " " + _metavar(flag, kind)
        lines.append(_row(name, text))
    return "\n".join(lines) + "\n"


def _usage_error(command: str | None, message: str):
    prog = "whcalc" if command is None else f"whcalc {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_PRECONDITION)


def _print_and_exit(text: str):
    try:
        _write((text,), None)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PRECONDITION) from None
    raise SystemExit(EXIT_OK)


def _match(command: str | None, token: str) -> tuple[str, str | None] | None:
    """The flag that `token` names, exactly or by a unique prefix, and the
    value after its `=` if any; None if it names no flag."""
    flags = _flags(command)
    name, eq, value = token.partition("=")
    if name not in flags and name.startswith("--"):
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            _usage_error(command, f"ambiguous option: {token} could match "
                                  + ", ".join(hits))
        name = hits[0] if hits else name
    if name not in flags:
        return None
    return name, value if eq else None


def _is_value(command: str | None, token: str) -> bool:
    """Whether `token` is read as a value rather than as a flag.  As in
    argparse, a token that starts with '-' is a flag, unless it names no
    flag and is a lone '-', a negative number or has a space in it."""
    if token[:1] != "-" or token == "-":
        return True
    if token == "--" or _match(command, token) is not None:
        return False
    whole, dot, frac = token[1:].partition(".")
    if dot:
        number = (not whole or whole.isdecimal()) and frac.isdecimal()
    else:
        number = whole.isdecimal()
    return number or " " in token


def _value(command: str, flag: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _usage_error(
                command, f"argument {flag}: invalid int value: {text!r}"
            )
    if isinstance(kind, tuple) and text not in kind:
        choices = ", ".join(map(repr, kind))
        _usage_error(command, f"argument {flag}: invalid choice: {text!r} "
                              f"(choose from {choices})")
    return text


def parse_args(argv: list[str]) -> dict:
    """The command and its flag values, keyed by flag name without the
    leading dashes (`max_degree`), defaults filled in.  Flags may be
    abbreviated to a unique prefix and given as `--flag=value`; the last
    of a repeated flag wins; `-h` prints help and `--version` the version.
    A usage error prints a usage line and the error to stderr and raises
    SystemExit(2)."""
    command = None
    args: dict = {}
    extras: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # argparse's end of flags; no command reads more
            extras += [token, *tokens]
            break
        hit = _match(command, token) if token[:1] == "-" else None
        if hit is None:
            if command is not None or not _is_value(None, token):
                extras.append(token)
                continue
            if token not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                _usage_error(None, f"argument command: invalid choice: "
                                   f"{token!r} (choose from {choices})")
            command = token
            args = {"command": command}
            for flag, (_, default, _) in COMMANDS[command][1].items():
                if default is not _REQUIRED:
                    args[_dest(flag)] = default
            continue
        flag, text = hit
        kind = _flags(command)[flag][0]
        if kind in (None, bool):  # help, version and switches take no value
            if text is not None:
                _usage_error(command, f"argument {flag}: ignored explicit "
                                      f"argument {text!r}")
            if flag == "--version":
                _print_and_exit(f"whcalc {__version__}\n")
            if kind is None:
                _print_and_exit(_help(command))
            value = True
        else:
            if text is None:
                text = next(tokens, None)
                if text is None or not _is_value(command, text):
                    _usage_error(
                        command, f"argument {flag}: expected one argument"
                    )
            value = _value(command, flag, kind, text)
        args[_dest(flag)] = value
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    missing = [
        flag for flag, (_, default, _) in COMMANDS[command][1].items()
        if default is _REQUIRED and _dest(flag) not in args
    ]
    if missing:
        _usage_error(command, "the following arguments are required: "
                              + ", ".join(missing))
    if extras:
        _usage_error(command, "unrecognized arguments: " + " ".join(extras))
    return args


def _emit_for(args: dict) -> tuple[str, dict]:
    p = OddPrime(args["p"])
    top = args["max_degree"]
    if args["command"] == "ahss":
        return emit.ahss(p, args["target"], args["page"], top)
    assume = args["assume_regular"]
    # refused here, so the message names the flag, not the library keyword
    ensure_regular(p, assume, "pass --assume-regular to override")
    if args["command"] == "pi-wh":
        return emit.pi_wh(p, top, assume_regular=assume)
    return emit.cohomology(p, top, args["piece"], assume_regular=assume)


def _chunks(fmt: str, command: str, payload: dict):
    """The payload rendered in `fmt`, as chunks of about BATCH_CHARS
    characters.  A payload kind with no renderer is refused here, before
    any byte."""
    if fmt == "json":
        return emit.envelope_chunks(command, payload)
    from . import render

    return emit.batched(render.lines(fmt, payload))


def _write(chunks, out: str | None) -> None:
    """Write the str chunks of the iterable `chunks` to stdout or to `out`,
    never holding them all.  A new or regular file (symlinks followed) is
    written beside itself and renamed into place with the old mode and
    owner, so a failed write leaves no partial file.  A device or FIFO, or
    a file whose directory or owner forbids that, is written through
    directly.  A closed or failing stdout raises OSError too."""
    if out is None:
        try:
            if sys.stdout is None:
                raise OSError("it is closed")
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            raise _stdout_error(exc) from exc
        return
    path = os.path.realpath(out)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if os.path.exists(out) and not os.path.isfile(out):
            _write_through(out, chunks)  # a device or FIFO
            return
        old = os.stat(out) if os.path.exists(out) else None
        try:
            fh = open(tmp, "w", encoding="utf-8")
        except PermissionError:  # the directory takes no file beside `out`
            _write_through(out, chunks)
            return
        with fh:
            fh.writelines(chunks)
        try:
            if old is not None:
                os.chmod(tmp, old.st_mode & 0o7777)
                os.chown(tmp, old.st_uid, old.st_gid)
            os.replace(tmp, path)
        except PermissionError:  # the owner cannot be kept: copy in place
            with open(tmp, "rb") as src, open(out, "wb") as dst:
                while chunk := src.read(1 << 16):
                    dst.write(chunk)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _stdout_error(exc: OSError) -> OSError:
    return OSError(f"cannot write stdout: {exc.strerror or exc}")


def _write_through(out: str, chunks) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _int(text: str, name: str) -> int:
    """`int(text)`, refused as a precondition naming the flag or variable."""
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"{name}: {text!r} is not an integer") from None


def _run_verify(args: dict) -> int:
    from . import verify

    listed = args["p"]
    tokens = [_int(tok, "--p") for tok in listed.split(",") if tok.strip()]
    if not tokens:
        raise PreconditionError(f"--p {listed!r} names no prime")
    primes = [OddPrime(n) for n in dict.fromkeys(tokens)]
    results = verify.run_checks(primes, deep=args["deep"])
    _write((verify.format_matrix(results) + "\n",), None)
    failed = any(r.status == verify.FAIL for r in results)
    return EXIT_INCONSISTENT if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args["command"] == "verify":
            return _run_verify(args)
        if args["out"] == "":
            raise PreconditionError("--out '' names no file")
        top = args["max_degree"]
        # refused here, so the message names the flag, not the library keyword
        if top < 0:
            raise PreconditionError(f"--max-degree must be >= 0, got {top}")
        cap = _int(os.environ.get(CAP_ENV, str(DEFAULT_CAP)), CAP_ENV)
        if top > cap:
            raise WindowError(
                f"--max-degree {top} exceeds the safety cap "
                f"{cap}; raise {CAP_ENV} to go higher"
            )
        command, payload = _emit_for(args)
        _write(_chunks(args["format"], command, payload), args["out"])
        return EXIT_OK
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except WindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except (ValueError, OSError) as exc:  # PreconditionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def _observed() -> bool:
    """Whether a tracer, profiler or debugger watches this process
    (coverage, cProfile, pdb), through the trace and profile hooks or, from
    Python 3.12, through `sys.monitoring`; or `-i` asks for a prompt after
    the call."""
    hooked = sys.gettrace() is not None or sys.getprofile() is not None
    if hooked or sys.flags.inspect:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)  # ids 0-5
    )


def run(argv: list[str] | None = None) -> int:
    """`main(argv)` as the whole process: the entry point of `python -m
    whcalc` and of every console script.  With the exit code of `main`, or
    of the SystemExit that `-h`, `--version` or a usage error raises, it
    runs the `atexit` callbacks, flushes stdout and stderr and ends the
    process by `os._exit`, skipping the interpreter's teardown: the final
    garbage collection and the unloading of every module, which frees
    nothing a process about to end needs.  A final flush of stdout that
    fails turns exit 0 into exit 2 with the usual error line.  When
    `_observed()` holds, it returns the code instead, so the process exits
    the normal way and a tracer or profiler can write its output.  Any
    other exception propagates, for the interpreter's traceback and exit
    1."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    if _observed():
        return code
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code == EXIT_OK:  # a failed emission has already said why
            print(f"error: {_stdout_error(exc)}", file=sys.stderr)
            code = EXIT_PRECONDITION
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # nowhere left to report it, as at a normal exit
        pass
    os._exit(code)


def _sub_main(name: str):
    def runner() -> int:
        return run([name, *sys.argv[1:]])

    return runner


pi_wh_main = _sub_main("pi-wh")
ahss_main = _sub_main("ahss")
cohomology_main = _sub_main("cohomology")
verify_main = _sub_main("verify")
