"""Command-line front end.

One umbrella command with four subcommands (pi-wh, ahss, cohomology,
verify), each also installed as a standalone script.  Exit codes are part
of the contract: 0 success, 1 internal inconsistency (an oracle
disagreed), 2 precondition failure (bad flags, irregular prime) or I/O
failure, 3 window or range violation.  JSON output is byte-stable for
fixed flags; csv, ascii-chart and svg-chart are pure projections of the
same payload.  Each call is a cold process, so `render` and `verify` are
imported only on the paths that use them.
"""

from __future__ import annotations

import argparse
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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="odd regular prime")
    sp.add_argument(
        "--max-degree", type=int, required=True, help="top degree (inclusive)"
    )
    sp.add_argument("--format", choices=emit.FORMATS, default="json")
    sp.add_argument("--out", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whcalc",
        description=(
            "p-primary homotopy and cohomology calculator for the "
            "Whitehead spectrum of a point at odd regular primes"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"whcalc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pi = sub.add_parser(
        "pi-wh", help="p-torsion profile of the Whitehead spectrum homotopy"
    )
    _add_common(pi)
    pi.add_argument(
        "--assume-regular",
        action="store_true",
        help="accept a prime beyond the regularity oracle's range",
    )

    ah = sub.add_parser("ahss", help="spectral-sequence chart pages")
    _add_common(ah)
    ah.add_argument("--target", choices=emit.TARGETS, default="s-cpbar")
    ah.add_argument("--page", choices=emit.PAGES, default="einf")

    co = sub.add_parser(
        "cohomology", help="mod-p cohomology dimension report"
    )
    _add_common(co)
    co.add_argument("--piece", choices=emit.PIECES, default="all")
    co.add_argument("--assume-regular", action="store_true")

    ve = sub.add_parser("verify", help="run the oracle-equivalence suite")
    ve.add_argument(
        "--p", default="3,5,7", help="comma-separated odd primes (default 3,5,7)"
    )
    ve.add_argument(
        "--deep", action="store_true", help="use the large verification bounds"
    )
    return parser


def _emit_for(args: argparse.Namespace) -> tuple[str, dict]:
    p = OddPrime(args.p)
    if args.command == "ahss":
        return emit.ahss(p, args.target, args.page, args.max_degree)
    # refused here, so the message names the flag, not the library keyword
    ensure_regular(p, args.assume_regular, "pass --assume-regular to override")
    if args.command == "pi-wh":
        return emit.pi_wh(
            p, args.max_degree, assume_regular=args.assume_regular
        )
    return emit.cohomology(
        p, args.max_degree, args.piece, assume_regular=args.assume_regular
    )


def _render(fmt: str, command: str, payload: dict) -> str:
    if fmt == "json":
        return emit.envelope_text(command, payload)
    from . import render

    if fmt == "csv":
        return render.to_csv(payload)
    if fmt == "ascii-chart":
        return render.to_ascii(payload)
    return render.to_svg(payload)


def _write(text: str, out: str | None) -> None:
    """Write to stdout or to `out`.  A new or regular file (symlinks
    followed) is written beside itself and renamed into place with the old
    mode and owner, so a failed write leaves no partial file.  A device or
    FIFO, or a file whose directory or owner forbids that, is written
    through directly."""
    if not out:
        sys.stdout.write(text)
        return
    path = os.path.realpath(out)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        regular = not os.path.exists(out) or os.path.isfile(out)
        try:
            if regular:
                old = os.stat(out) if os.path.exists(out) else None
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                if old is not None:
                    os.chmod(tmp, old.st_mode & 0o7777)
                    os.chown(tmp, old.st_uid, old.st_gid)
                os.replace(tmp, path)
        except PermissionError:
            regular = False
        if not regular:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _int(text: str, name: str) -> int:
    """`int(text)`, refused as a precondition naming the flag or variable."""
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"{name}: {text!r} is not an integer") from None


def _run_verify(args: argparse.Namespace) -> int:
    from . import verify

    tokens = [_int(tok, "--p") for tok in args.p.split(",") if tok.strip()]
    if not tokens:
        raise PreconditionError(f"--p {args.p!r} names no prime")
    primes = [OddPrime(n) for n in dict.fromkeys(tokens)]
    results = verify.run_checks(primes, deep=args.deep)
    sys.stdout.write(verify.format_matrix(results) + "\n")
    failed = any(r.status == verify.FAIL for r in results)
    return EXIT_INCONSISTENT if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        cap = _int(os.environ.get(CAP_ENV, str(DEFAULT_CAP)), CAP_ENV)
        if args.max_degree > cap:
            raise WindowError(
                f"--max-degree {args.max_degree} exceeds the safety cap "
                f"{cap}; raise {CAP_ENV} to go higher"
            )
        command, payload = _emit_for(args)
        _write(_render(args.format, command, payload), args.out)
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


def _sub_main(name: str):
    def runner() -> int:
        return main([name, *sys.argv[1:]])

    return runner


pi_wh_main = _sub_main("pi-wh")
ahss_main = _sub_main("ahss")
cohomology_main = _sub_main("cohomology")
verify_main = _sub_main("verify")
