"""Payload builders and the byte-stable JSON envelope.

Every emission is {"header": ..., "payload": ...}: the header carries tool
provenance and the normalized command line, the payload carries only
mathematical content.  Serialization uses insertion order (keys are built
in ascending numeric order, and an int key, such as a degree, is written
as its decimal string), two-space indentation and a trailing newline,
so output is byte-stable across runs and suitable for golden-file
comparison.  `json_text` writes the bytes of `json.dumps(doc, indent=2)`
without importing `json`, whose encoder runs in pure Python at that
indent.  Each builder imports the library modules it runs when it is
called, so a cold CLI call loads only those.
"""

from __future__ import annotations

from itertools import repeat

from ._version import __version__
from .arith import OddPrime
from .errors import PreconditionError

FORMATS = ("json", "csv", "ascii-chart", "svg-chart")
PIECES = ("all", "sigma-c", "hp", "coker", "ker", "total")
# The `ahss.ChartTarget` values, written out so that building the CLI's
# choices does not import the chart engine.
TARGETS = ("j-cp", "s-cp", "s-cpbar")
PAGES = ("e2", "einf")


def envelope_text(command: str, payload: dict) -> str:
    doc = {
        "header": {
            "format": "whcalc.v1",
            "tool": "whcalc",
            "version": __version__,
            "command": command,
        },
        "payload": payload,
    }
    return json_text(doc)


def json_text(value) -> str:
    """The bytes of `json.dumps(value, indent=2) + "\\n"` for nested dicts
    (with str or int keys), lists, tuples, str, int, bool and None; any
    other type, a float included, and any other key, a bool included,
    raise TypeError.  Strings are quoted by the C function that
    `json.dumps` uses, ints (an int key as its quoted digits) written by
    `int.__repr__`."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without json's C accelerator
        from json.encoder import py_encode_basestring_ascii as quote

    lines: list[str] = []
    _json_lines(value, quote, "", "", lines)
    lines[-1] = lines[-1][:-1]
    lines.append("")
    return "\n".join(lines)


def _json_lines(value, quote, pad: str, head: str, lines: list[str]) -> None:
    """Append the lines of `value` at indent `pad`: the first opened by
    `head` (a quoted key and ": ", or nothing), the last closed by a comma.
    One string per line keeps a large document's pieces few."""
    if isinstance(value, dict):
        brackets, sep = "{}", ": "
        pairs = zip(map(quote, map(_json_key, value)), value.values())
    elif isinstance(value, (list, tuple)):
        brackets, sep = "[]", ""
        pairs = zip(repeat(""), value)
    else:
        lines.append(f"{pad}{head}{_json_scalar(value, quote)},")
        return
    if not value:
        lines.append(f"{pad}{head}{brackets},")
        return
    lines.append(f"{pad}{head}{brackets[0]}")
    inner = pad + "  "
    for key, item in pairs:
        _json_lines(item, quote, inner, key + sep, lines)
    lines[-1] = lines[-1][:-1]
    lines.append(f"{pad}{brackets[1]},")


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, int) and not isinstance(key, bool):
        return int.__repr__(key)
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


def _json_scalar(value, quote) -> str:
    if isinstance(value, str):
        return quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def pi_wh(
    p: OddPrime, max_degree: int, *, assume_regular: bool = False
) -> tuple[str, dict]:
    from .torsion import wh_torsion_profile

    command = f"pi-wh --p {p.p} --max-degree {max_degree}"
    if assume_regular:
        command += " --assume-regular"
    return command, wh_torsion_profile(
        p, max_degree, assume_regular=assume_regular
    )


def ahss(
    p: OddPrime, target: str, page: str, max_degree: int
) -> tuple[str, dict]:
    from .ahss import ChartTarget, build_e2, page_payload, run_differentials

    if page not in PAGES:
        raise PreconditionError(f"unknown page {page!r}")
    command = (
        f"ahss --p {p.p} --target {target} --page {page} "
        f"--max-degree {max_degree}"
    )
    chart = build_e2(p, ChartTarget(target), max_degree)
    if page == "einf":
        chart = run_differentials(chart)
    return command, page_payload(chart)


def cohomology(
    p: OddPrime, max_degree: int, piece: str = "all", *,
    assume_regular: bool = False,
) -> tuple[str, dict]:
    from .whcohomology import h_wh_report, piece_names

    if piece not in PIECES:
        raise PreconditionError(f"unknown piece {piece!r}")
    command = f"cohomology --p {p.p} --max-degree {max_degree} --piece {piece}"
    if assume_regular:
        command += " --assume-regular"
    payload = h_wh_report(p, max_degree, assume_regular=assume_regular)
    if piece == "total":
        payload["pieces"] = {}
    elif piece != "all":
        payload["pieces"] = {
            name: payload["pieces"][name] for name in piece_names(p, piece)
        }
        del payload["total"]
    return command, payload
