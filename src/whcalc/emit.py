"""Payload builders and the byte-stable JSON envelope.

Every emission is {"header": ..., "payload": ...}: the header carries tool
provenance and the normalized command line, the payload carries only
mathematical content.  Serialization uses insertion order (keys are built
in ascending numeric order, and an int key, such as a degree, is written
as its decimal string), two-space indentation and a trailing newline,
so output is byte-stable across runs and suitable for golden-file
comparison.  `json_chunks` yields the bytes of `json.dumps(doc, indent=2)`
without importing `json`, whose encoder runs in pure Python at that
indent; it writes forward only, in chunks of BATCH_LINES parts of about
a line each, and `batched` joins a renderer's lines into chunks of the
same size; so every emission is an iterator of text chunks and the CLI
never holds a whole document.
`envelope_text` joins an envelope's chunks into one string.  Each builder
imports the library modules it runs when it is called, so a cold CLI call
loads only those.
"""

from __future__ import annotations

from itertools import islice, repeat

from ._version import __version__
from .arith import OddPrime
from .errors import PreconditionError

FORMATS = ("json", "csv", "ascii-chart", "svg-chart")
# The `whcohomology` piece groups, between "all" and "total", and the
# `ahss.ChartTarget` values, written out so that building the CLI's choices
# imports neither the Steenrod code nor the chart engine.
PIECES = ("all", "sigma-c", "hp", "coker", "ker", "total")
TARGETS = ("j-cp", "s-cp", "s-cpbar")
PAGES = ("e2", "einf")


# Lines (parts of about a line, in the JSON writer) the writers hold before
# yielding them as one chunk, so a large emission never exists whole.
BATCH_LINES = 64


def envelope_chunks(command: str, payload: dict):
    return json_chunks({
        "header": {
            "format": "whcalc.v1",
            "tool": "whcalc",
            "version": __version__,
            "command": command,
        },
        "payload": payload,
    })


def envelope_text(command: str, payload: dict) -> str:
    return "".join(envelope_chunks(command, payload))


def json_chunks(value):
    """Yield the bytes of `json.dumps(value, indent=2) + "\\n"`, in chunks
    of about BATCH_LINES lines, for nested dicts (with str or int keys),
    lists, tuples, str, int, bool and None, and iterators, which are
    written as lists (a chart's cells come as a generator).  Any other
    type, a float included, and any other key, a bool included, raise
    TypeError.  Strings are quoted by the C function that `json.dumps`
    uses, ints (an int key as its quoted digits) written by
    `int.__repr__`."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without json's C accelerator
        from json.encoder import py_encode_basestring_ascii as quote

    parts: list[str] = []
    yield from _json_parts(value, quote, "", "", parts)
    yield "".join(parts) + "\n"


def _json_parts(value, quote, pad: str, head: str, parts: list[str]):
    """Append the parts of `value` at indent `pad`, the first opened by
    `head` (a separator and quoted key, or nothing).  Each item's part
    starts with its own separator ("\\n" and the indent, after a comma
    for all but the first), so no held part is ever revised, and an empty
    container closes on its opening part.  Whenever BATCH_LINES parts are
    held, they are yielded joined as one chunk."""
    if isinstance(value, dict):
        brackets = "{}"
        pairs = zip(map("{}: ".format, map(quote, map(_json_key, value))),
                    value.values())
    elif isinstance(value, (list, tuple)) or hasattr(value, "__next__"):
        brackets = "[]"
        pairs = zip(repeat(""), value)
    else:
        parts.append(head + _json_scalar(value, quote))
        return
    parts.append(head + brackets[0])
    inner = pad + "  "
    sep = first = "\n" + inner
    rest = "," + first
    for key, item in pairs:
        kind = type(item)
        if kind is str:
            parts.append(f"{sep}{key}{quote(item)}")
        elif kind is int:
            parts.append(f"{sep}{key}{int.__repr__(item)}")
        elif kind is bool:
            parts.append(f"{sep}{key}{'true' if item else 'false'}")
        elif item is None:
            parts.append(f"{sep}{key}null")
        else:
            yield from _json_parts(item, quote, inner, sep + key, parts)
        sep = rest
        if len(parts) >= BATCH_LINES:
            yield "".join(parts)
            parts.clear()
    parts.append(brackets[1] if sep is first else f"\n{pad}{brackets[1]}")


def batched(lines):
    """Yield the strings of `lines` (each ending in a newline) joined in
    chunks of BATCH_LINES."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, BATCH_LINES)):
        yield chunk


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
    if target not in TARGETS:
        raise PreconditionError(f"unknown target {target!r}")
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
    from .whcohomology import h_wh_report

    command = f"cohomology --p {p.p} --max-degree {max_degree} --piece {piece}"
    if assume_regular:
        command += " --assume-regular"
    return command, h_wh_report(
        p, max_degree, piece=piece, assume_regular=assume_regular
    )
