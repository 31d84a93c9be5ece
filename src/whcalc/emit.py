"""Payload builders and the byte-stable JSON envelope.

Every emission is {"header": ..., "payload": ...}: the header carries tool
provenance and the normalized command line, the payload carries only
mathematical content.  Serialization uses insertion order (keys are built
in ascending numeric order, and an int key, such as a degree, is written
as its decimal string), two-space indentation and a trailing newline,
so output is byte-stable across runs and suitable for golden-file
comparison.  `write_json` writes the bytes of `json.dumps(doc, indent=2)`
without importing `json`, whose encoder runs in pure Python at that
indent, and hands them on in batches of lines as it goes, so the CLI
never holds a whole document; `json_text` collects them into one string.
Each builder imports the library modules it runs when it is called, so a
cold CLI call loads only those.
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


# Lines the writers hold before handing them on to `write`, so a large
# emission never exists whole in memory.
BATCH_LINES = 64


def _envelope(command: str, payload: dict) -> dict:
    return {
        "header": {
            "format": "whcalc.v1",
            "tool": "whcalc",
            "version": __version__,
            "command": command,
        },
        "payload": payload,
    }


def write_envelope(command: str, payload: dict, write) -> None:
    write_json(_envelope(command, payload), write)


def envelope_text(command: str, payload: dict) -> str:
    return json_text(_envelope(command, payload))


def json_text(value) -> str:
    """The bytes of `json.dumps(value, indent=2) + "\\n"`; see `write_json`."""
    chunks: list[str] = []
    write_json(value, chunks.append)
    return "".join(chunks)


def write_json(value, write) -> None:
    """Hand `write` the bytes of `json.dumps(value, indent=2) + "\\n"`, in
    chunks of about BATCH_LINES lines, for nested dicts (with str or int
    keys), lists, tuples, str, int, bool and None, and iterators, which
    are written as lists (a chart's cells come as a generator).  Any other
    type, a float included, and any other key, a bool included, raise
    TypeError.  Strings are quoted by the C function that `json.dumps`
    uses, ints (an int key as its quoted digits) written by
    `int.__repr__`."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without json's C accelerator
        from json.encoder import py_encode_basestring_ascii as quote

    lines: list[str] = []
    _json_lines(value, quote, "", "", lines, write, BATCH_LINES)
    lines[-1] = lines[-1][:-1]
    lines.append("")
    write("\n".join(lines))


def _json_lines(
    value, quote, pad: str, head: str, lines: list[str], write, batch: int
) -> None:
    """Append the lines of `value` at indent `pad`: the first opened by
    `head` (a quoted key and ": ", or nothing), the last closed by a comma.
    One string per line keeps a large document's pieces few.  Whenever
    more than `batch` lines are held, all but the last go to `write`; the
    last stays, as a closing bracket may still drop its comma."""
    if isinstance(value, dict):
        brackets = "{}"
    elif isinstance(value, (list, tuple)) or hasattr(value, "__next__"):
        brackets = "[]"
    else:
        lines.append(f"{pad}{head}{_json_scalar(value, quote)},")
        return
    if not value:  # an iterator is true even when empty; see below
        lines.append(f"{pad}{head}{brackets},")
        return
    lines.append(f"{pad}{head}{brackets[0]}")
    if brackets == "{}":
        pairs = zip(map("{}: ".format, map(quote, map(_json_key, value))),
                    value.values())
    else:
        pairs = zip(repeat(""), value)
    inner = pad + "  "
    key = None
    for key, item in pairs:
        kind = type(item)
        if kind is str:
            lines.append(f"{inner}{key}{quote(item)},")
        elif kind is int:
            lines.append(f"{inner}{key}{int.__repr__(item)},")
        elif kind is bool:
            lines.append(f"{inner}{key}{'true' if item else 'false'},")
        elif item is None:
            lines.append(f"{inner}{key}null,")
        else:
            _json_lines(item, quote, inner, key, lines, write, batch)
        if len(lines) > batch:
            last = lines[-1]
            lines[-1] = ""
            write("\n".join(lines))
            lines[:] = (last,)
    if key is None:  # an empty iterator: its opening line is still held
        lines[-1] = f"{pad}{head}{brackets},"
    else:
        lines[-1] = lines[-1][:-1]
        lines.append(f"{pad}{brackets[1]},")


def write_lines(lines, write) -> None:
    """Hand `write` the strings of `lines` (each ending in a newline)
    joined in batches of BATCH_LINES."""
    batch: list[str] = []
    for line in lines:
        batch.append(line)
        if len(batch) >= BATCH_LINES:
            write("".join(batch))
            batch.clear()
    if batch:
        write("".join(batch))


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
