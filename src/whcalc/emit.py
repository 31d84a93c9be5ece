"""Payload builders and the byte-stable JSON envelope.

Every emission is {"header": ..., "payload": ...}: the header carries tool
provenance and the normalized command line, the payload carries only
mathematical content.  Serialization uses insertion order (keys are built
in ascending numeric order, and an int key, such as a degree, is written
as its decimal string), two-space indentation and a trailing newline,
so output is byte-stable across runs and suitable for golden-file
comparison.  `json_chunks` yields the bytes of `json.dumps(doc, indent=2)`
without importing `json`, whose encoder runs in pure Python at that
indent; it writes forward only, as parts of about a line.  `batched` is
the one chunker: it joins the JSON writer's parts and a renderer's lines
alike, ending each chunk at the string that brings it to BATCH_LINES
lines or BATCH_CHARS characters, so every emission is an iterator of text
chunks and the CLI never holds a whole document.  `envelope_text` joins
an envelope's chunks into one string.  Each builder imports the library
modules it runs when it is called, so a cold CLI call loads only those.
"""

from itertools import chain, repeat

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


# The newlines, and the characters, at which `batched` ends a chunk, so a
# large emission never exists whole; the size bound matters when a wide
# chart's lines, or a JSON string, run to kilobytes each.
BATCH_LINES = 64
BATCH_CHARS = 8192


class _Reiterable:
    """A JSON array whose items `form(*args)` forms afresh on each pass,
    so a payload can hold a large one (a chart's cells) without keeping
    its items, and a renderer can read it more than once."""

    __slots__ = ("_form", "_args")

    def __init__(self, form, *args):
        self._form, self._args = form, args

    def __iter__(self):
        return self._form(*self._args)


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
    """Yield the bytes of `json.dumps(value, indent=2) + "\\n"`, in the
    chunks of `batched`, for nested dicts (with str or int keys), lists,
    tuples, str, int, bool and None, and iterators and `_Reiterable` views
    (a chart's cells), which are written as lists.  Any other type, a float
    included, and any other key, a bool included, raise TypeError.  Each
    scalar is written by its type's entry in one table: a str quoted by the
    C function that `json.dumps` uses, an int (an int key as its quoted
    digits) by `int.__repr__`; a value of a subclass of those types by the
    entry of its first base in the table, as `json.dumps` writes it."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without json's C accelerator
        from json.encoder import py_encode_basestring_ascii as quote

    scalars = {
        str: quote,
        int: int.__repr__,
        bool: ("false", "true").__getitem__,
        type(None): lambda _: "null",
    }
    yield from batched(chain(_json_parts(value, scalars, "", ""), ("\n",)))


def _json_parts(value, scalars: dict, pad: str, head: str):
    """Yield the parts of `value` at indent `pad`, the first opened by
    `head` (a separator and quoted key, or nothing).  Each item's part
    starts with its own separator ("\\n" and the indent, after a comma
    for all but the first), so no part is ever revised, and an empty
    container closes on its opening part.  An item that is a dict of
    scalars and lists of str is one part, written whole by
    `_flat_dict_text` (a chart cell, say)."""
    if isinstance(value, dict):
        brackets = "{}"
        keys = map(scalars[str], map(_json_key, value))
        pairs = zip(map("{}: ".format, keys), value.values())
    elif (isinstance(value, (list, tuple, _Reiterable))
          or hasattr(value, "__next__")):
        brackets = "[]"
        pairs = zip(repeat(""), value)
    else:
        yield head + _json_scalar(value, scalars)
        return
    yield head + brackets[0]
    inner = pad + "  "
    sep = first = "\n" + inner
    rest = "," + first
    for key, item in pairs:
        write = scalars.get(type(item))
        if write is not None:
            yield f"{sep}{key}{write(item)}"
        elif type(item) is dict and (
            text := _flat_dict_text(item, scalars, inner, sep + key)
        ) is not None:
            yield text
        else:
            yield from _json_parts(item, scalars, inner, sep + key)
        sep = rest
    yield brackets[1] if sep is first else f"\n{pad}{brackets[1]}"


def _flat_dict_text(value: dict, scalars: dict, pad: str,
                    head: str) -> str | None:
    """The text of a dict at indent `pad` whose values are all scalars of
    an exact type in `scalars` or lists of str, opened by `head`, as one
    part of at most BATCH_LINES lines, written with no recursion; None for
    any other dict."""
    if len(value) >= BATCH_LINES:
        return None
    quote = scalars[str]
    inner = pad + "  "
    sep = ",\n" + inner
    opened, rest, closed = f"[\n{inner}  ", f"{sep}  ", f"\n{inner}]"
    items = []
    for key, item in value.items():
        write = scalars.get(type(item))
        if write is not None:
            text = write(item)
        elif type(item) is list:
            try:  # quote refuses anything but a str
                text = (
                    opened + rest.join(map(quote, item)) + closed
                    if item else "[]"
                )
            except TypeError:
                return None
        else:
            return None
        if type(key) is not str:
            key = _json_key(key)
        items.append(f"{quote(key)}: {text}")
    if not items:
        return head + "{}"
    text = f"{head}{{\n{inner}" + sep.join(items) + f"\n{pad}}}"
    return text if text.count("\n") <= BATCH_LINES else None


def batched(parts):
    """Yield the strings of `parts` (a renderer's lines, or the JSON
    writer's parts) joined in chunks, each ended by the string that brings
    it to BATCH_LINES newlines or to BATCH_CHARS characters, whichever
    comes first."""
    chunk: list[str] = []
    size = lines = 0
    for part in parts:
        chunk.append(part)
        size += len(part)
        lines += part.count("\n")
        if lines >= BATCH_LINES or size >= BATCH_CHARS:
            yield "".join(chunk)
            chunk.clear()
            size = lines = 0
    if chunk:
        yield "".join(chunk)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, int) and not isinstance(key, bool):
        return int.__repr__(key)
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


def _json_scalar(value, scalars: dict) -> str:
    """The text of `value` by the first entry of `scalars` along its
    type's MRO, so an int or str subclass is written as its base."""
    for kind in type(value).__mro__:
        if kind in scalars:
            return scalars[kind](value)
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
