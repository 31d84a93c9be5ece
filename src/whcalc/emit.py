"""Payload builders and the byte-stable JSON envelope.

Every emission is {"header": ..., "payload": ...}: the header carries tool
provenance and the normalized command line, the payload carries only
mathematical content.  Serialization uses insertion order (keys are built
in ascending numeric order, and an int key, such as a degree, is written
as its decimal string), two-space indentation and a trailing newline,
so output is byte-stable across runs and suitable for golden-file
comparison.  `json_chunks` yields the bytes of `json.dumps(doc, indent=2)`
without importing `json`, whose encoder runs in pure Python at that
indent; it writes forward only, as parts of about a line, which the CLI
hands to the stream as they are formed, so it never holds a whole
document.  `envelope_text` joins an envelope's parts into one string.
Each builder imports the library modules it runs when it is called, so a
cold CLI call loads only those.
"""

from itertools import chain, repeat

from . import __version__
from .arith import OddPrime
from .errors import PreconditionError

FORMATS = ("json", "csv", "ascii-chart", "svg-chart")
# The `whcohomology` piece groups, between "all" and "total", and the chart
# targets, written out so that building the CLI's choices imports neither
# the Steenrod code nor the chart engine.  TARGETS is the one spelling of a
# chart target: the chart engine reads these strings as J_OF_CP, S_OF_CP
# and S_OF_CPBAR.
PIECES = ("all", "sigma-c", "hp", "coker", "ker", "total")
TARGETS = ("j-cp", "s-cp", "s-cpbar")
PAGES = ("e2", "einf")


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
    """The bytes of `json.dumps(value, indent=2) + "\\n"`, as an iterator
    of the writer's parts, for nested dicts (with str or int keys), lists,
    tuples, str, int, bool and None, and `_Reiterable` views (a chart's
    cells), which are written as lists.  Each scalar is written
    by its exact type's entry in one table: a str quoted by the C function
    that `json.dumps` uses, an int (an int key as its quoted digits) by
    `int.__repr__`.  Any other scalar type, a float or a subclass of an
    entry's type (an `IntEnum` member, say) included, and any other key, a
    bool or an int or str subclass included, raise TypeError."""
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
    return chain(_json_parts(value, scalars, "", ""), ("\n",))


def _json_parts(value, scalars: dict, pad: str, head: str):
    """Yield the parts of `value` at indent `pad`, the first opened by
    `head` (a separator and quoted key, or nothing).  Each item's part
    starts with its own separator ("\\n" and the indent, after a comma
    for all but the first), so no part is ever revised, and an empty
    container closes on its opening part.  An item that is a dict of
    scalars and lists of str is one part, written whole by
    `_flat_dict_text` (a chart cell, or a report's dims)."""
    if isinstance(value, dict):
        brackets = "{}"
        keys = map(scalars[str], map(_json_key, value))
        pairs = zip(map("{}: ".format, keys), value.values())
    elif isinstance(value, (list, tuple, _Reiterable)):
        brackets = "[]"
        pairs = zip(repeat(""), value)
    else:
        write = scalars.get(type(value))
        if write is None:
            name = type(value).__name__
            raise TypeError(f"Object of type {name} is not JSON serializable")
        yield head + write(value)
        return
    yield head + brackets[0]
    inner = pad + "  "
    sep = first = "\n" + inner
    rest = "," + first
    for key, item in pairs:
        if type(item) is dict and (
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
    an exact type in `scalars` or lists of exact str, opened by `head`, as
    one part, whatever its length, written with no recursion; None for any
    other dict, which the general path writes or refuses."""
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
            for entry in item:
                if type(entry) is not str:
                    return None
            text = (
                opened + rest.join(map(quote, item)) + closed
                if item else "[]"
            )
        else:
            return None
        if type(key) is not str:
            key = _json_key(key)
        items.append(f"{quote(key)}: {text}")
    if not items:
        return head + "{}"
    return f"{head}{{\n{inner}" + sep.join(items) + f"\n{pad}}}"


def _json_key(key) -> str:
    if type(key) is str:
        return key
    if type(key) is int:
        return int.__repr__(key)
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


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
    from .ahss import build_e2, page_payload, run_differentials

    if page not in PAGES:
        raise PreconditionError(f"unknown page {page!r}")
    command = (
        f"ahss --p {p.p} --target {target} --page {page} "
        f"--max-degree {max_degree}"
    )
    chart = build_e2(p, target, max_degree)
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
