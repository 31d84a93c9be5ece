"""Plain-text and SVG projections of the serialized payloads.

Every renderer is a pure function of the payload dictionary (the
"payload" member of the CLI envelope), and reads a degree key the same
whether it is an int, as the library returns it, or its decimal string,
as JSON holds it; so re-parsing emitted JSON and re-rendering reproduces
the other formats byte for byte.  Each renderer is a generator of lines,
so the CLI writes them as they are formed.  No renderer keeps
a chart's cells: CSV writes each as it comes, and the ASCII and SVG
charts read them twice, once for the grid's bounds and once to draw.
SVG output is static SVG 1.1 with integer coordinates only.
"""

from sys import intern

from .errors import PreconditionError


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _text(x: int, y: int, body, size: int = 10) -> str:
    """An SVG text label at (x, y), with no newline."""
    return (
        f'<text x="{x}" y="{y}" font-family="monospace" '
        f'font-size="{size}">{body}</text>'
    )


def _profile_csv(payload: dict):
    yield "degree,valuation,generators\n"
    for e in payload["entries"]:
        yield f"{e['degree']},{e['valuation']},{'|'.join(e['generators'])}\n"


def _chart_csv(payload: dict):
    yield "s,t,labels,valuation,aggregate_only\n"
    for c in payload["cells"]:
        yield (
            f"{c['s']},{c['t']},{'|'.join(c['labels'])},"
            f"{c['valuation']},{str(c['aggregate_only']).lower()}\n"
        )


def _report_rows(payload: dict):
    """A report's (name, dims) rows: its pieces, then its total, if any."""
    yield from payload["pieces"].items()
    if "total" in payload:
        yield "total", payload["total"]


def _report_csv(payload: dict):
    yield "piece,degree,dim\n"
    for name, dims in _report_rows(payload):
        for d in dims:
            yield f"{name},{d},{dims[d]}\n"


def _comments(payload: dict, key: str, tag: str):
    """The `# tag: ...` line of each string in `payload[key]`, if any."""
    for text in payload.get(key, ()):
        yield f"# {tag}: {text}\n"


def _profile_ascii(payload: dict):
    yield (
        f"# p-torsion profile, p={payload['p']}, "
        f"degrees 1..{payload['max_degree']}\n"
    )
    yield from _comments(payload, "assumptions", "assumes")
    if payload["entries"]:
        width = max(len(str(e["degree"])) for e in payload["entries"])
        for e in payload["entries"]:
            gens = f"  [{', '.join(e['generators'])}]" if e["generators"] else ""
            yield f"degree {e['degree']:>{width}}: valuation {e['valuation']}{gens}\n"
    else:
        yield "(no torsion)\n"
    yield from _comments(payload, "annotations", "note")


def _chart_bounds(cells):
    """The grid's bounds (smin, smax, tmax) over `cells`, or None when
    there are none.  `cells` is a list or a chart's view, which the
    caller reads again to draw."""
    first = next(iter(cells), None)
    if first is None:
        return None
    smin = smax = first["s"]
    tmax = first["t"]
    for c in cells:
        s = c["s"]
        if s < smin:
            smin = s
        elif s > smax:
            smax = s
        if c["t"] > tmax:
            tmax = c["t"]
    return smin, smax, tmax


def _chart_ascii(payload: dict):
    yield (
        f"# chart {payload['target']} page {payload['page_label']} p={payload['p']}"
        f" (total degrees <= {payload['max_total_degree']})\n"
    )
    yield (
        "# cell marks: Z = integral class, digit = torsion valuation,"
        " ~ = aggregate-only\n"
    )
    cells = payload["cells"]
    bounds = _chart_bounds(cells)
    if bounds is None:
        yield "(empty)\n"
        return
    smin, smax, tmax = bounds
    columns = range(smin, smax + 1, 2)  # columns step by 2 in s
    # The rows come out by t and the cells by column, so the marks are
    # kept, one list per row that has cells, one interned mark per column;
    # a cell off the columns' parity is not drawn.
    rows: dict[int, list[str]] = {}
    for c in cells:
        offset, t = c["s"] - smin, c["t"]
        if offset % 2:
            continue
        if t == 0:
            mark = " Z "
        else:
            mark = intern(
                f"{c['valuation']:>2}{'~' if c['aggregate_only'] else ' '}"
            )
        row = rows.get(t)
        if row is None:
            row = rows[t] = [" . "] * len(columns)
        row[offset // 2] = mark
    twidth = len(str(tmax))
    blank = " . " * len(columns)
    for t in range(tmax, -1, -1):
        row = rows.get(t)
        body = "".join(row) if row else blank
        yield f"t={t:>{twidth}} |{body}\n"
    pad = " " * (twidth + 4)
    yield pad + "".join(f"{s:>3}" for s in columns) + "\n"
    yield pad + "(s)\n"


def _report_ascii(payload: dict):
    yield (
        f"# cohomology report, p={payload['p']}, "
        f"degrees 0..{payload['max_degree']}\n"
    )
    yield from _comments(payload, "assumptions", "assumes")
    for name, dims in _report_rows(payload):
        body = ", ".join(f"{d}:{v}" for d, v in dims.items()) or "0"
        yield f"{name}: {body}\n"
    yield from _comments(payload, "annotations", "note")


_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)

_HATCH_DEF = (
    '<defs><pattern id="hatch" width="6" height="6" '
    'patternUnits="userSpaceOnUse">'
    '<path d="M0 6 L6 0" stroke="#888" stroke-width="1"/>'
    "</pattern></defs>\n"
)


def _profile_svg(payload: dict):
    entries = payload["entries"]
    max_degree = payload["max_degree"]
    max_val = max((e["valuation"] for e in entries), default=1)
    cell, base, left = 14, 30, 40
    w = left + cell * (max_degree + 2)
    h = base + 20 * max_val + 30
    yield _SVG_HEAD.format(w=w, h=h)
    yield _text(left, 16, f"p-torsion valuations, p={payload['p']}", 12) + "\n"
    axis_y = h - base
    yield (
        f'<line x1="{left}" y1="{axis_y}" x2="{w - 10}" y2="{axis_y}" '
        'stroke="#000" stroke-width="1"/>\n'
    )
    for e in entries:
        x = left + cell * e["degree"]
        bh = 20 * e["valuation"]
        yield (
            f'<rect x="{x}" y="{axis_y - bh}" width="{cell - 4}" height="{bh}" '
            'fill="#4a7" stroke="#000" stroke-width="1"/>\n'
        )
        yield _text(x, axis_y - bh - 4, e["valuation"]) + "\n"
    for d in range(0, max_degree + 1, 5):
        yield _text(left + cell * d, axis_y + 14, d) + "\n"
    yield "</svg>\n"


def _chart_svg(payload: dict):
    # one pass over the cells sizes the canvas, a second draws them
    cells = payload["cells"]
    smin, smax, tmax = _chart_bounds(cells) or (0, 0, 0)
    cell, left, top = 26, 50, 30
    cols = (smax - smin) // 2 + 1
    w = left + cell * cols + 20
    h = top + cell * (tmax + 1) + 40
    yield _SVG_HEAD.format(w=w, h=h)
    yield _HATCH_DEF
    heading = (
        f"{_esc(payload['target'])} {payload['page_label']} p={payload['p']}"
    )
    yield _text(10, 18, heading, 12) + "\n"
    for c in cells:
        t = c["t"]
        if t == 0:
            fill, mark = "#ddd", "Z"
        else:
            fill = "url(#hatch)" if c["aggregate_only"] else "#fff"
            mark = c["valuation"]
        x = left + cell * ((c["s"] - smin) // 2)
        y = top + cell * (tmax - t)
        yield (
            f'<g><rect x="{x}" y="{y}" width="{cell - 2}" height="{cell - 2}" '
            f'fill="{fill}" stroke="#000" stroke-width="1">'
            f'<title>{_esc(", ".join(c["labels"]))}</title></rect>'
            f"{_text(x + 6, y + 17, mark, 12)}</g>\n"
        )
    for col in range(cols):
        yield _text(left + cell * col, h - 14, smin + 2 * col) + "\n"
    for t in range(tmax + 1):
        yield _text(10, top + cell * (tmax - t) + 17, t) + "\n"
    yield "</svg>\n"


def _report_svg(payload: dict):
    rows = list(_report_rows(payload))
    max_degree = payload["max_degree"]
    cell, left, top = 18, 260, 30
    w = left + cell * (max_degree + 1) + 20
    h = top + 20 * len(rows) + 40
    yield _SVG_HEAD.format(w=w, h=h)
    yield _text(10, 18, f"cohomology dims, p={payload['p']}", 12) + "\n"
    for row, (name, dims) in enumerate(rows):
        y = top + 20 * row + 14
        yield _text(10, y, _esc(name)) + "\n"
        for d, v in dims.items():
            yield _text(left + cell * int(d), y, v) + "\n"
    for d in range(0, max_degree + 1, 5):
        yield _text(left + cell * d, h - 16, d) + "\n"
    yield "</svg>\n"


# Each format's renderer for each payload kind, and the format's short name.
_RENDERERS = {
    "csv": {
        "torsion-profile": _profile_csv,
        "ahss-chart": _chart_csv,
        "cohomology-report": _report_csv,
    },
    "ascii-chart": {
        "torsion-profile": _profile_ascii,
        "ahss-chart": _chart_ascii,
        "cohomology-report": _report_ascii,
    },
    "svg-chart": {
        "torsion-profile": _profile_svg,
        "ahss-chart": _chart_svg,
        "cohomology-report": _report_svg,
    },
}


def lines(fmt: str, payload: dict):
    """The text of `payload` in format `fmt` ("csv", "ascii-chart" or
    "svg-chart"), as a generator of pieces that each end a line.  A
    chart's cells stream through every format: CSV writes each as it
    comes, and the ASCII and SVG charts read the cells once for the grid's
    bounds and again to draw, keeping only the ASCII chart's marks.  An
    unknown format, or a payload kind with no renderer, is refused here,
    before any line is formed."""
    by_kind = _RENDERERS.get(fmt)
    if by_kind is None:
        raise PreconditionError(f"unknown format {fmt!r}")
    kind = payload.get("kind")
    if kind not in by_kind:
        name = fmt.partition("-")[0]
        raise PreconditionError(f"no {name} renderer for payload kind {kind!r}")
    return by_kind[kind](payload)


def to_csv(payload: dict) -> str:
    return "".join(lines("csv", payload))


def to_ascii(payload: dict) -> str:
    return "".join(lines("ascii-chart", payload))


def to_svg(payload: dict) -> str:
    return "".join(lines("svg-chart", payload))
