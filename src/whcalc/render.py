"""Plain-text and SVG projections of the serialized payloads.

Every renderer is a pure function of the payload dictionary (the
"payload" member of the CLI envelope), and reads a degree key the same
whether it is an int, as the library returns it, or its decimal string,
as JSON holds it; so re-parsing emitted JSON and re-rendering reproduces
the other formats byte for byte.  SVG output is static SVG 1.1 with
integer coordinates only.
"""

from __future__ import annotations

from .errors import PreconditionError


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def to_csv(payload: dict) -> str:
    kind = payload.get("kind")
    if kind == "torsion-profile":
        lines = ["degree,valuation,generators"]
        for e in payload["entries"]:
            lines.append(
                f"{e['degree']},{e['valuation']},{'|'.join(e['generators'])}"
            )
        return "\n".join(lines) + "\n"
    if kind == "ahss-chart":
        lines = ["s,t,labels,valuation,aggregate_only"]
        for c in payload["cells"]:
            lines.append(
                f"{c['s']},{c['t']},{'|'.join(c['labels'])},"
                f"{c['valuation']},{str(c['aggregate_only']).lower()}"
            )
        return "\n".join(lines) + "\n"
    if kind == "cohomology-report":
        lines = ["piece,degree,dim"]
        for name, dims in payload["pieces"].items():
            for d in dims:
                lines.append(f"{name},{d},{dims[d]}")
        for d in payload.get("total", {}):
            lines.append(f"total,{d},{payload['total'][d]}")
        return "\n".join(lines) + "\n"
    raise PreconditionError(f"no csv renderer for payload kind {kind!r}")


def _profile_ascii(payload: dict) -> str:
    lines = [f"# p-torsion profile, p={payload['p']}, degrees 1..{payload['max_degree']}"]
    for a in payload["assumptions"]:
        lines.append(f"# assumes: {a}")
    if payload["entries"]:
        width = max(len(str(e["degree"])) for e in payload["entries"])
        for e in payload["entries"]:
            gens = f"  [{', '.join(e['generators'])}]" if e["generators"] else ""
            lines.append(
                f"degree {e['degree']:>{width}}: valuation {e['valuation']}{gens}"
            )
    else:
        lines.append("(no torsion)")
    for a in payload.get("annotations", []):
        lines.append(f"# note: {a}")
    return "\n".join(lines) + "\n"


def _chart_ascii(payload: dict) -> str:
    cells = payload["cells"]
    lines = [
        f"# chart {payload['target']} page {payload['page_label']} p={payload['p']}"
        f" (total degrees <= {payload['max_total_degree']})",
        "# cell marks: Z = integral class, digit = torsion valuation,"
        " ~ = aggregate-only",
    ]
    if not cells:
        return "\n".join(lines + ["(empty)"]) + "\n"
    smin = min(c["s"] for c in cells)
    smax = max(c["s"] for c in cells)
    tmax = max(c["t"] for c in cells)
    twidth = len(str(tmax))
    ncols = (smax - smin) // 2 + 1
    # Only the rows that have cells are built; columns step by 2 in s.
    rows: dict[int, list[str]] = {}
    for c in cells:
        col, odd = divmod(c["s"] - smin, 2)
        if odd:
            continue
        row = rows.get(c["t"])
        if row is None:
            row = rows[c["t"]] = [" . "] * ncols
        if c["t"] == 0:
            row[col] = " Z "
        else:
            mark = "~" if c["aggregate_only"] else " "
            row[col] = f"{c['valuation']:>2}{mark}"
    blank = " . " * ncols
    for t in range(tmax, -1, -1):
        body = "".join(rows[t]) if t in rows else blank
        lines.append(f"t={t:>{twidth}} |{body}")
    pad = " " * (twidth + 4)
    lines.append(pad + "".join(f"{s:>3}" for s in range(smin, smax + 1, 2)))
    lines.append(pad + "(s)")
    return "\n".join(lines) + "\n"


def _report_ascii(payload: dict) -> str:
    lines = [
        f"# cohomology report, p={payload['p']}, degrees 0..{payload['max_degree']}"
    ]
    for a in payload.get("assumptions", []):
        lines.append(f"# assumes: {a}")
    for name, dims in payload["pieces"].items():
        body = ", ".join(f"{d}:{v}" for d, v in dims.items()) or "0"
        lines.append(f"{name}: {body}")
    if "total" in payload:
        body = ", ".join(f"{d}:{v}" for d, v in payload["total"].items()) or "0"
        lines.append(f"total: {body}")
    for a in payload.get("annotations", []):
        lines.append(f"# note: {a}")
    return "\n".join(lines) + "\n"


def to_ascii(payload: dict) -> str:
    kind = payload.get("kind")
    if kind == "torsion-profile":
        return _profile_ascii(payload)
    if kind == "ahss-chart":
        return _chart_ascii(payload)
    if kind == "cohomology-report":
        return _report_ascii(payload)
    raise PreconditionError(f"no ascii renderer for payload kind {kind!r}")


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


def _profile_svg(payload: dict) -> str:
    entries = payload["entries"]
    max_degree = payload["max_degree"]
    max_val = max((e["valuation"] for e in entries), default=1)
    cell, base, left = 14, 30, 40
    w = left + cell * (max_degree + 2)
    h = base + 20 * max_val + 30
    parts = [_SVG_HEAD.format(w=w, h=h)]
    parts.append(
        f'<text x="{left}" y="16" font-family="monospace" font-size="12">'
        f"p-torsion valuations, p={payload['p']}</text>\n"
    )
    axis_y = h - base
    parts.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{w - 10}" y2="{axis_y}" '
        'stroke="#000" stroke-width="1"/>\n'
    )
    for e in entries:
        x = left + cell * e["degree"]
        bh = 20 * e["valuation"]
        parts.append(
            f'<rect x="{x}" y="{axis_y - bh}" width="{cell - 4}" height="{bh}" '
            'fill="#4a7" stroke="#000" stroke-width="1"/>\n'
        )
        parts.append(
            f'<text x="{x}" y="{axis_y - bh - 4}" font-family="monospace" '
            f'font-size="10">{e["valuation"]}</text>\n'
        )
    for d in range(0, max_degree + 1, 5):
        x = left + cell * d
        parts.append(
            f'<text x="{x}" y="{axis_y + 14}" font-family="monospace" '
            f'font-size="10">{d}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _chart_svg(payload: dict) -> str:
    cells = payload["cells"]
    smin = min((c["s"] for c in cells), default=0)
    smax = max((c["s"] for c in cells), default=0)
    tmax = max((c["t"] for c in cells), default=0)
    cell, left, top = 26, 50, 30
    cols = (smax - smin) // 2 + 1
    w = left + cell * cols + 20
    h = top + cell * (tmax + 1) + 40
    parts = [_SVG_HEAD.format(w=w, h=h), _HATCH_DEF]
    parts.append(
        f'<text x="10" y="18" font-family="monospace" font-size="12">'
        f"{_esc(payload['target'])} {payload['page_label']} "
        f"p={payload['p']}</text>\n"
    )
    for c in cells:
        col = (c["s"] - smin) // 2
        x = left + cell * col
        y = top + cell * (tmax - c["t"])
        fill = "url(#hatch)" if c["aggregate_only"] else "#fff"
        if c["t"] == 0:
            fill = "#ddd"
        title = _esc(", ".join(c["labels"]))
        mark = "Z" if c["t"] == 0 else str(c["valuation"])
        parts.append(
            f'<g><rect x="{x}" y="{y}" width="{cell - 2}" height="{cell - 2}" '
            f'fill="{fill}" stroke="#000" stroke-width="1">'
            f"<title>{title}</title></rect>"
            f'<text x="{x + 6}" y="{y + 17}" font-family="monospace" '
            f'font-size="12">{mark}</text></g>\n'
        )
    for col in range(cols):
        s = smin + 2 * col
        parts.append(
            f'<text x="{left + cell * col}" y="{h - 14}" '
            f'font-family="monospace" font-size="10">{s}</text>\n'
        )
    for t in range(tmax + 1):
        y = top + cell * (tmax - t) + 17
        parts.append(
            f'<text x="10" y="{y}" font-family="monospace" '
            f'font-size="10">{t}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _report_svg(payload: dict) -> str:
    names = list(payload["pieces"]) + (["total"] if "total" in payload else [])
    table = dict(payload["pieces"])
    if "total" in payload:
        table["total"] = payload["total"]
    max_degree = payload["max_degree"]
    cell, left, top = 18, 260, 30
    w = left + cell * (max_degree + 1) + 20
    h = top + 20 * len(names) + 40
    parts = [_SVG_HEAD.format(w=w, h=h)]
    parts.append(
        f'<text x="10" y="18" font-family="monospace" font-size="12">'
        f"cohomology dims, p={payload['p']}</text>\n"
    )
    for row, name in enumerate(names):
        y = top + 20 * row + 14
        parts.append(
            f'<text x="10" y="{y}" font-family="monospace" font-size="10">'
            f"{_esc(name)}</text>\n"
        )
        for d, v in table[name].items():
            x = left + cell * int(d)
            parts.append(
                f'<text x="{x}" y="{y}" font-family="monospace" '
                f'font-size="10">{v}</text>\n'
            )
    for d in range(0, max_degree + 1, 5):
        parts.append(
            f'<text x="{left + cell * d}" y="{h - 16}" '
            f'font-family="monospace" font-size="10">{d}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def to_svg(payload: dict) -> str:
    kind = payload.get("kind")
    if kind == "torsion-profile":
        return _profile_svg(payload)
    if kind == "ahss-chart":
        return _chart_svg(payload)
    if kind == "cohomology-report":
        return _report_svg(payload)
    raise PreconditionError(f"no svg renderer for payload kind {kind!r}")
