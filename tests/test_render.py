"""The ASCII and SVG chart renderers: the same text from every form the
cells can take, and a small fixed amount of state however many cells
they draw."""

import json
import random
import tracemalloc

import pytest

from whcalc import emit, render
from whcalc.ahss import ChartTarget, chart_window
from whcalc.arith import OddPrime

CHART_FORMATS = ("ascii-chart", "svg-chart")


def _payload(pp: int, target: str, page: str) -> dict:
    p = OddPrime(pp)
    top = chart_window(p, ChartTarget(target)) - 1
    return emit.ahss(p, target, page, top)[1]


@pytest.mark.parametrize("pp", [3, 5, 11])
@pytest.mark.parametrize("target", emit.TARGETS)
@pytest.mark.parametrize("page", emit.PAGES)
def test_chart_text_is_the_same_from_every_form_of_cells(pp, target, page):
    payload = _payload(pp, target, page)
    view = payload["cells"]
    parsed = json.loads(emit.envelope_text(f"ahss --p {pp}", payload))
    for fmt in CHART_FORMATS:
        text = "".join(render.lines(fmt, payload))
        # the view is read again, and forms the same cells each time
        assert "".join(render.lines(fmt, payload)) == text
        one_shot = {**payload, "cells": (c for c in view)}
        assert "".join(render.lines(fmt, one_shot)) == text
        assert "".join(render.lines(fmt, parsed["payload"])) == text


@pytest.mark.parametrize("pp,target", [(5, "s-cpbar"), (11, "j-cp")])
def test_ascii_chart_does_not_depend_on_cell_order(pp, target):
    payload = _payload(pp, target, "einf")
    cells = list(payload["cells"])
    random.Random(pp).shuffle(cells)
    assert render.to_ascii({**payload, "cells": cells}) == render.to_ascii(
        payload
    )


@pytest.mark.parametrize("fmt,bound_kb", [
    ("svg-chart", 256),
    ("ascii-chart", 512),
])
def test_chart_rendering_stays_small_at_p61(fmt, bound_kb):
    # 8,840 cells: the renderers keep the grid's bounds and, for
    # ASCII, one mark per column of each row that has cells, never the
    # cells themselves.
    _, payload = emit.ahss(OddPrime(61), "j-cp", "e2", 2000)
    tracemalloc.start()
    try:
        for _ in emit.batched(render.lines(fmt, payload)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_kb * 1024
