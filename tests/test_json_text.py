"""`emit.json_chunks` against `json.dumps(doc, indent=2)`, its reference,
and the chunk shape of `emit.batched`."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whcalc import emit, render

SCALARS = st.none() | st.booleans() | st.integers() | st.text()
DOCS = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text() | st.integers(), inner, max_size=4)
    ),
    max_leaves=20,
)


def json_text(value) -> str:
    return "".join(emit.json_chunks(value))


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_json_text_writes_the_bytes_of_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, -(10**30), True, None,
    {"a": {}, "b": [], "c": [{}, [[]]], "": ""},
    {1: 2}, {-(10**30): [0], 0: {5: 1}, "0": None},
    ["\x00\x1f\"\\/é \U0001f600", "\t\n\r", "\ud800"],
])
def test_json_text_edge_cases(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    1.5, {"a": [0.0]}, [float("nan")], {"a": {3}}, [b"x"],
    {True: 1}, {1.5: 1}, {None: 1}, {(1,): 1},
])
def test_json_text_refuses_other_types(doc):
    with pytest.raises(TypeError):
        json_text(doc)


def _p13_chart_payload():
    from whcalc.arith import OddPrime

    _, payload = emit.ahss(OddPrime(13), "j-cp", "e2", 392)
    return {**payload, "cells": list(payload["cells"])}


BATCHES = [1, 2, 3]


def _depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(_depth, value), default=0)
    return 0


def _chunks(doc, batch, monkeypatch):
    monkeypatch.setattr(emit, "BATCH_LINES", batch)
    chunks = list(emit.json_chunks(doc))
    # A flush yields at most `batch` parts, each with at most one newline,
    # and each level of nesting may close with one more line before the
    # next flush.
    bound = batch + _depth(doc)
    assert all(chunk.count("\n") <= bound for chunk in chunks)
    return chunks


@pytest.mark.parametrize("batch", BATCHES)
@settings(max_examples=100, deadline=None)
@given(doc=DOCS)
def test_batched_json_text_writes_the_bytes_of_json_dumps(doc, batch):
    with pytest.MonkeyPatch.context() as monkeypatch:
        chunks = _chunks(doc, batch, monkeypatch)
        assert "".join(chunks) == json.dumps(doc, indent=2) + "\n"


def _json_case(make):
    def case(batch, monkeypatch):
        doc = make()
        expected = json.dumps(doc, indent=2) + "\n"
        return _chunks(doc, batch, monkeypatch), expected

    return case


def _csv_case(batch, monkeypatch):
    monkeypatch.setattr(emit, "BATCH_LINES", batch)
    payload = _p13_chart_payload()
    *full, last = emit.batched(render.lines("csv", payload))
    assert all(chunk.count("\n") == batch for chunk in full)
    assert 0 < last.count("\n") <= batch
    return [*full, last], render.to_csv(payload)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("case", [
    _json_case(lambda: list(range(5000))),
    _json_case(
        lambda: {"a": [[], {}, [[0]]] * 1000, "b": {"c": [None, True, "x"]}}
    ),
    _json_case(_p13_chart_payload),
    _csv_case,
], ids=["5000-list", "nested", "p13-e2-chart", "p13-e2-csv"])
def test_batch_boundaries(batch, case, monkeypatch):
    chunks, expected = case(batch, monkeypatch)
    assert len(chunks) > 100
    assert "".join(chunks) == expected


def test_batched_nothing_yields_nothing():
    assert list(emit.batched(iter(()))) == []


def test_pure_python_quote_fallback(monkeypatch):
    # without json's C accelerator the writer quotes in pure Python; it
    # imports the quote function when it starts, so join while unset
    monkeypatch.setitem(sys.modules, "_json", None)
    doc = {
        "é \U0001f600": ["\x00\x1f\"\\/\t\n\r", "\ud800", "\u2028"],
        7: {-(10**30): "ü", 0: iter(())},
    }
    listed = {**doc, 7: {-(10**30): "ü", 0: []}}
    assert json_text(doc) == json.dumps(listed, indent=2) + "\n"


def test_iterators_are_written_as_lists():
    doc = {"a": iter([1, {"b": iter(())}]), "c": (n for n in range(3))}
    listed = {"a": [1, {"b": []}], "c": [0, 1, 2]}
    assert json_text(doc) == json.dumps(listed, indent=2) + "\n"
