"""`emit.json_chunks` against `json.dumps(doc, indent=2)`, its reference,
and the chunk shape of `emit.batched`."""

import json
import sys
from enum import IntEnum

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
    # a dict of scalars and lists of str is one part; any other list in
    # a dict sends it down the general path
    [{"s": -2, "l": ["a", "\u00e9"], "e": [], "n": None, "t": True, 7: "x"},
     {"l": ["a", 1]}, {"l": [["a"]]}, {"l": ("a",)}, {"d": {}}],
    # a dict of scalars and lists of str is one part at any length
    [{n: n * n for n in range(5000)}],
    [{"l": [str(n) for n in range(100)], "n": 1}],
    [{f"k{n}": (None, True, n, str(n))[n % 4] for n in range(70)}],
])
def test_json_text_edge_cases(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    1.5, {"a": [0.0]}, [float("nan")], {"a": {3}}, [b"x"],
    {True: 1}, {1.5: 1}, {None: 1}, {(1,): 1},
    iter([1]), {"a": (n for n in range(3))}, [{"b": iter(())}],
])
def test_json_text_refuses_other_types(doc):
    with pytest.raises(TypeError):
        json_text(doc)


def _p13_chart_payload():
    from whcalc.arith import OddPrime

    _, payload = emit.ahss(OddPrime(13), "j-cp", "e2", 392)
    return {**payload, "cells": list(payload["cells"])}


SIZES = [1, 100, 8192]


def _assert_chunk_shape(chunks, parts, size):
    # `batched` ends a chunk at the part that brings it to `size`
    # characters: every chunk but the last reaches `size`, and none does
    # before its last part.
    rest = iter(parts)
    for chunk in chunks:
        before, last = "", next(rest)
        while len(before) + len(last) < len(chunk):
            before, last = before + last, next(rest)
        assert before + last == chunk
        assert len(before) < size
    assert all(len(chunk) >= size for chunk in chunks[:-1])
    assert next(rest, None) is None


def _batched(parts, size, monkeypatch):
    monkeypatch.setattr(emit, "BATCH_CHARS", size)
    parts = list(parts)
    chunks = list(emit.batched(parts))
    _assert_chunk_shape(chunks, parts, size)
    return chunks


def _json_chunks(doc, size, monkeypatch):
    # `json_chunks` with `batched` listing the parts it is given first
    parts = []
    batched = emit.batched

    def listed(it):
        parts.extend(it)
        return batched(parts)

    monkeypatch.setattr(emit, "BATCH_CHARS", size)
    monkeypatch.setattr(emit, "batched", listed)
    chunks = list(emit.json_chunks(doc))
    _assert_chunk_shape(chunks, parts, size)
    return chunks


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=100, deadline=None)
@given(doc=DOCS)
def test_batched_json_text_writes_the_bytes_of_json_dumps(doc, size):
    with pytest.MonkeyPatch.context() as monkeypatch:
        chunks = _json_chunks(doc, size, monkeypatch)
        assert "".join(chunks) == json.dumps(doc, indent=2) + "\n"


def _json_case(make):
    def case(size, monkeypatch):
        doc = make()
        expected = json.dumps(doc, indent=2) + "\n"
        return _json_chunks(doc, size, monkeypatch), expected

    return case


def _csv_case(size, monkeypatch):
    payload = _p13_chart_payload()
    chunks = _batched(render.lines("csv", payload), size, monkeypatch)
    return chunks, render.to_csv(payload)


def _wide_case(size, monkeypatch):
    # lines of up to 9,000 characters, some longer than BATCH_CHARS alone
    lines = ["x" * width + "\n" for width in [10, 5000, 9000, 3000, 99] * 80]
    return _batched(lines, size, monkeypatch), "".join(lines)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", [
    _json_case(lambda: list(range(5000))),
    _json_case(
        lambda: {"a": [[], {}, [[0]]] * 1000, "b": {"c": [None, True, "x"]}}
    ),
    _json_case(_p13_chart_payload),
    _csv_case,
    _wide_case,
], ids=["5000-list", "nested", "p13-e2-chart", "p13-e2-csv", "wide-lines"])
def test_batch_boundaries(size, case, monkeypatch):
    chunks, expected = case(size, monkeypatch)
    assert len(chunks) > 1
    assert "".join(chunks) == expected


def test_batched_nothing_yields_nothing():
    assert list(emit.batched(iter(()))) == []


def test_pure_python_quote_fallback(monkeypatch):
    # without json's C accelerator the writer quotes in pure Python; it
    # imports the quote function when it starts, so join while unset
    monkeypatch.setitem(sys.modules, "_json", None)
    doc = {
        "é \U0001f600": ["\x00\x1f\"\\/\t\n\r", "\ud800", "\u2028"],
        7: {-(10**30): "ü", 0: []},
    }
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_cell_views_are_written_as_lists():
    # a chart's cells are a view that forms them afresh on each pass, so
    # writing it twice writes the same array
    from whcalc.arith import OddPrime

    _, payload = emit.ahss(OddPrime(5), "s-cpbar", "einf", 40)
    listed = {**payload, "cells": list(payload["cells"])}
    assert listed["cells"]
    expected = json.dumps(listed, indent=2) + "\n"
    assert json_text(payload) == expected
    assert json_text(payload) == expected
    doc = {"a": emit._Reiterable(iter, [1, {"b": emit._Reiterable(iter, ())}])}
    assert json_text(doc) == json.dumps({"a": [1, {"b": []}]}, indent=2) + "\n"


class _Degree(IntEnum):
    ZERO = 0
    SEVEN = 7


class _Name(str):
    pass


@pytest.mark.parametrize("doc", [
    _Degree.SEVEN, _Name("é"),
    [_Degree.ZERO, _Name("a"), _Degree.SEVEN],
    {_Degree.SEVEN: _Name("b"), _Name("k"): _Degree.ZERO},
    [{_Degree.SEVEN: "v", "n": None}],
    # a subclass value sends a dict of scalars down the general path,
    # which refuses it too
    [{"s": _Name("x"), "n": _Degree.SEVEN, "l": [_Name("y")]}],
])
def test_int_and_str_subclasses_are_refused(doc):
    # a scalar is written by its exact type alone, as a value or as a key
    with pytest.raises(TypeError):
        json_text(doc)


def test_json_chunks_end_at_batch_chars():
    # each string alone is longer than BATCH_CHARS, so a chunk ends at
    # the one that brings it past the bound and never holds two
    word = "x" * 20_000
    doc = [word] * 64
    chunks = list(emit.json_chunks(doc))
    assert "".join(chunks) == json.dumps(doc, indent=2) + "\n"
    assert all(chunk.count(word) <= 1 for chunk in chunks)
    assert max(map(len, chunks)) < emit.BATCH_CHARS + len(word)
