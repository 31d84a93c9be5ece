"""`emit.json_chunks` against `json.dumps(doc, indent=2)`, its reference,
and the parts it yields."""

import json
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whcalc import emit

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


@settings(max_examples=100, deadline=None)
@given(DOCS)
def test_json_text_without_the_c_quote_writes_the_bytes_of_json_dumps(doc):
    # the writer imports its quote function when it starts, so a writer
    # started with `_json` unset quotes every str in pure Python
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(sys.modules, "_json", None)
        assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


def _p13_chart_payload():
    from whcalc.arith import OddPrime

    _, payload = emit.ahss(OddPrime(13), "j-cp", "e2", 392)
    return {**payload, "cells": list(payload["cells"])}


@pytest.mark.parametrize("make", [
    lambda: list(range(5000)),
    lambda: {"a": [[], {}, [[0]]] * 1000, "b": {"c": [None, True, "x"]}},
    _p13_chart_payload,
], ids=["5000-list", "nested", "p13-e2-chart"])
def test_json_chunks_yield_the_parts_as_formed(make):
    # the parts are handed to the writer unjoined: many of them, none
    # empty, and the document's final newline is a part of its own
    doc = make()
    parts = list(emit.json_chunks(doc))
    assert len(parts) > 1000
    assert all(parts)
    assert parts[-1] == "\n"
    assert "".join(parts) == json.dumps(doc, indent=2) + "\n"


def test_json_chunks_hold_each_long_string_once():
    # a string is one part however long, and no part holds two of them
    word = "x" * 20_000
    doc = [word] * 64
    parts = list(emit.json_chunks(doc))
    assert "".join(parts) == json.dumps(doc, indent=2) + "\n"
    assert all(part.count(word) <= 1 for part in parts)
    assert max(map(len, parts)) < 2 * len(word)


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
    # and so does a str subclass in a list, on either path
    [_Name("y")], [{"l": [_Name("y")]}], [{"l": ["x", _Name("y")]}],
])
def test_int_and_str_subclasses_are_refused(doc):
    # a scalar is written by its exact type alone, as a value or as a key
    with pytest.raises(TypeError):
        json_text(doc)
