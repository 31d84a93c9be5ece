"""The pinned outputs: each entry of `pins.json` is a CLI command, the
environment it runs under and the SHA-256 of its stdout.

The manifest pins the deep and non-deep `verify` matrices, `cohomology` to
degree 5000, the p=61 j-cp E2 page to degree 2000 in all four formats,
and the JSON of both pages of every whole-window chart at p=3, 5, 11 and
17.  p=3 is the only prime with two summands in a cell (alpha1_beta1_sq
and alpha_bar(6) at t=23), so it pins their order.  CI runs the same
manifest through the installed `whcalc` console script;
`bench/digests.json` pins the benchmark's own queries apart from it."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from whcalc import cli

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((Path(__file__).parent / "pins.json").read_text("utf-8"))
SHA256 = re.compile(r"(?<![0-9a-fA-F])[0-9a-fA-F]{64}(?![0-9a-fA-F])")


@pytest.mark.parametrize("pin", PINS, ids=[pin["command"] for pin in PINS])
def test_pinned_output(pin, capsys, monkeypatch):
    monkeypatch.delenv(cli.CAP_ENV, raising=False)
    for name, value in pin["env"].items():
        monkeypatch.setenv(name, value)
    code = cli.main(pin["command"].split())
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == pin["sha256"]


def test_the_workflow_writes_no_pin():
    # every pin of a CLI output is written once, in pins.json
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8")
    assert SHA256.findall(workflow) == []
