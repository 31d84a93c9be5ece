"""Output checks: a call fails on an unexpected exit code, a traceback, or
an output that does not pass its check.

An output is compared with its pinned SHA-256 digest (`digests.json`,
keyed by the query).  A query with no pinned digest is compared with the
library's own emission of the same query: JSON byte for byte, and the
csv/ascii/svg projections against the render of that JSON payload.  On
top of that, `verify` must report `0 failed` and every cohomology report's
total must be the sum of its pieces.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import Call

DIGESTS = Path(__file__).resolve().parent / "digests.json"
_VERIFY_SUMMARY = re.compile(rb"^\d+ passed, 0 failed, \d+ skipped$")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text("utf-8"))


def reference_output(call: Call) -> bytes:
    """What the library emits for the query, rendered from its JSON
    payload.  Imports the package under test, so the caller puts its
    source directory on `sys.path`."""
    from whcalc import emit, render
    from whcalc.arith import OddPrime

    p = OddPrime(int(call.flag("--p")))
    degree = int(call.flag("--max-degree"))
    if call.command == "pi-wh":
        command, payload = emit.pi_wh(p, degree)
    elif call.command == "ahss":
        command, payload = emit.ahss(
            p, call.flag("--target", "s-cpbar"), call.flag("--page", "einf"),
            degree,
        )
    elif call.command == "cohomology":
        command, payload = emit.cohomology(p, degree, call.flag("--piece", "all"))
    else:
        raise ValueError(f"no reference route for {call.command!r}")
    text = emit.envelope_text(command, payload)
    renderer = {
        "json": None,
        "csv": render.to_csv,
        "ascii-chart": render.to_ascii,
        "svg-chart": render.to_svg,
    }[call.flag("--format", "json")]
    if renderer is not None:
        text = renderer(json.loads(text)["payload"])
    return text.encode("utf-8")


def _pieces_sum_to_total(output: bytes) -> bool:
    payload = json.loads(output)["payload"]
    summed: dict[str, int] = {}
    for dims in payload["pieces"].values():
        for d, v in dims.items():
            summed[d] = summed.get(d, 0) + v
    total = {d: v for d, v in payload["total"].items() if v}
    return {d: v for d, v in summed.items() if v} == total


class Checker:
    """Judges each call's output; expected digests are computed once per
    query and reused for every repeat of it."""

    def __init__(self, digests: dict[str, str]):
        self._expected = dict(digests)

    def expected_digest(self, call: Call) -> str | None:
        """The pinned digest, else that of the library's emission; None for
        an unpinned `verify`, which is judged by its summary alone."""
        if call.key not in self._expected:
            if call.command == "verify":
                return None
            ref = reference_output(call)
            self._expected[call.key] = hashlib.sha256(ref).hexdigest()
        return self._expected[call.key]

    def failure(
        self, call: Call, returncode: int, stdout: bytes, stderr: bytes,
        output: bytes,
    ) -> str | None:
        """Why the call failed, or None when it passed.  `output` is what
        the call emitted: its stdout, or the `--out` file's contents."""
        if returncode != 0:
            return f"exit code {returncode}"
        if b"Traceback (most recent call last)" in stderr:
            return "traceback on stderr"
        if call.to_file and stdout:
            return "--out call also wrote to stdout"
        expected = self.expected_digest(call)
        if expected is not None and hashlib.sha256(output).hexdigest() != expected:
            return "output differs from the expected bytes"
        if call.command == "verify":
            last = output.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            if not _VERIFY_SUMMARY.match(last):
                return f"verify summary is {last[:80]!r}, not 0 failed"
        if (
            call.command == "cohomology"
            and call.flag("--format", "json") == "json"
            and call.flag("--piece", "all") == "all"
        ):
            try:
                consistent = _pieces_sum_to_total(output)
            except (ValueError, KeyError, TypeError, AttributeError):
                return "cohomology output is not a report envelope"
            if not consistent:
                return "cohomology total is not the sum of its pieces"
        return None
