"""Payload builders and the byte-stable JSON envelope.

Every emission is {"header": ..., "payload": ...}: the header carries tool
provenance and the normalized command line, the payload carries only
mathematical content.  Serialization uses insertion order (keys are built
in ascending numeric order), two-space indentation and a trailing newline,
so output is byte-stable across runs and suitable for golden-file
comparison.  Each builder imports the library modules it runs when it is
called, so a cold CLI call loads only those.
"""

from __future__ import annotations

from ._version import __version__
from .arith import OddPrime
from .errors import PreconditionError

FORMATS = ("json", "csv", "ascii-chart", "svg-chart")
PIECES = ("all", "sigma-c", "hp", "coker", "ker", "total")
# The `ahss.ChartTarget` values, written out so that building the CLI's
# choices does not import the chart engine.
TARGETS = ("j-cp", "s-cp", "s-cpbar")
PAGES = ("e2", "einf")


def envelope_text(command: str, payload: dict) -> str:
    import json

    doc = {
        "header": {
            "format": "whcalc.v1",
            "tool": "whcalc",
            "version": __version__,
            "command": command,
        },
        "payload": payload,
    }
    return json.dumps(doc, indent=2) + "\n"


def pi_wh(
    p: OddPrime, max_degree: int, *, assume_regular: bool = False
) -> tuple[str, dict]:
    from .torsion import profile_payload, wh_torsion_profile

    command = f"pi-wh --p {p.p} --max-degree {max_degree}"
    if assume_regular:
        command += " --assume-regular"
    profile = wh_torsion_profile(p, max_degree, assume_regular=assume_regular)
    return command, profile_payload(profile)


def ahss(
    p: OddPrime, target: str, page: str, max_degree: int
) -> tuple[str, dict]:
    from .ahss import ChartTarget, build_e2, page_payload, run_differentials

    if page not in PAGES:
        raise PreconditionError(f"unknown page {page!r}")
    command = (
        f"ahss --p {p.p} --target {target} --page {page} "
        f"--max-degree {max_degree}"
    )
    chart = build_e2(p, ChartTarget(target), max_degree)
    if page == "einf":
        chart = run_differentials(chart)
    return command, page_payload(chart)


def _piece_names(p: OddPrime, piece: str) -> list[str]:
    from .whcohomology import (
        COKER_MAIN_PIECE,
        HP_PIECE,
        SIGMA_C_PIECE,
        _cp_piece_name,
        _ker_piece_name,
        _odd_summand_indices,
    )

    odd = _odd_summand_indices(p)
    if piece == "sigma-c":
        return [SIGMA_C_PIECE]
    if piece == "hp":
        return [HP_PIECE]
    if piece == "coker":
        return [COKER_MAIN_PIECE] + [_cp_piece_name(a) for a in odd]
    if piece == "ker":
        return [_ker_piece_name(a) for a in odd]
    raise PreconditionError(f"unknown piece {piece!r}")


def cohomology(
    p: OddPrime, max_degree: int, piece: str = "all", *,
    assume_regular: bool = False,
) -> tuple[str, dict]:
    from .whcohomology import h_wh_report, report_payload

    if piece not in PIECES:
        raise PreconditionError(f"unknown piece {piece!r}")
    command = f"cohomology --p {p.p} --max-degree {max_degree} --piece {piece}"
    if assume_regular:
        command += " --assume-regular"
    report = h_wh_report(p, max_degree, assume_regular=assume_regular)
    payload = report_payload(report)
    if piece == "total":
        payload["pieces"] = {}
    elif piece != "all":
        keep = _piece_names(p, piece)
        payload["pieces"] = {
            name: payload["pieces"][name] for name in keep
        }
        del payload["total"]
    return command, payload
