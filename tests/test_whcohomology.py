"""Cohomology assembly: pieces, connecting-map bookkeeping, annotations."""

import json

import pytest

from whcalc import emit
from whcalc.arith import OddPrime
from whcalc.errors import PreconditionError
from whcalc.steenrod import milnor_dual_dims, quotient_module_dims
from whcalc.whcohomology import (
    COKER_MAIN_PIECE,
    HP_PIECE,
    SIGMA_C_PIECE,
    delta_star_rank_data,
    delta_star_report,
    h_sigma_c_dims,
    h_sigma_hp_dims,
    h_wh_report,
)

P3 = OddPrime(3)
P5 = OddPrime(5)
P7 = OddPrime(7)


def test_h_sigma_c_low_degrees():
    dims = h_sigma_c_dims(P3, 12)
    for d in range(1, 11):
        assert dims.get(d, 0) == 0
    assert dims[11] == 1
    assert dims[12] == 1


def test_h_sigma_hp_pattern():
    assert h_sigma_hp_dims(P3, 9) == {5: 1, 9: 1}
    dims = h_sigma_hp_dims(P3, 41)
    assert dims == {4 * m + 1: 1 for m in range(1, 11)}
    assert h_sigma_hp_dims(P3, 4) == {}
    assert dims.get(7, 0) == 0


def test_delta_star_p3_has_no_kernel_block():
    report = delta_star_report(P3, 40)
    assert report["ker"] == {}
    assert list(report["coker"]) == [COKER_MAIN_PIECE]


def test_coker_bottom_strictly_above_q_minus_1():
    for p in (P3, P5):
        main = delta_star_report(p, 30)["coker"][COKER_MAIN_PIECE]
        assert all(d > p.q - 1 for d in main)


def test_delta_star_p5_pieces():
    report = delta_star_report(P5, 60)
    assert set(report["ker"]) == {"sigma^2 C_1/A(b,Q1)"}
    assert set(report["coker"]) == {
        COKER_MAIN_PIECE,
        "H(sigma CP[1])/A(sigma y^1)",
    }
    # the a=1 eigensummand support: degrees 2k+1 for k = 1 mod 4, k not 5^e
    cp = report["coker"]["H(sigma CP[1])/A(sigma y^1)"]
    want = {
        2 * k + 1: 1
        for k in range(1, 30, 4)
        if k not in (1, 5, 25)
    }
    assert cp == want
    assert report["ker"]["sigma^2 C_1/A(b,Q1)"][18] == 1


def test_delta_star_p7_summand_indices():
    report = delta_star_report(P7, 20)
    assert set(report["ker"]) == {
        "sigma^2 C_1/A(b,Q1)",
        "sigma^6 C_3/A(b,Q1)",
    }


def test_rank_nullity_identity():
    for p, bound in ((P3, 40), (P5, 40)):
        report = delta_star_report(p, bound)
        rank = delta_star_rank_data(p, bound)

        def tot(named):
            out: dict[int, int] = {}
            for dims in named.values():
                for d, v in dims.items():
                    out[d] = out.get(d, 0) + v
            return out

        cok, ker = tot(report["coker"]), tot(report["ker"])
        src, tgt = tot(rank["source"]), tot(rank["target"])
        for d in range(0, bound + 1):
            assert cok.get(d, 0) - ker.get(d - 1, 0) == tgt.get(d, 0) - src.get(
                d, 0
            )
            if d <= 2 * p.p - 3:
                assert cok.get(d, 0) == tgt.get(d, 0) - src.get(d, 0)


def test_report_additivity_and_p3_pieces():
    report = h_wh_report(P3, 40)
    total: dict[int, int] = {}
    for dims in report["pieces"].values():
        for d, v in dims.items():
            total[d] = total.get(d, 0) + v
    assert total == report["total"]
    want = {SIGMA_C_PIECE, HP_PIECE, COKER_MAIN_PIECE}
    assert set(report["pieces"]) == want


def test_report_low_degree_values():
    report = h_wh_report(P3, 10)
    assert report["total"].get(0, 0) == 0
    assert report["total"].get(3, 0) == 0  # engine value; no anchored table
    assert report["pieces"][HP_PIECE][5] == 1
    assert report["total"][5] == 1


def test_report_annotations():
    r3 = h_wh_report(P3, 20)
    assert any("trivial at p=3" in a for a in r3["annotations"])
    assert any("degrees below 3" in a for a in r3["annotations"])
    notes = h_wh_report(P5, 20)["annotations"]
    assert any("nontrivial" in a for a in notes)
    assert any("sigma y^9" in a and "sigma^2 P2" in a for a in notes)


def test_report_regularity_gate():
    with pytest.raises(PreconditionError):
        h_wh_report(OddPrime(37), 10)
    flagged = h_wh_report(OddPrime(37), 10, assume_regular=True)
    assumed = flagged["assumptions"][0]
    assert assumed.startswith("odd prime, regularity assumed")


def test_quotient_pieces_bounded_by_algebra():
    report = h_wh_report(P3, 30)
    full = milnor_dual_dims(P3, 32)
    main = report["pieces"][COKER_MAIN_PIECE]
    for d, v in main.items():
        assert v <= full.get(d + 2, 0)  # internal degree is d + 2


def test_payload_serialization():
    text = emit.envelope_text(*emit.cohomology(P3, 14))
    payload = json.loads(text)["payload"]
    assert payload["kind"] == "cohomology-report"
    assert list(payload) == [
        "kind",
        "p",
        "max_degree",
        "assumptions",
        "pieces",
        "total",
        "annotations",
    ]
    assert payload["pieces"][HP_PIECE] == {"5": 1, "9": 1, "13": 1}
    degrees = [int(d) for d in payload["total"]]
    assert degrees == sorted(degrees)
    report = h_wh_report(P3, 14)
    assert list(report) == list(payload)
    assert report["pieces"][HP_PIECE] == {5: 1, 9: 1, 13: 1}


def test_report_degrees_come_in_ascending_order():
    # JSON writes the degrees in the order the report holds them, so a
    # piece built out of order would change the emitted bytes
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for pp in (*primes, 1009):
        for top in (0, 1, 5, 40, 120, 512):
            report = h_wh_report(OddPrime(pp), top, assume_regular=True)
            for dims in (*report["pieces"].values(), report["total"]):
                assert list(dims) == sorted(dims), (pp, top)


def test_consistency_against_quotient_module_dims():
    report = delta_star_report(P5, 30)
    shifted = report["ker"]["sigma^2 C_1/A(b,Q1)"]
    raw = quotient_module_dims(P5, "C_a/A(b,Q1)", 28, a=1)
    assert shifted == {d + 2: v for d, v in raw.items()}
