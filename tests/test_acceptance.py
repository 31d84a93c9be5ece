"""Acceptance gate: eleven pinned criteria, one test (one report line) each.

Each test pins the exact values and runtime budgets that define "done"
for this package.  Timings use wall-clock perf_counter and generous
fixed budgets; everything else is an exact equality.
"""

import json
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

from whcalc import cli
from whcalc import verify as vf
from whcalc.arith import OddPrime, is_regular
from whcalc.steenrod import (
    admissible_basis,
    annihilator_basis,
    milnor_dual_dims,
    word_degree,
)
from whcalc.torsion import concordance_first_torsion, first_p_torsion
from whcalc.whcohomology import (
    COKER_MAIN_PIECE,
    HP_PIECE,
    SIGMA_C_PIECE,
    delta_star_report,
    h_sigma_c_dims,
)

P3 = OddPrime(3)
P5 = OddPrime(5)


def _cli_payload(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out, json.loads(out)["payload"]


def _orders(payload):
    return {e["degree"]: e["valuation"] for e in payload["entries"]}


def test_criterion_01_p3_profile_bit_exact(capsys):
    start = time.perf_counter()
    out, payload = _cli_payload(
        capsys, "pi-wh", "--p", "3", "--max-degree", "24"
    )
    golden = (
        resources.files("whcalc").joinpath("golden").joinpath("pi_wh_p3_d24.json")
    ).read_text("utf-8")
    elapsed = time.perf_counter() - start
    assert out == golden
    expected = {d: 1 for d in (11, 16, 18, 20, 21, 22)}
    expected.update({24: 2, 14: 3})
    assert _orders(payload) == expected
    assert elapsed < 1.0


def test_criterion_02_p5_profile_full_table(capsys):
    start = time.perf_counter()
    _, payload = _cli_payload(
        capsys, "pi-wh", "--p", "5", "--max-degree", "84"
    )
    elapsed = time.perf_counter() - start
    expected = {
        d: 1
        for d in (
            18, 26, 28, 34, 36, 39, 41, 43, 48, 50, 52, 54, 58, 60, 62,
            64, 68, 70, 72, 77, 78, 79, 80, 81,
        )
    }
    expected.update({42: 2, 44: 2, 56: 2, 74: 2, 76: 2})
    expected.update({46: 3, 66: 3, 82: 3})
    expected[84] = 4
    assert _orders(payload) == expected
    assert elapsed < 2.0


def test_criterion_03_closed_form_equals_chart_engine():
    start = time.perf_counter()
    for p in (3, 5, 7, 11):
        detail = vf._check_torsion_vs_charts(OddPrime(p), deep=False)
        assert detail.startswith("closed form matches the chart engine")
    assert time.perf_counter() - start < 30.0


def test_criterion_04_einf_adjustment_set_identity():
    for p in (3, 5, 7):
        detail = vf._check_adjustment_sets(OddPrime(p), deep=False)
        assert "cell" in detail


def test_criterion_05_first_torsion_and_concordance():
    first3 = first_p_torsion(P3)
    assert (first3.degree, first3.valuation) == (11, 1)
    assert first3.generator == "sigma(beta1)"
    for p in (5, 7, 11):
        first = first_p_torsion(OddPrime(p))
        assert (first.degree, first.valuation) == (4 * p - 2, 1)
    conc3 = concordance_first_torsion(P3)
    assert (conc3.pi_degree_C, conc3.pi_degree_H) == (9, 10)
    assert conc3.group_valuation == 1
    conc5 = concordance_first_torsion(P5)
    assert (conc5.pi_degree_C, conc5.pi_degree_H) == (16, 17)


def test_criterion_06_basis_counts_match_dual_dims():
    start = time.perf_counter()
    for p, bound in ((P3, 120), (P5, 200)):
        counts = Counter(word_degree(p, w) for w in admissible_basis(p, bound))
        assert dict(counts) == milnor_dual_dims(p, bound)
    assert time.perf_counter() - start < 60.0


def test_criterion_07_adem_soundness_on_projective_classes():
    # deep bounds are exactly the criterion: words to degree 60, a in [-1, 40]
    detail = vf._check_adem_action(P3, deep=True)
    assert detail.endswith("actions agree")


def test_criterion_08_annihilator_of_bottom_class_p3():
    bound = 120
    every = set(admissible_basis(P3, bound))
    killed = set(annihilator_basis(P3, -1, bound))
    survivors = {()} | {(i,) for i in range(1, bound // P3.q + 1)}
    assert every - killed == survivors


def test_criterion_09_annihilator_of_first_class_p5():
    bound = 200
    every = set(admissible_basis(P5, bound))
    killed = set(annihilator_basis(P5, 1, bound))
    assert every - killed == {(), (1,), (5, 1)}


def test_criterion_10_p3_cohomology_assembly(capsys):
    _, payload = _cli_payload(
        capsys,
        "cohomology", "--p", "3", "--max-degree", "40", "--piece", "all",
    )
    assert set(payload["pieces"]) == {
        SIGMA_C_PIECE,
        HP_PIECE,
        COKER_MAIN_PIECE,
    }
    assert delta_star_report(P3, 40)["ker"] == {}
    dims = h_sigma_c_dims(P3, 12)
    assert all(dims.get(d, 0) == 0 for d in range(1, 11))
    assert dims[11] == 1 and dims[12] == 1


def _bernoulli_regular(p: int) -> bool:
    # exact oracle: p is regular iff p divides no numerator of B_2..B_{p-3}
    from math import comb

    bern = [Fraction(1)]
    for m in range(1, p - 2):
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * bern[k]
        bern.append(-acc / (m + 1))
    return all(bern[m].numerator % p for m in range(2, p - 2, 2))


def test_criterion_11_regularity_gate(capsys):
    small = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for p in small:
        assert is_regular(OddPrime(p))
        assert _bernoulli_regular(p)
    for p in (37, 59, 67, 101):
        assert not is_regular(OddPrime(p))
        assert not _bernoulli_regular(p)
    code = cli.main(["pi-wh", "--p", "37", "--max-degree", "24"])
    capsys.readouterr()
    assert code == 2
