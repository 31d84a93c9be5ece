"""Closed-form torsion profile and its first-degree consequences."""

import pytest

from whcalc import torsion
from whcalc.ahss import S_OF_CPBAR, chart_window
from whcalc.arith import OddPrime
from whcalc.errors import InconsistencyError, PreconditionError, WindowError
from whcalc.stems import COK_J
from whcalc.torsion import (
    _cpbar_valuations,
    _wh_valuations,
    concordance_first_torsion,
    first_p_torsion,
    sigma_c_summands,
    torsion_window,
    wh_torsion_profile,
)

P3 = OddPrime(3)
P5 = OddPrime(5)
P7 = OddPrime(7)
PRIMES_TO_61 = [
    OddPrime(pp)
    for pp in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
]

P3_TABLE = {11: 1, 14: 3, 16: 1, 18: 1, 20: 1, 21: 1, 22: 1, 24: 2}
P5_TABLE = {
    d: 1
    for d in (
        18, 26, 28, 34, 36, 39, 41, 43, 48, 50, 52, 54, 58, 60, 62, 64,
        68, 70, 72, 77, 78, 79, 80, 81,
    )
}
P5_TABLE.update({42: 2, 44: 2, 56: 2, 74: 2, 76: 2})
P5_TABLE.update({46: 3, 66: 3, 82: 3})
P5_TABLE[84] = 4


def test_torsion_window():
    assert torsion_window(P3) == 25
    assert torsion_window(P5) == 85
    for p in PRIMES_TO_61:
        assert torsion_window(p) == (2 * p.p + 1) * p.q - 3
        # torsion-vs-charts reads degree d from total degree d-1 of the
        # stunted chart, through the whole window of both
        assert torsion_window(p) == chart_window(p, S_OF_CPBAR) + 1


def test_even_valuation_examples():
    assert _cpbar_valuations(P3, 24)[18] == 1
    assert _cpbar_valuations(P5, 84)[66] == 3
    assert _cpbar_valuations(P3, 24)[2] == 0
    assert _cpbar_valuations(P5, 84)[38] == 0


def test_even_valuation_guards():
    # The window is odd at every prime, so its last degree w - 1 is even:
    # the profile reads the even formula there and refuses the first even
    # degree past it.  Degree 0 carries no valuation.
    for p in PRIMES_TO_61:
        w = torsion_window(p)
        assert w % 2 == 1
        profile = wh_torsion_profile(p, w - 1, assume_regular=True)
        assert profile["max_degree"] == w - 1
        with pytest.raises(WindowError, match=f"got max_degree={w + 1}$"):
            wh_torsion_profile(p, w + 1, assume_regular=True)
    assert _cpbar_valuations(P3, 0) == [0]
    assert wh_torsion_profile(P3, 0)["entries"] == []


def test_odd_valuation_guards():
    # The last odd degree of the window is w - 2 and the first past it is
    # w itself; a negative degree is refused before the window is read.
    for p in PRIMES_TO_61:
        w = torsion_window(p)
        inside = wh_torsion_profile(p, w - 2, assume_regular=True)
        assert inside["entries"][-1]["degree"] <= w - 2
        with pytest.raises(WindowError, match=f"got max_degree={w}$"):
            wh_torsion_profile(p, w, assume_regular=True)
        with pytest.raises(PreconditionError, match="got -1$"):
            wh_torsion_profile(p, -1, assume_regular=True)


def test_odd_valuation_examples():
    vals = _cpbar_valuations(P5, 84)
    assert vals[41] == 1
    assert vals[81] == 1
    # p=3 has no odd-degree contributions at all: both windows are empty
    assert not any(_cpbar_valuations(P3, 24)[1::2])


def _even_by_hand(pp, n):
    """The even-degree formula as `_cpbar_terms` states it."""
    val = (n - 1) // (pp - 1) + (n - 1) // (pp * (pp - 1)) - n // pp - n // (pp * pp)
    if (n - (pp * pp - 2)) % pp == 0 and 1 <= (n - (pp * pp - 2)) // pp <= pp - 3:
        val += 1
    if (n - (pp - 1)) % pp == 0 and (n - (pp - 1)) // pp >= pp - 2:
        val -= 1
    return val


def _odd_by_hand(pp, n):
    """The odd-degree formula as `_cpbar_terms` states it."""
    bases = (pp * pp - pp - 1, 2 * pp * pp - 2 * pp - 2)
    return int(any(1 <= n - base <= pp - 3 for base in bases))


@pytest.mark.parametrize("p", PRIMES_TO_61, ids=str)
def test_degree_arrays_match_the_formulas_degree_by_degree(p):
    # One pass over the whole window against the formulas written out by
    # hand, and the Whitehead degrees against them plus the sigma classes.
    top = torsion_window(p) - 1
    vals = _cpbar_valuations(p, top)
    whole, _ = _wh_valuations(p, top)
    sigma = sigma_c_summands(p)
    assert len(vals) == len(whole) == top + 1
    assert vals[0] == whole[0] == 0
    for d in range(1, top + 1):
        n = d // 2
        want = _odd_by_hand(p.p, n) if d % 2 else _even_by_hand(p.p, n)
        assert vals[d] == want
        assert whole[d] == want + (sigma[d].order_valuation if d in sigma else 0)


def test_negative_valuation_is_an_inconsistency(monkeypatch):
    # floor(n/p) subtracted twice first goes negative at n = p
    real = torsion._cpbar_terms

    def negative(p):
        steps, points, odd = real(p)
        return (*steps, (range(p.p, torsion_window(p), p.p), -1)), points, odd

    monkeypatch.setattr(torsion, "_cpbar_terms", negative)
    message = "^negative torsion valuation at p=5, 2n=10$"
    with pytest.raises(InconsistencyError, match=message):
        _cpbar_valuations(P5, 84)
    with pytest.raises(InconsistencyError, match=message):
        wh_torsion_profile(P5, 84)


def _sigma_generators(p):
    """{degree: (generator label, valuation)} of the sigma classes."""
    return {
        d: (f"sigma({theta.name})", theta.order_valuation)
        for d, theta in sigma_c_summands(p).items()
    }


def test_sigma_c_examples():
    theta = sigma_c_summands(P3)[11]
    assert (theta.name, theta.degree, theta.kind) == ("beta1", 10, COK_J)
    assert _sigma_generators(P3)[11] == ("sigma(beta1)", 1)
    assert _sigma_generators(P5)[77] == ("sigma(beta1_sq)", 1)
    assert 12 not in sigma_c_summands(P3)
    # the hand formula for the degrees, independent of the stem table
    for p in PRIMES_TO_61:
        pp, q = p.p, p.q
        assert _sigma_generators(p) == {
            pp * q - 1: ("sigma(beta1)", 1),
            (pp + 1) * q - 2: ("sigma(alpha1_beta1)", 1),
            2 * pp * q - 3: ("sigma(beta1_sq)", 1),
            (2 * pp + 1) * q - 4: ("sigma(alpha1_beta1_sq)", 1),
        }
        assert (2 * pp + 1) * q - 2 not in sigma_c_summands(p)


def test_profile_p3():
    profile = wh_torsion_profile(P3, 24)
    entries = profile["entries"]
    assert {e["degree"]: e["valuation"] for e in entries} == P3_TABLE
    named = {e["degree"]: e["generators"] for e in entries}
    assert named[11] == ["sigma(beta1)"]
    assert named[14] == ["sigma(alpha1_beta1)"]
    assert named[21] == ["sigma(beta1_sq)"]
    assert named[24] == ["sigma(alpha1_beta1_sq)"]
    assert named[16] == []
    assert any("degree 14 at p=3" in a for a in profile["annotations"])


def test_profile_p5():
    profile = wh_torsion_profile(P5, 84)
    entries = profile["entries"]
    assert {e["degree"]: e["valuation"] for e in entries} == P5_TABLE
    assert not any("degree 14" in a for a in profile["annotations"])


def test_profile_below_first_torsion_is_empty():
    assert wh_torsion_profile(P5, 17)["entries"] == []
    assert wh_torsion_profile(P3, 0)["entries"] == []


def test_profile_guards():
    with pytest.raises(WindowError):
        wh_torsion_profile(P3, 25)
    with pytest.raises(PreconditionError):
        wh_torsion_profile(P3, -1)
    with pytest.raises(PreconditionError):
        wh_torsion_profile(OddPrime(37), 24)
    flagged = wh_torsion_profile(OddPrime(37), 24, assume_regular=True)
    assert flagged["entries"] == []


def test_profile_prefix_property():
    full = wh_torsion_profile(P3, 24)
    for d in range(0, 25):
        part = wh_torsion_profile(P3, d)
        assert part["entries"] == [
            e for e in full["entries"] if e["degree"] <= d
        ]


def test_no_zero_valuation_entries():
    for p in (P3, P5, P7):
        profile = wh_torsion_profile(p, torsion_window(p) - 1)
        assert all(e["valuation"] > 0 for e in profile["entries"])


def test_first_torsion():
    first = first_p_torsion(P3)
    assert (first.degree, first.valuation, first.generator) == (
        11,
        1,
        "sigma(beta1)",
    )
    for p in (P5, P7, OddPrime(11)):
        first = first_p_torsion(p)
        assert (first.degree, first.valuation) == (4 * p.p - 2, 1)
        assert first.generator is None  # a stunted-spectrum class, unnamed


def test_first_torsion_at_a_large_prime():
    # the scan stops at degree 4p-2, far below the whole window (about
    # 4p^2 degrees), which holds more degrees than memory allows
    p = OddPrime(100003)
    assert first_p_torsion(p, assume_regular=True) == torsion.FirstTorsion(
        400010, 1, None
    )
    assert concordance_first_torsion(p, assume_regular=True) == (
        torsion.ConcordanceFirstTorsion(
            100003, 400008, 400009, 1, 400010, 1200031
        )
    )


def test_first_torsion_scans_tops_that_double(monkeypatch):
    tops = []

    def no_torsion(p, top):
        tops.append(top)
        return [0] * (top + 1), {}

    monkeypatch.setattr(torsion, "_wh_valuations", no_torsion)
    with pytest.raises(InconsistencyError, match="below the validity window"):
        first_p_torsion(OddPrime(11))
    assert tops == [64, 128, 256, torsion_window(OddPrime(11)) - 1]


def test_concordance_first_torsion():
    c3 = concordance_first_torsion(P3)
    assert (c3.pi_degree_C, c3.pi_degree_H) == (9, 10)
    assert c3.group_valuation == 1
    assert c3.connectivity_hypothesis == 11
    assert c3.dimension_hypothesis == 34
    c5 = concordance_first_torsion(P5)
    assert (c5.pi_degree_C, c5.pi_degree_H) == (16, 17)
    assert (c5.connectivity_hypothesis, c5.dimension_hypothesis) == (18, 55)
    c7 = concordance_first_torsion(P7)
    assert (c7.pi_degree_C, c7.pi_degree_H) == (24, 25)


def test_payload_shape():
    payload = wh_torsion_profile(P3, 24)
    assert list(payload) == [
        "kind",
        "p",
        "max_degree",
        "assumptions",
        "entries",
        "annotations",
    ]
    assert payload["kind"] == "torsion-profile"
    assert payload["entries"][0] == {
        "degree": 11,
        "valuation": 1,
        "generators": ["sigma(beta1)"],
    }
    assert payload["assumptions"] == [
        "odd regular prime",
        "Lichtenbaum-Quillen for Z[1/p]",
    ]
