"""Stable-stem torsion bookkeeping below the second beta-family class."""

import pytest

from whcalc.arith import OddPrime, vp
from whcalc.errors import WindowError
from whcalc.stems import (
    COK_J,
    IM_J,
    all_torsion_classes,
    alpha_bar,
    beta2_degree,
)

P3 = OddPrime(3)
P5 = OddPrime(5)


def _stem(p, t):
    """The p-torsion summands of the stable t-stem, by name."""
    return [c for c in all_torsion_classes(p) if c.degree == t]


def test_beta2_degree():
    assert beta2_degree(P3) == 26
    assert beta2_degree(P5) == 86
    assert beta2_degree(OddPrime(7)) == 178


def test_alpha_bar_degrees_and_orders():
    for p in (P3, P5):
        for i in range(1, 8):
            c = alpha_bar(p, i)
            assert c.degree == p.q * i - 1
            assert c.order_valuation == 1 + vp(p, i)
            assert c.kind == IM_J
            assert c.index == i
    with pytest.raises(WindowError):
        alpha_bar(P3, 0)


def test_cokernel_degrees():
    degrees = {
        c.name: c.degree for c in all_torsion_classes(P5) if c.kind == COK_J
    }
    q, p = 8, 5
    assert degrees == {
        "beta1": p * q - 2,
        "alpha1_beta1": (p + 1) * q - 3,
        "beta1_sq": 2 * p * q - 4,
        "alpha1_beta1_sq": (2 * p + 1) * q - 5,
    }
    assert all(
        c.order_valuation == 1
        for c in all_torsion_classes(P5)
        if c.kind == COK_J
    )


def test_all_degrees_below_window():
    for p in (P3, P5, OddPrime(7)):
        for c in all_torsion_classes(p):
            assert c.degree < beta2_degree(p)


def test_stem_examples():
    t3 = _stem(P3, 3)
    assert [(c.name, c.order_valuation) for c in t3] == [("alpha_bar(1)", 1)]
    t10 = _stem(P3, 10)
    assert [(c.name, c.order_valuation) for c in t10] == [("beta1", 1)]
    t39 = _stem(P5, 39)
    assert [(c.name, c.order_valuation) for c in t39] == [("alpha_bar(5)", 2)]
    assert _stem(P5, 1) == []


def test_stem_table_stops_below_beta2():
    # the table does not extrapolate: a bound beyond beta2 is capped
    assert all_torsion_classes(P3, 1000) == all_torsion_classes(P3)
    assert _stem(P3, 25) == []


def test_stems_sorted_and_complete():
    every = all_torsion_classes(P3)
    assert every == sorted(every, key=lambda c: (c.degree, c.name))
    for t in range(0, beta2_degree(P3) + 1):
        assert all_torsion_classes(P3, t) == [c for c in every if c.degree < t]
