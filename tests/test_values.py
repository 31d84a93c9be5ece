"""Value classes: immutable, hashed as their field tuple, with a
`Name(field=value, ...)` repr; and an import of the CLI that stays lean."""

import os
import subprocess
import sys

import pytest

import whcalc
from whcalc.ahss import ChartClass, ChartPage, ChartTarget, build_e2
from whcalc.arith import OddPrime
from whcalc.errors import PreconditionError
from whcalc.steenrod import (
    AdmissibleMonomial,
    FpLinearCombo,
    MilnorPrimitive,
    milnor_primitive,
)
from whcalc.stems import COK_J, StemClass, alpha_bar
from whcalc.torsion import (
    ConcordanceFirstTorsion,
    FirstTorsion,
    ProfileEntry,
    SplittingConstants,
    StemSummand,
    TorsionProfile,
    concordance_first_torsion,
    first_p_torsion,
    wh_torsion_profile,
)
from whcalc.verify import CheckResult
from whcalc.whcohomology import CohomologyReport, h_wh_report

P3 = OddPrime(3)
BETA1 = StemClass("beta1", 10, 1, COK_J)

# Each value with its class's field names, in declaration order.
VALUES = [
    (P3, ("p",)),
    (BETA1, ("name", "degree", "order_valuation", "kind", "index")),
    (alpha_bar(P3, 3), ("name", "degree", "order_valuation", "kind", "index")),
    (
        ChartClass(BETA1, 2, 1),
        ("theta", "k", "valuation", "axis_factor", "aggregate_only"),
    ),
    (AdmissibleMonomial((0, 3, 0, 1)), ("word",)),
    (FpLinearCombo(((AdmissibleMonomial((1,)), 2),)), ("terms",)),
    (milnor_primitive(P3, 1), ("index", "expansion")),
    (
        SplittingConstants.from_prime(P3),
        ("p", "q", "beta2_degree", "sigma_c_degrees"),
    ),
    (StemSummand("sigma(beta1)", 1), ("generator", "valuation")),
    (ProfileEntry(11, 1, ("sigma(beta1)",)), ("degree", "valuation", "generators")),
    (
        wh_torsion_profile(P3, 24),
        ("p", "max_degree", "assumptions", "entries", "annotations"),
    ),
    (first_p_torsion(P3), ("degree", "valuation", "generator")),
    (
        concordance_first_torsion(P3),
        (
            "p",
            "pi_degree_C",
            "pi_degree_H",
            "group_valuation",
            "connectivity_hypothesis",
            "dimension_hypothesis",
        ),
    ),
    (
        h_wh_report(P3, 12),
        ("p", "max_degree", "assumptions", "pieces", "total", "annotations"),
    ),
    (CheckResult(3, "stub", "pass"), ("p", "name", "status", "detail")),
]


@pytest.mark.parametrize(
    "value, names",
    VALUES,
    ids=[f"{type(v).__name__}{i}" for i, (v, _) in enumerate(VALUES)],
)
def test_value_class_contract(value, names):
    fields = tuple(getattr(value, n) for n in names)
    try:
        want = hash(fields)
    except TypeError:  # a report holding dicts is unhashable, like its fields
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == want
    assert type(value)(*fields) == value
    with pytest.raises(AttributeError):
        setattr(value, names[0], fields[0])
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields))
    assert repr(value) == f"{type(value).__name__}({shown})"


def test_value_class_defaults_and_types():
    assert BETA1.index is None
    cell = ChartClass(None, 3, None)
    assert (cell.axis_factor, cell.aggregate_only) == (None, False)
    assert CheckResult(3, "stub", "pass").detail == ""
    kinds = {type(v) for v, _ in VALUES}
    assert kinds == {
        OddPrime, StemClass, ChartClass, AdmissibleMonomial, FpLinearCombo,
        MilnorPrimitive, SplittingConstants, StemSummand, ProfileEntry,
        TorsionProfile, FirstTorsion, ConcordanceFirstTorsion,
        CohomologyReport, CheckResult,
    }


def test_odd_prime_validates_and_stays_fixed():
    for bad in (4, 9, 2, 1, 15):
        with pytest.raises(PreconditionError):
            OddPrime(bad)
    with pytest.raises(AttributeError):
        del P3.p
    with pytest.raises(AttributeError):
        P3.r = 1
    assert P3 == OddPrime(3) and P3 != OddPrime(5) and P3 != (3,)
    assert {OddPrime(3): 1}[P3] == 1


def test_chart_page_repr_and_cached_sums():
    page = build_e2(P3, ChartTarget.J_OF_CP, 12)
    assert page.kill_ledger is None
    assert repr(page) == (
        f"ChartPage(target={ChartTarget.J_OF_CP!r}, p={P3!r}, "
        f"page_label='E2', max_total_degree=12, cells={page.cells!r})"
    )
    assert page.torsion_by_degree is page.torsion_by_degree
    fresh = ChartPage(page.target, P3, "E2", 12, dict(page.cells), {4: 1})
    assert fresh.kill_ledger == {4: 1}
    assert fresh.torsion_by_degree == page.torsion_by_degree


def test_cli_import_leaves_out_dataclasses_and_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(whcalc.__file__)))
    code = (
        "import sys, whcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    # -S keeps site-packages .pth hooks out of the measured import graph.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
