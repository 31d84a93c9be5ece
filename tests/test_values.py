"""Value classes: immutable, hashed as their field tuple, with a
`Name(field=value, ...)` repr; Steenrod elements that are plain words and
dicts; chart summands that are plain keys; results that are the payload
dicts the CLI emits; a package namespace that imports lazily;
CLI calls that load only the modules they run; and public functions that
refuse a degree or an index out of range."""

import os
import subprocess
import sys

import pytest

import whcalc
from whcalc import emit
from whcalc.ahss import (
    ChartPage,
    J_OF_CP,
    build_e2,
    chart_window,
    run_differentials,
)
from whcalc.arith import OddPrime
from whcalc.errors import PreconditionError
from whcalc.steenrod import (
    admissible_basis,
    adem_normalize,
    milnor_primitive,
    word_degree,
    word_str,
)
from whcalc.stems import StemClass, alpha_bar
from whcalc.torsion import (
    ConcordanceFirstTorsion,
    FirstTorsion,
    concordance_first_torsion,
    first_p_torsion,
    sigma_c_summands,
    wh_torsion_profile,
)
from whcalc.verify import CheckResult
from whcalc.whcohomology import h_wh_report

from test_ahss import _e2_summands

P3 = OddPrime(3)
BETA1 = StemClass("beta1", 10, 1)

# Each value with its class's field names, in declaration order.
VALUES = [
    (P3, ("p",)),
    (BETA1, ("name", "degree", "order_valuation", "index")),
    (alpha_bar(P3, 3), ("name", "degree", "order_valuation", "index")),
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
    (CheckResult(3, "stub", "pass"), ("p", "name", "status", "detail")),
]
# Case number 3 belonged to the chart summand class, 4-6 to the Steenrod
# element classes, 7-8 to the sigma summand class, 9-10 to the torsion
# profile classes and 13 to the cohomology report class, which are now
# plain keys, words, dicts and stem classes (tested below); the other
# cases keep their ids.
CASE_NUMBERS = (0, 1, 2, 11, 12, 14)


@pytest.mark.parametrize(
    "value, names",
    VALUES,
    ids=[f"{type(v).__name__}{i}" for i, (v, _) in zip(CASE_NUMBERS, VALUES)],
)
def test_value_class_contract(value, names):
    fields = tuple(getattr(value, n) for n in names)
    assert hash(value) == hash(fields)
    assert type(value)(*fields) == value
    with pytest.raises(AttributeError):
        setattr(value, names[0], fields[0])
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields))
    assert repr(value) == f"{type(value).__name__}({shown})"


def test_value_class_defaults_and_types():
    assert BETA1.index is None
    assert CheckResult(3, "stub", "pass").detail == ""
    kinds = {type(v) for v, _ in VALUES}
    assert kinds == {
        OddPrime, StemClass, FirstTorsion, ConcordanceFirstTorsion, CheckResult,
    }
    assert ConcordanceFirstTorsion.__doc__.startswith(
        "First p-torsion transported to concordance and h-cobordism spaces."
    )


# The two results have no class of their own: `wh_torsion_profile` and
# `h_wh_report` return the payload dicts the CLI emits, and a sigma class
# is its cokernel-of-J stem class, keyed by the degree |theta| + 1.


def test_results_are_their_payloads():
    profile = wh_torsion_profile(P3, 24)
    assert emit.pi_wh(P3, 24)[1] == profile
    assert type(profile) is dict and type(profile["entries"]) is list
    assert all(type(e) is dict for e in profile["entries"])
    report = h_wh_report(P3, 12)
    assert emit.cohomology(P3, 12)[1] == report
    assert type(report) is dict
    for dims in (*report["pieces"].values(), report["total"]):
        assert type(dims) is dict and all(type(d) is int for d in dims)
    for d, theta in sigma_c_summands(P3).items():
        assert type(theta) is StemClass and theta.index is None
        assert d == theta.degree + 1


# A Steenrod element has no class of its own: a monomial is its admissible
# word, a tuple of int tokens, and a combination (an Adem normal form or a
# Milnor primitive) a fresh dict of nonzero coefficients mod p keyed by
# words of one degree.


def _assert_plain_combination(p, combo):
    assert type(combo) is dict
    for word, coeff in combo.items():
        assert type(word) is tuple and all(type(g) is int for g in word)
        assert 0 < coeff < p.p
    assert len({word_degree(p, w) for w in combo}) <= 1


def test_steenrod_monomial_is_its_word():
    basis = admissible_basis(P3, 20)
    assert (0, 3, 1) in basis and word_str((0, 3, 1)) == "b P3 P1"
    assert basis == sorted(basis, key=lambda w: (word_degree(P3, w), w))
    for word in basis:
        assert type(word) is tuple and all(type(g) is int for g in word)
        assert hash(word) == hash(tuple(word))
        assert adem_normalize(P3, word) == {word: 1}


def test_adem_normal_form_is_a_plain_dict():
    for p in (P3, OddPrime(5)):
        for word in ((0, 0), (1, 1), (1, 0, 1), (2, 0, 1), (4, 0, 1, 0)):
            combo = adem_normalize(p, word)
            _assert_plain_combination(p, combo)
            assert list(combo) == sorted(combo)
    combo = adem_normalize(P3, (1, 1))
    combo.clear()
    assert adem_normalize(P3, (1, 1)) == {(2,): 2}


def test_milnor_primitive_is_a_plain_dict():
    for p in (P3, OddPrime(5)):
        for n in range(4):
            qn = milnor_primitive(p, n)
            _assert_plain_combination(p, qn)
            assert qn and {word_degree(p, w) for w in qn} == {2 * p.p**n - 1}
    qn = milnor_primitive(P3, 1)
    qn.clear()
    assert milnor_primitive(P3, 1) == {(1, 0): 1, (0, 1): 2}


# A chart summand theta*b(k) has no class of its own either: a page maps
# each stem class theta, a plain key, to a dict of its column indices k
# and their valuations, classes in page order and columns in column order.


def test_chart_summand_is_a_plain_key():
    for p in (P3, OddPrime(5)):
        for target in emit.TARGETS:
            e2 = build_e2(p, target, chart_window(p, target) - 1)
            einf = run_differentials(e2)
            assert einf.summands
            for summands in (_e2_summands(e2), einf.summands):
                assert type(summands) is dict
                classes = list(summands)
                assert classes == sorted(
                    classes, key=lambda c: (c.degree, c.name)
                )
                for theta, column in summands.items():
                    assert type(theta) is StemClass
                    assert type(column) is dict and column
                    assert list(column) == sorted(column)
                    for k, valuation in column.items():
                        assert type(k) is int
                        assert type(valuation) is int and valuation > 0
            for theta, column in _e2_summands(e2).items():
                assert set(column.values()) == {theta.order_valuation}


def test_odd_prime_validates_and_stays_fixed():
    for bad in (4, 9, 2, 1, 15, 3.0, 5.0, "3", None):
        with pytest.raises(PreconditionError):
            OddPrime(bad)
    with pytest.raises(
        PreconditionError, match=r"^p must be an odd prime, got 3\.0$"
    ):
        OddPrime(3.0)
    with pytest.raises(AttributeError):
        del P3.p
    with pytest.raises(AttributeError):
        P3.r = 1
    assert P3 == OddPrime(3) and P3 != OddPrime(5) and P3 != (3,)
    assert {OddPrime(3): 1}[P3] == 1


def test_chart_pages_are_records():
    e2 = build_e2(P3, J_OF_CP, 12)
    einf = run_differentials(e2)
    for page in (e2, einf):
        assert type(page) is ChartPage
        assert page._fields == (
            "target", "p", "page_label", "max_total_degree", "summands",
            "kill_ledger", "torsion_by_degree",
        )
        with pytest.raises(AttributeError):
            page.summands = {}
        assert repr(page).startswith(
            f"ChartPage(target='j-cp', p={P3!r}, "
            f"page_label={page.page_label!r}, max_total_degree=12, "
        )
    # an E2 page holds its sums, but no summands and no kill ledger; the
    # sums and the ledger are lists of one int per total degree 0..12
    assert e2.summands is None and e2.kill_ledger is None
    assert einf.summands
    for values in (e2.torsion_by_degree, einf.torsion_by_degree,
                   einf.kill_ledger):
        assert type(values) is list and len(values) == 13
        assert all(type(v) is int for v in values) and any(values)


# Per call: the arguments, modules it must load (so the check is not
# vacuous) and modules it must leave out.  No call loads `dataclasses`,
# `inspect`, `argparse`, `gettext`, `locale`, `json`, `typing`, `re` or
# `enum`.
IMPORT_CASES = {
    "version": (
        ["--version"],
        {"whcalc.cli"},
        {"whcalc.ahss", "whcalc.steenrod", "whcalc.torsion",
         "whcalc.whcohomology", "whcalc.verify", "whcalc.render"},
    ),
    "help": (
        ["pi-wh", "-h"],
        {"whcalc.cli"},
        {"whcalc.torsion", "whcalc.render", "whcalc.verify"},
    ),
    "pi-wh-csv": (
        ["pi-wh", "--p", "5", "--max-degree", "40", "--format", "csv"],
        {"whcalc.torsion", "whcalc.render"},
        {"whcalc.steenrod", "whcalc.ahss", "whcalc.verify"},
    ),
    "ahss": (
        ["ahss", "--p", "5", "--max-degree", "40"],
        {"whcalc.ahss", "_json"},
        {"whcalc.steenrod", "whcalc.whcohomology", "whcalc.torsion",
         "whcalc.verify"},
    ),
    "cohomology": (
        ["cohomology", "--p", "3", "--max-degree", "40"],
        {"whcalc.steenrod", "whcalc.whcohomology"},
        {"whcalc.ahss", "whcalc.verify"},
    ),
    "verify": (
        ["verify", "--p", "3"],
        {"whcalc.verify", "whcalc.ahss", "whcalc.steenrod"},
        set(),
    ),
}


@pytest.mark.parametrize("case", IMPORT_CASES)
def test_cli_call_imports_only_what_it_runs(case):
    argv, loaded, left_out = IMPORT_CASES[case]
    src = os.path.dirname(os.path.dirname(os.path.abspath(whcalc.__file__)))
    code = (
        "import sys\n"
        "from whcalc import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write(' '.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    # -S keeps site-packages .pth hooks out of the measured import graph.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.split())
    assert loaded <= modules
    never = {
        "dataclasses", "inspect", "argparse", "gettext", "locale", "json",
        "typing", "re", "enum",
    }
    assert not (left_out | never) & modules


def test_package_names_resolve_lazily_to_their_definitions():
    for name in whcalc.__all__:
        value = getattr(whcalc, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value
    star: dict = {}
    exec("from whcalc import *", star)
    assert set(star) - {"__builtins__"} == set(whcalc.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        whcalc.no_such_name


def test_bare_package_import_loads_no_submodule_and_lists_every_name():
    src = os.path.dirname(os.path.dirname(os.path.abspath(whcalc.__file__)))
    code = (
        "import sys, whcalc\n"
        "print(sorted(m for m in sys.modules if m.startswith('whcalc')))\n"
        "print(sorted(set(whcalc.__all__) - set(dir(whcalc))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["['whcalc']", "[]", ""]


@pytest.mark.parametrize("name,args", [
    ("vp", (0,)),
    ("vp_factorial", (-1,)),
    ("binom_mod_p", (3, -1)),
    ("admissible_basis", (-1,)),
    ("milnor_dual_dims", (-1,)),
    ("milnor_primitive", (-1,)),
    ("h_sigma_c_dims", (-1,)),
    ("h_sigma_hp_dims", (-1,)),
    ("delta_star_report", (-1,)),
    ("h_wh_report", (-1,)),
])
def test_public_functions_refuse_out_of_range_arguments(name, args):
    with pytest.raises(PreconditionError):
        getattr(whcalc, name)(OddPrime(5), *args)
