"""The verify suite: its elimination oracle against the quotient series,
its chart checks at primes beyond the default list, how often those
checks build a chart, and the bound on chart size."""

from collections import Counter

import pytest

from whcalc import cli
from whcalc import verify as vf
from whcalc.ahss import ChartTarget, build_e2, chart_window, run_differentials
from whcalc.arith import OddPrime


@pytest.mark.parametrize("pp", [3, 5, 7])
def test_basis_counts_deep(pp):
    vf._check_basis_counts(OddPrime(pp), deep=True)


def test_basis_counts_catches_an_off_by_one_series(monkeypatch):
    real = vf.quotient_module_dims

    def mutated(p, spec, max_degree, a=None):
        dims = real(p, spec, max_degree, a=a)
        if spec == "A//E1":
            dims[17] += 1  # the class of tau_2 at p=3
        return dims

    monkeypatch.setattr(vf, "quotient_module_dims", mutated)
    rows = {r.name: r for r in vf.run_checks([OddPrime(3)])}
    assert rows["basis-counts"].status == vf.FAIL
    assert rows["basis-counts"].detail.startswith("A(b,Q1) has rank 3 in degree 17")


# Detail lines of the four chart checks at the larger primes, as printed
# by `whcalc verify`; each needs whole-window charts at that prime.
CHART_CHECK_DETAILS = {
    11: (
        "closed form matches the chart engine in degrees 1..456",
        "230 adjusted cells match through total degree 455",
        "230 odd stems agree with the closed form",
    ),
    13: (
        "closed form matches the chart engine in degrees 1..644",
        "326 adjusted cells match through total degree 643",
        "324 odd stems agree with the closed form",
    ),
    17: (
        "closed form matches the chart engine in degrees 1..1116",
        "566 adjusted cells match through total degree 1115",
        "560 odd stems agree with the closed form",
    ),
}


@pytest.mark.parametrize("pp", sorted(CHART_CHECK_DETAILS))
def test_chart_checks_at_larger_primes(pp):
    p = OddPrime(pp)
    torsion, adjusted, stems = CHART_CHECK_DETAILS[pp]
    assert vf._check_torsion_vs_charts(p, deep=False) == torsion
    assert vf._check_adjustment_sets(p, deep=False) == adjusted
    assert vf._check_axis_orders(p, deep=False) == stems
    assert vf._check_conservation(p, deep=False) == (
        "kill ledgers balance on all three charts"
    )


def test_conservation_reads_degrees_outside_the_window(monkeypatch):
    # A ledger entry beyond the chart's top, where both page sums are 0,
    # must unbalance the row like any other.
    def chart(p, target):
        e2 = build_e2(p, target, chart_window(p, target) - 1)
        einf = run_differentials(e2)
        if target is ChartTarget.S_OF_CP:
            einf.kill_ledger[e2.max_total_degree + 1] = 1
        return e2, einf

    monkeypatch.setattr(vf, "_chart", chart)
    rows = {r.name: r for r in vf.run_checks([OddPrime(5)])}
    assert rows["chart-conservation"].status == vf.FAIL
    assert rows["chart-conservation"].detail == (
        "s-cp total degree 88: E2 0 - kills 1 != EINF 0"
    )


def test_each_chart_is_built_once_per_prime(monkeypatch):
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(vf, "build_e2", counted(vf.build_e2))
    monkeypatch.setattr(vf, "run_differentials", counted(vf.run_differentials))
    vf._chart.cache_clear()
    rows = vf.run_checks([OddPrime(17)])
    assert [r.name for r in rows if r.status != vf.PASS] == ["golden-files"]
    # seven page requests, three distinct pages: one whole window per target
    assert calls == {"build_e2": 3, "run_differentials": 3}
    vf.run_checks([OddPrime(3), OddPrime(5)])
    info = vf._chart.cache_info()
    assert info.maxsize == 3 and info.currsize <= info.maxsize
    assert calls == {"build_e2": 9, "run_differentials": 9}
    vf._chart.cache_clear()


def test_verify_refuses_a_prime_beyond_the_chart_bound(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("called before the chart bound was applied")

    monkeypatch.setattr(vf, "ensure_regular", never)
    monkeypatch.setattr(vf, "build_e2", never)
    assert cli.main(["verify", "--p", "3,997"]) == cli.EXIT_WINDOW
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the chart window (2p+1)(2p-2) = 3974040 at p=997 exceeds "
        f"verify's bound {vf.MAX_CHART_WINDOW}\n"
    )
    # the bound admits every regular prime up to 61 and refuses 67 on
    assert (2 * 61 + 1) * (2 * 61 - 2) <= vf.MAX_CHART_WINDOW
    assert (2 * 67 + 1) * (2 * 67 - 2) > vf.MAX_CHART_WINDOW
