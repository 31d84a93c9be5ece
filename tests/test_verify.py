"""The verify suite: its elimination oracle against the quotient series,
a plausible slip per row that the row must report as a failure, its
chart checks at primes beyond the default list, how often those checks
build a chart, the bound on chart size and the memory the chart rows
take at that bound."""

import shutil
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from whcalc import cli, whcohomology
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


def test_basis_counts_catches_a_miscounted_degree(monkeypatch):
    real = vf.milnor_dual_dims

    def mutated(p, max_degree, *, first_exterior=0):
        dims = real(p, max_degree, first_exterior=first_exterior)
        if not first_exterior:
            dims[4] += 1  # a second class beside P1 at p=3
        return dims

    monkeypatch.setattr(vf, "milnor_dual_dims", mutated)
    row = _rows()["basis-counts"]
    assert row.status == vf.FAIL
    assert row.detail == "counts differ in degrees [4]"


def test_basis_counts_catches_a_bockstein_that_acts(monkeypatch):
    real = vf.act_word_on_projective

    def mutated(p, word, k):
        # the Bockstein read as the identity instead of killing y^k
        return real(p, tuple(g for g in word if g), k)

    monkeypatch.setattr(vf, "act_word_on_projective", mutated)
    row = _rows()["basis-counts"]
    assert row.status == vf.FAIL
    assert row.detail == "A(b,Q1) acts nonzero on y^-1 in degree 1"


def _rows():
    """The rows of `verify --p 3`, by check name."""
    return {r.name: r for r in vf.run_checks([OddPrime(3)])}


def test_torsion_vs_charts_catches_a_shifted_profile_entry(monkeypatch):
    real = vf._wh_valuations

    def mutated(p, top):
        vals, sigma = real(p, top)
        # the first degree the chart supplies, moved one degree up
        vals[16], vals[17] = 0, vals[16]
        return vals, sigma

    monkeypatch.setattr(vf, "_wh_valuations", mutated)
    row = _rows()["torsion-vs-charts"]
    assert row.status == vf.FAIL
    assert row.detail == "degree 16: closed form 0, engine 1"


def test_axis_orders_catches_a_dropped_summand(monkeypatch):
    def chart(p, target):
        e2 = build_e2(p, target, chart_window(p, target) - 1)
        einf = run_differentials(e2)
        if target is ChartTarget.J_OF_CP:
            theta, column = next(iter(einf.summands.items()))
            k = next(iter(column))
            einf.torsion_by_degree[2 * k + theta.degree] -= column.pop(k)
        return e2, einf

    monkeypatch.setattr(vf, "_chart", chart)
    row = _rows()["axis-orders"]
    assert row.status == vf.FAIL
    assert row.detail == "stem 9: chart 0, closed form 1"


def test_adjustment_sets_catch_a_dropped_summand(monkeypatch):
    def chart(p, target):
        e2 = build_e2(p, target, chart_window(p, target) - 1)
        einf = run_differentials(e2)
        if target is ChartTarget.S_OF_CPBAR:
            theta, k = next(
                (theta, k) for theta, column in einf.summands.items()
                for k in column if k > 0
            )
            del einf.summands[theta][k]
        return e2, einf

    monkeypatch.setattr(vf, "_chart", chart)
    row = _rows()["chart-adjustment-sets"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "cell sets differ: extra=[] missing=[('alpha_bar(3)', 1)] revalued=[]"
    )


def test_annihilators_catch_a_dropped_annihilator_word(monkeypatch):
    real = vf.annihilator_basis

    def mutated(p, a, max_degree):
        words = real(p, a, max_degree)
        return words[:-1] if a == -1 else words

    monkeypatch.setattr(vf, "annihilator_basis", mutated)
    row = _rows()["annihilators"]
    assert row.status == vf.FAIL
    assert row.detail == "y^-1 live words and annihilator differ on [(9, 1)]"


def _move_a_live_word(monkeypatch, a, word):
    """Report `word` as annihilating y^a rather than acting on it, in both
    `live_words` and `annihilator_basis`, so the two still agree."""
    live, ann = vf.live_words, vf.annihilator_basis

    def live_words(p, b, max_degree):
        words = list(live(p, b, max_degree))
        return [w for w in words if w != word] if b == a else words

    def annihilator_basis(p, b, max_degree):
        words = ann(p, b, max_degree)
        return [*words, word] if b == a else words

    monkeypatch.setattr(vf, "live_words", live_words)
    monkeypatch.setattr(vf, "annihilator_basis", annihilator_basis)


def test_annihilators_catch_a_lost_single_power(monkeypatch):
    # P^10, the top single power at degree 40, read as killing y^-1
    _move_a_live_word(monkeypatch, -1, (10,))
    row = _rows()["annihilators"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "y^-1 complement mismatch: [] unexpected, [(10,)] missing"
    )


def test_annihilators_catch_a_lost_power_chain_at_p5_deep(monkeypatch):
    # P^5 P^1, the longest power chain on y^1 to degree 200, read as zero
    _move_a_live_word(monkeypatch, 1, (5, 1))
    rows = {r.name: r for r in vf.run_checks([OddPrime(5)], deep=True)}
    row = rows["annihilators"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "y^1 complement mismatch: [] unexpected, [(5, 1)] missing"
    )


def test_adem_action_catches_a_wrong_coefficient(monkeypatch):
    real = vf.adem_normalize

    def mutated(p, word):
        combo = real(p, word)
        if word == (1, 1):  # P1 P1 = 2 P2, with the binomial's digit lost
            return {w: 1 for w in combo}
        return combo

    monkeypatch.setattr(vf, "adem_normalize", mutated)
    row = _rows()["adem-action"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "word (1, 1) on y^-1: literal {3: 2}, normalized {3: 1}"
    )


def test_delta_rank_catches_a_source_shifted_by_one(monkeypatch):
    real = vf.delta_star_rank_data

    def mutated(p, max_degree):
        data = real(p, max_degree)
        data["source"] = {d + 1: n for d, n in data["source"].items()}
        return data

    monkeypatch.setattr(vf, "delta_star_rank_data", mutated)
    row = _rows()["delta-rank"]
    assert row.status == vf.FAIL
    assert row.detail == "degree 3: cok - ker = 0, target - source = 1"


def test_delta_rank_catches_a_class_in_both_cokernel_and_kernel(monkeypatch):
    # a spurious class of cok(delta*) in degree 3 with a kernel class one
    # degree below keeps rank-nullity, but delta* is injective there
    real = vf.delta_star_report

    def mutated(p, max_degree):
        report = real(p, max_degree)
        next(iter(report["coker"].values()))[3] = 1
        report["ker"]["sigma^2 C_1/A(b,Q1)"] = {2: 1}
        return report

    monkeypatch.setattr(vf, "delta_star_report", mutated)
    row = _rows()["delta-rank"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "degree 3 lies in the injectivity range but cok 1 != target - source 0"
    )


def test_cohomology_additivity_catches_a_miscounted_total(monkeypatch):
    real = vf.h_wh_report

    def mutated(p, max_degree):
        report = real(p, max_degree)
        report["total"][17] += 1
        return report

    monkeypatch.setattr(vf, "h_wh_report", mutated)
    row = _rows()["cohomology-additivity"]
    assert row.status == vf.FAIL
    assert row.detail == "total differs from the sum of the pieces"


def test_cohomology_additivity_catches_a_kernel_block_at_p3(monkeypatch):
    # the odd indices a <= p-4 taken as a <= p-2, which gives p=3 a CP[1]
    # piece and a kernel block; the pieces still sum to their total
    monkeypatch.setattr(
        whcohomology, "_odd_summand_indices", lambda p: range(1, p.p - 1, 2)
    )
    row = _rows()["cohomology-additivity"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "p=3 pieces ['H(sigma CP[1])/A(sigma y^1)', 'H(sigma HP)', "
        "'H(sigma c)', 'sigma^-2 C/A(b,Q1)', 'sigma^2 C_1/A(b,Q1)'] != "
        "['H(sigma HP)', 'H(sigma c)', 'sigma^-2 C/A(b,Q1)']"
    )


def test_golden_files_catches_one_changed_byte(monkeypatch, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(Path(vf.__file__).parent / "golden", golden)
    target = golden / "pi_wh_p3_d24.json"
    text = target.read_bytes()
    at = text.index(b'"valuation": 3')
    target.write_bytes(text[:at] + b'"valuation": 4' + text[at + 14:])
    monkeypatch.setattr(vf, "__file__", str(tmp_path / "verify.py"))
    row = _rows()["golden-files"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "pi_wh_p3_d24.json differs from the regenerated emission"
    )


def test_golden_files_catches_a_missing_file(monkeypatch, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(Path(vf.__file__).parent / "golden", golden)
    (golden / "pi_wh_p3_d24.json").unlink()
    monkeypatch.setattr(vf, "__file__", str(tmp_path / "verify.py"))
    row = _rows()["golden-files"]
    assert row.status == vf.FAIL
    assert row.detail == "pinned emission pi_wh_p3_d24.json is missing"


def test_a_library_error_in_a_check_becomes_a_fail_row(monkeypatch):
    # charts asked for one degree beyond their window, which the engine
    # refuses; each chart row reports the error and the other rows still run
    def chart(p, target):
        return build_e2(p, target, chart_window(p, target))

    monkeypatch.setattr(vf, "_chart", chart)
    rows = _rows()
    assert len(rows) == len(vf._CHECKS)
    row = rows["torsion-vs-charts"]
    assert row.status == vf.FAIL
    assert row.detail == (
        "WindowError: chart s-cpbar at p=3 is only valid in total degrees "
        "< 24; got max_total_degree=24"
    )
    assert rows["basis-counts"].status == vf.PASS


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


def _conservation_row(monkeypatch, change):
    """The chart-conservation row of `verify --p 5` with `change` applied
    to the E2 and EINF pages of the s-cp chart, whose top is 87."""
    def chart(p, target):
        e2 = build_e2(p, target, chart_window(p, target) - 1)
        einf = run_differentials(e2)
        if target is ChartTarget.S_OF_CP:
            change(e2, einf)
        return e2, einf

    monkeypatch.setattr(vf, "_chart", chart)
    return {r.name: r for r in vf.run_checks([OddPrime(5)])}[
        "chart-conservation"
    ]


@pytest.mark.parametrize("change,detail", [
    (lambda e2, einf: einf.kill_ledger.append(0),
     "s-cp kill ledger: 89 entries for total degrees 0..87"),
    (lambda e2, einf: e2.torsion_by_degree.append(0),
     "s-cp E2 sums: 89 entries for total degrees 0..87"),
    (lambda e2, einf: einf.torsion_by_degree.pop(),
     "s-cp EINF sums: 87 entries for total degrees 0..87"),
], ids=["long-ledger", "long-e2-sums", "short-einf-sums"])
def test_conservation_needs_one_entry_per_degree(monkeypatch, change, detail):
    # Each list must hold exactly the degrees 0..top: comparing lists of
    # different lengths entry by entry would pass on the shorter one.
    row = _conservation_row(monkeypatch, change)
    assert row.status == vf.FAIL
    assert row.detail == detail


def test_conservation_catches_an_extra_kill_at_the_top(monkeypatch):
    def change(e2, einf):
        einf.kill_ledger[e2.max_total_degree] += 1

    row = _conservation_row(monkeypatch, change)
    assert row.status == vf.FAIL
    assert row.detail == "s-cp total degree 87: E2 14 - kills 13 != EINF 2"


def test_chart_rows_stay_small_at_p61():
    # The four chart rows at p=61, the largest prime verify accepts, keep
    # their three whole-window charts and their per-degree lists well
    # below 4 MB of Python allocations.
    p = OddPrime(61)
    rows = ("torsion-vs-charts", "chart-adjustment-sets", "axis-orders",
            "chart-conservation")
    checks = [fn for name, fn in vf._CHECKS if name in rows]
    assert len(checks) == len(rows)
    vf._chart.cache_clear()
    tracemalloc.start()
    try:
        for check in checks:
            check(p, deep=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        vf._chart.cache_clear()
    assert peak < 4 * 2**20


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
