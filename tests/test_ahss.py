"""Chart engine: E2 population, differential rules, conservation."""

import hashlib
from collections import Counter, defaultdict

import pytest

from whcalc import ahss, emit, stems
from whcalc.ahss import (
    EINF,
    ChartTarget,
    _columns,
    _page_classes,
    _under_supplied,
    build_e2,
    chart_window,
    j_order_valuation,
    page_payload,
    run_differentials,
)
from whcalc.arith import OddPrime, vp_factorial
from whcalc.errors import InconsistencyError, PreconditionError, WindowError

P3 = OddPrime(3)
P5 = OddPrime(5)


def _axis_kept_by_hand(summands):
    """R1 summand by summand over an E2 page's `summands`, the reference
    for `ahss._axis_kept`'s bisection, which it replaces under
    `monkeypatch`.  The image-of-J cells in total degree 2n-1 are
    alpha_bar(i)*b(n-(p-1)i), consumed in index order until the budget
    v_p(n!) = budgets[n] runs out.  Returns what each alpha_bar(i) keeps on
    the columns k >= 1, in column order."""

    def axis_kept(p, alpha, budgets):
        pp = p.p
        kept = defaultdict(list)
        for n, budget in enumerate(budgets):
            i, k = 1, n - (pp - 1)
            while k >= 1:
                val = summands.get((alpha[i], k))
                # d_q on alpha_bar(1)*b(k) is k times a unit
                if budget and (i > 1 or k % pp):
                    if val is None:
                        raise InconsistencyError(
                            f"R1: expected alpha_bar({i})*b({k}) on the page "
                            f"in total degree {2 * n - 1}"
                        )
                    take = val if val < budget else budget
                    val -= take
                    budget -= take
                if val:
                    kept[i].append((k, val))
                i, k = i + 1, k - (pp - 1)
            if budget:
                raise _under_supplied(p, n, budget)
        return kept

    return axis_kept


def _e2_summands(page):
    """An E2 page's summands theta*b(k) -> valuation in page order: the
    stem table placed on every column.  The package never builds this dict,
    as its E2 pages read their valuations from the table."""
    top = page.max_total_degree
    return {
        (theta, k): theta.order_valuation
        for theta in _page_classes(page.p, page.target, top)
        for k in _columns(page.target, top, theta.degree)
    }


def _grouped_page_payload(page):
    """The payload by grouping the page's `summands` into cells, the
    reference for `page_payload`'s lazy cells, which an E2 page forms
    column by column from the stem table."""
    einf = page.page_label == EINF
    cells = {}

    def cell(s, t):
        if (s, t) not in cells:
            cells[(s, t)] = {
                "s": s,
                "t": t,
                "labels": [],
                "valuation": 0 if t else "infinite",
                "aggregate_only": False,
            }
        return cells[(s, t)]

    for k in range(1, page.max_total_degree // 2 + 1):
        cell(2 * k, 0)["labels"].append(f"{k}!*b({k})" if einf else f"b({k})")
    if page.target is ChartTarget.S_OF_CPBAR:
        cell(-2, 0)["labels"].append("b(-1)")
    summands = page.summands if einf else _e2_summands(page)
    for (theta, k), valuation in summands.items():
        record = cell(2 * k, theta.degree)
        record["labels"].append(f"{theta.name}*b({k})")
        record["valuation"] += valuation
        record["aggregate_only"] |= einf and theta.kind == "im_j"
    return {
        "kind": "ahss-chart",
        "p": page.p.p,
        "target": page.target.value,
        "page_label": page.page_label,
        "max_total_degree": page.max_total_degree,
        "cells": [cells[st] for st in sorted(cells)],
    }


def _cells(page):
    """The page's payload cells, keyed by (s, t)."""
    return {(c["s"], c["t"]): c for c in page_payload(page)["cells"]}


def test_chart_windows():
    assert chart_window(P3, ChartTarget.J_OF_CP) == 28
    assert chart_window(P3, ChartTarget.S_OF_CP) == 28
    assert chart_window(P3, ChartTarget.S_OF_CPBAR) == 24
    assert chart_window(P5, ChartTarget.S_OF_CPBAR) == 84
    # beta2*b_1 over CP^inf, beta2*b_{-1} over the stunted spectrum
    for pp in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        p = OddPrime(pp)
        whole = (2 * pp + 1) * p.q
        assert chart_window(p, ChartTarget.J_OF_CP) == whole
        assert chart_window(p, ChartTarget.S_OF_CP) == whole
        assert chart_window(p, ChartTarget.S_OF_CPBAR) == whole - 4


def test_window_errors():
    with pytest.raises(WindowError):
        build_e2(P3, ChartTarget.S_OF_CPBAR, 24)
    with pytest.raises(PreconditionError):
        build_e2(P3, ChartTarget.J_OF_CP, -1)


def test_emit_refuses_an_unknown_target():
    with pytest.raises(PreconditionError, match="unknown target 'bad'"):
        emit.ahss(P3, "bad", "einf", 20)
    with pytest.raises(PreconditionError, match="unknown page 'e3'"):
        emit.ahss(P3, "s-cpbar", "e3", 20)


def test_e2_cells_examples():
    jpage = build_e2(P3, ChartTarget.J_OF_CP, 20)
    jcells = _cells(jpage)
    cell = jcells[(2, 3)]
    assert cell["labels"] == ["alpha_bar(1)*b(1)"]
    assert cell["valuation"] == 1
    assert _e2_summands(jpage)[(stems.alpha_bar(P3, 1), 1)] == 1

    spage = build_e2(P3, ChartTarget.S_OF_CPBAR, 20)
    scells = _cells(spage)
    cell = scells[(-2, 10)]
    assert cell["labels"] == ["beta1*b(-1)"]
    assert cell["valuation"] == 1

    assert (2, 1) not in jcells
    assert (2, 1) not in scells


def test_e2_axis_and_column_rules():
    scells = _cells(build_e2(P3, ChartTarget.S_OF_CPBAR, 20))
    assert (-2, 0) in scells  # bottom cell b(-1)
    assert (0, 0) not in scells  # no k = 0 column
    jcells = _cells(build_e2(P3, ChartTarget.J_OF_CP, 20))
    assert (-2, 0) not in jcells
    for (s, t) in jcells:
        assert s + t <= 20
        assert s >= 2


def test_run_differentials_requires_e2():
    page = run_differentials(build_e2(P3, ChartTarget.J_OF_CP, 20))
    assert page.page_label == EINF
    with pytest.raises(PreconditionError):
        run_differentials(page)


def test_einf_examples():
    page = run_differentials(build_e2(P3, ChartTarget.S_OF_CPBAR, 23))
    assert page.torsion_by_degree.get(15, 0) == 1
    assert page.torsion_by_degree.get(13, 0) == 2
    assert page.torsion_by_degree.get(0, 0) == 0
    # beta1*b(-1) was killed by the rule crossing into the bottom column
    assert (-2, 10) not in _cells(page)
    page5 = run_differentials(build_e2(P5, ChartTarget.S_OF_CPBAR, 40))
    assert page5.torsion_by_degree.get(1, 0) == 0


def test_j_order_examples():
    assert j_order_valuation(P3, 3) == 0
    assert j_order_valuation(P3, 7) == 2
    assert j_order_valuation(P3, 1) == 0
    with pytest.raises(PreconditionError):
        j_order_valuation(P3, 0)


def test_j_chart_matches_j_order_closed_form():
    top = chart_window(P3, ChartTarget.J_OF_CP) - 1
    page = run_differentials(build_e2(P3, ChartTarget.J_OF_CP, top))
    for n in range(1, (top + 1) // 2 + 1):
        assert page.torsion_by_degree.get(2 * n - 1, 0) == j_order_valuation(P3, n)


def test_axis_budget_is_vp_factorial():
    top = chart_window(P3, ChartTarget.J_OF_CP) - 1
    e2 = build_e2(P3, ChartTarget.J_OF_CP, top)
    before = e2.torsion_by_degree
    after = run_differentials(e2).torsion_by_degree
    for n in range(1, (top + 1) // 2 + 1):
        t = 2 * n - 1
        killed = before.get(t, 0) - after.get(t, 0)
        assert killed == vp_factorial(P3, n)


def test_kill_ledger_conservation():
    for p in (P3, P5):
        for target in ChartTarget:
            top = chart_window(p, target) - 1
            e2 = build_e2(p, target, top)
            einf = run_differentials(e2)
            assert einf.kill_ledger is not None
            before, after = e2.torsion_by_degree, einf.torsion_by_degree
            for d in range(0, top + 1):
                killed = einf.kill_ledger.get(d, 0)
                assert before.get(d, 0) - killed == after.get(d, 0)


def test_torsion_by_degree_sums_cell_valuations():
    # An E2 page sums its torsion from the stem table, one range-add per
    # class, and an EINF page over its survivors; the cells of each page's
    # payload must give the same sums.
    for p in map(OddPrime, (3, 5, 7, 11, 13, 17)):
        for target in ChartTarget:
            e2 = build_e2(p, target, chart_window(p, target) - 1)
            for page in (e2, run_differentials(e2)):
                sums = Counter()
                for (s, t), cell in _cells(page).items():
                    if t > 0:
                        sums[s + t] += cell["valuation"]
                assert page.torsion_by_degree == dict(sums)


def test_einf_imj_cells_are_aggregate_only():
    e2 = build_e2(P3, ChartTarget.S_OF_CPBAR, 23)
    page = run_differentials(e2)
    imj = defaultdict(bool)
    for (theta, k) in page.summands:
        imj[(2 * k, theta.degree)] |= theta.kind == "im_j"
    for (s, t), cell in _cells(page).items():
        if t == 0:
            assert cell["valuation"] == "infinite"
            assert not cell["aggregate_only"]
        else:
            assert cell["aggregate_only"] == imj[(s, t)]
    assert any(imj.values())
    assert not any(cell["aggregate_only"] for cell in _cells(e2).values())


def test_axis_classes_renamed_on_einf():
    e2 = build_e2(P3, ChartTarget.S_OF_CPBAR, 12)
    cells = _cells(run_differentials(e2))
    assert cells[(4, 0)]["labels"] == ["2!*b(2)"]
    assert cells[(-2, 0)]["labels"] == ["b(-1)"]
    cells = _cells(e2)
    assert cells[(4, 0)]["labels"] == ["b(2)"]
    assert cells[(-2, 0)]["labels"] == ["b(-1)"]


def test_page_payload_shape_and_order():
    page = run_differentials(build_e2(P3, ChartTarget.S_OF_CPBAR, 14))
    payload = page_payload(page)
    assert payload["kind"] == "ahss-chart"
    assert payload["target"] == "s-cpbar"
    assert payload["page_label"] == EINF
    cells = list(payload["cells"])
    assert cells == sorted(cells, key=lambda c: (c["s"], c["t"]))
    for cell in cells:
        if cell["t"] == 0:
            assert cell["valuation"] == "infinite"
        else:
            assert isinstance(cell["valuation"], int)


@pytest.mark.parametrize("pp", [3, 5, 7, 11, 13, 17, 19, 23])
def test_lazy_cells_match_the_grouped_summands(pp):
    p = OddPrime(pp)
    for target in ChartTarget:
        last = chart_window(p, target) - 1
        for top in sorted({t for t in (0, 1, 40) if t <= last} | {last}):
            e2 = build_e2(p, target, top)
            pages = (e2, run_differentials(e2))
            lazy = [page_payload(page) for page in pages]
            for payload in lazy:
                payload["cells"] = list(payload["cells"])
            # the E2 cells came from the stem table: the page holds no summands
            assert e2.summands is None
            assert lazy == [_grouped_page_payload(page) for page in pages]


def test_axis_rule_names_a_missing_summand(monkeypatch):
    # In total degree 9 at p=3 the axis rule needs alpha_bar(2)*b(1): the
    # only other image-of-J cell there, alpha_bar(1)*b(3), has p | k.
    e2 = build_e2(P3, ChartTarget.J_OF_CP, 20)
    assert _cells(e2)[(2, 7)]["labels"] == ["alpha_bar(2)*b(1)"]
    summands = _e2_summands(e2)
    assert summands.pop((stems.alpha_bar(P3, 2), 1)) == 1
    monkeypatch.setattr(ahss, "_axis_kept", _axis_kept_by_hand(summands))
    with pytest.raises(InconsistencyError, match=r"alpha_bar\(2\)\*b\(1\)"):
        run_differentials(e2)


def _tops(p, target):
    window = chart_window(p, target)
    return sorted({window - 1, window - 5, window // 2, 1, 0})


@pytest.mark.parametrize("pp", [3, 5, 7, 11, 13, 17])
def test_lazy_e2_page_matches_its_materialized_cells(pp, monkeypatch):
    # The hand-built axis rule runs summand by summand over the E2 page's
    # materialized summands, the reference for the bisection; at p=17 axis
    # budgets run across many indices.
    p = OddPrime(pp)
    for target in ChartTarget:
        tops = _tops(p, target) if pp < 17 else [chart_window(p, target) - 1]
        for top in tops:
            e2 = build_e2(p, target, top)
            lazy = run_differentials(e2)
            with monkeypatch.context() as m:
                m.setattr(ahss, "_axis_kept", _axis_kept_by_hand(_e2_summands(e2)))
                by_hand = run_differentials(e2)
            # lists, so the page order is checked too
            assert list(lazy.summands.items()) == list(by_hand.summands.items())
            assert lazy.kill_ledger == by_hand.kill_ledger


def test_chart_cost_follows_the_window_not_p(monkeypatch):
    # No stem class at p=100003 lies in the degrees a chart to total degree
    # 40 reaches, so its pages need no alpha_bar; the whole stem table below
    # beta2 would take about 2p of them.
    calls = Counter()
    real = stems.alpha_bar

    def counted(p, i):
        calls["alpha_bar"] += 1
        if calls["alpha_bar"] > 1000:
            raise AssertionError("alpha_bar built beyond the chart's window")
        return real(p, i)

    monkeypatch.setattr(stems, "alpha_bar", counted)
    p = OddPrime(100003)
    for target in emit.TARGETS:
        for page in emit.PAGES:
            _, payload = emit.ahss(p, target, page, 40)
            cells = list(payload["cells"])
            assert cells
            assert all(cell["t"] == 0 for cell in cells)
    assert calls["alpha_bar"] < 100


def test_einf_run_leaves_e2_cells_unbuilt():
    for target in ChartTarget:
        e2 = build_e2(P5, target, chart_window(P5, target) - 1)
        einf = run_differentials(e2)
        assert e2.torsion_by_degree and einf.summands
        assert e2.summands is None


@pytest.mark.parametrize("pp", [3, 5, 7, 11, 13, 17])
def test_whole_window_j_chart_restricts_to_the_stunted_window(pp):
    # verify's chart-adjustment-sets row reads the whole-window image-of-J
    # page at the stunted window's degrees instead of building that chart.
    p = OddPrime(pp)
    target = ChartTarget.J_OF_CP
    top = chart_window(p, ChartTarget.S_OF_CPBAR) - 1
    whole = run_differentials(build_e2(p, target, chart_window(p, target) - 1))
    short = run_differentials(build_e2(p, target, top))
    assert [
        ((theta, k), val) for (theta, k), val in whole.summands.items()
        if 2 * k + theta.degree <= top
    ] == list(short.summands.items())


def test_small_windows_run_clean():
    for p in (P3, P5):
        for target in ChartTarget:
            for d in (0, 1, 2, 5, 9):
                run_differentials(build_e2(p, target, d))


# SHA-256 of the JSON envelope of both pages of every whole-window chart at
# p=3, 5, 11 and 17.  Chart JSON is byte-stable output, so no change to the
# engine may move any of them.  p=3 is the only prime with two summands in
# a cell (alpha1_beta1_sq and alpha_bar(6) at t=23), so it pins their order.
CHART_DIGESTS = {
    (3, "j-cp", "e2"): "c34132f32084b87acd7017aee17e9d89a983c136a8cb33eb8dfdc0008f498620",
    (3, "j-cp", "einf"): "6f01fead5cfff360fdab2afa318e8a286a84fb232fa7226eb2a2c02225528eef",
    (3, "s-cp", "e2"): "3fd745d410eef832711895f3091241a6ca9a5820fb80167b2cb99fde18c1de73",
    (3, "s-cp", "einf"): "3a743848d9bb4c2d1d24d57be68dd7c7d83b879ffcc487f31eb3a947e37553b5",
    (3, "s-cpbar", "e2"): "239fbc9a9fad0c041c73e4aa6ebd367ba64ac6395df1a2b65511f7b8f9fc2a85",
    (3, "s-cpbar", "einf"): "7dce5f958ccd3b34a8e151d4029b68e6481b040bd7a15c76723862a35d1db87a",
    (5, "j-cp", "e2"): "0b25c7e7b28c12d4865dcdf0d9c9dbefa896527f8225a37c63afdfc138a36cb2",
    (5, "j-cp", "einf"): "5b40e31aacb8edb4d0343c43728b4a3aff7000e6f62d38e0fdea820a95a6ea64",
    (5, "s-cp", "e2"): "3b468c7a3f87f8563a3ef158fb9e85f77723b2c21543f468ef269f8b12708ef5",
    (5, "s-cp", "einf"): "504659db419623fc7d1ece3696940cd11f7065051cb83d3019f529304ca7179e",
    (5, "s-cpbar", "e2"): "2529727d0b0ff7eb9d1dbf96927c422a3168f26d9075f23878d32cf8e3c98c95",
    (5, "s-cpbar", "einf"): "16aa6c04944e7fa8aaf5bfbc4ef1e5b7206b81369831dfcccb89f3e2e43787b8",
    (11, "j-cp", "e2"): "8e6514af95fc077921a99613272a3ca0f4a1008764b6ef8b2f744875efde8c8d",
    (11, "j-cp", "einf"): "6eb33897d2cc2122500043a7cbd4d6d6cdfbad03298d819ad6b11706a9d8dd93",
    (11, "s-cp", "e2"): "ca05e90a7f1d74076c34e8318b644c3c5534a0577ff2ea26d9ed38492c2bfb02",
    (11, "s-cp", "einf"): "1a081af69e34220506c12db568c98dab3ac492a956839b07e76f4805c53f5140",
    (11, "s-cpbar", "e2"): "a71693cd45c0f0818f0c7b21a70216f04ea73b6bc23222c6ef285b9f3db67248",
    (11, "s-cpbar", "einf"): "7f09931af0d609227c60bf8fd111a0d51391d1530eb1a378055de718b1b7252a",
    (17, "j-cp", "e2"): "f9f0b5c8d0f7b1e0dc20b12faf5007ccc769b15ab4f1b4d695dd3c65a2332678",
    (17, "j-cp", "einf"): "45adfad3ec4f2e2f5c4fb7b35550fcb7915bc85397133c0fec53bc7e9ab4ff7d",
    (17, "s-cp", "e2"): "952bbe1902ff10b8f016764e7bf1dfad5eb9139a653e3c85644a926387caca56",
    (17, "s-cp", "einf"): "be03379f6f02bbc427e3e5473ea9de9893f642ac3726af2c7c7610f2a3d67a32",
    (17, "s-cpbar", "e2"): "4f16e6fd9343c20d0692b211ebd16c878ec247c947e5f4193a94707f5ef9efcf",
    (17, "s-cpbar", "einf"): "a9ea31cf4b16bbea49f7d7104eab48999f8c35159a76677d0bf5c07e5bf7c861",
}


@pytest.mark.parametrize("pp,target,page", sorted(CHART_DIGESTS))
def test_chart_bytes_pinned(pp, target, page):
    p = OddPrime(pp)
    top = chart_window(p, ChartTarget(target)) - 1
    text = emit.envelope_text(*emit.ahss(p, target, page, top))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == CHART_DIGESTS[(pp, target, page)]
