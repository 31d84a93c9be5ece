"""Chart engine: E2 population, differential rules, conservation."""

import hashlib
from collections import Counter, defaultdict

import pytest

from whcalc import ahss, emit, stems
from whcalc.ahss import (
    EINF,
    J_OF_CP,
    S_OF_CP,
    S_OF_CPBAR,
    _columns,
    _page_classes,
    _under_supplied,
    build_e2,
    chart_window,
    j_order_valuation,
    page_payload,
    run_differentials,
)
from whcalc.arith import OddPrime, vp, vp_factorial
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
                val = summands.get(alpha[i], {}).get(k)
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
    """An E2 page's summands as an EINF page holds them, {theta: {k:
    valuation}} in page order: the stem table placed on every column.  The
    package never builds this dict, as its E2 pages read their valuations
    from the table."""
    top = page.max_total_degree
    return {
        theta: dict.fromkeys(
            _columns(page.target, top, theta.degree), theta.order_valuation
        )
        for theta in _page_classes(page.p, page.target, top)
    }


def _survivors(summands):
    """The (theta, k, valuation) triples of a page's summands, in page
    order, so that two pages compare in order and not only as dicts."""
    return [
        (theta, k, valuation)
        for theta, column in summands.items()
        for k, valuation in column.items()
    ]


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
    if page.target == S_OF_CPBAR:
        cell(-2, 0)["labels"].append("b(-1)")
    summands = page.summands if einf else _e2_summands(page)
    for theta, k, valuation in _survivors(summands):
        record = cell(2 * k, theta.degree)
        record["labels"].append(f"{theta.name}*b({k})")
        record["valuation"] += valuation
        record["aggregate_only"] |= einf and theta.kind == "im_j"
    return {
        "kind": "ahss-chart",
        "p": page.p.p,
        "target": page.target,
        "page_label": page.page_label,
        "max_total_degree": page.max_total_degree,
        "cells": [cells[st] for st in sorted(cells)],
    }


def _cells(page):
    """The page's payload cells, keyed by (s, t)."""
    return {(c["s"], c["t"]): c for c in page_payload(page)["cells"]}


def test_chart_windows():
    assert chart_window(P3, J_OF_CP) == 28
    assert chart_window(P3, S_OF_CP) == 28
    assert chart_window(P3, S_OF_CPBAR) == 24
    assert chart_window(P3, "s-cpbar") == 24  # a string, as argv gives it
    assert chart_window(P5, S_OF_CPBAR) == 84
    # beta2*b_1 over CP^inf, beta2*b_{-1} over the stunted spectrum
    for pp in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        p = OddPrime(pp)
        whole = (2 * pp + 1) * p.q
        assert chart_window(p, J_OF_CP) == whole
        assert chart_window(p, S_OF_CP) == whole
        assert chart_window(p, S_OF_CPBAR) == whole - 4


def test_window_errors():
    for target in (S_OF_CPBAR, "s-cpbar"):
        with pytest.raises(WindowError):
            build_e2(P3, target, 24)
    with pytest.raises(PreconditionError):
        build_e2(P3, J_OF_CP, -1)


def test_emit_refuses_an_unknown_target():
    with pytest.raises(PreconditionError, match="unknown target 'bad'"):
        emit.ahss(P3, "bad", "einf", 20)
    with pytest.raises(PreconditionError, match="unknown page 'e3'"):
        emit.ahss(P3, "s-cpbar", "e3", 20)


@pytest.mark.parametrize("bad", ["S-CP", "s-cp "])
def test_one_gate_refuses_a_target_outside_targets(bad):
    message = f"unknown target {bad!r}"
    with pytest.raises(PreconditionError, match=message):
        chart_window(P3, bad)
    with pytest.raises(PreconditionError, match=message):
        build_e2(P3, bad, 20)
    with pytest.raises(PreconditionError, match=message):
        emit.ahss(P3, bad, "einf", 20)


@pytest.mark.parametrize("p", [P3, P5])
def test_a_target_is_compared_by_value(p):
    built = "".join(["s-", "cpbar"])
    assert built is not S_OF_CPBAR
    top = chart_window(p, S_OF_CPBAR) - 1
    e2, want_e2 = build_e2(p, built, top), build_e2(p, S_OF_CPBAR, top)
    einf, want_einf = run_differentials(e2), run_differentials(want_e2)
    assert e2 == want_e2 and einf == want_einf
    for page, want in ((e2, want_e2), (einf, want_einf)):
        got, expected = page_payload(page), page_payload(want)
        assert list(got.pop("cells")) == list(expected.pop("cells"))
        assert got == expected


def test_e2_cells_examples():
    jpage = build_e2(P3, J_OF_CP, 20)
    jcells = _cells(jpage)
    cell = jcells[(2, 3)]
    assert cell["labels"] == ["alpha_bar(1)*b(1)"]
    assert cell["valuation"] == 1
    assert _e2_summands(jpage)[stems.alpha_bar(P3, 1)][1] == 1

    spage = build_e2(P3, S_OF_CPBAR, 20)
    scells = _cells(spage)
    cell = scells[(-2, 10)]
    assert cell["labels"] == ["beta1*b(-1)"]
    assert cell["valuation"] == 1

    assert (2, 1) not in jcells
    assert (2, 1) not in scells


def test_e2_axis_and_column_rules():
    scells = _cells(build_e2(P3, S_OF_CPBAR, 20))
    assert (-2, 0) in scells  # bottom cell b(-1)
    assert (0, 0) not in scells  # no k = 0 column
    jcells = _cells(build_e2(P3, J_OF_CP, 20))
    assert (-2, 0) not in jcells
    for (s, t) in jcells:
        assert s + t <= 20
        assert s >= 2


def test_run_differentials_requires_e2():
    page = run_differentials(build_e2(P3, J_OF_CP, 20))
    assert page.page_label == EINF
    with pytest.raises(PreconditionError):
        run_differentials(page)


def test_einf_examples():
    page = run_differentials(build_e2(P3, S_OF_CPBAR, 23))
    assert page.torsion_by_degree[15] == 1
    assert page.torsion_by_degree[13] == 2
    assert page.torsion_by_degree[0] == 0
    # beta1*b(-1) was killed by the rule crossing into the bottom column
    assert (-2, 10) not in _cells(page)
    page5 = run_differentials(build_e2(P5, S_OF_CPBAR, 40))
    assert page5.torsion_by_degree[1] == 0


def test_j_order_examples():
    assert j_order_valuation(P3, 3) == 0
    assert j_order_valuation(P3, 7) == 2
    assert j_order_valuation(P3, 1) == 0
    with pytest.raises(PreconditionError):
        j_order_valuation(P3, 0)


def test_j_chart_matches_j_order_closed_form():
    top = chart_window(P3, J_OF_CP) - 1
    page = run_differentials(build_e2(P3, J_OF_CP, top))
    for n in range(1, (top + 1) // 2 + 1):
        assert page.torsion_by_degree[2 * n - 1] == j_order_valuation(P3, n)


def test_axis_budget_is_vp_factorial():
    top = chart_window(P3, J_OF_CP) - 1
    e2 = build_e2(P3, J_OF_CP, top)
    before = e2.torsion_by_degree
    after = run_differentials(e2).torsion_by_degree
    for n in range(1, (top + 1) // 2 + 1):
        t = 2 * n - 1
        killed = before[t] - after[t]
        assert killed == vp_factorial(P3, n)


def test_kill_ledger_conservation():
    for p in (P3, P5):
        for target in emit.TARGETS:
            top = chart_window(p, target) - 1
            e2 = build_e2(p, target, top)
            einf = run_differentials(e2)
            assert einf.kill_ledger is not None
            before, after = e2.torsion_by_degree, einf.torsion_by_degree
            for d in range(0, top + 1):
                killed = einf.kill_ledger[d]
                assert before[d] - killed == after[d]


def test_torsion_by_degree_sums_cell_valuations():
    # An E2 page sums its torsion from the stem table, one range-add per
    # class, and an EINF page over its survivors; the cells of each page's
    # payload must give the same sums.
    for p in map(OddPrime, (3, 5, 7, 11, 13, 17)):
        for target in emit.TARGETS:
            e2 = build_e2(p, target, chart_window(p, target) - 1)
            for page in (e2, run_differentials(e2)):
                sums = [0] * (page.max_total_degree + 1)
                for (s, t), cell in _cells(page).items():
                    if t > 0:
                        sums[s + t] += cell["valuation"]
                assert page.torsion_by_degree == sums


def test_einf_imj_cells_are_aggregate_only():
    e2 = build_e2(P3, S_OF_CPBAR, 23)
    page = run_differentials(e2)
    imj = defaultdict(bool)
    for theta, k, _ in _survivors(page.summands):
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
    e2 = build_e2(P3, S_OF_CPBAR, 12)
    cells = _cells(run_differentials(e2))
    assert cells[(4, 0)]["labels"] == ["2!*b(2)"]
    assert cells[(-2, 0)]["labels"] == ["b(-1)"]
    cells = _cells(e2)
    assert cells[(4, 0)]["labels"] == ["b(2)"]
    assert cells[(-2, 0)]["labels"] == ["b(-1)"]


def test_page_payload_shape_and_order():
    page = run_differentials(build_e2(P3, S_OF_CPBAR, 14))
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
    for target in emit.TARGETS:
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
    e2 = build_e2(P3, J_OF_CP, 20)
    assert _cells(e2)[(2, 7)]["labels"] == ["alpha_bar(2)*b(1)"]
    summands = _e2_summands(e2)
    assert summands[stems.alpha_bar(P3, 2)].pop(1) == 1
    monkeypatch.setattr(ahss, "_axis_kept", _axis_kept_by_hand(summands))
    with pytest.raises(InconsistencyError, match=r"alpha_bar\(2\)\*b\(1\)"):
        run_differentials(e2)


def test_axis_rule_names_an_under_supplied_budget(monkeypatch):
    # With alpha_bar(i) of order p^(v_p(i)), one p short, alpha_bar(1) has
    # nothing to give the budget v_p(3!) = 1 in total degree 5 at p=3.
    real = stems.alpha_bar
    monkeypatch.setattr(stems, "alpha_bar", lambda p, i: real(p, i)._replace(
        order_valuation=vp(p, i)
    ))
    with pytest.raises(InconsistencyError, match=(
        r"^axis rule under-supplied in total degree 5: residual budget 1 "
        r"at p=3$"
    )):
        run_differentials(build_e2(P3, J_OF_CP, 27))


@pytest.mark.parametrize("valuation", [None, 2])
def test_pair_rules_name_a_summand_off_the_page(monkeypatch, valuation):
    # R4 kills alpha_bar(1)*b(3) at p=3, a summand the axis rule passes
    # over (3 is divisible by p); without it, or with another valuation,
    # the rule has nothing of order p to kill.
    real = ahss._axis_kept

    def changed(p, alpha, budgets):
        kept = real(p, alpha, budgets)
        assert (3, 1) in kept[1]
        kept[1] = [
            (k, val if k != 3 else valuation) for k, val in kept[1]
            if k != 3 or valuation is not None
        ]
        return kept

    monkeypatch.setattr(ahss, "_axis_kept", changed)
    with pytest.raises(InconsistencyError, match=(
        r"^R4: expected alpha_bar\(1\)\*b\(3\) with valuation 1 on the page$"
    )):
        run_differentials(build_e2(P3, S_OF_CPBAR, 23))


def test_pair_rules_refuse_a_summand_killed_twice(monkeypatch):
    # With beta1^2 read as beta1, R2 kills beta1*b(k + p - 1) as a source
    # for both products, and the second kill of beta1*b(5) is refused.
    real = ahss._cokernel_classes

    def beta1_twice(p):
        beta1, alpha1_beta1, _, alpha1_beta1_sq = real(p)
        return beta1, alpha1_beta1, beta1, alpha1_beta1_sq

    monkeypatch.setattr(ahss, "_cokernel_classes", beta1_twice)
    with pytest.raises(InconsistencyError, match=(
        r"^R2: expected beta1\*b\(5\) with valuation 1 on the page$"
    )):
        run_differentials(build_e2(P5, S_OF_CP, 87))


def test_pair_rules_refuse_a_class_off_the_page(monkeypatch):
    # A cokernel-of-J copy of alpha_bar(1) is no class of the page, so the
    # first summand R3 kills with it as the source is not there.
    alpha1 = stems.alpha_bar(P5, 1)
    monkeypatch.setattr(
        ahss, "alpha_bar", lambda p, i: alpha1._replace(kind=stems.COK_J)
    )
    with pytest.raises(InconsistencyError, match=(
        r"^R3: expected alpha_bar\(1\)\*b\(20\) with valuation 1 on the page$"
    )):
        run_differentials(build_e2(P5, S_OF_CP, 87))


def _tops(p, target):
    window = chart_window(p, target)
    return sorted({window - 1, window - 5, window // 2, 1, 0})


@pytest.mark.parametrize("pp", [3, 5, 7, 11, 13, 17])
def test_lazy_e2_page_matches_its_materialized_cells(pp, monkeypatch):
    # The hand-built axis rule runs summand by summand over the E2 page's
    # materialized summands, the reference for the bisection; at p=17 axis
    # budgets run across many indices.
    p = OddPrime(pp)
    for target in emit.TARGETS:
        tops = _tops(p, target) if pp < 17 else [chart_window(p, target) - 1]
        for top in tops:
            e2 = build_e2(p, target, top)
            lazy = run_differentials(e2)
            with monkeypatch.context() as m:
                m.setattr(ahss, "_axis_kept", _axis_kept_by_hand(_e2_summands(e2)))
                by_hand = run_differentials(e2)
            # lists, so the page order is checked too
            assert _survivors(lazy.summands) == _survivors(by_hand.summands)
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
    for target in emit.TARGETS:
        e2 = build_e2(P5, target, chart_window(P5, target) - 1)
        einf = run_differentials(e2)
        assert e2.torsion_by_degree and einf.summands
        assert e2.summands is None


@pytest.mark.parametrize("pp", [3, 5, 7, 11, 13, 17])
def test_whole_window_j_chart_restricts_to_the_stunted_window(pp):
    # verify's chart-adjustment-sets row reads the whole-window image-of-J
    # page at the stunted window's degrees instead of building that chart.
    p = OddPrime(pp)
    target = J_OF_CP
    top = chart_window(p, S_OF_CPBAR) - 1
    whole = run_differentials(build_e2(p, target, chart_window(p, target) - 1))
    short = run_differentials(build_e2(p, target, top))
    assert [
        (theta, k, val) for theta, k, val in _survivors(whole.summands)
        if 2 * k + theta.degree <= top
    ] == _survivors(short.summands)


@pytest.mark.parametrize("pp", [3, 5, 7, 11, 13, 17])
def test_an_image_of_j_page_gives_the_axis_rule_to_lower_windows(pp):
    # verify builds the whole-window image-of-J page once and hands it to
    # the other two charts, the stunted one to a lower top.
    p = OddPrime(pp)
    J = J_OF_CP
    axis = run_differentials(build_e2(p, J, chart_window(p, J) - 1))
    for target in emit.TARGETS:
        for top in _tops(p, target):
            e2 = build_e2(p, target, top)
            alone, shared = run_differentials(e2), run_differentials(e2, axis)
            assert _survivors(shared.summands) == _survivors(alone.summands)
            assert shared.kill_ledger == alone.kill_ledger
            assert shared.torsion_by_degree == alone.torsion_by_degree


@pytest.mark.parametrize("pp", [5, 17])
def test_an_axis_page_is_read_by_class_not_by_order(pp):
    # The other charts look up each image-of-J class's survivors on the
    # axis page, so the same survivors in another class order give the
    # same pages.
    p = OddPrime(pp)
    J = J_OF_CP
    axis = run_differentials(build_e2(p, J, chart_window(p, J) - 1))
    reordered = axis._replace(summands=dict(reversed(axis.summands.items())))
    assert list(reordered.summands) != list(axis.summands)
    for target in emit.TARGETS:
        e2 = build_e2(p, target, chart_window(p, target) - 1)
        got, want = run_differentials(e2, reordered), run_differentials(e2, axis)
        assert got == want
        assert _survivors(got.summands) == _survivors(want.summands)
        # each page owns its columns, so changing one leaves the axis page
        assert all(
            column is not axis.summands.get(theta)
            for theta, column in got.summands.items()
        )


def test_an_axis_page_must_reach_the_window():
    e2 = build_e2(P5, S_OF_CP, 60)
    for axis in (
        run_differentials(build_e2(P5, J_OF_CP, 59)),
        run_differentials(build_e2(P3, J_OF_CP, 20)),
        run_differentials(build_e2(P5, S_OF_CP, 60)),
    ):
        with pytest.raises(PreconditionError, match="cannot give the axis rule"):
            run_differentials(e2, axis)


def test_small_windows_run_clean():
    for p in (P3, P5):
        for target in emit.TARGETS:
            for d in (0, 1, 2, 5, 9):
                run_differentials(build_e2(p, target, d))


def _einf_digest(page):
    """SHA-256 of an EINF page's summands, kill ledger and torsion sums,
    each sorted, so it pins what the engine computes and not the order it
    computes it in.  The ledger and the sums enter as their nonzero
    (degree, value) pairs."""
    text = repr((
        sorted((theta.name, k, v) for theta, k, v in _survivors(page.summands)),
        sorted((d, v) for d, v in enumerate(page.kill_ledger) if v),
        sorted((d, v) for d, v in enumerate(page.torsion_by_degree) if v),
    ))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# `_einf_digest` of the whole-window EINF page of each target at every
# prime whose `verify` rows are timed or run in CI, up to p=61, the largest
# prime `verify` accepts.
EINF_DIGESTS = {
    (3, "j-cp"): "0bdf8bfce60010d0415f891905888af26f4c09c17ce9ff850665c42dcb178a89",
    (3, "s-cp"): "49c1c4e6820ee167876f0c3b90252da3885e32cb5cbc016a0067baa57aa37108",
    (3, "s-cpbar"): "ebc2daf4eeccc531a186b967deccc381dfab50c87ec4f0dcdd2565de8ae0e200",
    (5, "j-cp"): "31b2e9280cec02bae64dd9fcc421bbcce92c996ec3e6c37bdcd9275289dbb8b0",
    (5, "s-cp"): "6ca3464ff10b5cffa0005b370c7caab5954e8101893770faa53cb9b5ce8dc55c",
    (5, "s-cpbar"): "5e7942c84b0856792daa44cc192236a07f36f5cf163fdb1d29b655f5a8759cd9",
    (7, "j-cp"): "61f4b61dc10ee228d98951b8a7191446ee9c561bad9ace0e3c72eb808b3eb29e",
    (7, "s-cp"): "27543f94e7c57c0a26cdb763e9c4e571ed2dc79faba10437d28217d7e580f4df",
    (7, "s-cpbar"): "98bd3c1a860944edb78e7ec8c06cd5bc9c49a4e2b52b5f727deda13540b4538e",
    (11, "j-cp"): "7fe1b1b754da1d8c8f339ea803e68bd569989c75ab0903ba9fdc80c8fb1f38ee",
    (11, "s-cp"): "df4f88a0534d51600ec9a28780a0756523edd197857fe9657ea9e310dcdc03bd",
    (11, "s-cpbar"): "288dcff2e117a0bd3bd7bea3e201ee9728ad06e1c4ea902f255a671ec057da55",
    (13, "j-cp"): "b9124ae6c42b47a05c282425301d77937d155c89e7e80819dadbb06911862887",
    (13, "s-cp"): "9a0ad9a2ee03016bdf4eb8b8b170c3075af4c7b1c2bb7ab7b298476e20ed6b67",
    (13, "s-cpbar"): "b727877f264d51b4dc981ed6506be3543dcfdcf43906cc960969f5345e187d25",
    (17, "j-cp"): "c0169315fd77ff45b542b80fa99a282230f4dea0084704c7002ae40ee5e76283",
    (17, "s-cp"): "793a91965ab97cf0ef3e748e42ec2ab5f79b18ea300bb9763e9a9bea98d0ba69",
    (17, "s-cpbar"): "e76c139a0b8859cf20648a393facf238979f4c2e9a141bc9a774448f561ba461",
    (29, "j-cp"): "6e83c689fe92ec933429ee79685cc60f70780ca8bb363edf986f611c09cefe25",
    (29, "s-cp"): "445cf2cdfa6008d7c369cb1e52e5c52dd94a2cfd171dcebc4c08f4091e9baca6",
    (29, "s-cpbar"): "48ab1bd0821db2e15e72b949ad4ede3c2c4c977c733d73d8c6c3483adb2fd21b",
    (61, "j-cp"): "d9fd3c54140977ae722866d5fa5c122dd3088d6e88a26e9baa3f5b53cf4665aa",
    (61, "s-cp"): "b7296abc85016fc9d9a72341e1915d4839ad7115105e565b2240c5aea5f52a02",
    (61, "s-cpbar"): "887512c0f302333d325d63371976ce9bd9e84135436ab6ad4fc9e4bcee72a74f",
}


@pytest.mark.parametrize("pp,target", sorted(EINF_DIGESTS))
def test_whole_window_einf_pages_pinned(pp, target):
    p = OddPrime(pp)
    page = run_differentials(build_e2(p, target, chart_window(p, target) - 1))
    assert _einf_digest(page) == EINF_DIGESTS[(pp, target)]
