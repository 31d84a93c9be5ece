"""Atiyah-Hirzebruch chart bookkeeping over three homology targets.

Charts live on an (s, t) lattice: column s = 2k carries the homology class
b_k of the base, t is the coefficient degree.  Three targets are supported:

  J_OF_CP     image-of-J homology of CP^inf          (columns k >= 1)
  S_OF_CP     stable homotopy of CP^inf              (columns k >= 1)
  S_OF_CPBAR  stable homotopy of the stunted complex projective spectrum
              with cells b_k for k >= -1, k != 0 (the cofiber of the
              bottom-cell map from the sphere into CP^inf_{-1})

The E2 page is homology with stable-stem coefficients (image-of-J
coefficients for J_OF_CP).  `run_differentials` pushes E2 to EINF with the
complete rule set valid below the second beta-family class:

  R1  axis rule (all charts): the differentials leaving the horizontal axis
      kill total p-valuation v_p(n!) among the image-of-J classes in each
      odd total degree 2n-1, leaving the integral axis class n! * b_n.
      Only the aggregate killed order is determined, so cells holding a
      surviving image-of-J summand are marked aggregate_only; the canonical
      absorption below is deterministic and never touches alpha_bar(1)*b_k
      with k divisible by p (the first-possible differential there has
      coefficient k mod p = 0, so those summands survive the axis rule).
  R2  (S_OF_CP, S_OF_CPBAR): a differential of length q pairs
      theta*b_{k+p-1} with alpha1*theta*b_k for theta in {beta1, beta1^2},
      k >= 1, k not divisible by p (coefficient k mod p).
  R3  (S_OF_CP, S_OF_CPBAR): a differential of length (p-1)q pairs
      theta*alpha1*b_{mp} with theta*beta1*b_{mp-(p-1)^2} for
      theta in {1, beta1}, m >= p-1.
  R4  (S_OF_CPBAR only): four pairs crossing into the b_{-1} column:
      (beta1*b_{p-2},          alpha1_beta1*b_{-1})
      (beta1_sq*b_{p-2},       alpha1_beta1_sq*b_{-1})
      (alpha_bar(1)*b_{(p-2)p}, beta1*b_{-1})
      (alpha1_beta1*b_{(p-2)p}, beta1_sq*b_{-1})
  R5  (S_OF_CPBAR only): every image-of-J class in the b_{-1} column is
      killed from the horizontal axis.  No other rule reads these classes
      (R4's b_{-1} targets are cokernel-of-J), so none is ever placed.

Pair rules remove Z/p summands from both ends when both lie inside the
stored window; a pair whose source lies beyond the window still kills its
stored target.  A kill ledger per total degree supports the conservation
check  E2 aggregate - kills = EINF aggregate.

The E2 page from `build_e2` holds its per-degree torsion sums, one
range-add per class, but no summands: its content is the stem table placed
on every column.  R1 visits only what the axis rule leaves:
alpha_bar(i)*b(k) has valuation 1+v_p(i) on every column k >= 1, so in
each odd total degree the index at which the budget runs out is found by
bisection in the running sums of those valuations, and `page_payload`
forms the E2 cells column by column from the table.  So the E2 summands,
about twenty times those of the EINF page, are never built.

Every window is stated through `stems.beta2_degree`, and a page to total
degree top reads only the stem classes of degree at most top + 2 (the
b_{-1} column reaches t = top + 2), so a chart's cost follows its window,
not p.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import defaultdict, namedtuple
from itertools import accumulate

from .arith import OddPrime, vp_factorial
from .errors import InconsistencyError, PreconditionError, WindowError
from .stems import (
    IM_J, StemClass, _cokernel_classes, all_torsion_classes, beta2_degree
)

E2 = "E2"
EINF = "EINF"


class ChartTarget(enum.Enum):
    J_OF_CP = "j-cp"
    S_OF_CP = "s-cp"
    S_OF_CPBAR = "s-cpbar"


# One chart page.  `summands` maps each torsion summand theta*b(k), keyed
# by (theta, k), to its valuation, in page order (by theta, then k); the
# axis classes follow from the window, so they are not stored and
# `page_payload` adds them.  `torsion_by_degree` sums the valuations per
# total degree (degrees without torsion are absent), and `kill_ledger`
# holds the kills per total degree.  `build_e2` returns an E2 page with its
# sums but with `summands` and `kill_ledger` None, as its content is the
# stem table; `run_differentials` returns the EINF page with all three.
ChartPage = namedtuple(
    "ChartPage",
    "target p page_label max_total_degree summands kill_ledger "
    "torsion_by_degree",
)


def chart_window(p: OddPrime, target: ChartTarget) -> int:
    """Exclusive upper bound on total degree for each chart.

    The rule set accounts for every differential in total degrees below
    beta2*b_1 over CP^inf and below beta2*b_{-1} over the stunted spectrum.
    """
    shift = -2 if target is ChartTarget.S_OF_CPBAR else 2
    return beta2_degree(p) + shift


def _columns(target: ChartTarget, max_total: int, t: int) -> list[int]:
    ks = [k for k in range(1, (max_total - t) // 2 + 1)]
    if target is ChartTarget.S_OF_CPBAR and -2 + t <= max_total:
        ks.insert(0, -1)
    return ks


def _page_classes(
    p: OddPrime, target: ChartTarget, top: int
) -> list[StemClass]:
    """The coefficient classes of a chart to total degree top, sorted by
    (degree, name): those of degree at most top + 2, which the b_{-1}
    column reaches, so their number follows the window and not p."""
    classes = all_torsion_classes(p, top + 3)
    if target is ChartTarget.J_OF_CP:
        classes = [c for c in classes if c.kind == IM_J]
    return classes


def _e2_torsion_by_degree(
    p: OddPrime, target: ChartTarget, top: int
) -> dict[int, int]:
    """The E2 sums per total degree.  A class theta sits in total degrees
    t+2, t+4, ... up to the top (and t-2 on the b_{-1} column), so each
    class is one range-add on every other degree."""
    diff = [0] * (top + 3)
    for theta in _page_classes(p, target, top):
        t, v = theta.degree, theta.order_valuation
        if t + 2 <= top:
            diff[t + 2] += v
            diff[t + 2 * ((top - t) // 2) + 2] -= v
        if target is ChartTarget.S_OF_CPBAR and t - 2 <= top:
            diff[t - 2] += v
            diff[t] -= v
    sums: dict[int, int] = {}
    running = [0, 0]
    for d in range(top + 1):
        running[d & 1] += diff[d]
        if running[d & 1]:
            sums[d] = running[d & 1]
    return sums


def _axis_kept(
    p: OddPrime, alpha: list[StemClass | None], budgets: list[int]
) -> dict[int, list[tuple[int, int]]]:
    """R1 by bisection, returning what each alpha_bar(i) keeps on the
    columns k >= 1, in column order.  Every alpha_bar(i)*b(k) with k >= 1
    in the window is on the E2 page with valuation 1+v_p(i), so the budget
    takes the indices 1, 2, ... in order (passing over alpha_bar(1)*b(k)
    when p | k), and the index where it runs out is a bisection in their
    running sums.  Only that index, the untouched tail after it and a
    passed-over alpha_bar(1) are visited."""
    pp = p.p
    # cum[i]: summed valuations of alpha_bar(1..i)
    cum = [0, *accumulate(c.order_valuation for c in alpha[1:])]
    kept: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for n, budget in enumerate(budgets):
        last = (n - 1) // (pp - 1)  # the largest i with a column k >= 1
        first = 1
        if budget:  # so n >= p and last >= 1
            skip = (n - (pp - 1)) % pp == 0
            i = bisect_left(cum, budget + skip, 0, last + 1)
            if i > last:
                raise _under_supplied(p, n, budget + skip - cum[last])
            if skip:
                kept[1].append((n - (pp - 1), 1))
            if cum[i] - skip > budget:
                kept[i].append((n - (pp - 1) * i, cum[i] - skip - budget))
            first = i + 1
        for i in range(first, last + 1):
            kept[i].append((n - (pp - 1) * i, cum[i] - cum[i - 1]))
    return kept


def _under_supplied(p: OddPrime, n: int, residual: int) -> InconsistencyError:
    return InconsistencyError(
        f"axis rule under-supplied in total degree {2 * n - 1}: "
        f"residual budget {residual} at p={p.p}"
    )


def build_e2(p: OddPrime, target: ChartTarget, max_total_degree: int) -> ChartPage:
    """E2 page up to the given total degree (inclusive)."""
    if max_total_degree < 0:
        raise PreconditionError(
            f"max_total_degree must be >= 0, got {max_total_degree}"
        )
    window = chart_window(p, target)
    if max_total_degree >= window:
        raise WindowError(
            f"chart {target.value} at p={p.p} is only valid in total degrees "
            f"< {window}; got max_total_degree={max_total_degree}"
        )
    return ChartPage(
        target, p, E2, max_total_degree, None, None,
        _e2_torsion_by_degree(p, target, max_total_degree),
    )


def run_differentials(page: ChartPage) -> ChartPage:
    """Push an E2 page to EINF with rules R1-R5; returns a new page.

    The E2 summands come from the stem table: R1 is `_axis_kept`, and every
    other summand is placed from the table with its order valuation."""
    if page.page_label != E2:
        raise PreconditionError("run_differentials expects an E2 page")
    p = page.p
    pp = p.p
    target = page.target
    max_total = page.max_total_degree
    page_classes = _page_classes(p, target, max_total)
    # R2-R4 name cokernel-of-J classes that may lie beyond the window
    classes = {c.name: c for c in (*_cokernel_classes(p), *page_classes)}
    ledger: dict[int, int] = defaultdict(int)

    # R1: axis rule, killing v_p(n!) in each odd total degree 2n-1.
    alpha = [None] + [c for c in page_classes if c.kind == IM_J]
    budgets = [vp_factorial(p, n) for n in range((max_total + 1) // 2 + 1)]
    kept = _axis_kept(p, alpha, budgets)
    for n, killed in enumerate(budgets):
        if killed:
            ledger[2 * n - 1] += killed

    # the summands left so far, in page order, so survivors keep it; over
    # the stunted spectrum every page class reaches b(-1), and R5 kills an
    # image-of-J one there as it comes
    tors: dict[tuple[StemClass, int], int] = {}
    for theta in page_classes:
        if theta.kind == IM_J:  # R1 has read the columns k >= 1
            if target is ChartTarget.S_OF_CPBAR:
                ledger[theta.degree - 2] += theta.order_valuation  # R5
            tors.update(((theta, k), val) for k, val in kept[theta.index])
        else:
            for k in _columns(target, max_total, theta.degree):
                tors[(theta, k)] = theta.order_valuation

    def kill_pair(src: tuple[str, int], tgt: tuple[str, int], rule: str) -> None:
        """src and tgt name their summands as (theta name, k)."""
        tgt_total = 2 * tgt[1] + classes[tgt[0]].degree
        if tgt_total > max_total:
            return
        for (name, k), total in ((tgt, tgt_total), (src, tgt_total + 1)):
            if total > max_total:
                continue  # source beyond the stored window; the kill stands
            if tors.pop((classes[name], k), None) != 1:
                raise InconsistencyError(
                    f"{rule}: expected {name}*b({k}) with valuation 1 "
                    f"on the page"
                )
            ledger[total] += 1

    if target in (ChartTarget.S_OF_CP, ChartTarget.S_OF_CPBAR):
        # R2: length-q pairs theta*b_{k+p-1} -> alpha1*theta*b_k.
        for theta_name, product_name in (
            ("beta1", "alpha1_beta1"),
            ("beta1_sq", "alpha1_beta1_sq"),
        ):
            k = 1
            while 2 * k + classes[product_name].degree <= max_total:
                if k % pp != 0:
                    kill_pair((theta_name, k + pp - 1), (product_name, k), "R2")
                k += 1
        # R3: length-(p-1)q pairs theta*alpha1*b_{mp} -> theta*beta1*b_{mp-(p-1)^2}.
        for src_name, tgt_name in (
            ("alpha_bar(1)", "beta1"),
            ("alpha1_beta1", "beta1_sq"),
        ):
            m = pp - 1
            while True:
                tgt_k = m * pp - (pp - 1) ** 2
                if 2 * tgt_k + classes[tgt_name].degree > max_total:
                    break
                kill_pair((src_name, m * pp), (tgt_name, tgt_k), "R3")
                m += 1

    if target is ChartTarget.S_OF_CPBAR:
        # R4: the four pairs crossing into the b_{-1} column.
        for src, tgt in (
            (("beta1", pp - 2), ("alpha1_beta1", -1)),
            (("beta1_sq", pp - 2), ("alpha1_beta1_sq", -1)),
            (("alpha_bar(1)", (pp - 2) * pp), ("beta1", -1)),
            (("alpha1_beta1", (pp - 2) * pp), ("beta1_sq", -1)),
        ):
            kill_pair(src, tgt, "R4")

    sums: dict[int, int] = defaultdict(int)
    for (theta, k), valuation in tors.items():
        sums[2 * k + theta.degree] += valuation
    return ChartPage(
        target, p, EINF, max_total, tors, dict(ledger), dict(sums)
    )


def j_order_valuation(p: OddPrime, n: int) -> int:
    """p-valuation of the image-of-J part of the (2n-1)-stem over CP^inf:
    sum over e >= 0 of floor((n-1) / (p^e (p-1))), minus v_p(n!)."""
    if n < 1:
        raise PreconditionError(f"j_order_valuation needs n >= 1, got {n}")
    total = 0
    den = p.p - 1
    while (n - 1) // den > 0:
        total += (n - 1) // den
        den *= p.p
    return total - vp_factorial(p, n)


def page_payload(page: ChartPage) -> dict:
    """JSON-ready projection of a page; deterministic field order.

    The one place where cells are formed: the summands grouped by
    (s, t) = (2k, |theta|), in page order within a cell, plus the axis
    classes the window implies (b(k) on E2, k!*b(k) on EINF, and b(-1) over
    the stunted spectrum).  A cell is aggregate-only when it holds an
    image-of-J summand of an EINF page, whose valuation R1 fixes only in
    aggregate.  "cells" is a generator that forms them one at a time in
    (s, t) order, so a writer can stream a large page; an E2 page's come
    straight from the stem table."""
    top = page.max_total_degree
    ks = [-1] if page.target is ChartTarget.S_OF_CPBAR else []
    ks += range(1, top // 2 + 1)
    if page.page_label == EINF:
        columns: dict[int, list[tuple[StemClass, int]]] = defaultdict(list)
        for (theta, k), valuation in page.summands.items():
            columns[k].append((theta, valuation))
        column = columns.get
    else:
        classes = [
            (theta, theta.order_valuation)
            for theta in _page_classes(page.p, page.target, top)
        ]
        degrees = [theta.degree for theta, _ in classes]

        def column(k: int) -> list[tuple[StemClass, int]]:
            # b(-1) carries every page class, b(k) those of degree <= top - 2k
            if k == -1:
                return classes
            return classes[:bisect_right(degrees, top - 2 * k)]

    return {
        "kind": "ahss-chart",
        "p": page.p.p,
        "target": page.target.value,
        "page_label": page.page_label,
        "max_total_degree": top,
        "cells": _cells(ks, column, page.page_label == EINF),
    }


def _cells(ks: list[int], column, einf: bool):
    """The cells of columns b(k), k in `ks`: the axis cell, then one cell
    per degree of the summands `column(k)`, which come in page order, that
    is by theta's (degree, name)."""
    for k in ks:
        s = 2 * k
        axis = f"{k}!*b({k})" if einf and k != -1 else f"b({k})"
        yield {
            "s": s,
            "t": 0,
            "labels": [axis],
            "valuation": "infinite",
            "aggregate_only": False,
        }
        cell = None
        for theta, valuation in column(k) or ():
            if cell is None or cell["t"] != theta.degree:
                if cell is not None:
                    yield cell
                cell = {
                    "s": s,
                    "t": theta.degree,
                    "labels": [],
                    "valuation": 0,
                    "aggregate_only": False,
                }
            cell["labels"].append(f"{theta.name}*b({k})")
            cell["valuation"] += valuation
            cell["aggregate_only"] |= einf and theta.kind == IM_J
        if cell is not None:
            yield cell
