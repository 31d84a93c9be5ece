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
stored target.  The pairs are listed before the page is filled, so no
summand they kill is ever placed.  A kill ledger per total degree
supports the conservation check  E2 aggregate - kills = EINF aggregate.

The E2 page from `build_e2` holds its per-degree torsion sums, one
range-add per class, but no summands: its content is the stem table placed
on every column.  An EINF page holds its survivors class by class, as
{theta: {k: valuation}} in page order.  Every page keeps its sums, and an
EINF page its kill ledger, as a list of top + 1 ints indexed by total
degree, 0 where nothing sits.  R1 visits only what the axis rule leaves:
alpha_bar(i)*b(k) has valuation 1+v_p(i) on every column k >= 1, so in
each odd total degree the index at which the budget runs out is found by
bisection in the running sums of those valuations, and `page_payload`
forms the E2 cells column by column from the table.  So the E2 summands,
about twenty times those of the EINF page, are never built.  R1 is the
only rule of the image-of-J chart, and a differential does not depend on
the window, so that chart's EINF page to one top holds R1 for the other
two charts to that top or below: `run_differentials` takes it as `axis`
and looks up each image-of-J class's survivors there.

Every window is stated through `stems.beta2_degree`, and a page to total
degree top reads only the stem classes of degree at most top + 2 (the
b_{-1} column reaches t = top + 2), so a chart's cost follows its window,
not p.
"""

import enum
from bisect import bisect_left, bisect_right
from collections import defaultdict, namedtuple
from itertools import accumulate

from .arith import OddPrime, vp_factorial
from .emit import _Reiterable
from .errors import InconsistencyError, PreconditionError, WindowError
from .stems import (
    IM_J, StemClass, _cokernel_classes, all_torsion_classes, alpha_bar,
    beta2_degree,
)

E2 = "E2"
EINF = "EINF"


class ChartTarget(enum.Enum):
    J_OF_CP = "j-cp"
    S_OF_CP = "s-cp"
    S_OF_CPBAR = "s-cpbar"


# One chart page.  `summands` maps each stem class theta, in page order
# (by degree, then name), to its surviving torsion summands theta*b(k) as
# {k: valuation} in column order; a class with no survivor is left out.
# The axis classes follow from the window, so they are not stored and
# `page_payload` adds them.  `torsion_by_degree` sums the valuations per
# total degree and `kill_ledger` holds the kills per total degree, each a
# list of max_total_degree + 1 ints indexed by total degree, 0 where there
# is none.  `build_e2` returns an E2 page with its sums but with `summands`
# and `kill_ledger` None, as its content is the stem table;
# `run_differentials` returns the EINF page with all three.
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
) -> list[int]:
    """The E2 sums per total degree 0..top.  A class theta sits in total
    degrees t+2, t+4, ... up to the top (and t-2 on the b_{-1} column), so
    each class is one range-add on every other degree."""
    diff = [0] * (top + 3)
    for theta in _page_classes(p, target, top):
        t, v = theta.degree, theta.order_valuation
        if t + 2 <= top:
            diff[t + 2] += v
            diff[t + 2 * ((top - t) // 2) + 2] -= v
        if target is ChartTarget.S_OF_CPBAR and t - 2 <= top:
            diff[t - 2] += v
            diff[t] -= v
    sums = [0] * (top + 1)  # running sums over each parity
    sums[0::2] = accumulate(diff[0:top + 1:2])
    sums[1::2] = accumulate(diff[1:top + 1:2])
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


def _axis_page(p: OddPrime, top: int) -> ChartPage:
    """R1 to total degree top, as the EINF page of the image-of-J chart,
    whose only rule it is: its summands are what R1 leaves and its ledger
    holds the order v_p(n!) killed in each odd total degree 2n-1, with the
    budgets v_p(n!) summed from v_p(n)."""
    nmax = (top + 1) // 2
    counts = [0] * (nmax + 1)  # counts[n] = v_p(n)
    pe = p.p
    while pe <= nmax:
        for n in range(pe, nmax + 1, pe):
            counts[n] += 1
        pe *= p.p
    budgets = list(accumulate(counts))
    alpha = [None, *_page_classes(p, ChartTarget.J_OF_CP, top)]
    kept = _axis_kept(p, alpha, budgets)
    summands = {
        theta: dict(kept[theta.index])
        for theta in alpha[1:] if kept.get(theta.index)
    }
    ledger = [0] * (top + 1)
    ledger[1::2] = budgets[1:]  # degree 2n-1 reads budgets[n]
    return _einf_page(ChartTarget.J_OF_CP, p, top, summands, ledger)


def _einf_page(
    target: ChartTarget, p: OddPrime, top: int, summands: dict,
    ledger: list[int],
) -> ChartPage:
    """The EINF page with these summands and kills, its sums added up from
    the summands, in ascending total degree."""
    sums = [0] * (top + 1)
    for theta, column in summands.items():
        for k, valuation in column.items():
            sums[2 * k + theta.degree] += valuation
    return ChartPage(target, p, EINF, top, summands, ledger, sums)


def run_differentials(
    page: ChartPage, axis: ChartPage | None = None
) -> ChartPage:
    """Push an E2 page to EINF with rules R1-R5; returns a new page.

    R1 is read from `axis`, the image-of-J EINF page at the same prime to
    the page's top or above, within the page's window; it is formed here
    when not given.  The charts over the sphere's stems place every other
    summand from the stem table with its order valuation, but for those
    R2-R4 kill in pairs."""
    if page.page_label != E2:
        raise PreconditionError("run_differentials expects an E2 page")
    p = page.p
    pp = p.p
    target = page.target
    top = page.max_total_degree
    if axis is None:
        axis = _axis_page(p, top)
        if target is ChartTarget.J_OF_CP:
            return axis
    elif (axis.target, axis.page_label, axis.p) != (
        ChartTarget.J_OF_CP, EINF, p
    ) or axis.max_total_degree < top:
        raise PreconditionError(
            f"a {axis.page_label} {axis.target.value} page at p={axis.p.p} to "
            f"total degree {axis.max_total_degree} cannot give the axis rule "
            f"of a page at p={pp} to total degree {top}"
        )
    ledger = axis.kill_ledger[:top + 1]
    cpbar = target is ChartTarget.S_OF_CPBAR

    # doomed[theta]: the columns k of the summands theta*b(k) that R2-R4
    # kill, each with its rule, so that only the survivors are placed
    doomed: dict[StemClass, dict[int, str]] = defaultdict(dict)

    def kill_pairs(
        rule: str, source: StemClass, theta: StemClass, ks, shift: int
    ) -> None:
        """Kill the pairs source*b(k + shift) -> theta*b(k) for the target
        columns ks in the window.  A source lies one total degree up, and
        one beyond the window leaves its target's kill standing."""
        last = (top - 1 - theta.degree) // 2  # the last k with a source
        sources = [k + shift for k in ks if k <= last]
        for cls, cols in ((theta, ks), (source, sources)):
            twice = doomed[cls].keys() & cols
            if twice:
                raise _not_on_page(rule, cls, min(twice))
            doomed[cls].update(dict.fromkeys(cols, rule))
            for k in cols:
                ledger[2 * k + cls.degree] += 1

    if target is not ChartTarget.J_OF_CP:
        beta1, alpha1_beta1, beta1_sq, alpha1_beta1_sq = _cokernel_classes(p)
        alpha1 = alpha_bar(p, 1)
        # R2: length-q pairs theta*b_{k+p-1} -> alpha1*theta*b_k, p not | k.
        for theta, product in (
            (beta1, alpha1_beta1), (beta1_sq, alpha1_beta1_sq)
        ):
            ks = range(1, (top - product.degree) // 2 + 1)
            ks = [k for k in ks if k % pp]
            kill_pairs("R2", theta, product, ks, pp - 1)
        # R3: length-(p-1)q pairs theta*alpha1*b_{mp} ->
        # theta*beta1*b_{mp-(p-1)^2}, m >= p-1.
        for theta, product in ((alpha1, beta1), (alpha1_beta1, beta1_sq)):
            ks = range(pp - 1, (top - product.degree) // 2 + 1, pp)
            kill_pairs("R3", theta, product, ks, (pp - 1) ** 2)
        if cpbar:
            # R4: the four pairs crossing into the b_{-1} column.
            for theta, product, shift in (
                (beta1, alpha1_beta1, pp - 1),
                (beta1_sq, alpha1_beta1_sq, pp - 1),
                (alpha1, beta1, (pp - 2) * pp + 1),
                (alpha1_beta1, beta1_sq, (pp - 2) * pp + 1),
            ):
                ks = [-1] if product.degree - 2 <= top else []
                kill_pairs("R4", theta, product, ks, shift)

    # the survivors, class by class in page order; over the stunted
    # spectrum every page class reaches b(-1), and R5 kills an image-of-J
    # one there as it comes.  A killed summand must be on the page with
    # valuation 1.
    tors: dict[StemClass, dict[int, int]] = {}
    for theta in _page_classes(p, target, top):
        if theta.kind == IM_J:  # R1 has read the columns k >= 1
            if cpbar:
                ledger[theta.degree - 2] += theta.order_valuation  # R5
            last = (top - theta.degree) // 2  # its last column in the window
            column = {
                k: val for k, val in axis.summands.get(theta, {}).items()
                if k <= last
            }
        else:
            column = dict.fromkeys(
                _columns(target, top, theta.degree), theta.order_valuation
            )
        for k, rule in doomed.pop(theta, {}).items():
            if column.pop(k, None) != 1:
                raise _not_on_page(rule, theta, k)
        if column:
            tors[theta] = column
    for theta, gone in doomed.items():  # a class off the page
        for k, rule in gone.items():
            raise _not_on_page(rule, theta, k)
    return _einf_page(target, p, top, tors, ledger)


def _not_on_page(rule: str, theta: StemClass, k: int) -> InconsistencyError:
    return InconsistencyError(
        f"{rule}: expected {theta.name}*b({k}) with valuation 1 on the page"
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
    aggregate.  "cells" is a view that can be read any number of times:
    each pass forms the cells afresh, one at a time in (s, t) order, so a
    writer can stream a large page and a renderer can read it twice; an
    E2 page's come straight from the stem table."""
    top = page.max_total_degree
    ks = [-1] if page.target is ChartTarget.S_OF_CPBAR else []
    ks += range(1, top // 2 + 1)
    einf = page.page_label == EINF
    if einf:
        columns: dict[int, list[tuple[StemClass, int]]] = defaultdict(list)
        for theta, survivors in page.summands.items():
            for k, valuation in survivors.items():
                columns[k].append((theta, valuation))
        column = {
            k: _degree_groups(col, einf) for k, col in columns.items()
        }.get
    else:
        groups = _degree_groups(
            ((theta, theta.order_valuation)
             for theta in _page_classes(page.p, page.target, top)),
            einf,
        )
        degrees = [t for t, *_ in groups]

        def column(k: int) -> list[list]:
            # b(-1) carries every page class, b(k) those of degree <= top - 2k
            if k == -1:
                return groups
            return groups[:bisect_right(degrees, top - 2 * k)]

    return {
        "kind": "ahss-chart",
        "p": page.p.p,
        "target": page.target.value,
        "page_label": page.page_label,
        "max_total_degree": top,
        "cells": _Reiterable(_cells, ks, column, einf),
    }


def _degree_groups(summands, einf: bool) -> list[list]:
    """One [t, names, valuation, aggregate_only] per degree t of the
    (theta, valuation) pairs `summands`, which come in page order, that is
    by theta's (degree, name): the names of its classes in that order,
    their summed valuation, and whether one is an image-of-J class of an
    EINF page."""
    groups: list[list] = []
    for theta, valuation in summands:
        if not groups or groups[-1][0] != theta.degree:
            groups.append([theta.degree, [], 0, False])
        group = groups[-1]
        group[1].append(theta.name)
        group[2] += valuation
        group[3] |= einf and theta.kind == IM_J
    return groups


def _cells(ks: list[int], column, einf: bool):
    """The cells of columns b(k), k in `ks`: the axis cell, then one cell
    per degree group of `column(k)`, from `_degree_groups`."""
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
        times_b = f"*b({k})"
        for t, names, valuation, aggregate_only in column(k) or ():
            yield {
                "s": s,
                "t": t,
                "labels": [name + times_b for name in names],
                "valuation": valuation,
                "aggregate_only": aggregate_only,
            }
