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
      Only the aggregate killed order is determined, so surviving
      image-of-J cells are marked aggregate_only; the canonical absorption
      below is deterministic and never touches alpha_bar(1)*b_k with k
      divisible by p (the first-possible differential there has coefficient
      k mod p = 0, so those cells survive the axis rule).
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
      killed from the horizontal axis.

Pair rules remove Z/p summands from both ends when both lie inside the
stored window; a pair whose source lies beyond the window still kills its
stored target.  A kill ledger per total degree supports the conservation
check  E2 aggregate - kills = EINF aggregate.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from functools import cached_property
from typing import NamedTuple

from .arith import OddPrime, vp_factorial
from .errors import InconsistencyError, PreconditionError, WindowError
from .stems import IM_J, StemClass, all_torsion_classes

E2 = "E2"
EINF = "EINF"


class ChartTarget(enum.Enum):
    J_OF_CP = "j-cp"
    S_OF_CP = "s-cp"
    S_OF_CPBAR = "s-cpbar"


class ChartClass(NamedTuple):
    """One summand of a chart cell: theta * b_k, or an axis class when
    theta is None.  valuation None means an infinite (integral) class."""

    theta: StemClass | None
    k: int
    valuation: int | None
    axis_factor: int | None = None  # n for the EINF axis label "n!*b(n)"
    aggregate_only: bool = False

    @property
    def s(self) -> int:
        return 2 * self.k

    @property
    def t(self) -> int:
        return self.theta.degree if self.theta else 0

    @property
    def label(self) -> str:
        if self.theta is None:
            if self.axis_factor is not None:
                return f"{self.axis_factor}!*b({self.k})"
            return f"b({self.k})"
        return f"{self.theta.name}*b({self.k})"


class ChartPage:
    """One chart page: the summands of each (s, t) cell and, on EINF, the
    kills per total degree.  Mutable, so `torsion_by_degree` can be cached."""

    def __init__(
        self,
        target: ChartTarget,
        p: OddPrime,
        page_label: str,
        max_total_degree: int,
        cells: dict[tuple[int, int], tuple[ChartClass, ...]],
        kill_ledger: dict[int, int] | None = None,
    ) -> None:
        self.target = target
        self.p = p
        self.page_label = page_label
        self.max_total_degree = max_total_degree
        self.cells = cells
        self.kill_ledger = kill_ledger

    def __repr__(self) -> str:
        shown = ("target", "p", "page_label", "max_total_degree", "cells")
        return f"ChartPage({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    @cached_property
    def torsion_by_degree(self) -> dict[int, int]:
        """Torsion valuation above the axis per total degree, summed over
        the cells in one pass the first time it is read.  Degrees without
        torsion are absent."""
        sums: dict[int, int] = defaultdict(int)
        for (s, t), summands in self.cells.items():
            if t > 0:
                sums[s + t] += sum(c.valuation for c in summands)
        return dict(sums)


def chart_window(p: OddPrime, target: ChartTarget) -> int:
    """Exclusive upper bound on total degree for each chart.

    The rule set accounts for every differential in total degrees below
    beta2*b_1 over CP^inf and below beta2*b_{-1} over the stunted spectrum.
    """
    top = (2 * p.p + 1) * p.q
    return top if target is not ChartTarget.S_OF_CPBAR else top - 4


def _columns(target: ChartTarget, max_total: int, t: int) -> list[int]:
    ks = [k for k in range(1, (max_total - t) // 2 + 1)]
    if target is ChartTarget.S_OF_CPBAR and -2 + t <= max_total:
        ks.insert(0, -1)
    return ks


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
    cells: dict[tuple[int, int], list[ChartClass]] = defaultdict(list)
    # horizontal axis: integral classes b_k
    for k in range(1, max_total_degree // 2 + 1):
        cells[(2 * k, 0)].append(ChartClass(None, k, None))
    if target is ChartTarget.S_OF_CPBAR and max_total_degree >= -2:
        cells[(-2, 0)].append(ChartClass(None, -1, None))
    # torsion coefficients
    classes = all_torsion_classes(p)
    if target is ChartTarget.J_OF_CP:
        classes = [c for c in classes if c.kind == IM_J]
    for theta in classes:
        for k in _columns(target, max_total_degree, theta.degree):
            cells[(2 * k, theta.degree)].append(
                ChartClass(theta, k, theta.order_valuation)
            )
    fixed = {
        st: tuple(sorted(v, key=lambda c: c.label)) for st, v in cells.items()
    }
    return ChartPage(target, p, E2, max_total_degree, fixed)


def run_differentials(page: ChartPage) -> ChartPage:
    """Push an E2 page to EINF with rules R1-R5; returns a new page."""
    if page.page_label != E2:
        raise PreconditionError("run_differentials expects an E2 page")
    p = page.p
    pp = p.p
    target = page.target
    max_total = page.max_total_degree

    # mutable torsion content, keyed by (theta name, column index)
    tors: dict[tuple[str, int], list] = {}
    degrees = {c.name: c.degree for c in all_torsion_classes(p)}
    for summands in page.cells.values():
        for c in summands:
            if c.theta is not None:
                tors[(c.theta.name, c.k)] = [c.theta, c.valuation]
    ledger: dict[int, int] = defaultdict(int)

    def kill_pair(src: tuple[str, int], tgt: tuple[str, int], rule: str) -> None:
        tgt_total = 2 * tgt[1] + degrees[tgt[0]]
        if tgt_total > max_total:
            return
        for key, total in ((tgt, tgt_total), (src, tgt_total + 1)):
            if total > max_total:
                continue  # source beyond the stored window; the kill stands
            if key not in tors or tors[key][1] != 1:
                raise InconsistencyError(
                    f"{rule}: expected {key[0]}*b({key[1]}) with valuation 1 "
                    f"on the page"
                )
            del tors[key]
            ledger[total] += 1

    # R1: axis rule.  R1 in total degree 2n-1 touches only the cells of
    # that degree, so the eligible cells are bucketed by degree up front.
    eligible: dict[int, list[tuple[int, str, int]]] = defaultdict(list)
    for (name, k), (theta, _) in tors.items():
        if theta.kind != IM_J or k < 1:
            continue
        if theta.index == 1 and k % pp == 0:
            continue  # length-q differential coefficient k vanishes mod p
        eligible[2 * k + theta.degree].append((theta.index, name, k))
    for n in range(1, (max_total + 1) // 2 + 1):
        total = 2 * n - 1
        budget = vp_factorial(p, n)
        if budget == 0:
            continue
        for _, name, k in sorted(eligible.get(total, ())):
            if budget == 0:
                break
            take = min(budget, tors[(name, k)][1])
            tors[(name, k)][1] -= take
            if tors[(name, k)][1] == 0:
                del tors[(name, k)]
            budget -= take
            ledger[total] += take
        if budget:
            raise InconsistencyError(
                f"axis rule under-supplied in total degree {total}: "
                f"residual budget {budget} at p={pp}"
            )

    if target in (ChartTarget.S_OF_CP, ChartTarget.S_OF_CPBAR):
        # R2: length-q pairs theta*b_{k+p-1} -> alpha1*theta*b_k.
        for theta_name, product_name in (
            ("beta1", "alpha1_beta1"),
            ("beta1_sq", "alpha1_beta1_sq"),
        ):
            k = 1
            while 2 * k + degrees[product_name] <= max_total:
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
                if 2 * tgt_k + degrees[tgt_name] > max_total:
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
        # R5: image-of-J content of the b_{-1} column dies from the axis.
        for key in [
            key
            for key, (theta, _) in tors.items()
            if key[1] == -1 and theta.kind == IM_J
        ]:
            theta, val = tors.pop(key)
            ledger[-2 + theta.degree] += val

    out: dict[tuple[int, int], list[ChartClass]] = defaultdict(list)
    for summands in page.cells.values():
        for c in summands:
            if c.theta is None:
                survivor = (
                    ChartClass(None, c.k, None, axis_factor=c.k)
                    if c.k >= 1
                    else c
                )
                out[(c.s, 0)].append(survivor)
    for (name, k), (theta, val) in tors.items():
        out[(2 * k, theta.degree)].append(
            ChartClass(theta, k, val, aggregate_only=theta.kind == IM_J)
        )
    fixed = {
        st: tuple(sorted(v, key=lambda c: c.label)) for st, v in out.items()
    }
    return ChartPage(target, p, EINF, max_total, fixed, dict(ledger))


def einf_valuation(page: ChartPage, total_degree: int) -> int:
    """Aggregate torsion valuation above the axis in one total degree."""
    if page.page_label != EINF:
        raise PreconditionError("einf_valuation expects an EINF page")
    if total_degree > page.max_total_degree:
        raise WindowError(
            f"total degree {total_degree} beyond the stored window "
            f"{page.max_total_degree}"
        )
    return page.torsion_by_degree.get(total_degree, 0)


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
    """JSON-ready projection of a page; deterministic field order."""
    records = []
    for (s, t) in sorted(page.cells):
        summands = page.cells[(s, t)]
        if t == 0:
            valuation: int | str = "infinite"
        else:
            valuation = sum(c.valuation for c in summands)
        records.append(
            {
                "s": s,
                "t": t,
                "labels": [c.label for c in summands],
                "valuation": valuation,
                "aggregate_only": any(c.aggregate_only for c in summands),
            }
        )
    return {
        "kind": "ahss-chart",
        "p": page.p.p,
        "target": page.target.value,
        "page_label": page.page_label,
        "max_total_degree": page.max_total_degree,
        "cells": records,
    }
