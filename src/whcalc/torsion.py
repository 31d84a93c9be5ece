"""Closed-form p-torsion of the smooth Whitehead spectrum of a point.

At an odd regular prime p (granting the standing Lichtenbaum-Quillen
assumption for Z[1/p]) the Whitehead spectrum splits, away from its free
part, as a suspended cokernel-of-J piece together with a suspended stunted
complex projective piece.  This module evaluates the resulting closed
formulas; the chart engine in `ahss` recomputes the same numbers by a
different route and the two are compared in tests.

The suspended cokernel-of-J piece is read from the stem table of `stems`,
which the chart engine reads too: one class sigma(theta) in degree
|theta| + 1, of theta's order, for each cokernel-of-J stem class theta.
Every window here is stated through beta2's degree.

Degree conventions: a Whitehead-spectrum degree d matches the suspended
stunted spectrum in the same degree, so even d = 2n uses the even-degree
valuation at n and odd d = 2n+1 uses the odd-degree valuation at n.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import OddPrime, ensure_regular
from .errors import InconsistencyError, PreconditionError, WindowError
from .stems import _cokernel_classes, beta2_degree

GENERIC_ANNOTATION = (
    "entries record p-torsion orders as p-valuations; free summands are omitted"
)
P3_DEGREE14_ANNOTATION = (
    "degree 14 at p=3: the group is Z/3{sigma(alpha1_beta1)} + Z/9 "
    "(group structure recorded as given; only the order is computed here)"
)


def torsion_window(p: OddPrime) -> int:
    """Exclusive bound on Whitehead degrees with fully determined torsion:
    one below beta2's degree."""
    return beta2_degree(p) - 1


def cpbar_even_valuation(p: OddPrime, n: int) -> int:
    """p-valuation of the torsion of the suspended stunted spectrum in even
    degree 2n, valid for 2n < torsion_window(p).

    Base term: floor((n-1)/(p-1)) + floor((n-1)/(p(p-1)))
             - floor(n/p) - floor(n/p^2),
    corrected by +1 when n = p^2 - 2 + mp with 1 <= m <= p-3 and by -1 when
    n = p - 1 + mp with m >= p-2.
    """
    if n < 1:
        raise PreconditionError(f"cpbar_even_valuation needs n >= 1, got {n}")
    if 2 * n >= torsion_window(p):
        raise WindowError(
            f"even-degree torsion formula is valid for 2n < {torsion_window(p)}"
            f" at p={p.p}; got 2n={2 * n}"
        )
    pp = p.p
    val = (
        (n - 1) // (pp - 1)
        + (n - 1) // (pp * (pp - 1))
        - n // pp
        - n // (pp * pp)
    )
    if (n - (pp * pp - 2)) % pp == 0 and 1 <= (n - (pp * pp - 2)) // pp <= pp - 3:
        val += 1
    if (n - (pp - 1)) % pp == 0 and (n - (pp - 1)) // pp >= pp - 2:
        val -= 1
    if val < 0:
        raise InconsistencyError(
            f"negative torsion valuation at p={pp}, 2n={2 * n}"
        )
    return val


def cpbar_odd_valuation(p: OddPrime, n: int) -> int:
    """p-valuation of the torsion of the suspended stunted spectrum in odd
    degree 2n+1, valid for 2n+1 < torsion_window(p): valuation 1 exactly
    when n = p^2 - p - 1 + m or n = 2p^2 - 2p - 2 + m with 1 <= m <= p-3."""
    if n < 0:
        raise PreconditionError(f"cpbar_odd_valuation needs n >= 0, got {n}")
    if 2 * n + 1 >= torsion_window(p):
        raise WindowError(
            f"odd-degree torsion formula is valid for 2n+1 < "
            f"{torsion_window(p)} at p={p.p}; got 2n+1={2 * n + 1}"
        )
    pp = p.p
    for base in (pp * pp - pp - 1, 2 * pp * pp - 2 * pp - 2):
        if 1 <= n - base <= pp - 3:
            return 1
    return 0


def sigma_c_summands(p: OddPrime) -> dict:
    """The classes sigma(theta) of the suspended cokernel-of-J piece, as
    {|theta| + 1: theta} over the cokernel-of-J stem classes theta: each
    sigma(theta) has theta's order, and every other degree below
    beta2_degree(p) + 1 has none."""
    return {theta.degree + 1: theta for theta in _cokernel_classes(p)}


def _degree_valuation(p: OddPrime, sigma: dict, d: int) -> tuple[int, list]:
    """Torsion valuation and named generators in degree d, for
    1 <= d < torsion_window(p); sigma is `sigma_c_summands(p)`."""
    val = 0
    gens = []
    theta = sigma.get(d)
    if theta is not None:
        val += theta.order_valuation
        gens.append(f"sigma({theta.name})")
    if d % 2 == 0:
        if d >= 2:
            val += cpbar_even_valuation(p, d // 2)
    else:
        val += cpbar_odd_valuation(p, (d - 1) // 2)
    return val, gens


def wh_torsion_profile(
    p: OddPrime, max_degree: int, *, assume_regular: bool = False
) -> dict:
    """p-torsion valuation of the Whitehead spectrum in degrees 1..max_degree,
    as the `torsion-profile` payload: its entries are the degrees of nonzero
    torsion, ascending, each {"degree", "valuation", "generators"}.

    Requires a regular prime (or the explicit override) and a degree window
    inside which both parity formulas are valid.
    """
    assumptions = ensure_regular(p, assume_regular)
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    if max_degree >= torsion_window(p):
        raise WindowError(
            f"torsion profile is determined for degrees < {torsion_window(p)} "
            f"at p={p.p}; got max_degree={max_degree}"
        )
    sigma = sigma_c_summands(p)
    entries = []
    for d in range(1, max_degree + 1):
        val, gens = _degree_valuation(p, sigma, d)
        if val:
            entries.append({"degree": d, "valuation": val, "generators": gens})
    annotations = [GENERIC_ANNOTATION]
    if p.p == 3 and max_degree >= 14:
        annotations.append(P3_DEGREE14_ANNOTATION)
    return {
        "kind": "torsion-profile",
        "p": p.p,
        "max_degree": max_degree,
        "assumptions": list(assumptions),
        "entries": entries,
        "annotations": annotations,
    }


# generator is None for an unnamed stunted-spectrum class.
FirstTorsion = namedtuple("FirstTorsion", "degree valuation generator")


def first_p_torsion(p: OddPrime, *, assume_regular: bool = False) -> FirstTorsion:
    """First degree with nonzero p-torsion, scanned from degree 1 upward."""
    ensure_regular(p, assume_regular)
    sigma = sigma_c_summands(p)
    for d in range(1, torsion_window(p)):
        val, gens = _degree_valuation(p, sigma, d)
        if val:
            return FirstTorsion(d, val, gens[0] if gens else None)
    raise InconsistencyError(
        f"no torsion found below the validity window at p={p.p}"
    )


ConcordanceFirstTorsion = namedtuple(
    "ConcordanceFirstTorsion",
    "p pi_degree_C pi_degree_H group_valuation connectivity_hypothesis "
    "dimension_hypothesis",
)
ConcordanceFirstTorsion.__doc__ = (
    """First p-torsion transported to concordance and h-cobordism spaces.

    For a sufficiently connected compact smooth n-manifold the stable range
    identifies concordance-space homotopy two degrees below (and h-cobordism
    one degree below) the Whitehead degree.  The hypotheses record the
    required connectivity and the dimension bound n >= max(2k+7, 3k+4)
    needed for stability one degree past the h-cobordism degree k.
    """
)


def concordance_first_torsion(
    p: OddPrime, *, assume_regular: bool = False
) -> ConcordanceFirstTorsion:
    first = first_p_torsion(p, assume_regular=assume_regular)
    k = first.degree - 1
    return ConcordanceFirstTorsion(
        p=p.p,
        pi_degree_C=first.degree - 2,
        pi_degree_H=first.degree - 1,
        group_valuation=first.valuation,
        connectivity_hypothesis=first.degree,
        dimension_hypothesis=max(2 * k + 7, 3 * k + 4),
    )
