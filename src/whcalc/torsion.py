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

from collections import namedtuple
from itertools import accumulate

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


def _cpbar_terms(p: OddPrime) -> tuple[tuple, tuple, tuple]:
    """The stunted-projective torsion formulas at p, as ranges of n over
    the window, the one place they are written.

    In even degree 2n the p-valuation is the base term

        floor((n-1)/(p-1)) + floor((n-1)/(p(p-1))) - floor(n/p) - floor(n/p^2),

    corrected by +1 when n = p^2 - 2 + mp with 1 <= m <= p-3 and by -1 when
    n = p - 1 + mp with m >= p-2.  Each floor is the signed count of the
    elements <= n of one `steps` range (x <= n exactly floor((n-1)/(p-1))
    times for x in p, 2p - 1, ...), and each correction is the sign of the
    `points` range that holds n.  In odd degree 2n+1 the valuation is 1
    exactly when n = p^2 - p - 1 + m or n = 2p^2 - 2p - 2 + m with
    1 <= m <= p-3, the two runs of `odd`, and 0 elsewhere.
    """
    pp = p.p
    end = torsion_window(p) // 2 + 1  # above every n of the window
    steps = (
        (range(pp, end, pp - 1), 1),
        (range(pp * (pp - 1) + 1, end, pp * (pp - 1)), 1),
        (range(pp, end, pp), -1),
        (range(pp * pp, end, pp * pp), -1),
    )
    points = (
        (range(pp * pp - 2 + pp, pp * pp - 2 + (pp - 3) * pp + 1, pp), 1),
        (range(pp - 1 + (pp - 2) * pp, end, pp), -1),
    )
    odd = (
        range(pp * pp - pp, pp * pp - 3),
        range(2 * pp * pp - 2 * pp - 1, 2 * pp * pp - pp - 4),
    )
    return steps, points, odd


def _cpbar_valuations(p: OddPrime, top: int) -> list[int]:
    """The stunted-projective valuation of every degree 0..top (degree 0
    has none), for top < torsion_window(p), in one pass over the ranges
    of `_cpbar_terms`: each step is a +-1 at its first n, summed once."""
    steps, points, odd = _cpbar_terms(p)
    stop = top // 2 + 1  # the even degrees 2n <= top
    even = [0] * stop
    for r, sign in steps:
        for n in range(r.start, stop, r.step):
            even[n] += sign
    even = list(accumulate(even))
    for r, sign in points:
        for n in range(r.start, min(r.stop, stop), r.step):
            even[n] += sign
    if min(even) < 0:
        n = next(n for n, v in enumerate(even) if v < 0)
        raise InconsistencyError(
            f"negative torsion valuation at p={p.p}, 2n={2 * n}"
        )
    vals = [0] * (top + 1)
    vals[::2] = even
    for r in odd:
        for n in range(r.start, min(r.stop, (top + 1) // 2)):
            vals[2 * n + 1] = 1
    return vals


def sigma_c_summands(p: OddPrime) -> dict:
    """The classes sigma(theta) of the suspended cokernel-of-J piece, as
    {|theta| + 1: theta} over the cokernel-of-J stem classes theta: each
    sigma(theta) has theta's order, and every other degree below
    beta2_degree(p) + 1 has none."""
    return {theta.degree + 1: theta for theta in _cokernel_classes(p)}


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
    vals = _cpbar_valuations(p, max_degree)
    sigma = sigma_c_summands(p)
    for d, theta in sigma.items():
        if d <= max_degree:
            vals[d] += theta.order_valuation
    entries = [
        {
            "degree": d,
            "valuation": val,
            "generators": [f"sigma({sigma[d].name})"] if d in sigma else [],
        }
        for d, val in enumerate(vals)
        if val
    ]
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
    """First degree with nonzero p-torsion, by its closed form: degree
    4p-2 with valuation 1 at p >= 5, and sigma(beta1) in degree pq-1 = 11
    at p = 3.  The profile is its second route.

    In the formulas of `_cpbar_terms`, the first n whose base term is
    nonzero is n = 2p-1, where it is 2 - 1 = 1.  Its -1 correction first
    applies at n = p^2-p-1, which equals 2p-1 only at p = 3, where degree
    4p-2 = 10 has none.  The odd runs start in degree 2p^2-2p+1, and the
    sigma classes at pq-1 = 2p^2-2p-1: both lie above 4p-2 for p >= 5.
    """
    ensure_regular(p, assume_regular)
    if p.p > 3:
        return FirstTorsion(4 * p.p - 2, 1, None)
    d, theta = min(sigma_c_summands(p).items())
    return FirstTorsion(d, theta.order_valuation, f"sigma({theta.name})")


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
