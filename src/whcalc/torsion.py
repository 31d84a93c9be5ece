"""Closed-form p-torsion of the smooth Whitehead spectrum of a point.

At an odd regular prime p (granting the standing Lichtenbaum-Quillen
assumption for Z[1/p]) the Whitehead spectrum splits, away from its free
part, as a suspended cokernel-of-J piece together with a suspended stunted
complex projective piece.  This module evaluates the resulting closed
formulas; the chart engine in `ahss` recomputes the same numbers by a
different route and the two are compared in tests.

Degree conventions: a Whitehead-spectrum degree d matches the suspended
stunted spectrum in the same degree, so even d = 2n uses the even-degree
valuation at n and odd d = 2n+1 uses the odd-degree valuation at n.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import OddPrime, ensure_regular
from .errors import InconsistencyError, PreconditionError, WindowError

GENERIC_ANNOTATION = (
    "entries record p-torsion orders as p-valuations; free summands are omitted"
)
P3_DEGREE14_ANNOTATION = (
    "degree 14 at p=3: the group is Z/3{sigma(alpha1_beta1)} + Z/9 "
    "(group structure recorded as given; only the order is computed here)"
)


class SplittingConstants(NamedTuple):
    """Derived constants of the splitting at p."""

    p: int
    q: int
    beta2_degree: int
    sigma_c_degrees: tuple[int, int, int, int]

    @classmethod
    def from_prime(cls, p: OddPrime) -> "SplittingConstants":
        q, pp = p.q, p.p
        return cls(
            pp,
            q,
            (2 * pp + 1) * q - 2,
            (pp * q - 1, (pp + 1) * q - 2, 2 * pp * q - 3, (2 * pp + 1) * q - 4),
        )


_SIGMA_C_NAMES = (
    "sigma(beta1)",
    "sigma(alpha1_beta1)",
    "sigma(beta1_sq)",
    "sigma(alpha1_beta1_sq)",
)


def torsion_window(p: OddPrime) -> int:
    """Exclusive bound on Whitehead degrees with fully determined torsion."""
    return (2 * p.p + 1) * p.q - 3


def cpbar_even_valuation(p: OddPrime, n: int) -> int:
    """p-valuation of the torsion of the suspended stunted spectrum in even
    degree 2n, valid for 2n < (2p+1)q - 3.

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
    degree 2n+1, valid for 2n+1 < (2p+1)q - 3: valuation 1 exactly when
    n = p^2 - p - 1 + m or n = 2p^2 - 2p - 2 + m with 1 <= m <= p-3."""
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


class StemSummand(NamedTuple):
    generator: str
    valuation: int


def sigma_c_torsion(p: OddPrime, degree: int) -> StemSummand | None:
    """Z/p class of the suspended cokernel-of-J piece in one degree, if any.

    Valid for 0 <= degree < (2p+1)q - 1.
    """
    bound = (2 * p.p + 1) * p.q - 1
    if not 0 <= degree < bound:
        raise WindowError(
            f"suspended cokernel-of-J piece is determined for 0 <= degree < "
            f"{bound} at p={p.p}; got {degree}"
        )
    consts = SplittingConstants.from_prime(p)
    for name, d in zip(_SIGMA_C_NAMES, consts.sigma_c_degrees):
        if d == degree:
            return StemSummand(name, 1)
    return None


class ProfileEntry(NamedTuple):
    degree: int
    valuation: int
    generators: tuple[str, ...]


class TorsionProfile(NamedTuple):
    p: int
    max_degree: int
    assumptions: tuple[str, ...]
    entries: tuple[ProfileEntry, ...]
    annotations: tuple[str, ...]


def _degree_valuation(p: OddPrime, d: int) -> tuple[int, tuple[str, ...]]:
    val = 0
    gens: list[str] = []
    named = sigma_c_torsion(p, d)
    if named is not None:
        val += named.valuation
        gens.append(named.generator)
    if d % 2 == 0:
        if d >= 2:
            val += cpbar_even_valuation(p, d // 2)
    else:
        val += cpbar_odd_valuation(p, (d - 1) // 2)
    return val, tuple(gens)


def wh_torsion_profile(
    p: OddPrime, max_degree: int, *, assume_regular: bool = False
) -> TorsionProfile:
    """p-torsion valuation of the Whitehead spectrum in degrees 1..max_degree.

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
    entries = []
    for d in range(1, max_degree + 1):
        val, gens = _degree_valuation(p, d)
        if val:
            entries.append(ProfileEntry(d, val, gens))
    annotations = [GENERIC_ANNOTATION]
    if p.p == 3 and max_degree >= 14:
        annotations.append(P3_DEGREE14_ANNOTATION)
    return TorsionProfile(
        p.p, max_degree, assumptions, tuple(entries), tuple(annotations)
    )


class FirstTorsion(NamedTuple):
    degree: int
    valuation: int
    generator: str | None


def first_p_torsion(p: OddPrime, *, assume_regular: bool = False) -> FirstTorsion:
    """First degree with nonzero p-torsion, scanned from degree 1 upward."""
    ensure_regular(p, assume_regular)
    for d in range(1, torsion_window(p)):
        val, gens = _degree_valuation(p, d)
        if val:
            return FirstTorsion(d, val, gens[0] if gens else None)
    raise InconsistencyError(
        f"no torsion found below the validity window at p={p.p}"
    )


class ConcordanceFirstTorsion(NamedTuple):
    """First p-torsion transported to concordance and h-cobordism spaces.

    For a sufficiently connected compact smooth n-manifold the stable range
    identifies concordance-space homotopy two degrees below (and h-cobordism
    one degree below) the Whitehead degree.  The hypotheses record the
    required connectivity and the dimension bound n >= max(2k+7, 3k+4)
    needed for stability one degree past the h-cobordism degree k.
    """

    p: int
    pi_degree_C: int
    pi_degree_H: int
    group_valuation: int
    connectivity_hypothesis: int
    dimension_hypothesis: int


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


def profile_payload(profile: TorsionProfile) -> dict:
    """JSON-ready projection with deterministic field order."""
    return {
        "kind": "torsion-profile",
        "p": profile.p,
        "max_degree": profile.max_degree,
        "assumptions": list(profile.assumptions),
        "entries": [
            {
                "degree": e.degree,
                "valuation": e.valuation,
                "generators": list(e.generators),
            }
            for e in profile.entries
        ],
        "annotations": list(profile.annotations),
    }
