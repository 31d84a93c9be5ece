"""p-torsion of the stable stems in the range used by the chart engine.

Below the degree of the second beta-family generator the p-primary stable
stems consist of the image-of-J classes alpha_bar(i) in degree q*i - 1 of
order p^(1 + v_p(i)), together with five cokernel-of-J classes of order p:
beta1, alpha1*beta1, beta1^2, alpha1*beta1^2 (and beta2 itself at the
boundary, which is excluded).
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import OddPrime, vp
from .errors import WindowError

IM_J = "im_j"
COK_J = "cok_j"


class StemClass(NamedTuple):
    name: str
    degree: int
    order_valuation: int
    kind: str  # IM_J or COK_J
    index: int | None = None  # i for the alpha_bar family


def beta2_degree(p: OddPrime) -> int:
    """Degree (2p+1)q - 2 of beta_2; the stem table is valid strictly below."""
    return (2 * p.p + 1) * p.q - 2


def alpha_bar(p: OddPrime, i: int) -> StemClass:
    """Image-of-J generator in degree q*i - 1, order p^(1 + v_p(i))."""
    if i < 1:
        raise WindowError(f"alpha_bar index must be >= 1, got {i}")
    return StemClass(f"alpha_bar({i})", p.q * i - 1, 1 + vp(p, i), IM_J, i)


def _cokernel_classes(p: OddPrime) -> tuple[StemClass, ...]:
    q, pp = p.q, p.p
    return (
        StemClass("beta1", pp * q - 2, 1, COK_J),
        StemClass("alpha1_beta1", (pp + 1) * q - 3, 1, COK_J),
        StemClass("beta1_sq", 2 * pp * q - 4, 1, COK_J),
        StemClass("alpha1_beta1_sq", (2 * pp + 1) * q - 5, 1, COK_J),
    )


def all_torsion_classes(p: OddPrime) -> list[StemClass]:
    """Every p-torsion stem class in degrees below beta2_degree(p)."""
    bound = beta2_degree(p)
    out = [c for c in _cokernel_classes(p) if c.degree < bound]
    i = 1
    while p.q * i - 1 < bound:
        out.append(alpha_bar(p, i))
        i += 1
    return sorted(out, key=lambda c: (c.degree, c.name))


def stem_torsion(p: OddPrime, t: int) -> list[StemClass]:
    """p-torsion summands of the stable t-stem, for 0 <= t < beta2_degree(p).

    Degrees at or beyond the bound are refused; the table does not
    extrapolate.
    """
    bound = beta2_degree(p)
    if not 0 <= t < bound:
        raise WindowError(
            f"stable stem table is valid for 0 <= t < {bound}; got t={t}"
        )
    out = [c for c in _cokernel_classes(p) if c.degree == t]
    if t % p.q == p.q - 1:
        i = (t + 1) // p.q
        if i >= 1:
            out.append(alpha_bar(p, i))
    return sorted(out, key=lambda c: c.name)
