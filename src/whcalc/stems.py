"""p-torsion of the stable stems in the range used by the chart engine.

Below the degree of the second beta-family generator the p-primary stable
stems consist of the image-of-J classes alpha_bar(i) in degree q*i - 1 of
order p^(1 + v_p(i)), together with five cokernel-of-J classes of order p:
beta1, alpha1*beta1, beta1^2, alpha1*beta1^2 (and beta2 itself at the
boundary, which is excluded).
"""

from collections import namedtuple

from .arith import OddPrime, vp
from .errors import WindowError

IM_J = "im_j"
COK_J = "cok_j"


# kind is IM_J or COK_J; index is i for the alpha_bar family, else None.
StemClass = namedtuple(
    "StemClass", "name degree order_valuation kind index", defaults=(None,)
)


def beta2_degree(p: OddPrime) -> int:
    """Degree (2p+1)q - 2 of beta_2; the stem table is valid strictly below."""
    return (2 * p.p + 1) * p.q - 2


def alpha_bar(p: OddPrime, i: int) -> StemClass:
    """Image-of-J generator in degree q*i - 1, order p^(1 + v_p(i))."""
    if i < 1:
        raise WindowError(f"alpha_bar index must be >= 1, got {i}")
    return StemClass(f"alpha_bar({i})", p.q * i - 1, 1 + vp(p, i), IM_J, i)


def _cokernel_classes(p: OddPrime) -> tuple[StemClass, ...]:
    """beta1 in degree pq - 2 and its products with alpha1 (degree q - 1)
    and beta1, in ascending degree."""
    alpha1, beta1 = p.q - 1, p.p * p.q - 2
    return (
        StemClass("beta1", beta1, 1, COK_J),
        StemClass("alpha1_beta1", alpha1 + beta1, 1, COK_J),
        StemClass("beta1_sq", 2 * beta1, 1, COK_J),
        StemClass("alpha1_beta1_sq", alpha1 + 2 * beta1, 1, COK_J),
    )


def all_torsion_classes(
    p: OddPrime, below: int | None = None
) -> list[StemClass]:
    """Every p-torsion stem class in degrees below `below`, sorted by
    (degree, name); the bound is capped by, and defaults to,
    beta2_degree(p)."""
    bound = beta2_degree(p) if below is None else min(below, beta2_degree(p))
    out = [c for c in _cokernel_classes(p) if c.degree < bound]
    i = 1
    while p.q * i - 1 < bound:
        out.append(alpha_bar(p, i))
        i += 1
    return sorted(out, key=lambda c: (c.degree, c.name))
