"""Exact number-theoretic primitives: valuations, binomials mod p, regularity.

Everything in this module (and in the rest of the package) is integer
arithmetic; no floating point is used anywhere.
"""

from functools import lru_cache

from .errors import PreconditionError, UnverifiedError

# Largest prime whose regularity we are willing to certify by default.
REGULARITY_BOUND = 1000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


class OddPrime:
    """An odd prime p, validated at construction; q = 2p - 2 rides along.
    Immutable, and equal and hashed as the tuple (p,)."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if p < 3 or p % 2 == 0 or not _is_prime(p):
            raise PreconditionError(f"p must be an odd prime, got {p}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"OddPrime is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.p == other.p if type(other) is OddPrime else NotImplemented

    def __hash__(self) -> int:
        return hash((self.p,))

    def __repr__(self) -> str:
        return f"OddPrime(p={self.p!r})"

    @property
    def q(self) -> int:
        return 2 * self.p - 2

    def __str__(self) -> str:
        return str(self.p)


def vp(p: OddPrime, n: int) -> int:
    """p-adic valuation of a positive integer."""
    if n < 1:
        raise PreconditionError(f"vp needs a positive integer, got {n}")
    e = 0
    while n % p.p == 0:
        n //= p.p
        e += 1
    return e


def vp_factorial(p: OddPrime, n: int) -> int:
    """v_p(n!) by Legendre's formula: sum over e >= 1 of floor(n / p^e)."""
    if n < 0:
        raise PreconditionError(f"vp_factorial needs n >= 0, got {n}")
    total = 0
    pe = p.p
    while pe <= n:
        total += n // pe
        pe *= p.p
    return total


def _lucas(p: int, n: int, k: int) -> int:
    """C(n, k) mod p for n, k >= 0, digit by digit in base p."""
    if k < 0 or k > n:
        return 0
    out = 1
    while k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        num = den = 1
        for j in range(kd):
            num = num * (nd - j) % p
            den = den * (j + 1) % p
        out = out * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return out


def binom_mod_p(p: OddPrime, k: int, i: int) -> int:
    """Binomial coefficient C(k, i) mod p; k may be any integer, i >= 0.

    For k < 0 the generalized coefficient reflects to
    C(k, i) = (-1)^i C(i - k - 1, i).
    """
    if i < 0:
        raise PreconditionError(f"binom_mod_p needs i >= 0, got {i}")
    if k < 0:
        c = _lucas(p.p, i - k - 1, i)
        return (p.p - c) % p.p if i % 2 else c
    return _lucas(p.p, k, i)


@lru_cache(maxsize=None)
def _irregular_indices(p: int) -> tuple[int, ...]:
    """Even k in [2, p-3] with p dividing the numerator of B_k.

    B_k mod p is computed with the convolution recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0.  All the divisions that occur are by
    integers < p, and the von Staudt-Clausen denominators of B_2..B_{p-3}
    are prime to p, so the reduction mod p is well defined.
    """
    kmax = p - 3
    inv = [0, 1]
    for i in range(2, p):
        inv.append(-(p // i) * inv[p % i] % p)
    bern = [1] + [0] * max(kmax, 1)
    for m in range(1, kmax + 1):
        acc = 0
        c = 1  # C(m+1, j), updated multiplicatively
        for j in range(m):
            acc = (acc + c * bern[j]) % p
            c = c * (m + 1 - j) % p * inv[j + 1] % p
        bern[m] = -acc * inv[m + 1] % p
    return tuple(k for k in range(2, kmax + 1, 2) if bern[k] == 0)


def is_regular(p: OddPrime) -> bool:
    """Whether p divides no numerator among B_2, B_4, ..., B_{p-3}.

    Primes beyond REGULARITY_BOUND are refused with UnverifiedError rather
    than guessed at.
    """
    if p.p > REGULARITY_BOUND:
        raise UnverifiedError(
            f"regularity of p={p.p} is not verified beyond the configured "
            f"bound {REGULARITY_BOUND}"
        )
    return not _irregular_indices(p.p)


def ensure_regular(
    p: OddPrime,
    assume_regular: bool = False,
    hint: str = "pass assume_regular=True to override",
) -> tuple[str, ...]:
    """Gate used by the torsion/cohomology entry points.

    Returns the standing assumption strings recorded in serialized output.
    With assume_regular the check is skipped and the override is recorded.
    An irregular prime, or one beyond REGULARITY_BOUND, is refused with a
    message ending in `hint`, which names the override the caller offers
    (a CLI flag, say) or that there is none.
    """
    assumptions = ["odd regular prime", "Lichtenbaum-Quillen for Z[1/p]"]
    if assume_regular:
        assumptions[0] = "odd prime, regularity assumed by flag (not verified)"
        return tuple(assumptions)
    try:
        regular = is_regular(p)
    except UnverifiedError as exc:
        raise UnverifiedError(f"{exc} ({hint})") from None
    if not regular:
        raise PreconditionError(
            f"p={p.p} is an irregular prime; the computation assumes an odd "
            f"regular prime ({hint})"
        )
    return tuple(assumptions)
