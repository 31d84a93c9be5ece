"""Odd-primary mod-p Steenrod algebra engine.

Words are tuples of generator tokens read left to right: 0 stands for the
Bockstein b, a positive integer s stands for the power operation P^s.  A
word b^(e0) P^(s1) b^(e1) P^(s2) ... is admissible when s_i >= p*s_{i+1} +
e_i for every consecutive pair; the admissible monomials form an F_p-basis
of the algebra.  Degrees: |b| = 1, |P^s| = 2s(p-1).

Inadmissible length-2 and length-3 factors are rewritten with the
odd-primary Adem relations (with binomial coefficients taken mod p by
Lucas), applied at the leftmost violation until every term is admissible.
The relations are never trusted blindly: the module action on stunted
projective classes, where P^s(y^k) = C(k, s) y^(k+(p-1)s) and b(y^k) = 0,
provides an independent oracle, as does the generating-function dimension
count of the dual algebra.

Quotient-module dimensions come from Poincare series of the dual algebra;
exact F_p elimination on dictionaries keyed by words (`_ideal_rows`,
`_fp_rank`) is kept as the route `verify` checks those series against.
"""

from functools import lru_cache

from .arith import OddPrime, binom_mod_p
from .errors import InconsistencyError, PreconditionError

Word = tuple[int, ...]

BETA: Word = (0,)


def word_degree(p: OddPrime, word: Word) -> int:
    return sum(1 if g == 0 else 2 * g * (p.p - 1) for g in word)


def word_str(word: Word) -> str:
    """"1" for the unit, otherwise the tokens b and P<s> joined by spaces."""
    if not word:
        return "1"
    return " ".join("b" if g == 0 else f"P{g}" for g in word)


# ---------------------------------------------------------------------------
# Adem relations


# Bounded; its largest caller, CI's
# `verify --p 3,5,7,11,13,17,19,23,29,41,53,61 --deep`, needs 235 entries.
@lru_cache(maxsize=1 << 10)
def _adem(pp: int, a: int, eps: int, b: int) -> tuple[tuple[Word, int], ...]:
    """Expansion of the inadmissible factor P^a P^b (eps=0, a < p*b) or
    P^a b P^b (eps=1, a <= p*b) as admissible words with coefficients."""
    p = OddPrime(pp)
    out: dict[Word, int] = {}  # no word arises twice
    if eps == 0:
        for t in range(a // pp + 1):
            c = binom_mod_p(p, (pp - 1) * (b - t) - 1, a - pp * t)
            if c:
                sign = -1 if (a + t) % 2 else 1
                out[(a + b,) if t == 0 else (a + b - t, t)] = sign * c % pp
    else:
        for t in range(a // pp + 1):
            c = binom_mod_p(p, (pp - 1) * (b - t), a - pp * t)
            if c:
                sign = -1 if (a + t) % 2 else 1
                word = (0, a + b) if t == 0 else (0, a + b - t, t)
                out[word] = sign * c % pp
            if a - pp * t - 1 >= 0:
                c = binom_mod_p(p, (pp - 1) * (b - t) - 1, a - pp * t - 1)
                if c:
                    sign = 1 if (a + t) % 2 else -1
                    word = (a + b, 0) if t == 0 else (a + b - t, 0, t)
                    out[word] = sign * c % pp
    return tuple(sorted(out.items()))


def _leftmost_violation(pp: int, word: Word) -> tuple[int, int, int, int] | None:
    """(position, a, eps, b) of the first inadmissible factor, or None.
    A repeated Bockstein is reported with b = -1 (the factor is zero)."""
    n = len(word)
    for i, g in enumerate(word):
        if g == 0:
            if i + 1 < n and word[i + 1] == 0:
                return (i, 0, 0, -1)
            continue
        if i + 1 < n and word[i + 1] > 0:
            if g < pp * word[i + 1]:
                return (i, g, 0, word[i + 1])
        elif i + 2 < n and word[i + 1] == 0 and word[i + 2] > 0:
            if g <= pp * word[i + 2]:
                return (i, g, 1, word[i + 2])
    return None


# Bounded; its largest caller, CI's
# `verify --p 3,5,7,11,13,17,19,23,29,41,53,61 --deep`, needs 9390 entries.
@lru_cache(maxsize=1 << 14)
def _nf(pp: int, word: Word) -> tuple[tuple[Word, int], ...]:
    """Admissible normal form of a raw word, as (word, coeff) pairs."""
    hit = _leftmost_violation(pp, word)
    if hit is None:
        return ((word, 1),)
    i, a, eps, b = hit
    if b < 0:
        return ()
    prefix, suffix = word[:i], word[i + 2 + eps:]
    terms = [(prefix + mid + suffix, c) for mid, c in _adem(pp, a, eps, b)]
    return tuple(sorted(_normalize(pp, terms).items()))


def adem_normalize(p: OddPrime, word) -> dict[Word, int]:
    """Expand a raw word (iterable of 0 = Bockstein, s > 0 = P^s) in the
    admissible basis, as nonzero coefficients mod p sorted by word.
    Idempotent on admissible words."""
    word = tuple(word)
    for g in word:
        if g < 0:
            raise PreconditionError(f"bad generator token {g}")
    return dict(_nf(p.p, word))


def _normalize(pp: int, terms) -> dict[Word, int]:
    """Normal form mod `pp` of raw words given as (word, coeff) pairs;
    products are formed by concatenating the words first."""
    acc: dict[Word, int] = {}
    for w, c in terms:
        for w2, c2 in _nf(pp, w):
            acc[w2] = (acc.get(w2, 0) + c * c2) % pp
    return {w: c for w, c in acc.items() if c}


# ---------------------------------------------------------------------------
# Bases and dimension oracles


def admissible_basis(p: OddPrime, max_degree: int) -> list[Word]:
    """All admissible words of degree <= max_degree, ordered by
    (degree, word)."""
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    pp = p.p
    unit_p = 2 * (pp - 1)

    def chains(budget: int, max_s: int):
        yield ()
        for s in range(1, min(max_s, budget // unit_p) + 1):
            base = unit_p * s
            for tail in chains(budget - base, s // pp):
                yield (s,) + tail
            if base + 1 <= budget:
                for tail in chains(budget - base - 1, (s - 1) // pp):
                    yield (s, 0) + tail

    words = list(chains(max_degree, max_degree))
    if max_degree >= 1:
        words += [(0,) + chain for chain in chains(max_degree - 1, max_degree)]
    words.sort(key=lambda w: (word_degree(p, w), w))
    return words


def milnor_dual_dims(
    p: OddPrime, max_degree: int, *, first_exterior: int = 0
) -> dict[int, int]:
    """Graded dimensions of the dual algebra by generating function:
    polynomial generators in degrees 2(p^i - 1) for i >= 1 tensor exterior
    generators in degrees 2p^i - 1 for i >= first_exterior.  With
    first_exterior = 0 this counts the whole algebra; first_exterior = 2
    counts the quotient dual to the subalgebra generated by the two bottom
    primitives.  Zero entries are omitted."""
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    i = 1
    while 2 * (p.p**i - 1) <= max_degree:
        d = 2 * (p.p**i - 1)
        for j in range(d, max_degree + 1):
            coeffs[j] += coeffs[j - d]
        i += 1
    i = first_exterior
    while 2 * p.p**i - 1 <= max_degree:
        d = 2 * p.p**i - 1
        for j in range(max_degree, d - 1, -1):
            coeffs[j] += coeffs[j - d]
        i += 1
    return {d: c for d, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# Action on stunted projective classes


def act_word_on_projective(p: OddPrime, word: Word, k: int):
    """Right-to-left action of a raw word on y^k; None when it vanishes.
    P^s multiplies by C(k, s) and raises the exponent by (p-1)s; the
    Bockstein kills every y^k."""
    coeff = 1
    for g in reversed(word):
        if g == 0:
            return None
        c = binom_mod_p(p, k, g)
        if c == 0:
            return None
        coeff = coeff * c % p.p
        k += (p.p - 1) * g
    return coeff, k


def live_words(p: OddPrime, a: int, max_degree: int):
    """Yield the admissible words of degree <= max_degree acting nonzero
    on y^a.  The Bockstein kills every y^k, so these are power chains
    P^(s1) ... P^(sn) with s_i >= p*s_(i+1); they are grown right to left,
    and a branch is cut as soon as its Lucas binomial C(k, s) vanishes,
    as it does for every s > k >= 0."""

    def grow(word: Word, k: int, low: int, budget: int):
        yield word
        top = budget // p.q if k < 0 else min(budget // p.q, k)
        for s in range(low, top + 1):
            if binom_mod_p(p, k, s):
                yield from grow(
                    (s,) + word, k + (p.p - 1) * s, p.p * s, budget - p.q * s
                )

    return grow((), a, 1, max_degree)


def annihilator_basis(p: OddPrime, a: int, max_degree: int) -> list[Word]:
    """Admissible words of degree <= max_degree acting as zero on y^a.

    These span the full annihilator ideal in each degree exactly when at
    most one monomial per degree acts nonzero (the action lands in a module
    with at most one basis class per degree, so the action matrix per
    degree has rank <= 1).  That property is checked degree by degree, and
    a failure raises with a counterexample.
    """
    if a < -1:
        raise PreconditionError(f"projective classes need a >= -1, got {a}")
    out = []
    alive: dict[int, Word] = {}
    for word in admissible_basis(p, max_degree):
        if act_word_on_projective(p, word, a) is None:
            out.append(word)
        else:
            d = word_degree(p, word)
            if d in alive:
                raise InconsistencyError(
                    f"annihilator of y^{a} is not monomial-spanned in degree "
                    f"{d}: both {word_str(alive[d])} and {word_str(word)} "
                    f"act nonzero"
                )
            alive[d] = word
    return out


# ---------------------------------------------------------------------------
# Milnor primitives


def milnor_primitive(p: OddPrime, n: int) -> dict[Word, int]:
    """Q_0 = b and Q_{n+1} = P^(p^n) Q_n - Q_n P^(p^n), in admissible form;
    |Q_n| = 2p^n - 1."""
    if n < 0:
        raise PreconditionError(f"Milnor primitive index must be >= 0, got {n}")
    combo: dict[Word, int] = {BETA: 1}
    for m in range(n):
        s = (p.p**m,)
        left = [(s + w, c) for w, c in combo.items()]
        right = [(w + s, -c) for w, c in combo.items()]
        combo = _normalize(p.p, left + right)
    return combo


# ---------------------------------------------------------------------------
# Left ideals and quotient-module dimensions


def _fp_rank(p: OddPrime, rows: list[dict[Word, int]]) -> int:
    """Rank over F_p of rows keyed by words; exact Gaussian elimination."""
    pivots: dict[Word, dict[Word, int]] = {}
    rank = 0
    for row in rows:
        row = {w: c % p.p for w, c in row.items() if c % p.p}
        while row:
            key = max(row)
            piv = pivots.get(key)
            if piv is None:
                inv = pow(row[key], p.p - 2, p.p)
                pivots[key] = {w: c * inv % p.p for w, c in row.items()}
                rank += 1
                break
            factor = row[key]
            for w, c in piv.items():
                row[w] = (row.get(w, 0) - factor * c) % p.p
                if not row[w]:
                    del row[w]
        # an emptied row is dependent; move on
    return rank


def _ideal_rows(
    p: OddPrime, generators: list[dict[Word, int]], max_degree: int
) -> dict[int, list[dict[Word, int]]]:
    """Per degree, the nonzero products x * g of each admissible word x
    with each nonzero homogeneous generator g, in normal form."""
    rows: dict[int, list[dict[Word, int]]] = {}
    basis = admissible_basis(p, max_degree)
    for g in generators:
        gdeg = word_degree(p, next(iter(g)))
        for x in basis:
            d = word_degree(p, x) + gdeg
            if d > max_degree:
                continue
            row = _normalize(p.p, [(x + w, c) for w, c in g.items()])
            if row:
                rows.setdefault(d, []).append(row)
    return rows


QUOTIENT_SPECS = (
    "C/A(b)",
    "C/A(b,Q1)",
    "C_a/A(b,Q1)",
    "A//E1",
    "A//A1",
    "I(A)/A(b,P1)",
    "CP[a]/A(y^a)",
)


def quotient_module_dims(
    p: OddPrime, spec: str, max_degree: int, a: int | None = None
) -> dict[int, int]:
    """Graded dimensions of the named quotient module, degrees 0..max_degree,
    zero entries omitted.

    Specs:
      "C/A(b)", "C/A(b,Q1)"  — the annihilator ideal of y^(-1) modulo the
          left ideal on the Bockstein (and Q_1);
      "C_a/A(b,Q1)"          — the annihilator ideal of y^a likewise (pass a);
      "A//E1"                — the whole algebra modulo A(b, Q1);
      "A//A1"                — the whole algebra modulo A(b, P1);
      "I(A)/A(b,P1)"         — the augmentation ideal modulo A(b, P1);
      "CP[a]/A(y^a)"         — the stunted projective eigensummand on
          exponents k >= a, k = a mod p-1 (internal degree 2k), modulo the
          cyclic submodule on y^a (pass a).

    Each piece is a Poincare series of the dual algebra, polynomial on the
    xi_i tensor exterior on the tau_i: A//E1 drops tau_0 and tau_1, A//E0
    drops tau_0, and A//A1 also trades xi_1 for xi_1^p.  An annihilator
    quotient subtracts one class in each degree holding a live word, since
    the action lands in at most one class per degree; for y^(-1) the live
    words are 1 and the single powers, one in each degree divisible by q.
    """
    if spec not in QUOTIENT_SPECS:
        raise PreconditionError(f"unknown quotient spec {spec!r}")
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")

    if spec == "CP[a]/A(y^a)":
        if a is None or a < -1:
            raise PreconditionError("CP[a]/A(y^a) needs a >= -1")
        # a live word of degree d carries y^a (degree 2a) to degree 2a + d
        live = live_words(p, a, max_degree - 2 * a)
        hit = {2 * a + word_degree(p, w) for w in live}
        return {d: 1 for d in range(2 * a, max_degree + 1, p.q) if d not in hit}
    if spec == "C_a/A(b,Q1)" and (a is None or a < 1):
        raise PreconditionError("C_a/A(b,Q1) needs a >= 1")

    series = milnor_dual_dims(
        p, max_degree, first_exterior=1 if spec == "C/A(b)" else 2
    )
    coeffs = [series.get(d, 0) for d in range(max_degree + 1)]
    if spec in ("A//A1", "I(A)/A(b,P1)"):
        # times (1 - t^q) / (1 - t^(pq)): P(xi_1) becomes P(xi_1^p)
        for d in range(max_degree, p.q - 1, -1):
            coeffs[d] -= coeffs[d - p.q]
        for d in range(p.p * p.q, max_degree + 1):
            coeffs[d] += coeffs[d - p.p * p.q]
        if spec == "I(A)/A(b,P1)":
            coeffs[0] = 0
    elif spec != "A//E1":
        target = a if spec == "C_a/A(b,Q1)" else -1
        for d in {word_degree(p, w) for w in live_words(p, target, max_degree)}:
            coeffs[d] -= 1
    for d, c in enumerate(coeffs):
        if c < 0:
            raise InconsistencyError(
                f"{spec}: ideal exceeds numerator in degree {d}"
            )
    return {d: c for d, c in enumerate(coeffs) if c}
