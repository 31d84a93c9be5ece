"""Odd-primary Steenrod algebra: basis, Adem rewriting, module actions."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whcalc.arith import OddPrime, binom_mod_p
from whcalc.errors import InconsistencyError, PreconditionError
from whcalc.steenrod import (
    BETA,
    _adem,
    _fp_rank,
    _ideal_rows,
    _nf,
    act_word_on_projective,
    adem_normalize,
    admissible_basis,
    annihilator_basis,
    live_words,
    milnor_dual_dims,
    milnor_primitive,
    quotient_module_dims,
    word_degree,
    word_str,
)

P3 = OddPrime(3)
P5 = OddPrime(5)


def _is_admissible(p, word):
    """Whether the word is admissible: no repeated Bockstein and
    s_i >= p*s_{i+1} + eps_i for consecutive power operations."""
    prev = None
    eps = 0
    for g in word:
        if g == 0:
            if eps:
                return False
            eps = 1
        else:
            if prev is not None and prev < p.p * g + eps:
                return False
            prev = g
            eps = 0
    return True


def _parse(text):
    """The word whose `word_str` is text: "1", or tokens "b" and "P<s>"."""
    text = text.strip()
    if text == "1":
        return ()
    word = []
    for token in text.split():
        if token == "b":
            word.append(0)
        elif token.startswith("P") and token[1:].isdigit() and int(token[1:]) > 0:
            word.append(int(token[1:]))
        else:
            raise PreconditionError(f"bad monomial token {token!r}")
    return tuple(word)


def _epsilon_0(word):
    """1 when the word starts with a Bockstein, else 0."""
    return 1 if word and word[0] == 0 else 0


def test_word_degree_and_admissibility():
    assert word_degree(P3, ()) == 0
    assert word_degree(P3, BETA) == 1
    assert word_degree(P3, (1,)) == 4
    assert word_degree(P3, (3, 1)) == 16
    assert word_degree(P5, (1,)) == 8
    assert _is_admissible(P3, (3, 1))
    assert not _is_admissible(P3, (1, 1))
    assert not _is_admissible(P3, (0, 0))
    assert not _is_admissible(P3, (3, 0, 1))  # 3 < 3*1 + 1
    assert _is_admissible(P3, (4, 0, 1))
    assert _is_admissible(P3, (0, 1, 0))


def test_monomial_parse_and_str():
    for text in ("1", "b", "P1", "b P1", "P1 b", "b P3 b P1"):
        assert word_str(_parse(text)) == text
    word = _parse("b P3 b P1")
    assert word == (0, 3, 0, 1)
    assert _epsilon_0(word) == 1
    assert word_degree(P3, word) == 18


def test_admissible_basis_examples():
    assert [word_str(w) for w in admissible_basis(P3, 0)] == ["1"]
    names = {word_str(w) for w in admissible_basis(P3, 5)}
    assert names == {"1", "b", "P1", "b P1", "P1 b"}
    assert len(names) == 5


def test_milnor_dual_dims_examples():
    assert milnor_dual_dims(P3, 5) == {0: 1, 1: 1, 4: 1, 5: 2}
    assert milnor_dual_dims(P3, 0) == {0: 1}


def test_basis_counts_match_dual_to_60():
    counts: dict[int, int] = {}
    for w in admissible_basis(P3, 60):
        d = word_degree(P3, w)
        counts[d] = counts.get(d, 0) + 1
    assert counts == milnor_dual_dims(P3, 60)


def test_adem_examples():
    assert adem_normalize(P3, (0, 0)) == {}
    assert adem_normalize(P3, (1, 1)) == {(2,): 2}
    assert adem_normalize(P3, (3, 1)) == {(3, 1): 1}
    assert adem_normalize(P3, (1, 2)) == {}
    # P1 b P1 = b P2 + P2 b  and  P2 b P1 = b P3 - P3 b
    assert adem_normalize(P3, (1, 0, 1)) == {(0, 2): 1, (2, 0): 1}
    assert adem_normalize(P3, (2, 0, 1)) == {(0, 3): 1, (3, 0): 2}
    with pytest.raises(PreconditionError):
        adem_normalize(P3, (-1, 2))


def test_adem_terms_admissible_and_degree_preserving():
    for word in ((1, 1), (1, 2), (2, 2), (1, 0, 1), (2, 0, 2), (4, 0, 1, 0)):
        combo = adem_normalize(P3, word)
        for w in combo:
            assert _is_admissible(P3, w)
            assert word_degree(P3, w) == word_degree(P3, word)


def test_action_examples():
    for i in range(1, 7):
        got = act_word_on_projective(P3, (i,), -1)
        assert got == ((-1) ** i % 3, -1 + 2 * i)
    assert act_word_on_projective(P3, BETA, 4) is None
    assert act_word_on_projective(P3, (2, 0), 4) is None  # ends in Bockstein
    assert act_word_on_projective(P3, (3, 1), 1) == (1, 9)
    with pytest.raises(PreconditionError):
        annihilator_basis(P3, -2, 10)


def test_annihilator_characterization_small():
    basis = admissible_basis(P3, 40)
    ann = set(annihilator_basis(P3, -1, 40))
    complement = set(basis) - ann
    assert complement == {()} | {(i,) for i in range(1, 11)}


def test_annihilator_degree_one_slice():
    slice1 = [
        w for w in annihilator_basis(P3, -1, 1) if word_degree(P3, w) == 1
    ]
    assert [word_str(w) for w in slice1] == ["b"]


def test_annihilator_span_check_clean_for_small_a():
    for a in (-1, 1, 2, 3):
        annihilator_basis(P3, a, 30)
        annihilator_basis(P5, a, 30)


def test_annihilator_span_check_names_a_counterexample():
    # P3 P1 and P4 both act nonzero on y^4 at p=3, in degree 16, so from
    # there on the zero-acting monomials no longer span the annihilator.
    annihilator_basis(P3, 4, 15)
    with pytest.raises(InconsistencyError) as info:
        annihilator_basis(P3, 4, 16)
    message = str(info.value)
    assert "degree 16" in message
    assert "P3 P1" in message and "P4" in message


def test_live_words_are_the_annihilator_complement():
    for pp in (3, 5, 7, 11):
        p = OddPrime(pp)
        bound = 20 * p.q
        words = set(admissible_basis(p, bound))
        for a in (-1, *range(1, pp - 3, 2)):
            ann = annihilator_basis(p, a, bound)
            assert set(live_words(p, a, bound)) == words - set(ann)


def _live_words_unpruned(p, a, max_degree):
    """`live_words` as a plain search: every s up to the degree budget is
    tried, with no bound from the exponent k."""

    def grow(word, k, low, budget):
        yield word
        for s in range(low, budget // p.q + 1):
            if binom_mod_p(p, k, s):
                yield from grow(
                    (s,) + word, k + (p.p - 1) * s, p.p * s, budget - p.q * s
                )

    return grow((), a, 1, max_degree)


def test_live_words_match_the_unpruned_search_in_order():
    # every a that quotient_module_dims reads, to a degree where the
    # bound s <= k cuts branches at every prime
    for pp in (3, 5, 7, 11):
        p = OddPrime(pp)
        for a in (-1, *range(1, pp - 3, 2)):
            want = list(_live_words_unpruned(p, a, 400))
            assert list(live_words(p, a, 400)) == want


def test_live_words_below_degree_zero_are_none():
    # not even the unit word, whose degree 0 exceeds a negative budget
    for budget in (-1, -P5.q):
        assert list(live_words(P5, 1, budget)) == []
    # the quotient on y^3 starts in degree 6, beyond max_degree 3
    assert quotient_module_dims(P5, "CP[a]/A(y^a)", 3, a=3) == {}


def test_milnor_primitives():
    assert milnor_primitive(P3, 0) == {BETA: 1}
    assert milnor_primitive(P3, 1) == {(1, 0): 1, (0, 1): 2}
    for n in range(0, 4):
        qn = milnor_primitive(P3, n)
        assert {word_degree(P3, w) for w in qn} == {2 * 3**n - 1}
        for w in qn:
            assert _is_admissible(P3, w)
            assert 0 in w  # every term carries a Bockstein
        for a in range(-1, 9):
            acted = [act_word_on_projective(P3, w, a) for w in qn]
            assert all(hit is None for hit in acted)


def test_left_ideal_example():
    beta = adem_normalize(P3, BETA)
    rows = _ideal_rows(P3, [beta], 6)
    assert _fp_rank(P3, rows[1]) == 1


def test_quotient_a_mod_a1():
    dims = quotient_module_dims(P3, "A//A1", 24)
    assert dims[0] == 1
    for d in range(1, 12):
        assert dims.get(d, 0) == 0
    assert dims[12] == 1
    aug = quotient_module_dims(P3, "I(A)/A(b,P1)", 24)
    assert 0 not in aug
    assert aug[12] == 1
    for d in range(1, 12):
        assert aug.get(d, 0) == 0


def test_quotient_a_mod_e1_matches_dual_count():
    for p, bound in ((P3, 40), (P5, 40)):
        assert quotient_module_dims(p, "A//E1", bound) == milnor_dual_dims(
            p, bound, first_exterior=2
        )


def test_quotient_c_mod_beta_bottom():
    dims = quotient_module_dims(P3, "C/A(b)", 8)
    for d in range(0, 5):
        assert dims.get(d, 0) == 0
    assert dims[5] == 1  # the class of Q1, internal degree 2p-1


def test_quotient_c1_p5_low_support():
    dims = quotient_module_dims(P5, "C_a/A(b,Q1)", 35, a=1)
    assert {d for d in dims if d <= 35} == {16, 24, 32}
    assert dims[16] == 1


def test_quotient_cp_eigensummand_p5():
    dims = quotient_module_dims(P5, "CP[a]/A(y^a)", 100, a=1)
    want = {
        2 * k: 1
        for k in range(1, 51, 4)
        if k not in (1, 5, 25)
    }
    assert dims == want


def test_quotient_guards_and_sanity():
    with pytest.raises(PreconditionError):
        quotient_module_dims(P3, "nonsense", 10)
    with pytest.raises(PreconditionError):
        quotient_module_dims(P3, "C_a/A(b,Q1)", 10)
    with pytest.raises(PreconditionError):
        quotient_module_dims(P3, "CP[a]/A(y^a)", 10)
    with pytest.raises(PreconditionError):
        quotient_module_dims(P3, "A//E1", -1)
    full = milnor_dual_dims(P3, 30)
    for spec in ("A//E1", "A//A1", "C/A(b)", "C/A(b,Q1)"):
        for d, v in quotient_module_dims(P3, spec, 30).items():
            assert v <= full.get(d, 0)


_tokens = st.integers(0, 6)
_words = st.lists(_tokens, min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(_words)
def test_fuzz_normalization_sound(word):
    combo = adem_normalize(P3, word)
    degree = word_degree(P3, word)
    assert list(combo) == sorted(combo)
    for w, c in combo.items():
        assert _is_admissible(P3, w)
        assert word_degree(P3, w) == degree
        assert 1 <= c <= 2
        again = adem_normalize(P3, w)
        assert again == {w: 1}


@settings(max_examples=60, deadline=None)
@given(_words, st.sampled_from([-1, 0, 1, 2, 5, 9]))
def test_fuzz_action_matches_normalized_expansion(word, a):
    hit = act_word_on_projective(P3, word, a)
    literal: dict[int, int] = {}
    if hit is not None and hit[0] % 3:
        literal[hit[1]] = hit[0] % 3
    combined: dict[int, int] = {}
    for w, c in adem_normalize(P3, word).items():
        piece = act_word_on_projective(P3, w, a)
        if piece is None:
            continue
        coeff, k = piece
        combined[k] = (combined.get(k, 0) + c * coeff) % 3
    combined = {k: v for k, v in combined.items() if v}
    assert literal == combined


def _act_on_bzp(pp, word, e, k):
    """Right-to-left action of a raw word on x^e y^k in H*(BZ/p) =
    E(x) (x) P(y): b x = y and b y = 0, P^s(x^e y^k) = C(k, s) x^e
    y^(k+s(p-1)).  Returns {(e, k): coefficient}, empty when it vanishes."""
    coeff = 1
    for g in reversed(word):
        if g == 0:
            if not e:
                return {}
            e, k = 0, k + 1
        else:
            coeff = coeff * math.comb(k, g) % pp
            k += g * (pp - 1)
    return {(e, k): coeff} if coeff else {}


_primes = st.sampled_from([3, 5, 7])
# Half of the tokens are Bocksteins.
_b_tokens = st.one_of(st.just(0), st.integers(1, 6))


@settings(max_examples=600, deadline=None)
@given(_primes, st.lists(_b_tokens, min_size=1, max_size=4).map(tuple))
def test_fuzz_bockstein_action_on_bzp(pp, word):
    p = OddPrime(pp)
    expansion = adem_normalize(p, word)
    for e, k in itertools.product((0, 1), range(13)):
        combined: dict[tuple[int, int], int] = {}
        for w, c in expansion.items():
            for target, coeff in _act_on_bzp(pp, w, e, k).items():
                combined[target] = (combined.get(target, 0) + c * coeff) % pp
        want = _act_on_bzp(pp, word, e, k)
        assert want == {t: v for t, v in combined.items() if v}, (e, k)


def _nf_product(p, left, right):
    """Normal form of the product of two normalized combinations."""
    acc: dict[tuple[int, ...], int] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            for w, c in adem_normalize(p, w1 + w2).items():
                acc[w] = (acc.get(w, 0) + c1 * c2 * c) % p.p
    return {w: c for w, c in acc.items() if c}


_short_words = st.lists(_b_tokens, max_size=2).map(tuple)


@settings(max_examples=400, deadline=None)
@given(_primes, _short_words, _short_words, _short_words)
def test_fuzz_normal_form_is_associative(pp, a, b, c):
    p = OddPrime(pp)
    ab = adem_normalize(p, a + b)
    bc = adem_normalize(p, b + c)
    assert _nf_product(p, ab, {c: 1}) == _nf_product(p, {a: 1}, bc)


def test_nf_cache_is_bounded():
    bound = _nf.cache_info().maxsize
    # CI's `verify --p 3,5,7,11,13,17,19,23,29,41,53,61 --deep` normalizes
    # 9390 distinct words.
    assert bound is not None and bound >= 9390
    _nf.cache_clear()
    for s in range(1, bound + 100):
        _nf(3, (s,))  # admissible, so one entry each
    assert _nf.cache_info().currsize == bound
    assert adem_normalize(P3, (1, 1)) == {(2,): 2}
    _nf.cache_clear()


def test_adem_cache_is_bounded():
    bound = _adem.cache_info().maxsize
    # CI's `verify --p 3,5,7,11,13,17,19,23,29,41,53,61 --deep` expands 235
    # distinct relations.
    assert bound is not None and bound >= 235
    _adem.cache_clear()
    for b in range(1, bound + 100):
        _adem(3, 1, 0, b)  # P^1 P^b is inadmissible for every b >= 1
    assert _adem.cache_info().currsize == bound
    _nf.cache_clear()
    assert adem_normalize(P3, (1, 1)) == {(2,): 2}
    _adem.cache_clear()
    _nf.cache_clear()
