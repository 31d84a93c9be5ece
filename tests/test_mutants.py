"""The mutant table: every `verify` route must be able to fail.

Each mutant breaks one piece of the package in process, by its patches
(module, name, replacement), and runs `verify --deep` at its primes.  The
default primes have no golden files, so only the routes count; a mutant
that only a pinned emission can catch runs at p=3.  A caught mutant names
the rows that must fail, exactly.  A mutant that no row catches names the
ROADMAP item whose gap lets it through, and is a strict xfail: the change
that closes the gap makes it pass, and must move it to caught.  A mutant
is never deleted or weakened to make its test pass."""

from collections import namedtuple

import pytest

from whcalc import ahss, steenrod, stems, torsion, verify, whcohomology
from whcalc.arith import OddPrime

# `fails` is the set of rows that must fail; `gap` the ROADMAP item whose
# gap lets the mutant through, with no row failing.
PRIMES = (7, 11, 13)
Mutant = namedtuple(
    "Mutant", "name patches primes fails gap", defaults=(PRIMES, (), None)
)

# The results that a run of `verify` keeps, cleared around each mutant;
# captured here, since a mutant may patch `_adem` itself.
CACHES = (verify._chart, steenrod._nf, steenrod._adem)

_axis_kept = ahss._axis_kept
_columns = ahss._columns
_admissible_basis = steenrod.admissible_basis
_sigma_c_summands = torsion.sigma_c_summands
_cokernel_classes = stems._cokernel_classes
_all_torsion_classes = stems.all_torsion_classes
_adem = steenrod._adem
_live_words = steenrod.live_words
_quotient_module_dims = whcohomology.quotient_module_dims
_h_sigma_c_dims = whcohomology.h_sigma_c_dims


def _revalued(name, valuation, classes):
    return type(classes)(
        c._replace(order_valuation=valuation) if c.name == name else c
        for c in classes
    )


def _beta1_sq_of_order_p2(p):
    return _revalued("beta1_sq", 2, _cokernel_classes(p))


def _classes_with_beta1_sq_of_order_p2(p, below=None):
    return _revalued("beta1_sq", 2, _all_torsion_classes(p, below))


def _classes_without_alpha1_beta1_sq(p, below=None):
    return [
        c for c in _all_torsion_classes(p, below)
        if c.name != "alpha1_beta1_sq"
    ]


def _adem_with_b_terms_negated(pp, a, eps, b):
    terms = _adem(pp, a, eps, b)
    if eps:
        terms = tuple((w, -c % pp if w[0] == 0 else c) for w, c in terms)
    return terms


def _adem_with_one_letter_term_doubled(pp, a, eps, b):
    terms = _adem(pp, a, eps, b)
    if not eps:
        terms = tuple((w, 2 * c % pp if len(w) == 1 else c) for w, c in terms)
    return terms


def _adem_with_two_letter_terms_negated(pp, a, eps, b):
    terms = _adem(pp, a, eps, b)
    if not eps:
        terms = tuple((w, -c % pp if len(w) == 2 else c) for w, c in terms)
    return terms


def _live_words_of_length_below_2(p, a, max_degree):
    return (w for w in _live_words(p, a, max_degree) if len(w) < 2)


def _cpa_without_its_top_class(p, spec, max_degree, a=None):
    dims = _quotient_module_dims(p, spec, max_degree, a=a)
    if spec == "CP[a]/A(y^a)" and dims:
        del dims[max(dims)]
    return dims


def _sigma_hp_in_degrees_4m_plus_3(p, max_degree):
    return {d: 1 for d in range(7, max_degree + 1, 4)}


def _sigma_c_with_one_more_class_in_degree_20(p, max_degree):
    dims = _h_sigma_c_dims(p, max_degree)
    if max_degree >= 20:
        dims[20] = dims.get(20, 0) + 1
    return dims


def _sigma_beta1_of_order_p2(p):
    return _revalued("beta1", 2, _cokernel_classes(p))


def _axis_kept_on_budgets_floor_n_over_p(p, alpha, budgets):
    # R1 kills floor(n/p), the first term of v_p(n!), in degree 2n-1
    return _axis_kept(p, alpha, [n // p.p for n in range(len(budgets))])


def _columns_without_b_minus_1(target, max_total, t):
    return [k for k in _columns(target, max_total, t) if k != -1]


def _admissible_basis_without_trailing_bocksteins(p, max_degree):
    return [
        w for w in _admissible_basis(p, max_degree)
        if len(w) < 2 or w[-1] != 0
    ]


def _sigma_classes_one_degree_low(p):
    return {d - 1: theta for d, theta in _sigma_c_summands(p).items()}


CHART_ROWS = {
    "chart-adjustment-sets", "chart-conservation", "torsion-vs-charts",
}

MUTANTS = (
    Mutant(
        "M2-beta1_sq-of-order-p2",
        [*((module, "_cokernel_classes", _beta1_sq_of_order_p2)
           for module in (stems, ahss, torsion, verify)),
         (ahss, "all_torsion_classes", _classes_with_beta1_sq_of_order_p2)],
        fails=CHART_ROWS,
    ),
    Mutant(
        "M5-cpa-quotient-without-its-top-class",
        [(whcohomology, "quotient_module_dims", _cpa_without_its_top_class)],
        fails={"delta-rank"},
    ),
    Mutant(
        "M7-alpha1_beta1_sq-dropped",
        [(ahss, "all_torsion_classes", _classes_without_alpha1_beta1_sq)],
        fails=CHART_ROWS,
    ),
    Mutant(
        "M8-axis-budget-floor-n-over-p",
        [(ahss, "_axis_kept", _axis_kept_on_budgets_floor_n_over_p)],
        fails={"axis-orders", "chart-conservation", "torsion-vs-charts"},
    ),
    Mutant(
        "M9-admissible-basis-without-trailing-bocksteins",
        [(module, "admissible_basis",
          _admissible_basis_without_trailing_bocksteins)
         for module in (steenrod, verify)],
        fails={"basis-counts"},
    ),
    Mutant(
        "M10-sigma-classes-one-degree-low",
        [(torsion, "sigma_c_summands", _sigma_classes_one_degree_low)],
        primes=(3,),
        fails={"golden-files"},
    ),
    Mutant(
        "M11-b_-1-column-dropped",
        [(ahss, "_columns", _columns_without_b_minus_1)],
        fails=CHART_ROWS,
    ),
    Mutant(
        "M12-adem-one-letter-term-doubled",
        [(steenrod, "_adem", _adem_with_one_letter_term_doubled)],
        fails={"adem-action"},
    ),
    Mutant(
        # p=5 is the one prime whose `annihilators` row reaches a live word
        # of length 2, P^5 P^1 on y^1
        "M13-live-words-of-length-below-2",
        [(module, "live_words", _live_words_of_length_below_2)
         for module in (steenrod, verify)],
        primes=(5,),
        fails={"annihilators", "golden-files"},
    ),
    Mutant(
        "M1-adem-bockstein-terms-negated",
        [(steenrod, "_adem", _adem_with_b_terms_negated)],
        gap=9,
    ),
    Mutant(
        "M3-sigma-hp-in-degrees-4m+3",
        [(whcohomology, "h_sigma_hp_dims", _sigma_hp_in_degrees_4m_plus_3)],
        gap=5,
    ),
    Mutant(
        "M4-sigma-c-one-more-class-in-degree-20",
        [(whcohomology, "h_sigma_c_dims",
          _sigma_c_with_one_more_class_in_degree_20)],
        gap=5,
    ),
    Mutant(
        "M6-sigma-beta1-of-order-p2",
        [(torsion, "_cokernel_classes", _sigma_beta1_of_order_p2)],
        gap=2,
    ),
    Mutant(
        # the first eps=0 relation with two terms, P^p P^2, lies in degree
        # (p+2)q, beyond every word bound of verify at p >= 7
        "M14-adem-two-letter-terms-negated",
        [(steenrod, "_adem", _adem_with_two_letter_terms_negated)],
        gap=9,
    ),
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("mutant", [
    pytest.param(
        mutant, id=mutant.name,
        marks=[pytest.mark.xfail(
            strict=True, reason=f"no row catches it: ROADMAP item {mutant.gap}"
        )] if mutant.gap else [],
    )
    for mutant in MUTANTS
])
def test_verify_catches_the_mutant(mutant, monkeypatch):
    for module, name, value in mutant.patches:
        monkeypatch.setattr(module, name, value)
    failed = _failed_rows(mutant.primes)
    if mutant.gap:
        assert failed, "no row fails"
    else:
        assert failed == set(mutant.fails)


def test_no_row_fails_without_a_mutant():
    assert _failed_rows(PRIMES) == set()


def _failed_rows(primes) -> set[str]:
    results = verify.run_checks([OddPrime(p) for p in primes], deep=True)
    return {r.name for r in results if r.status == verify.FAIL}
