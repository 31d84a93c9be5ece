"""Self-check suite: independent oracles, set identities, golden files.

Every numeric claim the package makes is recomputed here along at least
one second route — closed forms against the chart engine, admissible
counts against the dual generating function, quotient series against
F_p elimination, literal Steenrod composites against normalized
expansions, rank-nullity bookkeeping for the
connecting map, and byte-exact regeneration of the pinned emissions.
The suite reports a pass/fail matrix per prime; primes whose charts exceed
MAX_CHART_WINDOW, then irregular primes, are rejected before any check
runs.
"""

import os
from collections import Counter, namedtuple
from functools import lru_cache
from operator import add

from . import emit
from .ahss import (
    J_OF_CP, S_OF_CPBAR, ChartPage, build_e2, chart_window, j_order_valuation,
    run_differentials,
)
from .arith import OddPrime, ensure_regular
from .errors import WhcalcError, WindowError
from .steenrod import (
    BETA,
    _fp_rank,
    _ideal_rows,
    act_word_on_projective,
    adem_normalize,
    admissible_basis,
    annihilator_basis,
    live_words,
    milnor_dual_dims,
    milnor_primitive,
    quotient_module_dims,
    word_degree,
)
from .stems import _cokernel_classes, alpha_bar
from .torsion import _cpbar_valuations
from .whcohomology import (
    COKER_MAIN_PIECE,
    HP_PIECE,
    SIGMA_C_PIECE,
    _add,
    _odd_summand_indices,
    delta_star_rank_data,
    delta_star_report,
    h_wh_report,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

# The chart rows cost about the square of the prime, in time and memory:
# the EINF summands they keep, beside per-degree sums and kill ledgers
# held as flat lists.  On a 2 vCPU Xeon (Python 3.11.7; cold children,
# CPU and peak RSS from os.wait4, medians of 15 runs, of 7 with the bound
# lifted), `verify --p 61` takes 0.094 s of CPU and 17 MB, start-up (0.05
# s and 13 MB) included; with the bound lifted, p=71 takes 0.115 s and
# 18 MB, p=97 0.158 s and 22 MB, and p=113 0.210 s and 27 MB.  The bound,
# the j-cp chart window at p=61 (14760), was set when the rows kept a
# record per cell (36 MB at p=61, 41 MB at 71); it stays, as the primes
# it admits are part of the exit-code contract.
MAX_CHART_WINDOW = chart_window(OddPrime(61), J_OF_CP)


CheckResult = namedtuple("CheckResult", "p name status detail", defaults=("",))


class _Failure(Exception):
    pass


# The four chart checks read three pages per prime, the whole-window chart
# of each target, and take their degrees from the pages: this is the only
# place a chart's top is set.  An E2 page holds its sums but no summands;
# the EINF pages hold the summands kept.  The image-of-J EINF page, whose
# window is the largest, gives the other two their axis rule.
@lru_cache(maxsize=3)
def _chart(p: OddPrime, target: str) -> tuple[ChartPage, ChartPage]:
    """The E2 and EINF pages of one whole-window chart, shared by every
    caller, so read and never changed."""
    e2 = build_e2(p, target, chart_window(p, target) - 1)
    if target == J_OF_CP:
        return e2, run_differentials(e2)
    return e2, run_differentials(e2, _chart(p, J_OF_CP)[1])


# ---------------------------------------------------------------------------
# Individual checks.  Each takes (p, deep) and returns a detail string on
# success, None to signal a skip, or raises _Failure with a diagnostic.


def _check_torsion_vs_charts(p: OddPrime, deep: bool) -> str:
    """Closed-form stunted-projective profile, the per-degree list that
    `wh_torsion_profile` reads its entries from, == the s-cpbar chart
    engine.  The sigma classes are left out on purpose: both sides would
    read them from the same stem table, so they still await their second
    route, Ext over the Steenrod algebra (ROADMAP.md, stem-table item)."""
    _, chart = _chart(p, S_OF_CPBAR)
    top = chart.max_total_degree + 1  # degree d reads total degree d-1
    table = _cpbar_valuations(p, top)
    engine = [0, *chart.torsion_by_degree]
    if table != engine:
        for d, (want, got) in enumerate(zip(table, engine)):
            if want != got:
                raise _Failure(f"degree {d}: closed form {want}, engine {got}")
        raise _Failure(
            f"closed form holds degrees 0..{len(table) - 1}, engine "
            f"0..{len(engine) - 1}"
        )
    return f"closed form matches the chart engine in degrees 1..{top}"


def _einf_torsion_cells(page, top: int) -> dict[tuple, int]:
    """Summands theta*b(k) in total degrees <= top, keyed by (theta, k)."""
    return {
        (theta, k): valuation
        for theta, column in page.summands.items()
        for k, valuation in column.items()
        if 2 * k + theta.degree <= top
    }


def _named(keys) -> list[tuple[str, int]]:
    """The first three summands (theta, k) of `keys` as (name, k)."""
    return sorted((theta.name, k) for theta, k in keys)[:3]


def _check_adjustment_sets(p: OddPrime, deep: bool) -> str:
    """Stunted-spectrum EINF cells == image-of-J EINF cells, plus the three
    cokernel-of-J families on low columns, minus alpha_bar(1)*b(mp) for
    m >= p-2."""
    # The differentials in a total degree do not depend on the top, so the
    # image-of-J chart restricted to the stunted chart's top is the chart
    # to that top.
    _, jpage = _chart(p, J_OF_CP)
    _, spage = _chart(p, S_OF_CPBAR)
    top = spage.max_total_degree
    beta1, alpha1_beta1, beta1_sq, _ = _cokernel_classes(p)
    expected = _einf_torsion_cells(jpage, top)
    for theta in (beta1, alpha1_beta1, beta1_sq):
        step = p.p if theta is alpha1_beta1 else 1
        last = min(p.p - 3, (top - theta.degree) // (2 * step))
        expected.update(((theta, m * step), 1) for m in range(1, last + 1))
    alpha1 = alpha_bar(p, 1)
    m = p.p - 2
    while 2 * m * p.p + alpha1.degree <= top:
        if expected.pop((alpha1, m * p.p), None) is None:
            key = (alpha1.name, m * p.p)
            raise _Failure(f"removable cell {key} absent from the base chart")
        m += 1
    got = _einf_torsion_cells(spage, top)
    if got != expected:
        both = got.keys() & expected.keys()
        changed = [key for key in both if got[key] != expected[key]]
        raise _Failure(
            f"cell sets differ: extra={_named(got.keys() - expected.keys())} "
            f"missing={_named(expected.keys() - got.keys())} "
            f"revalued={_named(changed)}"
        )
    return f"{len(got)} adjusted cells match through total degree {top}"


def _check_axis_orders(p: OddPrime, deep: bool) -> str:
    """Surviving image-of-J order per odd stem == the closed-form count of
    axis differentials entering minus leaving, `j_order_valuation(p, n)`,
    which reads only v_p(n!) and floor sums, not the chart engine."""
    _, page = _chart(p, J_OF_CP)
    top = page.max_total_degree
    sums = page.torsion_by_degree
    for n in range(1, (top + 1) // 2 + 1):
        got, want = sums[2 * n - 1], j_order_valuation(p, n)
        if got != want:
            raise _Failure(f"stem {2 * n - 1}: chart {got}, closed form {want}")
    return f"{(top + 1) // 2} odd stems agree with the closed form"


def _check_conservation(p: OddPrime, deep: bool) -> str:
    """E2 aggregate - kill ledger == EINF aggregate, on all three charts,
    in every total degree of the chart; each of the three lists must hold
    exactly those degrees."""
    for target in emit.TARGETS:
        e2, einf = _chart(p, target)
        lists = {
            "E2 sums": e2.torsion_by_degree,
            "kill ledger": einf.kill_ledger,
            "EINF sums": einf.torsion_by_degree,
        }
        top = e2.max_total_degree
        for name, values in lists.items():
            if len(values) != top + 1:
                raise _Failure(
                    f"{target} {name}: {len(values)} entries for "
                    f"total degrees 0..{top}"
                )
        e2_sums, ledger, einf_sums = lists.values()
        # EINF + kills, compared with E2 as one list; only an unbalanced
        # chart walks its degrees, to name the first that differs
        if list(map(add, ledger, einf_sums)) == e2_sums:
            continue
        for d, (before, killed, after) in enumerate(
            zip(e2_sums, ledger, einf_sums)
        ):
            if before - killed != after:
                raise _Failure(
                    f"{target} total degree {d}: E2 {before} - "
                    f"kills {killed} != EINF {after}"
                )
    return "kill ledgers balance on all three charts"


def _check_basis_counts(p: OddPrime, deep: bool) -> str:
    """Admissible-monomial counts per degree == dual generating function;
    by F_p elimination, the ranks of the left ideals A(b), A(b,Q1) and
    A(b,P1) == the algebra minus their quotient series, and A(b,Q1) kills
    every y^a the cohomology report uses, row by row."""
    bound = {3: 120, 5: 200}.get(p.p, 100) if deep else 48
    counts = Counter(word_degree(p, w) for w in admissible_basis(p, bound))
    dual = milnor_dual_dims(p, bound)
    if dict(counts) != dual:
        bad = sorted(
            d
            for d in set(counts) | set(dual)
            if counts.get(d, 0) != dual.get(d, 0)
        )
        raise _Failure(f"counts differ in degrees {bad[:5]}")
    beta = adem_normalize(p, BETA)
    q1_rows = _ideal_rows(p, [beta, milnor_primitive(p, 1)], bound)
    for ideal, rows, quotient in (
        ("A(b)", _ideal_rows(p, [beta], bound),
         milnor_dual_dims(p, bound, first_exterior=1)),
        ("A(b,Q1)", q1_rows, quotient_module_dims(p, "A//E1", bound)),
        ("A(b,P1)", _ideal_rows(p, [beta, adem_normalize(p, (1,))], bound),
         quotient_module_dims(p, "A//A1", bound)),
    ):
        for d in range(bound + 1):
            rank = _fp_rank(p, rows.get(d, []))
            want = dual.get(d, 0) - quotient.get(d, 0)
            if rank != want:
                raise _Failure(
                    f"{ideal} has rank {rank} in degree {d}; the algebra "
                    f"minus its quotient series gives {want}"
                )
    for a in (-1, *_odd_summand_indices(p)):
        for d, degree_rows in q1_rows.items():
            if any(_action_dict(p, row, a) for row in degree_rows):
                raise _Failure(f"A(b,Q1) acts nonzero on y^{a} in degree {d}")
    return f"per-degree counts match the dual dimensions to degree {bound}"


def _check_annihilators(p: OddPrime, deep: bool) -> str:
    """The live words for each y^a the report uses are exactly the
    complement of the annihilator; for y^-1 they are 1 and the single
    powers, and at p=5 the y^1 ones are the descending power chains."""
    bound = {3: 120, 5: 200}.get(p.p, 80) if deep else 40
    words = set(admissible_basis(p, bound))
    live: dict[int, set] = {}
    for a in (-1, *_odd_summand_indices(p)):
        ann = set(annihilator_basis(p, a, bound))
        live[a] = set(live_words(p, a, bound))
        if live[a] != words - ann:
            bad = sorted(live[a] ^ (words - ann))[:3]
            raise _Failure(f"y^{a} live words and annihilator differ on {bad}")
    expected = {()} | {(i,) for i in range(1, bound // p.q + 1)}
    if live[-1] != expected:
        raise _Failure(
            f"y^-1 complement mismatch: "
            f"{sorted(live[-1] - expected)[:3]} unexpected, "
            f"{sorted(expected - live[-1])[:3]} missing"
        )
    details = [f"y^-1 complement is 1 and the single powers to degree {bound}"]
    if deep and p.p == 5:
        chains = {()}
        chain = (1,)
        while word_degree(p, chain) <= bound:
            chains.add(chain)
            chain = (p.p * chain[0],) + chain
        if live[1] != chains:
            raise _Failure(
                f"y^1 complement mismatch: "
                f"{sorted(live[1] - chains)[:3]} unexpected, "
                f"{sorted(chains - live[1])[:3]} missing"
            )
        details.append("y^1 complement is the descending power chains")
    return "; ".join(details)


def _raw_pairs(p: OddPrime, max_degree: int):
    singles = [0] + list(range(1, max_degree // p.q + 1))
    for x in singles:
        for y in singles:
            word = (x, y)
            if word_degree(p, word) <= max_degree:
                yield word


def _action_dict(p: OddPrime, combo: dict, a: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for w, c in combo.items():
        hit = act_word_on_projective(p, w, a)
        if hit is None:
            continue
        coeff, k = hit
        out[k] = (out.get(k, 0) + c * coeff) % p.p
    return {k: v for k, v in out.items() if v}


def _check_adem_action(p: OddPrime, deep: bool) -> str:
    """Literal composite action of raw length-2 words == the action of
    their normalized admissible expansion, on every class in range."""
    max_degree = 60 if deep else 24
    a_top = 40 if deep else 12
    checked = 0
    for word in _raw_pairs(p, max_degree):
        combo = adem_normalize(p, word)
        for a in range(-1, a_top + 1):
            hit = act_word_on_projective(p, word, a)
            literal = {} if hit is None else {hit[1]: hit[0]}
            normalized = _action_dict(p, combo, a)
            if literal != normalized:
                raise _Failure(
                    f"word {word} on y^{a}: literal {literal}, "
                    f"normalized {normalized}"
                )
            checked += 1
    return f"{checked} (word, class) actions agree"


def _check_delta_rank(p: OddPrime, deep: bool) -> str:
    """Rank-nullity for the connecting map: in every degree
    cok - ker == target - source, with cok == target - source alone in
    the injectivity range d <= 2p-3."""
    bound = max(30, 2 * p.p * p.p + 10) if deep else 30
    report = delta_star_report(p, bound)
    rank = delta_star_rank_data(p, bound)
    cok = _add(*report["coker"].values())
    ker_block = _add(*report["ker"].values())  # desuspended kernel: ker(d)=block(d-1)
    src, tgt = rank["source"], rank["target"]
    for d in range(0, bound + 1):
        lhs = cok.get(d, 0) - ker_block.get(d - 1, 0)
        rhs = tgt.get(d, 0) - src.get(d, 0)
        if lhs != rhs:
            raise _Failure(
                f"degree {d}: cok - ker = {lhs}, target - source = {rhs}"
            )
        if d <= 2 * p.p - 3 and cok.get(d, 0) != rhs:
            raise _Failure(
                f"degree {d} lies in the injectivity range but "
                f"cok {cok.get(d, 0)} != target - source {rhs}"
            )
    return f"rank-nullity identity holds in degrees 0..{bound}"


def _check_cohomology_additivity(p: OddPrime, deep: bool) -> str:
    """Report total == sum of the pieces; p=3 carries no kernel block.
    The total half is the same `_add` the report uses, so only the p=3
    name set is independent, until ROADMAP item 5 gives the pieces a route
    of their own."""
    bound = 60 if deep else 30
    report = h_wh_report(p, bound)
    pieces = report["pieces"]
    if _add(*pieces.values()) != report["total"]:
        raise _Failure("total differs from the sum of the pieces")
    if p.p == 3:
        want = {SIGMA_C_PIECE, HP_PIECE, COKER_MAIN_PIECE}
        if set(pieces) != want:
            raise _Failure(f"p=3 pieces {sorted(pieces)} != {sorted(want)}")
    return f"pieces sum to the total through degree {bound}"


_GOLDEN_BUILDERS: dict[int, tuple] = {
    3: (
        ("pi_wh_p3_d24.json", lambda p: emit.pi_wh(p, 24)),
        ("cohomology_p3_d40.json", lambda p: emit.cohomology(p, 40)),
    ),
    5: (
        ("pi_wh_p5_d84.json", lambda p: emit.pi_wh(p, 84)),
        ("cohomology_p5_d60.json", lambda p: emit.cohomology(p, 60)),
    ),
}


def _check_golden(p: OddPrime, deep: bool) -> str | None:
    builders = _GOLDEN_BUILDERS.get(p.p)
    if builders is None:
        return None
    golden = os.path.join(os.path.dirname(__file__), "golden")
    for fname, build in builders:
        command, payload = build(p)
        text = emit.envelope_text(command, payload)
        try:
            with open(os.path.join(golden, fname), encoding="utf-8") as fh:
                ref = fh.read()
        except FileNotFoundError:
            raise _Failure(f"pinned emission {fname} is missing") from None
        if text != ref:
            raise _Failure(f"{fname} differs from the regenerated emission")
    return f"{len(builders)} pinned emissions regenerate byte-identically"


_CHECKS = (
    ("torsion-vs-charts", _check_torsion_vs_charts),
    ("chart-adjustment-sets", _check_adjustment_sets),
    ("axis-orders", _check_axis_orders),
    ("chart-conservation", _check_conservation),
    ("basis-counts", _check_basis_counts),
    ("annihilators", _check_annihilators),
    ("adem-action", _check_adem_action),
    ("delta-rank", _check_delta_rank),
    ("cohomology-additivity", _check_cohomology_additivity),
    ("golden-files", _check_golden),
)


def run_checks(primes: list[OddPrime], deep: bool = False) -> list[CheckResult]:
    """Run the whole suite for each prime.  A prime whose chart window
    exceeds MAX_CHART_WINDOW raises WindowError, and then an irregular
    prime PreconditionError, before any check runs; a check failing for
    any other reason is reported as a fail row, never swallowed."""
    for p in primes:
        window = chart_window(p, J_OF_CP)
        if window > MAX_CHART_WINDOW:
            raise WindowError(
                f"the chart window (2p+1)(2p-2) = {window} at p={p.p} "
                f"exceeds verify's bound {MAX_CHART_WINDOW}"
            )
    for p in primes:
        ensure_regular(p, hint="verify checks regular primes only")
    results = []
    for p in primes:
        for name, fn in _CHECKS:
            try:
                detail = fn(p, deep)
            except _Failure as exc:
                results.append(CheckResult(p.p, name, FAIL, str(exc)))
            except WhcalcError as exc:
                results.append(
                    CheckResult(p.p, name, FAIL, f"{type(exc).__name__}: {exc}")
                )
            else:
                status = SKIP if detail is None else PASS
                if detail is None:
                    detail = "no pinned emissions for this prime"
                results.append(CheckResult(p.p, name, status, detail))
    return results


def format_matrix(results: list[CheckResult]) -> str:
    """Human-readable pass/fail matrix plus a summary line."""
    width = max((len(r.name) for r in results), default=0)
    lines = [
        f"p={r.p}  {r.name:<{width}}  {r.status:<4}  {r.detail}"
        for r in results
    ]
    tally = Counter(r.status for r in results)
    lines.append(
        f"{tally.get(PASS, 0)} passed, {tally.get(FAIL, 0)} failed, "
        f"{tally.get(SKIP, 0)} skipped"
    )
    return "\n".join(lines)
