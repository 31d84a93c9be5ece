"""The calls each benchmark workload makes.

A call is one cold `python -m whcalc ...` process.  The fixed workloads
name the ROADMAP's two slow paths; `emit-sweep` is the many-small-queries
use, generated from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
FORMATS = ("json", "csv", "ascii-chart", "svg-chart")
TARGETS = ("j-cp", "s-cp", "s-cpbar")
PAGES = ("e2", "einf")
DEFAULT_CAP = 512  # the CLI's default WHCALC_MAX_DEGREE_CAP
# Cohomology at p = 3 and 5 grows steeply with degree (p=3: 0.1 s at 120,
# 2 s at 300; p=5: 0.05 s at 300, 0.35 s and the sweep's largest RSS at
# 512).  Large degrees there are the cohomology-p3 workload's job, so the
# sweep keeps those queries small.
COHOMOLOGY_SWEEP_TOP = {3: 120, 5: 240}

PI_WH_CALLS = 4  # per prime, one per format
AHSS_CALLS = len(TARGETS) * len(PAGES)  # per prime, one per (target, page)
COHOMOLOGY_CALLS = 4  # per prime, one per format


@dataclass(frozen=True)
class Call:
    """One whcalc invocation: its arguments (without `--out`) and whether
    it writes through `--out` instead of stdout."""

    args: tuple[str, ...]
    to_file: bool = False

    @property
    def key(self) -> str:
        """The query, independent of where the output goes."""
        return " ".join(self.args)

    @property
    def command(self) -> str:
        return self.args[0]

    def flag(self, name: str, default: str | None = None) -> str | None:
        for i, tok in enumerate(self.args[:-1]):
            if tok == name:
                return self.args[i + 1]
        return default


def torsion_top(p: int) -> int:
    """Largest --max-degree `pi-wh` accepts: degrees below (2p+1)(2p-2)-3."""
    return min((2 * p + 1) * (2 * p - 2) - 4, DEFAULT_CAP)


def chart_top(p: int, target: str) -> int:
    """Largest --max-degree `ahss` accepts for the target."""
    window = (2 * p + 1) * (2 * p - 2) - (4 if target == "s-cpbar" else 0)
    return min(window - 1, DEFAULT_CAP)


def cohomology_top(p: int) -> int:
    return COHOMOLOGY_SWEEP_TOP.get(p, DEFAULT_CAP)


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n fractions in [0, 1), the k-th drawn from the k-th of n equal
    strata."""
    return [(k + rng.random()) / n for k in range(n)]


def _degree(fraction: float, top: int) -> int:
    return 1 + int(fraction * top)


def emit_sweep(seed: int) -> list[Call]:
    """The seeded call list.  Per prime: `pi-wh` and `cohomology` once in
    each format and `ahss` once for each (target, page).  Which query gets
    which format and which stratum of its validity window is fixed, rotating
    with the prime, so every seed has the same mix of sizes and formats; the
    seed draws each degree inside its stratum, the call order, and which
    half of the calls write through `--out`."""
    rng = random.Random(seed)
    queries: list[list[str]] = []
    combos = [(t, pg) for t in TARGETS for pg in PAGES]
    for i, p in enumerate(PRIMES):
        fractions = _stratified(rng, PI_WH_CALLS)
        for k, u in enumerate(fractions):
            queries.append(
                ["pi-wh", "--p", str(p), "--max-degree",
                 str(_degree(u, torsion_top(p))),
                 "--format", FORMATS[(i + k) % len(FORMATS)]]
            )
        fractions = _stratified(rng, AHSS_CALLS)
        for j, (target, page) in enumerate(combos):
            u = fractions[(i + j) % AHSS_CALLS]
            queries.append(
                ["ahss", "--p", str(p), "--target", target, "--page", page,
                 "--max-degree", str(_degree(u, chart_top(p, target))),
                 "--format", FORMATS[(i + j) % len(FORMATS)]]
            )
        fractions = _stratified(rng, COHOMOLOGY_CALLS)
        for k, u in enumerate(fractions):
            queries.append(
                ["cohomology", "--p", str(p), "--max-degree",
                 str(_degree(u, cohomology_top(p))),
                 "--format", FORMATS[(i + k + 1) % len(FORMATS)]]
            )
    rng.shuffle(queries)
    dests = [i % 2 == 0 for i in range(len(queries))]
    rng.shuffle(dests)
    return [Call(tuple(q), to_file) for q, to_file in zip(queries, dests)]


WORKLOADS = {
    "cohomology-p3": lambda seed: [
        Call(("cohomology", "--p", "3", "--max-degree", "400"))
    ],
    "verify-p17": lambda seed: [Call(("verify", "--p", "17"))],
    "emit-sweep": emit_sweep,
}
