"""Per-layer metrics from the traced run's spans.

A span is [name, parent index (-1 for none), start ns, end ns]; spans of
one process nest, since the package is single-threaded.  For a name:

- calls   is the number of its spans;
- busy_s  is the time at least one of its spans was open (outermost spans
          only, so a function that reaches itself is not counted twice);
- self_s  is the duration of its spans minus the time their child spans
          cover.

`PER_LAYER` lists every per-layer metric with the end-to-end metric and
workload it should move; BENCHMARK.json's `per_layer` list is this table
without that last column.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

VERIFY_CHECKS = (
    "torsion-vs-charts", "chart-adjustment-sets", "axis-orders",
    "chart-conservation", "basis-counts", "annihilators", "adem-action",
    "delta-rank", "cohomology-additivity", "golden-files",
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


_SWEEP_P50 = "call_cpu_p50_s on emit-sweep"
_SWEEP_P90 = "call_cpu_p90_s on emit-sweep, not the other workloads"
_CHARTS = "cpu_s on verify-p17 and call_cpu_p90_s on emit-sweep, not cohomology-p3"
_STEENROD = "cpu_s and peak_rss_mb on cohomology-p3, not verify-p17"
_COHOMOLOGY = "cpu_s on cohomology-p3"
_VERIFY = "cpu_s on verify-p17"
_CANARY = "none expected"


def _calls_busy(prefix: str, functions: tuple[str, ...], moves: str):
    for fn in functions:
        yield Layer(f"{prefix}.{fn}.calls", "count", "lower", moves)
        yield Layer(f"{prefix}.{fn}.busy_s", "s", "lower", moves)


PER_LAYER: tuple[Layer, ...] = (
    Layer("setup.interpreter_s", "s", "lower",
          "setup_s on every workload; call_cpu_p50_s on emit-sweep"),
    Layer("setup.import_s", "s", "lower",
          "setup_s on every workload; call_cpu_p50_s on emit-sweep"),
    Layer("cli.main.calls", "count", "lower", _SWEEP_P50),
    Layer("cli.main.self_s", "s", "lower", _SWEEP_P50),
    Layer("cli.out_bytes", "bytes", "lower", _SWEEP_P50),
    *(Layer(f"emit.{fn}.busy_s", "s", "lower", _SWEEP_P90)
      for fn in ("pi_wh", "ahss", "cohomology", "envelope_text")),
    Layer("emit.envelope_text.bytes", "bytes", "lower", _SWEEP_P90),
    *(Layer(f"render.{fn}.busy_s", "s", "lower", _SWEEP_P90)
      for fn in ("to_csv", "to_ascii", "to_svg")),
    Layer("render.bytes", "bytes", "lower", _SWEEP_P90),
    *_calls_busy("ahss", ("build_e2", "run_differentials", "einf_valuation",
                          "page_aggregate", "page_payload"), _CHARTS),
    Layer("ahss.e2_summands", "count", "lower", _CHARTS),
    Layer("ahss.kills", "count", "lower", _CHARTS),
    Layer("ahss.run_differentials.distinct_pages", "count", "lower", _CHARTS),
    Layer("ahss.page_reuse_ratio", "ratio", "higher", _CHARTS),
    *_calls_busy("steenrod", ("quotient_module_dims", "admissible_basis",
                              "annihilator_basis", "milnor_primitive",
                              "adem_normalize", "ideal_rows", "fp_rank"),
                 _STEENROD),
    Layer("steenrod.quotient_module_dims.self_s", "s", "lower", _STEENROD),
    Layer("steenrod.admissible_basis.words", "count", "lower", _STEENROD),
    Layer("steenrod.fp_rank.rows", "count", "lower", _STEENROD),
    Layer("steenrod.fp_rank.rank", "count", "lower", _STEENROD),
    Layer("steenrod.nf_cache.hits", "count", "higher", _STEENROD),
    Layer("steenrod.nf_cache.misses", "count", "lower", _STEENROD),
    Layer("steenrod.nf_cache.entries", "count", "lower", _STEENROD),
    Layer("steenrod.nf_cache.hit_ratio", "ratio", "higher", _STEENROD),
    *(Layer(f"whcohomology.{fn}.busy_s", "s", "lower", _COHOMOLOGY)
      for fn in ("h_wh_report", "h_sigma_c_dims", "delta_star_report",
                 "delta_star_rank_data")),
    Layer("whcohomology.h_wh_report.self_s", "s", "lower", _COHOMOLOGY),
    Layer("verify.run_checks.busy_s", "s", "lower", _VERIFY),
    *(Layer(f"verify.check.{name}.busy_s", "s", "lower", _VERIFY)
      for name in VERIFY_CHECKS),
    *_calls_busy("torsion", ("wh_torsion_profile",), _CANARY),
    *_calls_busy("arith", ("is_regular",), _CANARY),
    Layer("arith.binom_mod_p.calls", "count", "lower", _CANARY),
    *(Layer(f"module.{m}.self_s", "s", "lower", moves) for m, moves in (
        ("cli", _SWEEP_P50), ("emit", _SWEEP_P90), ("render", _SWEEP_P90),
        ("ahss", _CHARTS), ("steenrod", _STEENROD),
        ("whcohomology", _COHOMOLOGY), ("verify", _VERIFY),
        ("torsion", _CANARY), ("stems", _CANARY), ("arith", _CANARY),
    )),
    Layer("trace.overhead_ratio", "ratio", "lower", _CANARY),
)


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(i)
    out = []
    for (_, _, start, end), kids in zip(spans, children):
        covered = union_length(
            (max(spans[k][2], start), min(spans[k][3], end)) for k in kids
        )
        out.append(end - start - covered)
    return out


def _has_ancestor(spans, i: int, match) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][1]
    return False


def summarize_process(dump: dict) -> Counter:
    """Raw per-layer totals of one traced process: calls, busy and self
    time per span name and per module, time covered by each module's
    spans (`cover.<module>_s`), and the counters it recorded."""
    spans = dump["spans"]
    raw = Counter(dump["counters"])
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        name, _, start, end = span
        module = name.split(".", 1)[0]
        raw[f"{name}.calls"] += 1
        raw[f"{name}.self_s"] += own / 1e9
        raw[f"module.{module}.self_s"] += own / 1e9
        if not _has_ancestor(spans, i, lambda n: n == name):
            raw[f"{name}.busy_s"] += (end - start) / 1e9
        if not _has_ancestor(spans, i, lambda n: n.split(".", 1)[0] == module):
            raw[f"cover.{module}_s"] += (end - start) / 1e9
    return raw


def layer_metrics(raw: Counter) -> dict[str, float]:
    """Every per-layer metric derivable from summed raw totals; the setup
    and overhead metrics come from outside the trace."""
    out = {layer.name: raw.get(layer.name, 0) for layer in PER_LAYER}
    builds = raw.get("ahss.run_differentials.calls", 0)
    out["ahss.page_reuse_ratio"] = (
        raw.get("ahss.run_differentials.distinct_pages", 0) / builds
        if builds else 0.0
    )
    lookups = raw.get("steenrod.nf_cache.hits", 0) + raw.get(
        "steenrod.nf_cache.misses", 0
    )
    out["steenrod.nf_cache.hit_ratio"] = (
        raw.get("steenrod.nf_cache.hits", 0) / lookups if lookups else 0.0
    )
    return out
