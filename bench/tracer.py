"""Run one whcalc command with spans recorded around calls into its layers.

    python bench/tracer.py SPAN_FILE WHCALC_ARGS...

behaves like `python -m whcalc WHCALC_ARGS...` (the same stdout, files and
exit code) and, when the command returns, writes its spans and counters to
SPAN_FILE as JSON.  Spans are kept in memory until then.

The package is not edited: each traced function is replaced, in every
whcalc module that holds a reference to it, by a wrapper that records a
span [name, parent span index, start ns, end ns].  A function missing from
the package is skipped, so its metrics read zero.  The recursive Adem
normal form `steenrod._nf` is not wrapped; its cache counters are read
through `cache_info()` when the command ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _text_bytes(name):
    return lambda rec, args, result: {name: len(result.encode("utf-8"))}


def _e2_summands(rec, args, page):
    return {"ahss.e2_summands": sum(len(c) for c in page.cells.values())}


def _einf_sizes(rec, args, page):
    rec.pages.add((page.p.p, page.target.value, page.max_total_degree))
    return {"ahss.kills": sum((page.kill_ledger or {}).values())}


def _basis_words(rec, args, basis):
    return {"steenrod.admissible_basis.words": len(basis)}


def _rank_sizes(rec, args, rank):
    return {"steenrod.fp_rank.rows": len(args[1]), "steenrod.fp_rank.rank": rank}


# (module, function, span name, sizes): sizes maps (recorder, args, result)
# to counter increments.
SPANS = (
    ("emit", "pi_wh", "emit.pi_wh", None),
    ("emit", "ahss", "emit.ahss", None),
    ("emit", "cohomology", "emit.cohomology", None),
    ("emit", "envelope_text", "emit.envelope_text",
     _text_bytes("emit.envelope_text.bytes")),
    ("render", "to_csv", "render.to_csv", _text_bytes("render.bytes")),
    ("render", "to_ascii", "render.to_ascii", _text_bytes("render.bytes")),
    ("render", "to_svg", "render.to_svg", _text_bytes("render.bytes")),
    ("ahss", "build_e2", "ahss.build_e2", _e2_summands),
    ("ahss", "run_differentials", "ahss.run_differentials", _einf_sizes),
    ("ahss", "einf_valuation", "ahss.einf_valuation", None),
    ("ahss", "page_aggregate", "ahss.page_aggregate", None),
    ("ahss", "page_payload", "ahss.page_payload", None),
    ("steenrod", "quotient_module_dims", "steenrod.quotient_module_dims", None),
    ("steenrod", "admissible_basis", "steenrod.admissible_basis", _basis_words),
    ("steenrod", "annihilator_basis", "steenrod.annihilator_basis", None),
    ("steenrod", "milnor_primitive", "steenrod.milnor_primitive", None),
    ("steenrod", "adem_normalize", "steenrod.adem_normalize", None),
    ("steenrod", "_ideal_rows", "steenrod.ideal_rows", None),
    ("steenrod", "_fp_rank", "steenrod.fp_rank", _rank_sizes),
    ("whcohomology", "h_wh_report", "whcohomology.h_wh_report", None),
    ("whcohomology", "h_sigma_c_dims", "whcohomology.h_sigma_c_dims", None),
    ("whcohomology", "delta_star_report", "whcohomology.delta_star_report", None),
    ("whcohomology", "delta_star_rank_data",
     "whcohomology.delta_star_rank_data", None),
    ("verify", "run_checks", "verify.run_checks", None),
    ("torsion", "wh_torsion_profile", "torsion.wh_torsion_profile", None),
    ("stems", "all_torsion_classes", "stems.all_torsion_classes", None),
    ("arith", "is_regular", "arith.is_regular", None),
)
# Called too often for a span each; only the calls are counted.
COUNTED = (("arith", "binom_mod_p", "arith.binom_mod_p.calls"),)


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.pages: set[tuple] = set()  # distinct (p, target, top) EINF pages
        self._open: list[int] = []

    def wrap(self, name, fn, sizes=None):
        spans, open_, counters = self.spans, self._open, self.counters
        rec = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, clock(), 0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if sizes is not None:
                counters.update(sizes(rec, args, result))
            return result

        return traced

    def count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def _rebind(original, replacement) -> None:
    """Point every whcalc module's reference to `original` at `replacement`,
    so re-bound names such as `emit.build_e2` are traced too."""
    for modname, module in list(sys.modules.items()):
        if modname != "whcalc" and not modname.startswith("whcalc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder):
    """Wrap the traced functions; returns the traced `cli.main` and a
    callable that adds the end-of-run counters."""
    import whcalc.cli  # noqa: F401  (imports every module of the package)

    def module(name):
        return sys.modules.get(f"whcalc.{name}")

    for modname, attr, span, sizes in SPANS:
        fn = getattr(module(modname), attr, None)
        if fn is not None:
            _rebind(fn, recorder.wrap(span, fn, sizes))
    for modname, attr, counter in COUNTED:
        fn = getattr(module(modname), attr, None)
        if fn is not None:
            _rebind(fn, recorder.count(counter, fn))

    verify = module("verify")
    if hasattr(verify, "_CHECKS"):
        # run_checks iterates this table, not the module's names.
        verify._CHECKS = tuple(
            (name, recorder.wrap(f"verify.check.{name}", fn))
            for name, fn in verify._CHECKS
        )

    def finish() -> None:
        recorder.counters["ahss.run_differentials.distinct_pages"] = len(
            recorder.pages
        )
        nf = getattr(module("steenrod"), "_nf", None)
        if hasattr(nf, "cache_info"):
            info = nf.cache_info()
            recorder.counters["steenrod.nf_cache.hits"] = info.hits
            recorder.counters["steenrod.nf_cache.misses"] = info.misses
            recorder.counters["steenrod.nf_cache.entries"] = info.currsize

    return recorder.wrap("cli.main", whcalc.cli.main), finish


def main(argv: list[str]) -> int:
    span_file, args = argv[0], argv[1:]
    recorder = Recorder()
    traced_main, finish = install(recorder)
    try:
        return traced_main(args)
    finally:
        finish()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
