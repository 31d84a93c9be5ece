"""whcalc benchmark: cold-CLI CPU time and peak RSS, with a traced
per-layer breakdown.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Runs `python -m whcalc ...` as cold child processes in a closed loop: one
client, one child at a time.  Each pass over a workload's calls is a
"run"; runs repeat while the next one should end within `--seconds` (at
least one run).

With `--trace 0` it reports the end-to-end metrics, measured from outside
from each child's CPU time (user plus system, from `os.wait4`) at the
reference speed of `speed.py`:
  cpu_s        CPU time of one run: the sum over its calls of each
               call's median CPU time across the runs
  peak_rss_mb  largest per-process peak RSS in a run (median over runs)
  setup_s      CPU time of a cold `python -m whcalc --version`: the
               median of starts spread over the window
  call_cpu_p50_s, call_cpu_p90_s   per-call cost: median and 90th
               percentile over the workload's calls of each call's median
               CPU time
CPU time rather than wall time, because on a shared virtual machine the
wall time of a call also counts the spells in which the host runs other
guests instead (steal time), which the kernel leaves out of the child's
CPU time.  Scaled to the reference speed, because the CPU work itself
runs 30-70% slower while the host is loaded, in spells of seconds to
minutes (see `speed.py`).  The median wall time of a run and the raw CPU
times are printed too, for reading, but are not part of the result line.
With `--trace 1` it alternates untraced runs with runs whose children go
through `tracer.py`, and reports the per-layer metrics of `layers.py`.

Every call's output is checked (`checks.py`); failed calls are counted,
and the command exits 1 when any call failed.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checker, load_digests
from child import Launcher, child_env, compile_bytecode
from layers import PER_LAYER, layer_metrics, summarize_process
from speed import SpeedProbe
from workloads import WORKLOADS, Call

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
TRACER = BENCH / "tracer.py"
SETUP_STARTS = 15
END_TO_END_UNITS = {
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "call_cpu_p50_s": "s",
    "call_cpu_p90_s": "s",
}
_IMPORT_TIMER = (
    "import time; t = time.process_time(); import whcalc.cli; "
    "print(time.process_time() - t)"
)


@dataclass
class Run:
    """One pass over a workload's calls."""

    call_walls: list[float] = field(default_factory=list)
    call_cpus: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    failures: list[str] = field(default_factory=list)
    raw: Counter = field(default_factory=Counter)  # traced runs only



class Session:
    """Runs checked calls through a launcher."""

    def __init__(self, launcher: Launcher, checker: Checker, workdir: Path):
        self.launcher = launcher
        self.checker = checker
        self.out_path = workdir / "call.out"
        self.span_path = workdir / "spans.json"

    def run(self, calls: list[Call], traced: bool, before_call=None) -> Run:
        run = Run()
        for call in calls:
            if before_call is not None:
                before_call()
            argv = ["-m", "whcalc", *call.args]
            if traced:
                self.span_path.unlink(missing_ok=True)
                argv = [str(TRACER), str(self.span_path), *call.args]
            if call.to_file:
                self.out_path.unlink(missing_ok=True)
                argv += ["--out", str(self.out_path)]
            child = self.launcher.run(argv)
            run.call_walls.append(child.wall_s)
            run.call_cpus.append(child.cpu_s)
            run.peak_rss_kb = max(run.peak_rss_kb, child.rss_kb)
            output = child.stdout
            if call.to_file:
                output = (
                    self.out_path.read_bytes() if self.out_path.exists() else b""
                )
            failure = self.checker.failure(
                call, child.returncode, child.stdout, child.stderr, output
            )
            if failure is None and traced:
                if self.span_path.exists():
                    dump = json.loads(self.span_path.read_text("utf-8"))
                    run.raw.update(summarize_process(dump))
                    run.raw["cli.out_bytes"] += len(output)
                else:
                    failure = "the traced child wrote no spans"
            if failure is not None:
                run.failures.append(f"{call.key}: {failure}")
        return run

    def start(self, argv: list[str]) -> tuple[float, bytes]:
        """One cold start of `python argv...`: (CPU time, stdout)."""
        child = self.launcher.run(argv)
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up start {argv} exited {child.returncode}: "
                f"{child.stderr.decode(errors='replace')[-400:]}"
            )
        return child.cpu_s, child.stdout


class SetupStarts:
    """SETUP_STARTS cold starts of each argv, spread evenly over the
    measuring window, so that their median is not one slow spell of the
    machine."""

    def __init__(self, session: Session, argvs: list[list[str]],
                 seconds: float):
        self.session = session
        self.argvs = argvs
        self.samples: list[list[tuple[float, bytes]]] = [[] for _ in argvs]
        self.interval = seconds / SETUP_STARTS
        self.began = time.perf_counter()

    def catch_up(self, final: bool = False) -> None:
        due = SETUP_STARTS
        if not final:
            elapsed = time.perf_counter() - self.began
            due = min(due, 1 + int(elapsed / self.interval))
        while len(self.samples[0]) < due:
            for argv, samples in zip(self.argvs, self.samples):
                samples.append(self.session.start(argv))


def _median_per_call(runs: list[Run]) -> list[float]:
    """Each call's median CPU time over the runs."""
    return [statistics.median(cpus)
            for cpus in zip(*(r.call_cpus for r in runs))]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def measure(session: Session, name: str, seed: int, seconds: float,
            trace: bool):
    """Measure one workload; returns ({metric: (value, sample count)},
    calls attempted, failures)."""
    calls = WORKLOADS[name](seed)
    metrics: dict[str, tuple[float, int]] = {}
    plain: list[Run] = []
    traced: list[Run] = []
    with SpeedProbe() as speed:
        setup = SetupStarts(
            session,
            [["-c", "pass"], ["-c", _IMPORT_TIMER]] if trace
            else [["-m", "whcalc", "--version"]],
            seconds,
        )
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            plain.append(session.run(calls, False, setup.catch_up))
            if trace:
                traced.append(session.run(calls, True, setup.catch_up))
            # Start another round only if it should end inside the window.
            if 2 * time.perf_counter() - started > deadline:
                break
        setup.catch_up(final=True)
    scale = speed.scale()
    if trace:
        interp = [c for c, _ in setup.samples[0]]
        imports = [float(out) for _, out in setup.samples[1]]
        metrics["setup.interpreter_s"] = (scale * statistics.median(interp),
                                          len(interp))
        metrics["setup.import_s"] = (scale * statistics.median(imports),
                                     len(imports))
    else:
        version = [c for c, _ in setup.samples[0]]
        metrics["setup_s"] = (scale * statistics.median(version),
                              len(version))
    runs = plain + traced
    attempted = sum(len(r.call_walls) for r in runs)
    failures = [f for r in runs for f in r.failures]
    if trace:
        per_run = [layer_metrics(r.raw) for r in traced]
        medians = {
            key: (statistics.median(m[key] for m in per_run), len(per_run))
            for key in per_run[0]
        }
        metrics = {**medians, **metrics}  # set-up is timed outside the trace
        metrics["trace.overhead_ratio"] = (
            sum(_median_per_call(traced)) / sum(_median_per_call(plain)),
            len(traced))
        for module in ("ahss", "steenrod"):
            cover = statistics.median(
                r.raw[f"cover.{module}_s"] / sum(r.call_walls) for r in traced)
            print(f"{name:<14} {module}.* spans cover {cover:.1%} of traced wall")
    else:
        cpus = _median_per_call(plain)
        metrics["cpu_s"] = (scale * sum(cpus), len(plain))
        metrics["peak_rss_mb"] = (
            statistics.median(r.peak_rss_kb for r in plain) / 1024, len(plain))
        metrics["call_cpu_p50_s"] = (scale * statistics.median(cpus),
                                     len(cpus))
        metrics["call_cpu_p90_s"] = (scale * _p90(cpus), len(cpus))
        walls = [sum(r.call_walls) for r in plain]
        probes = speed.samples
        for label, value, unit, n in (
            ("(wall time of a run, median)", statistics.median(walls), "s",
             len(walls)),
            ("(CPU time of a run, unscaled)", sum(cpus), "s", len(plain)),
            ("(speed probe, mean)", statistics.fmean(probes), "s",
             len(probes)),
            ("(scale to the reference speed)", scale, "", len(probes)),
        ):
            print(f"{name:<14} {label:<44} {value:>16.6f} {unit:<5} n={n}")
    return metrics, attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "whcalc" / "__init__.py").is_file():
        print(f"error: no whcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks' reference route
    RUN_DIR.mkdir(exist_ok=True)
    env = child_env(SRC)
    compile_bytecode(SRC, env)
    print("# env " + json.dumps(_environment(args)), flush=True)

    checker = Checker(load_digests())
    units = {layer.name: layer.unit for layer in PER_LAYER}
    units.update(END_TO_END_UNITS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result_metrics = {}
    attempted = 0
    failures: list[str] = []
    with Launcher(env, RUN_DIR) as launcher:
        session = Session(launcher, checker, RUN_DIR)
        for name in names:
            metrics, n_calls, failed = measure(
                session, name, args.seed, args.seconds, bool(args.trace))
            attempted += n_calls
            failures += failed
            for key, (value, n) in metrics.items():
                print(f"{name:<14} {key:<44} {value:>16.6f} {units[key]:<5} "
                      f"n={n}")
            print(f"{name:<14} {'fail_ratio':<44} "
                  f"{len(failed) / n_calls:>16.6f} {'ratio':<5} n={n_calls}",
                  flush=True)
            prefix = "" if len(names) == 1 else f"{name}."
            for key, (value, _) in metrics.items():
                result_metrics[prefix + key] = {"value": value,
                                                "unit": units[key]}
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
