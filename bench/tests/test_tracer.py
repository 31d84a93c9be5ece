import json
from pathlib import Path

import pytest

from child import Launcher, child_env, compile_bytecode
from layers import layer_metrics, self_times, summarize_process, union_length

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25), (30, 30)]) == 20


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        ["a", -1, 0, 100],
        ["b", 0, 10, 30],
        ["c", 0, 20, 40],   # overlaps b: covered once
        ["d", 0, 90, 120],  # runs past a: clipped to 90..100
        ["e", 1, 12, 14],   # a grandchild: counted in b, not in a
    ]
    assert self_times(spans) == [100 - 30 - 10, 20 - 2, 20, 30, 2]


def test_busy_counts_nested_same_name_spans_once():
    spans = [
        ["steenrod.f", -1, 0, 50],
        ["steenrod.f", 0, 10, 20],
        ["ahss.g", 0, 30, 40],
    ]
    raw = summarize_process({"spans": spans, "counters": {"k": 3}})
    assert raw["steenrod.f.calls"] == 2
    assert raw["steenrod.f.busy_s"] == pytest.approx(50e-9)
    assert raw["steenrod.f.self_s"] == pytest.approx(50e-9 - 10e-9)
    assert raw["module.steenrod.self_s"] == pytest.approx(40e-9)
    assert raw["module.ahss.self_s"] == pytest.approx(10e-9)
    assert raw["cover.steenrod_s"] == pytest.approx(50e-9)
    assert raw["k"] == 3


def test_ratios_are_taken_over_their_bases():
    raw = {"ahss.run_differentials.calls": 7,
           "ahss.run_differentials.distinct_pages": 4,
           "steenrod.nf_cache.hits": 1, "steenrod.nf_cache.misses": 3}
    metrics = layer_metrics(raw)
    assert metrics["ahss.page_reuse_ratio"] == pytest.approx(4 / 7)
    assert metrics["steenrod.nf_cache.hit_ratio"] == pytest.approx(0.25)
    assert layer_metrics({})["ahss.page_reuse_ratio"] == 0


CASES = [
    ["pi-wh", "--p", "5", "--max-degree", "40", "--format", "ascii-chart"],
    ["ahss", "--p", "3", "--max-degree", "20", "--target", "s-cp",
     "--format", "svg-chart"],
    ["cohomology", "--p", "5", "--max-degree", "40"],
    ["verify", "--p", "3"],
    ["pi-wh", "--p", "3", "--max-degree", "30"],  # outside the window: exit 3
]


@pytest.fixture(scope="module")
def env():
    env = child_env(SRC)
    compile_bytecode(SRC, env)
    return env


def run_child(argv, env, workdir):
    with Launcher(env, workdir) as launcher:
        return launcher.run(argv)


@pytest.mark.parametrize("args", CASES, ids=lambda a: a[0])
def test_traced_outputs_are_byte_identical(args, env, tmp_path):
    spans = tmp_path / "spans.json"
    plain = run_child(["-m", "whcalc", *args], env, tmp_path)
    traced = run_child([str(BENCH / "tracer.py"), str(spans), *args],
                       env, tmp_path)
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    assert traced.stderr == plain.stderr
    assert json.loads(spans.read_text())["spans"][0][0] == "cli.main"


def test_traced_out_file_is_byte_identical(env, tmp_path):
    args = ["ahss", "--p", "5", "--max-degree", "40", "--format", "csv"]
    outs = []
    for argv in (["-m", "whcalc"],
                 [str(BENCH / "tracer.py"), str(tmp_path / "s.json")]):
        out = tmp_path / f"out{len(outs)}"
        assert run_child([*argv, *args, "--out", str(out)], env,
                         tmp_path).returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _spans(env, tmp_path, args):
    path = tmp_path / "spans.json"
    run = run_child([str(BENCH / "tracer.py"), str(path), *args], env, tmp_path)
    assert run.returncode == 0
    dump = json.loads(path.read_text())
    return dump["spans"], dump["counters"]


def _parent_names(spans, name):
    return {spans[s[1]][0] for s in spans if s[0] == name and s[1] >= 0}


def test_rebound_names_are_traced(env, tmp_path):
    # whcohomology imported quotient_module_dims by name, emit build_e2.
    spans, counters = _spans(
        env, tmp_path, ["cohomology", "--p", "5", "--max-degree", "30"])
    assert "whcohomology.h_sigma_c_dims" in _parent_names(
        spans, "steenrod.quotient_module_dims")
    assert counters["steenrod.nf_cache.misses"] > 0
    spans, counters = _spans(
        env, tmp_path, ["ahss", "--p", "3", "--max-degree", "20"])
    assert _parent_names(spans, "ahss.build_e2") == {"emit.ahss"}
    assert counters["ahss.run_differentials.distinct_pages"] == 1


def test_verify_checks_get_a_span_each(env, tmp_path):
    spans, _ = _spans(env, tmp_path, ["verify", "--p", "3"])
    checks = [s for s in spans if s[0].startswith("verify.check.")]
    assert len(checks) == 10
    assert _parent_names(spans, checks[0][0]) == {"verify.run_checks"}
