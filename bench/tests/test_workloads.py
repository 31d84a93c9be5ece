from whcalc.ahss import ChartTarget, chart_window
from whcalc.arith import OddPrime
from whcalc.torsion import torsion_window

from workloads import DEFAULT_CAP, FORMATS, WORKLOADS, emit_sweep


def test_same_seed_same_calls():
    assert emit_sweep(7) == emit_sweep(7)
    assert emit_sweep(7) != emit_sweep(8)


def test_fixed_workloads_ignore_the_seed():
    for name in ("cohomology-p3", "verify-p17"):
        assert WORKLOADS[name](1) == WORKLOADS[name](2)


def _max_degree(call) -> int:
    return int(call.flag("--max-degree"))


def test_calls_stay_inside_windows_and_cap():
    for seed in range(20):
        calls = emit_sweep(seed)
        assert len(calls) >= 100
        for call in calls:
            p = OddPrime(int(call.flag("--p")))
            d = _max_degree(call)
            assert 0 <= d <= DEFAULT_CAP, call
            if call.command == "pi-wh":
                assert d < torsion_window(p), call
            elif call.command == "ahss":
                target = ChartTarget(call.flag("--target"))
                assert d < chart_window(p, target), call
            else:
                assert call.command == "cohomology", call


def test_sweep_mixes_commands_formats_and_destinations():
    calls = emit_sweep(3)
    assert {c.command for c in calls} == {"pi-wh", "ahss", "cohomology"}
    formats = [c.flag("--format") for c in calls]
    assert {formats.count(f) for f in FORMATS} == {len(calls) // 4}
    assert sum(c.to_file for c in calls) == len(calls) // 2
    pages = {(c.flag("--target"), c.flag("--page"))
             for c in calls if c.command == "ahss"}
    assert len(pages) == 6
