import threading

import speed
from speed import REFERENCE_S, SpeedProbe, probe


def test_probe_takes_cpu_time():
    assert probe() > 0


def test_samples_while_open_and_stops_on_exit():
    before = threading.active_count()
    with SpeedProbe(period_s=0.01) as window:
        while len(window.samples) < 3:
            pass
    count = len(window.samples)
    assert threading.active_count() == before
    assert len(window.samples) == count


def test_scale_is_reference_over_mean_probe(monkeypatch):
    times = iter([2 * REFERENCE_S, 4 * REFERENCE_S])
    monkeypatch.setattr(speed, "probe", lambda: next(times))
    window = SpeedProbe(period_s=3600)
    window.samples = [speed.probe(), speed.probe()]
    # The host ran at a third of the reference speed.
    assert window.scale() == 1 / 3
