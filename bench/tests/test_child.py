from child import Launcher, child_env


def test_small_call_reports_its_own_rss_after_a_large_one(tmp_path):
    with Launcher(child_env(tmp_path), tmp_path) as launcher:
        large = launcher.run(["-c", "b = bytearray(200 << 20)"])
        small = launcher.run(["-c", "pass"])
    assert large.returncode == small.returncode == 0
    assert large.rss_kb > 200 * 1024
    assert small.rss_kb < large.rss_kb / 4


def test_child_rss_does_not_inherit_the_benchmark_peak(tmp_path):
    # A forked child starts from its parent's high-water mark; the launcher
    # keeps that parent small whatever the benchmark process holds.
    ballast = bytearray(300 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    with Launcher(child_env(tmp_path), tmp_path) as launcher:
        small = launcher.run(["-c", "pass"])
    assert small.rss_kb < 100 * 1024
    del ballast


def test_child_captures_output_and_exit_code(tmp_path):
    with Launcher(child_env(tmp_path), tmp_path) as launcher:
        run = launcher.run(
            ["-c", "import sys; print('out'); print('err', file=sys.stderr); "
                   "sys.exit(3)"])
    assert (run.returncode, run.stdout, run.stderr) == (3, b"out\n", b"err\n")
    assert run.wall_s > 0


def test_child_env_is_controlled(monkeypatch, tmp_path):
    monkeypatch.setenv("WHCALC_MAX_DEGREE_CAP", "9")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = child_env(tmp_path)
    assert not any(k.startswith("WHCALC_") for k in env)
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(tmp_path)


def test_hung_child_is_killed(tmp_path):
    with Launcher(child_env(tmp_path), tmp_path) as launcher:
        run = launcher.run(["-c", "import time; time.sleep(30)"], timeout=0.5)
        after = launcher.run(["-c", "pass"])
    assert run.returncode < 0
    assert run.wall_s < 10
    assert after.returncode == 0


def test_child_cpu_time_leaves_out_time_off_the_cpu(tmp_path):
    with Launcher(child_env(tmp_path), tmp_path) as launcher:
        run = launcher.run(["-c", "import time; time.sleep(0.5)"])
    assert run.returncode == 0
    assert run.wall_s >= 0.5
    assert 0 < run.cpu_s < 0.4
