"""Cold child processes: a controlled environment, compiled bytecode, and
per-process wall time, CPU time and peak RSS.

CPU time (user plus system) and peak RSS come from the rusage that
`os.wait4` returns for that one child.  `getrusage(RUSAGE_CHILDREN)` would
instead give the high-water mark over every child reaped so far, so a
small call after a large one would read the large one's figure.  The children are spawned by `launcher.py`, whose
own small peak is the only floor under theirs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
CHILD_TIMEOUT_S = 150.0
HASH_SEED = "0"
# Variables that would change what the child imports, where its bytecode
# lives, or how it runs.
_DROPPED_PYTHON_VARS = (
    "PYTHONPATH",
    "PYTHONPYCACHEPREFIX",
    "PYTHONOPTIMIZE",
    "PYTHONDEVMODE",
    "PYTHONWARNINGS",
    "PYTHONTRACEMALLOC",
    "PYTHONPROFILEIMPORTTIME",
    "PYTHONINSPECT",
)


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes


def child_env(src: Path) -> dict[str, str]:
    """The parent's environment without `WHCALC_*` settings, importing the
    package from `src`, with a fixed hash seed."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("WHCALC_") and k not in _DROPPED_PYTHON_VARS
    }
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def compile_bytecode(src: Path, env: dict[str, str]) -> None:
    """Write bytecode for the package so no timed call pays for compiling."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src / "whcalc")],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )


class Launcher:
    """Runs `python argv...` children one at a time through `launcher.py`,
    in `env`, with stdout and stderr going through files in `workdir` so no
    pipe can fill and stall a child.  Use as a context manager: leaving it
    stops the launcher, and on an error also the child it is running."""

    def __init__(self, env: dict[str, str], workdir: Path):
        self._out = workdir / "stdout"
        self._err = workdir / "stderr"
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True, start_new_session=True,
        )

    def run(self, argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
        """Time `python argv...` from just before the spawn to the reap; a
        child still running after `timeout` seconds is killed."""
        request = [[sys.executable, *argv], str(self._out), str(self._err),
                   timeout]
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        wall, cpu, rss_kb, returncode = json.loads(reply)
        return ChildRun(wall, cpu, rss_kb, returncode, self._out.read_bytes(),
                        self._err.read_bytes())

    def close(self, kill: bool = False) -> None:
        if kill:
            os.killpg(self._proc.pid, signal.SIGKILL)
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)
