"""Spawn, time and reap the benchmark's child processes from a lean process.

    python -I -S bench/launcher.py

Linux carries a parent's peak-RSS high-water mark into a child across fork
and exec, so a child's `ru_maxrss` is never below its parent's peak.  The
benchmark process holds digests and reference outputs; this process holds
nothing, so its own peak (about 10 MB) stays below that of any child.

Protocol: one JSON request per line on stdin, [argv, stdout path, stderr
path, timeout s]; one JSON reply per line on stdout, [wall s, CPU s (user
plus system), peak RSS kB, exit code], the last three from `os.wait4`.  A child still running after its timeout is
killed.  The process exits at the end of stdin.
"""

import json
import os
import signal
import sys
import time

_running = [0]


def _kill_running(signum, frame):
    if _running[0]:
        os.kill(_running[0], signal.SIGKILL)


def main() -> int:
    signal.signal(signal.SIGALRM, _kill_running)
    for line in sys.stdin:
        argv, out, err, timeout = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        _running[0] = os.posix_spawn(argv[0], argv, os.environ,
                                     file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        _, status, usage = os.wait4(_running[0], 0)
        wall = time.perf_counter() - start
        _running[0] = 0
        signal.setitimer(signal.ITIMER_REAL, 0)
        reply = [wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                 os.waitstatus_to_exitcode(status)]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
