"""Regenerate `digests.json`: the SHA-256 of the CLI's output for every
query the fixed workloads and the emit-sweep seeds in PIN_SEEDS make.

    python3 bench/pin.py

Each output is pinned only after it passes the unpinned checks (the
library's own emission, `0 failed`, pieces summing to the total).  Re-pin
only when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys

from checks import DIGESTS, Checker
from child import Launcher, child_env, compile_bytecode
from run import RUN_DIR, SRC
from workloads import WORKLOADS, Call

PIN_SEEDS = range(11)


def main() -> int:
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    env = child_env(SRC)
    compile_bytecode(SRC, env)
    queries: dict[str, Call] = {}
    for name, make in WORKLOADS.items():
        for seed in PIN_SEEDS if name == "emit-sweep" else (0,):
            for call in make(seed):
                queries.setdefault(call.key, Call(call.args))
    checker = Checker({})
    digests = {}
    with Launcher(env, RUN_DIR) as launcher:
        for key, call in sorted(queries.items()):
            child = launcher.run(["-m", "whcalc", *call.args])
            failure = checker.failure(
                call, child.returncode, child.stdout, child.stderr, child.stdout
            )
            if failure is not None:
                print(f"not pinned: {key}: {failure}", file=sys.stderr)
                return 1
            digests[key] = hashlib.sha256(child.stdout).hexdigest()
    DIGESTS.write_text(
        json.dumps(digests, indent=0, sort_keys=True) + "\n", "utf-8"
    )
    print(f"pinned {len(digests)} outputs in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
