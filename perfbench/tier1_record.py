"""Record the tier-1 test suite's wall time and its five slowest tests.

This is an ungated side record kept once per benchmark version; it is not a
workload and not an end-to-end metric.  Run from the repository root:

    python3 perfbench/tier1_record.py

It runs the tier-1 command (``pytest -q --continue-on-collection-errors``
with ``src`` on the import path) single-threaded, and writes
``perfbench/tier1_record.json`` with the wall time, the pass/fail summary
line, the five slowest test phases as pytest reports them, and the
environment the run saw.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from envinfo import environment, pinned_env  # noqa: E402
from run import BENCH_VERSION  # noqa: E402

_DURATION = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)\s*$")


def main() -> int:
    env = pinned_env()
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=5", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = []
    for line in lines:
        hit = _DURATION.match(line)
        if hit:
            slowest.append({"seconds": float(hit.group(1)), "phase": hit.group(2), "test": hit.group(3)})
    summary = next((ln.strip("= ") for ln in reversed(lines) if " in " in ln and ("passed" in ln or "failed" in ln)), "")
    record = {
        "bench_version": BENCH_VERSION,
        "command": " ".join(["PYTHONPATH=src", "python3"] + cmd[1:]),
        "exit_code": proc.returncode,
        "wall_s": round(wall, 3),
        "summary": summary,
        "slowest": slowest[:5],
        "environment": environment(env),
    }
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tier1_record.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
