"""Quick check of the benchmark itself at a tiny size.

    python3 bench/selftest.py

For every workload it runs one untraced and one traced iteration at a tiny
size and checks that every metric of BENCHMARK.json is emitted with its unit
and that no operation fails. It then runs each workload with corrupted
outputs (flipped decided bits for the BER sweeps, perturbed bounds) and
checks that the failures are counted. Last, it checks that the benchmark
refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and bench/. Exits 0 when all of this holds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    e2e_units, layer_units = run.metric_units()
    problems = []
    for name in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            line = run.run_workload(name, 0, 0.0, trace, tiny=True)["line"]
            got = {k: m["unit"] for k, m in line["metrics"].items()} if line else {}
            if got != units:
                problems.append(f"{name} trace={trace}: metrics/units differ from BENCHMARK.json")
            if not line or not line["correct"] or line["failed"]:
                problems.append(f"{name} trace={trace}: operations failed on the program as is")
        line = run.run_workload(name, 0, 0.0, 0, tiny=True, corrupt=True)["line"]
        if line is None or line["correct"] or not line["failed"]:
            problems.append(f"{name}: corrupted output was not counted as a failure")

    hollow = run.OUT / "hollow"
    shutil.rmtree(hollow, ignore_errors=True)
    shutil.copytree(run.BENCH, hollow / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", hollow)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bound_4u",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=hollow, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py succeeded or printed a result without the sources")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
