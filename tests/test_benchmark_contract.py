"""The benchmark's own selftest, run against this checkout: a change that
breaks a name or an output the benchmark drives fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest ok"


def test_traced_default_sweep_reaches_every_attributed_layer(tmp_path, monkeypatch):
    # The spans wrap names of imnomarc from outside; a renamed or bypassed
    # layer would read 0 here instead of failing.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    line = run.run_workload("ber_2u_bpsk", 0, 0.0, 1, tiny=True)["line"]
    assert line is not None and line["correct"] and line["failed"] == 0
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    for name in ("harness.run_point.calls", "harness.blocks",
                 "detectors.ml_block.calls", "detectors.sic_block.calls"):
        assert metrics[name] > 0, name


def test_traced_bound_run_reaches_the_bound_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    line = run.run_workload("bound_4u", 0, 0.0, 1, tiny=True)["line"]
    assert line is not None and line["correct"] and line["failed"] == 0
    assert line["metrics"]["analysis.union_bound_ber.calls"]["value"] > 0
