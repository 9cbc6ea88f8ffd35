"""The benchmark's own selftest, run against this checkout: a change that
breaks a name or an output the benchmark drives fails here."""

import configparser
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from imnomarc import cli

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


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_benchmark_inis_pass_the_key_table(tmp_path, monkeypatch, tiny):
    # bench/ writes INIs that cli.load_config must take as they are
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    names = [name for name, wl in workloads.WORKLOADS.items() if wl["kind"] == "ber"]
    assert names
    for name in names:
        ini = tmp_path / f"{name}.ini"
        ini.write_text(workloads.ber_ini(name, tiny))
        conf = cli.load_config(cli.build_parser().parse_args(["ber", "--config", str(ini)]))
        assert conf["system"]["total_power"] == 1.0
        assert cli._experiment_specs(conf)


def test_default_ini_names_every_required_key():
    conf = configparser.ConfigParser()
    conf.read_string(resources.files("imnomarc").joinpath("default.ini").read_text())
    optional = {"rotation_angles", "total_power"}
    assert {name: set(conf[name]) for name in conf.sections()} == \
        {name: set(keys) - optional for name, keys in cli.KEYS.items()}
