import argparse
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from imnomarc import cli, harness
from imnomarc.analysis import PAIR_BUDGET, union_bound_ber
from imnomarc.cli import im_noma_baseline_se, main
from imnomarc.superposition import SystemConfig, build_super_alphabet, channels


def run_cli(args):
    return main(args)


def test_se_table(capsys):
    assert run_cli(["se"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:3]): line.split()[3:] for line in out[1:]}
    assert rows[("2", "1", "2")][0:2] == ["3", "2"]
    assert rows[("5", "2", "2")][0] == "7"
    assert rows[("2", "1", "4")][0:2] == ["5", "4"]


def test_im_noma_baseline_se_value():
    # N_S=4, K=3 subblock: (3 * 1 * 2 + floor(log2 C(4,3))) / 4 = 2.0 for two BPSK users
    assert im_noma_baseline_se(2, 2, 4, 3) == 2.0


def test_flops_table(capsys):
    assert run_cli(["flops"]) == 0
    out = capsys.readouterr().out
    lines = [l.split() for l in out.splitlines()[1:]]
    table = {(l[0], l[1], l[2], l[3], l[4]): int(l[5]) for l in lines}
    assert table[("2", "1", "2", "ml", "-")] == 24
    assert table[("2", "1", "2", "sic", "1")] == 6
    assert table[("2", "1", "2", "sic", "2")] == 23


def test_one_user_tuples_are_table_rows(tmp_path, capsys):
    # 1:1:M is the one-user system: log2(M) bits, no index bits, one SIC stage
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[se]\ntuples = 1:1:4\n[flops]\ntuples = 1:1:4\n")
    assert run_cli(["se", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "se.csv").read_text().splitlines()[1].startswith("1,1,4,2,2,")
    assert run_cli(["flops", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "flops.csv").read_text().splitlines()[1:] == [
        "1,1,4,ml,-,12", "1,1,4,sic,1,12"]


def test_one_user_system_rows_equal_the_ofdm_rows(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[system]\nn_users = 1\nn_far = 1\nmod_order = 8\nfamily = QAM\n"
                   "power_coeffs = 1.0\n[sweep]\nschemes = imnomarc, ofdm\n")  # [ofdm] stays 8-QAM
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path), "--snr", "0:10:20",
                    "--min-errors", "20", "--max-bits", "10000"]) == 0
    assert run_cli(["bound", "--config", str(cfg), "--out", str(tmp_path),
                    "--snr", "0:10:20"]) == 0
    for name in ("results.csv", "bound.csv"):
        rows = [line.split(",", 1) for line in
                (tmp_path / name).read_text().splitlines()[1:]]
        assert [scheme for scheme, _ in rows] == ["imnomarc"] * 3 + ["ofdm"] * 3, name
        assert [rest for _, rest in rows[:3]] == [rest for _, rest in rows[3:]], name


def test_ofdm_sic_rows_equal_its_ml_rows(tmp_path):
    # the one-user system's SIC is its one stage, the nearest point: ML
    assert run_cli(["ber", "--out", str(tmp_path), "--snr", "0:10:20", "--scheme", "ofdm",
                    "--detector", "ml", "--detector", "sic", "--min-errors", "20",
                    "--max-bits", "10000"]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "results.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["ofdm", "ml"]] * 3 + [["ofdm", "sic"]] * 3
    assert [row[2:] for row in rows[:3]] == [row[2:] for row in rows[3:]]


def test_se_writes_csv(tmp_path):
    assert run_cli(["se", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "se.csv").read_text().splitlines()
    assert text[0] == "N,B,M,se_imnomarc,se_pdnoma,se_imnoma"
    assert "2,1,2,3,2,2" in text


def test_se_skips_empty_tuples(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[se]\ntuples = 2:1:2,,3:2:2\n")
    assert run_cli(["se", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "se.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["2", "1", "2"], ["3", "2", "2"]]


def test_module_entry_point_runs_main(capsys):
    # the child imports imnomarc from wherever this process found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "imnomarc.cli", "se"], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run_cli(["se"]) == 0
    assert out.returncode == 0, out.stderr
    assert out.stdout == capsys.readouterr().out


def test_bound_command(tmp_path):
    assert run_cli(["bound", "--out", str(tmp_path), "--snr", "10:10:30"]) == 0
    lines = (tmp_path / "bound.csv").read_text().splitlines()
    assert lines[0] == "scheme,detector,user,snr_db,bits_sent,bit_errors,ber"
    rows = [l.split(",") for l in lines[1:]]
    assert {r[2] for r in rows} == {"1", "2", "index"}
    assert all(r[1] == "bound" for r in rows)
    # monotone: bound at 10 dB >= bound at 30 dB for every user
    by_user = {}
    for r in rows:
        by_user.setdefault(r[2], {})[float(r[3])] = float(r[6])
    for curve in by_user.values():
        assert curve[10.0] >= curve[30.0]


# `bound --snr 0:10:30` on default.ini, byte for byte
BOUND_GOLDEN = """\
scheme,detector,user,snr_db,bits_sent,bit_errors,ber
imnomarc,bound,1,0,0,0,6.27725e-01
imnomarc,bound,2,0,0,0,1.05523e+00
imnomarc,bound,index,0,0,0,1.09528e+00
imnomarc,bound,1,10,0,0,1.07622e-01
imnomarc,bound,2,10,0,0,4.13035e-01
imnomarc,bound,index,10,0,0,4.76050e-01
imnomarc,bound,1,20,0,0,1.17086e-02
imnomarc,bound,2,20,0,0,7.28918e-02
imnomarc,bound,index,20,0,0,9.29195e-02
imnomarc,bound,1,30,0,0,1.18151e-03
imnomarc,bound,2,30,0,0,8.01957e-03
imnomarc,bound,index,30,0,0,1.04365e-02
"""


def test_default_bound_csv_matches_golden_text(tmp_path):
    assert run_cli(["bound", "--out", str(tmp_path), "--snr", "0:10:30"]) == 0
    assert (tmp_path / "bound.csv").read_text() == BOUND_GOLDEN


@pytest.fixture
def bound_records(monkeypatch) -> list:
    """The records each ``bound`` run hands to ``write_csv``, unrounded."""
    calls = []

    def recorded(records, path):
        calls.append(records)
        harness.write_csv(records, path)

    monkeypatch.setattr(cli, "write_csv", recorded)
    return calls


@pytest.mark.parametrize("schemes", [("imnomarc", "pdnoma", "ofdm"),
                                     ("ofdm", "imnomarc", "pdnoma")])
def test_bound_writes_one_block_per_scheme(tmp_path, bound_records, schemes):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[sweep]\nschemes = {', '.join(schemes)}\n"
                   "[ofdm]\nmod_order = 2\nfamily = PSK\n")
    assert run_cli(["bound", "--config", str(cfg), "--out", str(tmp_path),
                    "--snr", "0:10:30"]) == 0
    lines = (tmp_path / "bound.csv").read_text().splitlines()[1:]
    blocks = {scheme: [line for line in lines if line.startswith(f"{scheme},")]
              for scheme in schemes}
    assert [line for scheme in schemes for line in blocks[scheme]] == lines
    assert blocks["imnomarc"] == BOUND_GOLDEN.splitlines()[1:]
    # PD-NOMA is the [system] config without index bits
    pdnoma = replace(SystemConfig(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1)),
                     im_enabled=False)
    alphabet = build_super_alphabet(pdnoma)
    assert blocks["pdnoma"] == [
        f"pdnoma,bound,{user},{snr:g},0,0,"
        f"{union_bound_ber(alphabet, harness.noise_variance(snr), user=user):.5e}"
        for snr in (0.0, 10.0, 20.0, 30.0) for user, _, _ in channels(pdnoma)]
    # one-user BPSK: the flat-Rayleigh closed form
    (records,) = bound_records
    ofdm = [r for r in records if r.scheme == "ofdm"]
    assert [(r.user, r.snr_db) for r in ofdm] == [("1", snr) for snr in (0.0, 10.0, 20.0, 30.0)]
    for r in ofdm:
        gamma = 10 ** (r.snr_db / 10)
        assert r.ber == pytest.approx(0.5 * (1 - math.sqrt(gamma / (1 + gamma))), rel=1e-12)


@pytest.mark.parametrize("grid, want", [
    ("0:6:10", (0.0, 6.0)),
    ("0:0.1:1", tuple(k / 10 for k in range(11))),
    # 0.3 / 0.1 = 2.9999999999999996 in floats
    ("0:0.1:0.3", (0.0, 0.1, 0.2, 0.3)),
    ("-5:4:5", (-5.0, -1.0, 3.0)),
], ids=["stop-between-steps", "fractional-step", "step-count-rounds-down",
        "negative-start"])
def test_snr_grid_ends_at_its_stop(tmp_path, grid, want):
    # the grid includes stop when a step lands on it, to rounding, and never
    # passes it; the --snr= form takes a grid that starts with a minus sign
    assert run_cli(["bound", "--out", str(tmp_path), f"--snr={grid}"]) == 0
    rows = (tmp_path / "bound.csv").read_text().splitlines()[1:]
    snrs = sorted({float(r.split(",")[3]) for r in rows})
    assert snrs == pytest.approx(want, rel=0, abs=1e-9)


def test_ber_smoke(tmp_path):
    rc = run_cli(["ber", "--out", str(tmp_path), "--snr", "10:5:15",
                  "--min-errors", "20", "--max-bits", "10000", "--seed", "7"])
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "scheme,detector,user,snr_db,bits_sent,bit_errors,ber"
    assert len(lines) == 1 + 2 * 3  # 2 SNR points x (2 users + index)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [run["master_seed"] for run in manifest["runs"]] == [7]


def test_ber_multiple_detectors(tmp_path):
    rc = run_cli(["ber", "--out", str(tmp_path), "--snr", "10:5:10",
                  "--detector", "sic", "--detector", "ml",
                  "--min-errors", "20", "--max-bits", "10000"])
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
    # one pass of the scheme, its rows detector by detector in flag order
    assert [l.split(",")[1] for l in lines] == ["sic"] * 3 + ["ml"] * 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [run["spec"]["detectors"] for run in manifest["runs"]] == [["sic", "ml"]]
    assert set(manifest["runs"][0]["points"]["10"]["blocks_run"]) == {"sic", "ml"}


def test_ber_verbose_logs_one_line_per_point_and_is_silent_without(tmp_path, capsys):
    args = ["ber", "--out", str(tmp_path), "--snr", "10:5:20", "--detector", "ml",
            "--detector", "sic", "--min-errors", "20", "--max-bits", "10000"]
    assert run_cli([*args, "-v"]) == 0
    lines = capsys.readouterr().err.splitlines()
    points = json.loads((tmp_path / "manifest.json").read_text())["runs"][0]["points"]
    assert len(lines) == len(points) == 3
    for line, (snr, point) in zip(lines, points.items()):
        assert line.startswith(f"imnomarc {snr} dB: ")
        for detector, blocks in point["blocks_run"].items():
            reasons = point["stop_reason"][detector]
            assert f"{detector} " + ", ".join(
                f"{user} {n} blocks {reasons[user]}" for user, n in blocks.items()) in line
    assert run_cli(args) == 0  # the logger is quiet again
    assert capsys.readouterr().err == ""


def test_ber_twice_verbose_logs_one_debug_line_per_batch(tmp_path, capsys):
    args = ["ber", "--out", str(tmp_path), "--snr", "10:10:30", "--detector", "ml",
            "--detector", "sic", "--min-errors", "20", "--max-bits", "10000"]
    assert run_cli([*args, "-vv"]) == 0
    lines = capsys.readouterr().err.splitlines()
    points = json.loads((tmp_path / "manifest.json").read_text())["runs"][0]["points"]
    at = 0
    for snr, point in points.items():  # the point's batches, then its INFO line
        batches = max(n for blocks in point["blocks_run"].values()
                      for n in blocks.values()) // harness.BATCH_BLOCKS
        for k in range(batches):
            first = k * harness.BATCH_BLOCKS
            assert lines[at + k].startswith(
                f"imnomarc {snr} dB: blocks {first}-{first + harness.BATCH_BLOCKS - 1}, ")
        assert re.match(rf"imnomarc {snr} dB: [0-9.]+ s; ", lines[at + batches])
        at += batches + 1
    assert at == len(lines)
    assert run_cli([*args, "-v"]) == 0  # one INFO line per point
    assert len(capsys.readouterr().err.splitlines()) == len(points)


def test_ber_debug_lines_format_only_when_logged(monkeypatch):
    # run_point hands the logger its arguments; %-formatting them is left to
    # a handler that takes DEBUG records
    calls = []
    monkeypatch.setattr(harness.log, "debug", lambda msg, *args: calls.append((msg, args)))
    harness.run_point(harness.ExperimentSpec(snr_grid_db=(10.0,), max_bits=2000,
                                             min_bit_errors=20), 10.0)
    assert calls and all("%" in msg and args for msg, args in calls)


def test_main_leaves_the_logger_as_the_embedding_program_set_it(tmp_path, capsys):
    log = logging.getLogger("imnomarc")
    level, handlers = log.level, list(log.handlers)
    log.setLevel(logging.WARNING)
    try:
        for args in (["se"], ["ber", "--out", str(tmp_path), "--snr", "10:5:10",
                              "--min-errors", "20", "--max-bits", "10000", "-v"]):
            assert run_cli(args) == 0
            assert (log.level, log.handlers) == (logging.WARNING, handlers), args
        assert capsys.readouterr().err.startswith("imnomarc 10 dB: ")  # -v still logs
    finally:
        log.setLevel(level)


def test_repeated_sweeps_run_once(tmp_path):
    # one SNR point of imnomarc/ml: users 1, 2 and index, each once
    args = ["--snr", "10", "--min-errors", "20", "--max-bits", "10000"]
    assert run_cli(["ber", "--out", str(tmp_path / "flags"), *args,
                    "--detector", "ml", "--detector", "ml"]) == 0
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[sweep]\nschemes = imnomarc, imnomarc\ndetectors = ml, ml\n")
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path / "ini"), *args]) == 0
    for out in ("flags", "ini"):
        lines = (tmp_path / out / "results.csv").read_text().splitlines()[1:]
        assert [l.split(",")[2] for l in lines] == ["1", "2", "index"]
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 1


@pytest.mark.parametrize("command, work", [("ber", "run_sweep"),
                                           ("bound", "build_super_alphabet"),
                                           ("se", None), ("flops", None)])
def test_unusable_out_is_config_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command, work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output directory was checked")

    if work is not None:
        monkeypatch.setattr(cli, work, refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["--snr", "10"] if command in ("ber", "bound") else []
    assert run_cli([command, "--out", str(blocker), *args]) == 1
    out, err = capsys.readouterr()
    assert "config error" in err
    assert out == ""


def test_failure_while_running_exits_2(tmp_path, capsys, monkeypatch):
    def fail(spec):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(cli, "run_sweep", fail)
    assert run_cli(["ber", "--out", str(tmp_path), "--snr", "10"]) == 2
    assert "error: sweep failed" in capsys.readouterr().err


def test_ber_seed_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["ber", "--out", str(out), "--snr", "10:5:10",
                        "--min-errors", "20", "--max-bits", "10000",
                        "--seed", "7"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_missing_config_file_is_config_error(capsys):
    assert run_cli(["ber", "--config", "/nonexistent.ini"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["se", "flops", "bound", "ber"])
def test_undecodable_config_file_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "exp.ini"
    cfg.write_bytes(b"[sweep]\nseed = 5\xff\n")
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert "config error" in err and out == ""
    assert not (tmp_path / "out").exists()


def test_flag_overrides_config_file_even_when_zero(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[sweep]\nseed = 5\n")
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path), "--seed", "0",
                    "--snr", "10", "--min-errors", "20", "--max-bits", "2000"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [run["master_seed"] for run in manifest["runs"]] == [0]


def test_empty_snr_flag_is_an_empty_grid(tmp_path):
    # as `snr_db =` in an INI: the header and no rows
    assert run_cli(["bound", "--out", str(tmp_path), "--snr", ""]) == 0
    assert (tmp_path / "bound.csv").read_text() == \
        "scheme,detector,user,snr_db,bits_sent,bit_errors,ber\n"


def test_bad_flag_exits_nonzero(capsys):
    assert run_cli(["ber", "--scheme", "wifi"]) == 1


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[sweep]\nsnr_db = 5:5:10\nmin_bit_errors = 20\nmax_bits = 10000\n")
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
    snrs = {l.split(",")[3] for l in lines}
    assert snrs == {"5", "10"}


@pytest.mark.parametrize("angles", ["0.5, 1.0", "0", "0, 1.0, 2.0", "0, nan"])
def test_bad_rotation_angles_are_config_errors(tmp_path, capsys, angles):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[system]\nrotation_angles = {angles}\n")
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ber", "bound"])
# 3085 dB is finite, but 10^308.5 overflows a float
@pytest.mark.parametrize("snr", ["inf", "nan", "0:5:inf", "3085"])
def test_non_finite_snr_is_config_error(tmp_path, capsys, command, snr):
    assert run_cli([command, "--out", str(tmp_path), "--snr", snr]) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, args", [
    ("ber", ["--max-bits", "2000", "--min-errors", "20"]),
    ("bound", []),
])
# 30 and 30.0000001 dB both print as 30; -2000 and 2294.967296 dB share the
# seed key 2294967296 (the SNR in 1e-6 dB steps, mod 2^32)
@pytest.mark.parametrize("snr", ["30:0.0000001:30.0000001", "-2000,2294.967296"],
                         ids=["same-label", "same-seed-key"])
def test_snr_points_that_run_as_one_are_config_errors(tmp_path, capsys, command, args, snr):
    assert run_cli([command, "--out", str(tmp_path), f"--snr={snr}", *args]) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# 5:2:16 QAM: A = 16^5 * 4 = 4194304 entries, over the 2^20 enumeration cap
OVER_CAP_INI = ("[system]\nn_users = 5\nn_far = 2\nmod_order = 16\nfamily = QAM\n"
                "power_coeffs = 0.5, 0.25, 0.15, 0.07, 0.03\n")

# Keys and sections outside cli.KEYS, and a transmit power the SNR does not
# assume: each would otherwise be dropped and the default printed.
UNKNOWN_KEY_INIS = {
    "misspelt-key": "[system]\npower_coef = 0.8, 0.2\n",
    "key-of-another-section": "[sweep]\npower_coeffs = 0.8, 0.2\n",
    "unknown-section": "[System]\npower_coeffs = 0.8, 0.2\n",
    "total-power": "[system]\ntotal_power = 4\n",
}


# Grids refused from their point count: 3e10 and 3e7 points, and a subnormal step
# whose point count is inf. Building any of them would exhaust memory or overflow.
OVERSIZED_GRIDS = ["0:1e-9:30", "0:1e-6:30", "0:1e-320:30"]

# INIs holding a value its key's parser rejects, and the place the message names.
VALUE_PLACES = {
    "[system]\nn_users = two\n": "config error: [system] n_users: invalid literal",
    "[sweep]\nmax_bits = lots\n": "config error: [sweep] max_bits: invalid literal",
    "[se]\nsubblock_size = x\n": "config error: [se] subblock_size: invalid literal",
}


@pytest.mark.parametrize("command, ini, args", [
    ("bound", None, ["--snr", "0:a:5"]),
    ("bound", None, ["--snr", "1,x"]),
    ("bound", None, ["--snr", "10,5,10"]),
    ("bound", None, ["--snr", "5,5"]),
    ("bound", None, ["--snr", "0:5"]),
    ("ber", None, ["--snr", "5:-1:10"]),
    ("ber", None, ["--snr", "1,x"]),
    ("ber", "[system]\npower_coeffs = 0.9, abc\n", []),
    ("ber", "[system]\nn_users = two\n", []),
    ("ber", "[sweep]\nmax_bits = lots\n", []),
    ("se", "[se]\ntuples = 2:x:2\n", []),
    ("flops", "[flops]\ntuples = 2:3:2\n", []),
    ("se", "[se]\nsubblock_size = x\n", []),
    ("se", "[se]\nsubblock_size = 4\nactive_subcarriers = 9\n", []),
    ("se", "[se]\nsubblock_size = 0\nactive_subcarriers = 0\n", []),
    ("bound", OVER_CAP_INI, []),
    ("ber", OVER_CAP_INI, []),
    ("ber", "[sweep]\nmin_bit_errors = 0\n", []),
    ("ber", None, ["--snr", "10", "--min-errors", "1", "--max-bits", "0"]),
    ("ber", None, ["--snr", "10", "--min-errors", "0"]),
    ("ber", "[ofdm]\nmod_order = 3\n", ["--scheme", "ofdm"]),
    ("ber", "max_bits = 10000\n", []),
    ("ber", "[sweep]\nmax_bits = 10000\nmax_bits = 20000\n", []),
    ("ber", None, ["--snr", "10", "--seed", "-1"]),
    ("ber", "[sweep]\nseed = -1\n", ["--snr", "10"]),
    ("ber", "[system]\npower_coeffs = nan, nan\n", ["--snr", "10"]),
    ("bound", "[system]\npower_coeffs = nan, nan\n", ["--snr", "10"]),
    ("ber", "[sweep]\nn_subcarriers = 1000000000\n", ["--snr", "10"]),
    ("bound", "[sweep]\nmin_bit_errors = 0\n", []),
    *[(command, None, ["--snr", grid]) for command in ("ber", "bound") for grid in OVERSIZED_GRIDS],
    *[(command, ini, []) for command in ("ber", "bound") for ini in UNKNOWN_KEY_INIS.values()],
], ids=["bound-snr-grid", "bound-snr-list", "bound-snr-decreasing",
        "bound-snr-repeated", "bound-snr-two-fields", "ber-snr-negative-step",
        "ber-snr-list", "power-coeffs", "n-users", "max-bits", "se-tuple", "flops-tuple",
        "se-subblock", "se-active-over", "se-zero-subblock", "bound-alphabet-cap", "ber-alphabet-cap",
        "ini-zero-min-errors", "zero-max-bits-flag", "zero-min-errors-flag",
        "ofdm-order", "no-section-header", "duplicate-option",
        "negative-seed-flag", "ini-negative-seed", "ber-nan-power-coeffs",
        "bound-nan-power-coeffs", "batch-over-memory-budget", "bound-ini-zero-min-errors",
        *[f"{command}-grid-{grid}" for command in ("ber", "bound") for grid in OVERSIZED_GRIDS],
        *[f"{command}-{name}" for command in ("ber", "bound") for name in UNKNOWN_KEY_INIS]])
def test_malformed_numbers_are_config_errors(tmp_path, capsys, command, ini, args):
    if ini is not None:
        cfg = tmp_path / "exp.ini"
        cfg.write_text(ini)
        args = ["--config", str(cfg), *args]
    assert run_cli([command, "--out", str(tmp_path / "out"), *args]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert VALUE_PLACES.get(ini, "") in err
    assert not (tmp_path / "out").exists()


# Every flag of the CLI that takes a value, with a valid one; subcommand c
# reads the first READ_FLAGS[c] of them. Only ber reads the switch --verbose.
ALL_FLAGS = {"--config": "x.ini", "--out": "out", "--snr": "0:5:10", "--seed": "3",
             "--detector": "sic", "--scheme": "pdnoma", "--max-bits": "1000",
             "--min-errors": "10"}
READ_FLAGS = {"se": 2, "flops": 2, "bound": 3, "ber": 8}


def test_parser_choices_are_the_harness_names():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {action.dest: action.choices for action in sub.choices["ber"]._actions}
    assert choices["schemes"] == harness.SCHEMES
    assert choices["detectors"] == harness.DETECTORS


@pytest.mark.parametrize("command, n", READ_FLAGS.items())
def test_help_lists_only_read_flags(capsys, command, n):
    assert run_cli([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert [flag for flag in ALL_FLAGS if flag in out] == list(ALL_FLAGS)[:n]
    assert ("--verbose" in out) == (command == "ber")


@pytest.mark.parametrize("command, flag", [
    *[(command, flag) for command, n in READ_FLAGS.items() for flag in list(ALL_FLAGS)[n:]],
    *[(command, "--verbose") for command in READ_FLAGS if command != "ber"]])
def test_unread_flag_is_config_error(tmp_path, command, flag):
    value = [ALL_FLAGS[flag]] if flag in ALL_FLAGS else []
    assert run_cli([command, "--out", str(tmp_path / "out"), flag, *value]) == 1
    assert not (tmp_path / "out").exists()


def test_unit_total_power_and_empty_rotation_angles_run_as_the_default(tmp_path):
    # the benchmark INIs write total_power = 1.0; an empty rotation_angles is pi/2
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[system]\ntotal_power = 1.0\nrotation_angles =\n")
    for name, config in (("ini", ["--config", str(cfg)]), ("default", [])):
        assert run_cli(["bound", *config, "--out", str(tmp_path / name), "--snr", "0:10:30"]) == 0
    assert (tmp_path / "ini" / "bound.csv").read_bytes() == \
        (tmp_path / "default" / "bound.csv").read_bytes()
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path / "ber"), "--snr", "10",
                    "--min-errors", "20", "--max-bits", "2000"]) == 0


def test_bound_at_the_largest_snrs_writes_no_nan(tmp_path):
    # c = |delta|^2 / (4 sigma^2) overflows near 3081 dB; its PEP is 0, not NaN
    assert run_cli(["bound", "--out", str(tmp_path), "--snr", "3075:3:3081"]) == 0
    bers = [float(r.split(",")[6]) for r in (tmp_path / "bound.csv").read_text().splitlines()[1:]]
    assert len(bers) == 9 and all(0 <= b < 1e-300 for b in bers)


def test_bound_makes_one_pair_pass_per_snr_point(tmp_path, pair_spectra):
    assert run_cli(["bound", "--out", str(tmp_path), "--snr", "0:10:40"]) == 0
    rows = (tmp_path / "bound.csv").read_text().splitlines()[1:]
    # users 1, 2 and "index" at each of the 5 points share its pass
    assert len(rows) == 15
    assert len(pair_spectra) == len(set(pair_spectra)) == 5


def test_bound_refuses_pair_count_over_budget(tmp_path, capsys, monkeypatch):
    # 5:1:8: A = 8^5 * 4 = 2^17, A(A-1) ~ 2^34 ordered pairs, the smallest
    # power-of-two alphabet over the 2^32 budget; its PD-NOMA alphabet of 2^15
    # is under it, and no scheme's alphabet is built before every scheme is checked
    def refuse(*args, **kwargs):
        raise AssertionError("alphabet built before the pair-budget check")

    monkeypatch.setattr(cli, "build_super_alphabet", refuse)
    size = 2 ** 17
    assert (size // 2) * (size // 2 - 1) <= PAIR_BUDGET < size * (size - 1)
    cfg = tmp_path / "exp.ini"
    for schemes in ("imnomarc", "pdnoma, imnomarc"):
        cfg.write_text("[system]\nn_users = 5\nn_far = 1\nmod_order = 8\n"
                       "power_coeffs = 0.5, 0.25, 0.15, 0.07, 0.03\n"
                       f"[sweep]\nschemes = {schemes}\n")
        assert run_cli(["bound", "--config", str(cfg), "--out", str(tmp_path / "out"),
                        "--snr", "10"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"imnomarc alphabet size {size}" in err, schemes
        assert not (tmp_path / "out").exists()

