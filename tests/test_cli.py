import json

import pytest

from imnomarc.cli import im_noma_baseline_se, main


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


def test_se_writes_csv(tmp_path):
    assert run_cli(["se", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "se.csv").read_text().splitlines()
    assert text[0] == "N,B,M,se_imnomarc,se_pdnoma,se_imnoma"
    assert "2,1,2,3,2,2" in text


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


def test_ber_smoke(tmp_path):
    rc = run_cli(["ber", "--out", str(tmp_path), "--snr", "10:5:15",
                  "--min-errors", "20", "--max-bits", "10000", "--seed", "7"])
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "scheme,detector,user,snr_db,bits_sent,bit_errors,ber"
    assert len(lines) == 1 + 2 * 3  # 2 SNR points x (2 users + index)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == 7


def test_ber_multiple_detectors(tmp_path):
    rc = run_cli(["ber", "--out", str(tmp_path), "--snr", "10:5:10",
                  "--detector", "sic", "--detector", "ml",
                  "--min-errors", "20", "--max-bits", "10000"])
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
    detectors = {l.split(",")[1] for l in lines}
    assert detectors == {"ml", "sic"}


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


def test_bad_flag_exits_nonzero(capsys):
    assert run_cli(["ber", "--scheme", "wifi"]) == 1


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[sweep]\nsnr_db = 5:5:10\nmin_bit_errors = 20\nmax_bits = 10000\n")
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
    snrs = {l.split(",")[3] for l in lines}
    assert snrs == {"5", "10"}


@pytest.mark.parametrize("angles", ["0.5, 1.0", "0", "0, 1.0, 2.0"])
def test_bad_rotation_angles_are_config_errors(tmp_path, capsys, angles):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[system]\nrotation_angles = {angles}\n")
    assert run_cli(["ber", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ber", "bound"])
@pytest.mark.parametrize("snr", ["inf", "nan", "0:5:inf"])
def test_non_finite_snr_is_config_error(tmp_path, capsys, command, snr):
    assert run_cli([command, "--out", str(tmp_path), "--snr", snr]) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
