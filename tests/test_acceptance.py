"""End-to-end acceptance checks; each test prints one pass/fail summary line."""

import math
import time

import numpy as np
import pytest

import imnomarc as im
from imnomarc import harness
from imnomarc.cli import main as cli_main
from imnomarc.detectors import ml_block
from imnomarc.harness import noise_variance

from oracles import brute_force_hypotheses, brute_force_scan, canonical_entry, pep_rayleigh

TWO_USER = dict(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _alpha_grid(n):
    raw = [2.0 ** (n - k) for k in range(n)]
    return tuple(a / sum(raw) for a in raw)


def test_criterion_1_se_table():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 6):
        for b in range(1, n):
            for m in (2, 4, 8):
                cfg = im.SystemConfig(n_users=n, n_far=b, mod_order=m,
                                      family="PSK" if m != 8 else "QAM",
                                      power_coeffs=_alpha_grid(n))
                expected = n * int(math.log2(m)) + math.floor(math.log2(n - b + 1))
                ok = ok and im.spectral_efficiency(cfg) == expected
    elapsed = time.perf_counter() - t0
    _report(1, "SE table exact over grid", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_criterion_2_flops():
    t0 = time.perf_counter()
    cfg2 = im.SystemConfig(**TWO_USER)
    ok = (im.flops_ml(cfg2), im.flops_sic(cfg2, 1), im.flops_sic(cfg2, 2)) == (24, 6, 23)
    for n in range(2, 6):
        for b in range(1, n):
            for m in (2, 4, 8):
                cfg = im.SystemConfig(n_users=n, n_far=b, mod_order=m,
                                      family="PSK" if m != 8 else "QAM",
                                      power_coeffs=_alpha_grid(n))
                c_im = 2 ** cfg.n_index_bits
                ok = ok and im.flops_ml(cfg) == 3 * m ** n * c_im
                for u in range(1, n + 1):
                    if u <= b:
                        ok = ok and im.flops_sic(cfg, u) == 3 * m * u + u - 1
                    else:
                        ok = ok and im.flops_sic(cfg, u) == \
                            3 * m * b + 4 * m * c_im * (u - b) + u - 1
    elapsed = time.perf_counter() - t0
    _report(2, "FLOP formulas exact incl. 24/6/23", ok and elapsed < 1.0,
            f"({elapsed:.3f}s)")


def test_criterion_3_ml_oracle_equivalence():
    t0 = time.perf_counter()
    agree = 0
    total = 0
    for m in (2, 4):
        cfg = im.SystemConfig(n_users=2, n_far=1, mod_order=m,
                              power_coeffs=(0.9, 0.1))
        alphabet = im.build_super_alphabet(cfg)
        hypotheses = brute_force_hypotheses(cfg)
        rng = np.random.default_rng(100 + m)
        n = 5000
        tx = rng.integers(0, len(alphabet), n)
        h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.05)
        y = h * alphabet.x[tx] + w
        decided, _ = ml_block(y, h, alphabet)
        for k in range(n):
            oracle = brute_force_scan(y[k], h[k], hypotheses)
            agree += canonical_entry(alphabet, decided[k]) == \
                canonical_entry(alphabet, oracle)
        total += n
    elapsed = time.perf_counter() - t0
    _report(3, "ML vs brute-force oracle", agree == total and elapsed < 10.0,
            f"({agree}/{total} agree, {elapsed:.1f}s)")


def test_criterion_4_noiseless_perfection(monkeypatch):
    monkeypatch.setattr(harness, "noise_variance", lambda snr_db: 0.0)
    t0 = time.perf_counter()
    ok = True
    detail = []
    for detector in ("ml", "sic"):
        spec = im.ExperimentSpec(detectors=(detector,), snr_grid_db=(0.0,),
                                 max_bits=100_000, min_bit_errors=200)
        records = im.run_point(spec, 0.0)
        errors = sum(r.bit_errors for r in records)
        subcarriers = records[0].bits_sent  # 1 symbol bit per subcarrier (BPSK)
        ok = ok and errors == 0 and subcarriers >= 100_000
        detail.append(f"{detector}:{errors} errs/{subcarriers} sc")
    elapsed = time.perf_counter() - t0
    _report(4, "noiseless zero-error recovery", ok and elapsed < 30.0,
            f"({'; '.join(detail)}, {elapsed:.1f}s)")


def test_criterion_5_pep_quadrature_vs_closed_form():
    t0 = time.perf_counter()
    sigma2 = 0.2
    worst = 0.0
    for c in np.logspace(-3, 3, 20):
        delta = np.sqrt(4 * sigma2 * c)
        got = pep_rayleigh(delta, sigma2)
        want = im.pep_rayleigh_closed_form(delta, sigma2)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    _report(5, "PEP quadrature vs closed form", worst <= 1e-6 and elapsed < 1.0,
            f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")


@pytest.fixture(scope="module")
def ml_high_snr_sweep():
    spec = im.ExperimentSpec(detectors=("ml",), snr_grid_db=(15.0, 20.0, 25.0, 30.0),
                             min_bit_errors=200, master_seed=1)
    records, _ = im.run_sweep(spec)
    return spec, records


def test_criterion_6_union_bound_validity(ml_high_snr_sweep):
    t0 = time.perf_counter()
    spec, records = ml_high_snr_sweep
    alphabet = im.build_super_alphabet(spec.cfg)
    ok = True
    for rec in records:
        if rec.bit_errors < 200:
            ok = False
        key = "index" if rec.user == "index" else int(rec.user)
        bound = im.union_bound_ber(alphabet, noise_variance(rec.snr_db), user=key)
        ok = ok and bound >= rec.ber
    elapsed = time.perf_counter() - t0
    _report(6, "union bound >= simulated ML BER (15-30 dB)", ok, f"({elapsed:.1f}s)")


def test_criterion_7_far_user_equivalence():
    t0 = time.perf_counter()
    grid = (10.0, 15.0, 20.0)
    runs = {}
    for scheme in ("imnomarc", "pdnoma"):
        spec = im.ExperimentSpec(scheme=scheme, detectors=("sic",), snr_grid_db=grid,
                                 min_bit_errors=5000, master_seed=11)
        records, _ = im.run_sweep(spec)
        runs[scheme] = {r.snr_db: r for r in records if r.user == "1"}
    ok = True
    ratios = []
    for snr in grid:
        ratio = runs["imnomarc"][snr].ber / runs["pdnoma"][snr].ber
        ratios.append(f"{snr:g}dB:{ratio:.3f}")
        ok = ok and 0.8 <= ratio <= 1.25
    elapsed = time.perf_counter() - t0
    _report(7, "far-user SIC parity with PD-NOMA", ok,
            f"({', '.join(ratios)}, {elapsed:.1f}s)")


def test_criterion_8_user_ordering(ml_high_snr_sweep):
    _, records = ml_high_snr_sweep
    at20 = {r.user: r for r in records if r.snr_db == 20.0}
    ok = all(r.bit_errors >= 200 for r in at20.values())
    ok = ok and at20["1"].ber < at20["2"].ber < at20["index"].ber
    _report(8, "BER ordering far < near < index at 20 dB", ok,
            f"(U1 {at20['1'].ber:.2e} < U2 {at20['2'].ber:.2e} "
            f"< idx {at20['index'].ber:.2e})")


def test_criterion_9_ofdm_rayleigh_bpsk_oracle():
    t0 = time.perf_counter()
    ok = True
    details = []
    spec = im.ExperimentSpec(scheme="ofdm", ofdm_order=2, ofdm_family="PSK",
                             snr_grid_db=(5.0, 10.0, 15.0), min_bit_errors=2000,
                             master_seed=21)
    records, _ = im.run_sweep(spec)
    for rec in records:
        snr_lin = 10 ** (rec.snr_db / 10)
        closed = 0.5 * (1 - np.sqrt(snr_lin / (1 + snr_lin)))
        se = np.sqrt(rec.ber * (1 - rec.ber) / rec.bits_sent)
        z = abs(rec.ber - closed) / se
        details.append(f"{rec.snr_db:g}dB z={z:.2f}")
        ok = ok and z <= 3.0
    elapsed = time.perf_counter() - t0
    _report(9, "OFDM flat-Rayleigh BPSK closed form", ok and elapsed < 300,
            f"({', '.join(details)}, {elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli_main(["ber", "--out", str(out), "--seed", "123"])
        assert rc == 0
        outs.append((out / "results.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    _report(10, "byte-identical CSV for identical seed",
            outs[0] == outs[1] and elapsed < 300, f"({elapsed:.1f}s)")
