import ast
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

from imnomarc import __version__, harness
from imnomarc.detectors import SCAN_MAX, ml_block, sic_block
from imnomarc.harness import (BATCH_BUDGET, CSV_HEADER, BerRecord, ExperimentSpec,
                              _PointContext, _run_batch, persist, run_point,
                              run_sweep)
from imnomarc.superposition import SystemConfig, build_super_alphabet

import oracles
from oracles import (apply_channel, draw_channel, exact_ber_2u_bpsk, exact_far_ber_2u_bpsk,
                     load_results, run_block_oracle, run_prefix_oracle, spec_from_dict)

TWO_USER = dict(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1))


def small_spec(**overrides):
    base = dict(snr_grid_db=(10.0,), max_bits=20_000, min_bit_errors=50,
                master_seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def every_receiver(ctx):
    """``_run_batch``'s live map with every detector deciding at every receiver."""
    return dict.fromkeys(ctx.spec.detectors, set(range(1, ctx.n_receivers + 1)))


def silence_noise(monkeypatch):
    """Make every harness noise variance 0: y = h x exactly."""
    monkeypatch.setattr(harness, "noise_variance", lambda snr_db: 0.0)


def test_noiseless_run_has_zero_errors(monkeypatch):
    silence_noise(monkeypatch)
    for detector in ("ml", "sic"):
        spec = small_spec(detectors=(detector,), max_bits=5000,
                          min_bit_errors=20, snr_grid_db=(0.0,))
        for rec in run_point(spec, 0.0):
            assert rec.bit_errors == 0


# inf has no seed key; 30.0000001 dB would run on the stream of 30 dB
@pytest.mark.parametrize("snr_db", [float("inf"), float("nan"), 30.0000001, 12.5])
def test_run_point_refuses_snr_off_its_grid(snr_db):
    spec = ExperimentSpec(max_bits=2000, min_bit_errors=20)
    with pytest.raises(ValueError, match="grid"):
        run_point(spec, snr_db)


def test_same_seed_is_bit_identical():
    spec = small_spec()
    a = run_point(spec, 10.0)
    b = run_point(spec, 10.0)
    for x, y in zip(a, b):
        assert (x.bits_sent, x.bit_errors, x.ber) == (y.bits_sent, y.bit_errors, y.ber)


GOLDEN_CONFIGS = {
    "2:1:2": TWO_USER,
    "4:1:4": dict(n_users=4, n_far=1, mod_order=4, power_coeffs=(0.75, 0.18, 0.05, 0.02),
                  rotation_angle=math.pi / 4),
    "3:2:2": dict(n_users=3, n_far=2, mod_order=2, power_coeffs=(0.6, 0.3, 0.1)),
}

# (config, scheme, detector, index_user_mode) -> [(snr_db, [(user, bits_sent,
# bit_errors), ...]), ...] from run_point with n_subcarriers=32, max_bits=3000,
# min_bit_errors=20, master_seed=11, one RNG stream per 16-block batch with one
# row of 3n floats per receiver (n fading powers, n complex noise values),
# each channel stopped at its own batch (the 2:1:2 rows at 15 dB stop users 2
# and index before user 1). The test checks every entry against
# run_prefix_oracle, which derives it from the z draw. A receiver's rows do
# not depend on how many receivers follow it, so the virtual and near rows of
# one config differ only where the index bits are decided.
# Detection draws no random numbers, so any change to how blocks are detected
# or scored must reproduce these exactly.
# The PD-NOMA SIC near-user rows equal the PD-NOMA ML rows: without index bits
# the near stage searches only the rotations the transmitter sends (none).
# The OFDM rows are the one-user 8-QAM system's, whose entries are in label
# order like every alphabet's; the config and its mode do not enter them.
GOLDEN = {
    ('2:1:2', 'imnomarc', 'ml', 'virtual'): [
        (5.0, [('1', 512, 33), ('2', 512, 167), ('index', 512, 211)]),
        (15.0, [('1', 1536, 21), ('2', 512, 60), ('index', 512, 79)]),
    ],
    ('2:1:2', 'imnomarc', 'ml', 'near'): [
        (5.0, [('1', 512, 33), ('2', 512, 167), ('index', 512, 206)]),
        (15.0, [('1', 1536, 21), ('2', 512, 60), ('index', 512, 86)]),
    ],
    ('2:1:2', 'imnomarc', 'sic', 'virtual'): [
        (5.0, [('1', 512, 33), ('2', 512, 167), ('index', 512, 211)]),
        (15.0, [('1', 1536, 21), ('2', 512, 60), ('index', 512, 79)]),
    ],
    ('2:1:2', 'imnomarc', 'sic', 'near'): [
        (5.0, [('1', 512, 33), ('2', 512, 167), ('index', 512, 206)]),
        (15.0, [('1', 1536, 21), ('2', 512, 60), ('index', 512, 86)]),
    ],
    ('2:1:2', 'pdnoma', 'ml', 'virtual'): [
        (5.0, [('1', 512, 35), ('2', 512, 142)]),
        (15.0, [('1', 1536, 23), ('2', 512, 27)]),
    ],
    ('2:1:2', 'pdnoma', 'ml', 'near'): [
        (5.0, [('1', 512, 35), ('2', 512, 142)]),
        (15.0, [('1', 1536, 23), ('2', 512, 27)]),
    ],
    ('2:1:2', 'pdnoma', 'sic', 'virtual'): [
        (5.0, [('1', 512, 35), ('2', 512, 142)]),
        (15.0, [('1', 1536, 23), ('2', 512, 27)]),
    ],
    ('2:1:2', 'pdnoma', 'sic', 'near'): [
        (5.0, [('1', 512, 35), ('2', 512, 142)]),
        (15.0, [('1', 1536, 23), ('2', 512, 27)]),
    ],
    ('2:1:2', 'ofdm', 'ml', 'virtual'): [
        (5.0, [('1', 1536, 260)]),
        (15.0, [('1', 1536, 49)]),
    ],
    ('2:1:2', 'ofdm', 'ml', 'near'): [
        (5.0, [('1', 1536, 260)]),
        (15.0, [('1', 1536, 49)]),
    ],
    ('4:1:4', 'imnomarc', 'ml', 'virtual'): [
        (5.0, [('1', 1024, 181), ('2', 1024, 374), ('3', 1024, 474), ('4', 1024, 501), ('index', 1024, 507)]),
        (15.0, [('1', 1024, 80), ('2', 1024, 254), ('3', 1024, 404), ('4', 1024, 467), ('index', 1024, 527)]),
    ],
    ('4:1:4', 'imnomarc', 'ml', 'near'): [
        (5.0, [('1', 1024, 181), ('2', 1024, 374), ('3', 1024, 474), ('4', 1024, 501), ('index', 1024, 525)]),
        (15.0, [('1', 1024, 80), ('2', 1024, 254), ('3', 1024, 404), ('4', 1024, 467), ('index', 1024, 529)]),
    ],
    ('4:1:4', 'imnomarc', 'sic', 'virtual'): [
        (5.0, [('1', 1024, 177), ('2', 1024, 380), ('3', 1024, 484), ('4', 1024, 514), ('index', 1024, 501)]),
        (15.0, [('1', 1024, 68), ('2', 1024, 246), ('3', 1024, 391), ('4', 1024, 483), ('index', 1024, 520)]),
    ],
    ('4:1:4', 'imnomarc', 'sic', 'near'): [
        (5.0, [('1', 1024, 177), ('2', 1024, 380), ('3', 1024, 484), ('4', 1024, 514), ('index', 1024, 505)]),
        (15.0, [('1', 1024, 68), ('2', 1024, 246), ('3', 1024, 391), ('4', 1024, 483), ('index', 1024, 491)]),
    ],
    ('3:2:2', 'imnomarc', 'ml', 'near'): [
        (5.0, [('1', 512, 84), ('2', 512, 143), ('3', 512, 204), ('index', 512, 237)]),
        (15.0, [('1', 512, 57), ('2', 512, 67), ('3', 512, 90), ('index', 512, 99)]),
    ],
    ('3:2:2', 'imnomarc', 'sic', 'near'): [
        (5.0, [('1', 512, 87), ('2', 512, 135), ('3', 512, 207), ('index', 512, 238)]),
        (15.0, [('1', 512, 66), ('2', 512, 73), ('3', 512, 95), ('index', 512, 97)]),
    ],
}


@pytest.mark.parametrize("case", GOLDEN, ids="-".join)
def test_run_point_matches_golden_counts(case):
    name, scheme, detector, mode = case
    cfg = SystemConfig(**GOLDEN_CONFIGS[name], index_user_mode=mode)
    spec = ExperimentSpec(scheme=scheme, cfg=cfg, detectors=(detector,),
                          snr_grid_db=(5.0, 15.0), n_subcarriers=32, max_bits=3000,
                          min_bit_errors=20, master_seed=11)
    for snr_db, want in GOLDEN[case]:
        got = [(r.user, r.bits_sent, r.bit_errors) for r in run_point(spec, snr_db)]
        assert got == want
        assert [(u, n, e) for _, u, n, e in run_prefix_oracle(spec, snr_db)] == want


# Configs where most rows skip detection, beside GOLDEN_CONFIGS: 2:1:4 QPSK at
# pi/2 has coincident points (a rotated near symbol is another near symbol),
# and 4:1:2 BPSK has an SIC floor (the far amplitude is below the sum of the
# others).
CONFIGS = {
    **GOLDEN_CONFIGS,
    "2:1:4": dict(n_users=2, n_far=1, mod_order=4, power_coeffs=(0.8, 0.2)),
    "4:1:2": dict(n_users=4, n_far=1, mod_order=2, power_coeffs=(0.6, 0.25, 0.1, 0.05)),
}

# (n_subcarriers, snr_db, first_block) of each batch a BATCH_CASES case runs
BATCHES = [(128, 10.0, 0), (37, 25.0, 48)]
HIGH_SNR = [(512, 30.0, 0), (512, 40.0, 16)]

BATCH_CASES = {
    "2:1:2-ml-virtual": dict(cfg=("2:1:2", "virtual"), detectors=("ml",)),
    "2:1:2-ml-near": dict(cfg=("2:1:2", "near"), detectors=("ml",)),
    "2:1:2-sic-virtual": dict(cfg=("2:1:2", "virtual"), detectors=("sic",)),
    "2:1:2-sic-near": dict(cfg=("2:1:2", "near"), detectors=("sic",)),
    # A = 1024: the cell-table path of ml_block
    "4:1:4-ml": dict(cfg=("4:1:4", "virtual"), detectors=("ml",)),
    "4:1:4-sic": dict(cfg=("4:1:4", "virtual"), detectors=("sic",)),
    "3:2:2-ml": dict(cfg=("3:2:2", "near"), detectors=("ml",)),
    "3:2:2-sic": dict(cfg=("3:2:2", "virtual"), detectors=("sic",)),
    "ofdm": dict(cfg=("2:1:2", "virtual"), detectors=("ml",), scheme="ofdm"),
    "pdnoma-sic": dict(cfg=("2:1:2", "virtual"), detectors=("sic",), scheme="pdnoma"),
    "noiseless-ml": dict(cfg=("2:1:2", "virtual"), detectors=("ml",), noiseless=True),
    "noiseless-sic": dict(cfg=("3:2:2", "near"), detectors=("sic",), noiseless=True),
    # both detectors decide one draw
    "2:1:2-sic+ml-near": dict(cfg=("2:1:2", "near"), detectors=("sic", "ml")),
    "4:1:4-ml+sic": dict(cfg=("4:1:4", "virtual"), detectors=("ml", "sic")),
    # high SNR, where almost every row skips detection
    "2:1:2-ml+sic-high": dict(cfg=("2:1:2", "virtual"), detectors=("ml", "sic"),
                              batches=HIGH_SNR),
    "3:2:2-sic+ml-high": dict(cfg=("3:2:2", "near"), detectors=("sic", "ml"),
                              batches=HIGH_SNR),
    "4:1:4-sic-high": dict(cfg=("4:1:4", "virtual"), detectors=("sic",), batches=HIGH_SNR),
    "2:1:4-ml+sic": dict(cfg=("2:1:4", "virtual"), detectors=("ml", "sic"),
                         batches=BATCHES + HIGH_SNR),
    "4:1:2-ml+sic": dict(cfg=("4:1:2", "virtual"), detectors=("ml", "sic"),
                         batches=BATCHES + HIGH_SNR),
}


def is_subsequence(y, z) -> bool:
    """Whether ``y`` is ``z`` at some rows, kept in order."""
    rest = iter(z.tolist())
    return all(any(v == w for w in rest) for v in y.tolist())


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batch_counts_equal_per_block_oracle(case, monkeypatch):
    kw = dict(BATCH_CASES[case])
    cfg_name, mode = kw.pop("cfg")
    noiseless = kw.pop("noiseless", False)
    batches = kw.pop("batches", BATCHES)
    if noiseless:
        silence_noise(monkeypatch)
    cfg = SystemConfig(**CONFIGS[cfg_name], index_user_mode=mode)
    # each detector decides the oracle's z, at unit gain, at every receiver,
    # at the rows it does not skip: noiseless counts are 0 or SIC's floor
    # whatever the fade is, so they alone cannot show it
    decided, decide = [], harness._decide

    def recorded(ctx, detector, y, h, rx):
        decided.append((detector, rx, y, h))
        return decide(ctx, detector, y, h, rx)

    monkeypatch.setattr(harness, "_decide", recorded)
    monkeypatch.setattr(oracles, "_decide", recorded)
    for n_subcarriers, snr_db, first_block in batches:
        spec = ExperimentSpec(cfg=cfg, n_subcarriers=n_subcarriers, master_seed=7, **kw)
        ctx = _PointContext(spec)
        decided.clear()  # the noiseless decisions of the context's tables
        want = run_block_oracle(ctx, snr_db, first_block, noiseless)
        assert list(want) == list(spec.detectors)
        oracle_decided = decided[:]
        decided.clear()
        assert _run_batch(ctx, snr_db, first_block, every_receiver(ctx)) == want
        assert len(decided) == len(oracle_decided)
        for (*ours, y, h), (*theirs, y_o, h_o) in zip(decided, oracle_decided):
            assert ours == theirs and np.array_equal(h, h_o) and is_subsequence(y, y_o)
        decided.clear()
        if not noiseless:
            assert all(sum(errors.values()) > 0 for errors in want.values())


PREFIX_CASES = {
    "2:1:2-virtual": dict(cfg=("2:1:2", "virtual"), detectors=("ml", "sic")),
    # user 2 and index share receiver 2
    "2:1:2-near": dict(cfg=("2:1:2", "near"), detectors=("sic", "ml")),
    "2:1:2-pdnoma": dict(cfg=("2:1:2", "virtual"), detectors=("ml",), scheme="pdnoma"),
    "3:2:2-near": dict(cfg=("3:2:2", "near"), detectors=("ml", "sic")),
    "4:1:4": dict(cfg=("4:1:4", "virtual"), detectors=("ml",)),
    # high SNR, where almost every row skips detection
    "2:1:2-high": dict(cfg=("2:1:2", "virtual"), detectors=("ml", "sic"), grid=(30.0, 40.0)),
    "2:1:4": dict(cfg=("2:1:4", "virtual"), detectors=("ml", "sic"), grid=(15.0, 30.0, 40.0)),
    "4:1:2": dict(cfg=("4:1:2", "virtual"), detectors=("ml", "sic"), grid=(15.0, 30.0, 40.0)),
}


@pytest.mark.parametrize("case", PREFIX_CASES)
def test_run_point_equals_the_prefix_oracle(case):
    # each channel's row is the every-receiver run cut at its own stop batch
    kw = dict(PREFIX_CASES[case])
    cfg_name, mode = kw.pop("cfg")
    cfg = SystemConfig(**CONFIGS[cfg_name], index_user_mode=mode)
    spec = ExperimentSpec(cfg=cfg, snr_grid_db=kw.pop("grid", (5.0, 15.0, 25.0)),
                          n_subcarriers=32, max_bits=12_000, min_bit_errors=60,
                          master_seed=13, **kw)
    bits = {name: len(pos) for name, pos, _ in _PointContext(spec).channels}
    split = False
    for snr_db in spec.snr_grid_db:
        want = run_prefix_oracle(spec, snr_db)
        assert [(r.detector, r.user, r.bits_sent, r.bit_errors)
                for r in run_point(spec, snr_db)] == want
        split |= len({n // bits[user] for _, user, n, _ in want}) > 1
    assert split  # at some point some channels stop before others


@pytest.mark.parametrize("cfg_name, mode", [("2:1:2", "virtual"), ("2:1:2", "near"),
                                            ("3:2:2", "near"), ("4:1:4", "virtual")])
def test_run_batch_counts_a_live_channel_as_with_every_receiver_live(cfg_name, mode,
                                                                     monkeypatch):
    # the draw stops after the last live receiver's noise, and the rows it
    # holds are those of the full draw
    cfg = SystemConfig(**GOLDEN_CONFIGS[cfg_name], index_user_mode=mode)
    spec = ExperimentSpec(cfg=cfg, detectors=("ml", "sic"), n_subcarriers=37, master_seed=7)
    ctx = _PointContext(spec)
    every = _run_batch(ctx, 10.0, 32, every_receiver(ctx))
    decided = []
    decide = harness._decide

    def recorded(ctx, detector, y, h, rx):
        decided.append((detector, rx))
        return decide(ctx, detector, y, h, rx)

    monkeypatch.setattr(harness, "_decide", recorded)
    R = ctx.n_receivers
    for live in ({"ml": {1}, "sic": {R}}, {"ml": {R}}, {"sic": {1, R}, "ml": {2}},
                 {"sic": {1}}, {"ml": {2}, "sic": {2}}):
        decided.clear()
        assert _run_batch(ctx, 10.0, 32, live) == {
            d: {name: every[d][name] for name, _, rx in ctx.channels if rx in receivers}
            for d, receivers in live.items()}
        assert sorted(decided) == sorted((d, rx) for d, rxs in live.items() for rx in rxs)


@pytest.mark.parametrize("cfg_name", ["2:1:2", "4:1:4"])
def test_run_batch_draws_the_row_blocks_up_to_the_last_live_receiver(cfg_name):
    # 3n floats per receiver, t and the noise: a batch that decides receiver 1
    # alone draws 3n floats
    cfg = SystemConfig(**GOLDEN_CONFIGS[cfg_name])
    spec = ExperimentSpec(cfg=cfg, detectors=("ml", "sic"), n_subcarriers=37, master_seed=7)
    ctx = _PointContext(spec)
    R, n = ctx.n_receivers, harness.BATCH_BLOCKS * spec.n_subcarriers
    assert ctx.draw.nbytes == 24 * R * n  # the draw term of batch_bytes
    for live, last in (({"ml": {1}}, 1), ({"sic": {2}}, 2), ({"ml": {R}}, R)):
        ctx.draw.fill(np.nan)
        _run_batch(ctx, 10.0, 32, live)
        drawn = ctx.draw.reshape(-1)
        assert not np.isnan(drawn[:3 * n * last]).any(), live
        assert np.isnan(drawn[3 * n * last:]).all(), live


def test_the_z_draw_has_the_law_of_the_equalised_channel():
    # y/h - x = n/h over h ~ CN(0, 1) and n ~ CN(0, sigma^2) is circularly
    # symmetric with P(|n/h|^2 <= v) = v / (v + sigma^2): so are the z - x
    # that the harness builds from a batch's draw, on every row, and the
    # channel layer's y/h - x
    spec = small_spec(n_subcarriers=4096)
    ctx = _PointContext(spec)
    n, sigma2 = harness.BATCH_BLOCKS * spec.n_subcarriers, harness.noise_variance(10.0)

    def batch_stream():
        return np.random.default_rng(np.random.SeedSequence(
            entropy=spec.master_seed, spawn_key=(harness._seed_key(10.0), 0)))

    rng = batch_stream()
    x = ctx.alphabet.x[rng.integers(0, len(ctx.alphabet.x), size=n)]  # the batch's first draw
    t, noise = rng.standard_exponential(n), rng.standard_normal((n, 2))  # receiver 1's row
    z = harness._equalise(t, noise, np.sqrt(sigma2 / 2), x)
    # the batch draws that row: receiver 1 builds z in place when a detector
    # without skip tables decides there
    ctx.safe.clear()
    _run_batch(ctx, 10.0, 0, {"ml": {1}})
    assert np.array_equal(ctx.draw[0, n:].view(complex), z)
    rng = batch_stream()
    rng.integers(0, len(ctx.alphabet.x), size=n)
    ch = draw_channel(1, n, 10.0, rng=rng)
    equalised = apply_channel(x, ch, 1, rng) / ch.h[0]
    for w in (z - x, equalised - x):
        assert kstest(np.abs(w) ** 2, lambda v: v / (v + sigma2)).pvalue > 1e-3
        assert kstest(np.angle(w), "uniform", args=(-np.pi, 2 * np.pi)).pvalue > 1e-3


RADIUS_CASES = {
    "2:1:2": ("2:1:2", "virtual"),
    "2:1:4-pi/2": ("2:1:4", "virtual"),  # coincident points
    "3:2:2-near": ("3:2:2", "near"),
    "4:1:4-pi/4": ("4:1:4", "virtual"),  # SIC has floors; ML over A = 1024 has no tables
}


@pytest.mark.parametrize("case", RADIUS_CASES)
def test_safe_radii_keep_the_noiseless_decision(case):
    # Every u within an entry's safe radius of it decides the channel bits of
    # its noiseless decision D0, checked on a circle just inside the radius.
    # For ML, just past the radius toward the nearest entry with other bits,
    # that entry is nearer than x_e and ML leaves x_e's point: the radius is
    # that half distance, less only the slack.
    cfg_name, mode = RADIUS_CASES[case]
    cfg = SystemConfig(**CONFIGS[cfg_name], index_user_mode=mode)
    ctx = _PointContext(ExperimentSpec(cfg=cfg, detectors=("ml", "sic")))
    x = ctx.alphabet.x
    entries = np.arange(len(x))
    circle = np.exp(2j * np.pi * np.arange(64) / 64)

    def decide(detector, u, rx):
        return (ml_block(u, 1.0, ctx.alphabet) if detector == "ml"
                else sic_block(u, 1.0, cfg, rx))[0]

    assert {d for d, _ in ctx.safe} == ({"sic"} if len(x) > SCAN_MAX else {"ml", "sic"})
    for (detector, rx), (rho2, floors) in ctx.safe.items():
        owned = sum(ctx.weights[name] for name, _, owner in ctx.channels if owner == rx)
        noiseless = decide(detector, x, rx)
        for name, table in floors.items():
            assert np.array_equal(table, ctx.weights[name][noiseless ^ entries])
        rho = np.sqrt(rho2)
        safe = np.flatnonzero(rho > 0)
        u = (x[safe, None] + (rho[safe] * (1 - 1e-9))[:, None] * circle).reshape(-1)
        wrong = owned[decide(detector, u, rx) ^ np.repeat(noiseless[safe], 64)]
        assert not wrong.any(), (detector, rx)
        if detector == "ml":
            rival = owned[entries[:, None] ^ entries] > 0
            dist = np.where(rival, np.abs(x[:, None] - x), np.inf)[safe]
            toward = x[np.argmin(dist, axis=1)] - x[safe]
            u = x[safe] + rho[safe] * (1 + 1e-6) * toward / np.abs(toward)
            assert (x[decide(detector, u, rx)] != x[safe]).all(), rx
    shares = {key: np.mean(rho2 > 0) for key, (rho2, _) in ctx.safe.items()}
    if case == "2:1:4-pi/2":  # every entry has a coincident one with other index bits
        assert shares["ml", 3] == shares["sic", 3] == 0
    else:
        assert min(shares.values()) > 0.5, shares
    if case in ("2:1:2", "4:1:4-pi/4"):  # SIC decides 2:1:2 noiselessly right
        assert any(floors for _, floors in ctx.safe.values()) == (case == "4:1:4-pi/4")


class _ZeroFades:
    """A generator that returns fading power t = 0 on every 5th subcarrier."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_exponential(self, *, out):
        self._rng.standard_exponential(out=out)
        out[::5] = 0.0
        return out


@pytest.mark.parametrize("cfg_name, mode", [("2:1:2", "virtual"), ("4:1:4", "virtual"),
                                            ("3:2:2", "near")])
def test_a_zero_fade_decides_entry_0(cfg_name, mode, monkeypatch):
    # standard_exponential can return t = |h|^2 = 0, where z = y/h is infinite
    # or NaN: ML and SIC at every receiver decide entry 0 there, as at h = 0,
    # where every hypothesis ties, and raise no floating-point warning
    cfg = SystemConfig(**GOLDEN_CONFIGS[cfg_name], index_user_mode=mode)
    spec = ExperimentSpec(cfg=cfg, detectors=("ml", "sic"), n_subcarriers=37, master_seed=7)
    ctx = _PointContext(spec)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroFades(default_rng(seed)))
    decided, decide = [], harness._decide

    def recorded(ctx, detector, z, h, rx):
        entries = decide(ctx, detector, z, h, rx)
        decided.append((detector, rx, z.copy(), entries))
        return entries

    monkeypatch.setattr(harness, "_decide", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run_batch(ctx, 10.0, 0, every_receiver(ctx))
    assert len(decided) == 2 * ctx.n_receivers
    n = harness.BATCH_BLOCKS * spec.n_subcarriers
    for detector, rx, z, entries in decided:
        # no row with t = 0 skips detection
        faded = ~np.isfinite(z)
        assert faded.sum() == len(range(0, n, 5)), (detector, rx)
        assert not entries[faded].any(), (detector, rx)
        zero_gain = decide(ctx, detector, np.ones(8, dtype=complex), np.zeros(8), rx)
        assert not zero_gain.any(), (detector, rx)
        assert entries[~faded].any()


def test_tracked_channels_by_scheme():
    recs = run_point(small_spec(), 10.0)
    assert [r.user for r in recs] == ["1", "2", "index"]
    recs = run_point(small_spec(scheme="pdnoma"), 10.0)
    assert [r.user for r in recs] == ["1", "2"]
    recs = run_point(small_spec(scheme="ofdm"), 10.0)
    assert [r.user for r in recs] == ["1"]


def test_near_mode_tracks_index_through_near_user():
    cfg = SystemConfig(**TWO_USER, index_user_mode="near")
    for detector in ("ml", "sic"):
        recs = run_point(small_spec(cfg=cfg, detectors=(detector,)), 10.0)
        assert [r.user for r in recs] == ["1", "2", "index"]


def test_ber_bookkeeping_consistency():
    for rec in run_point(small_spec(), 10.0):
        assert rec.bits_sent > 0
        assert rec.ber == rec.bit_errors / rec.bits_sent


def test_sweep_monotone_within_confidence():
    spec = small_spec(snr_grid_db=(0.0, 10.0, 20.0), min_bit_errors=400,
                      max_bits=200_000)
    records, _ = run_sweep(spec)
    by_user = {}
    for r in records:
        by_user.setdefault(r.user, []).append(r)
    for recs in by_user.values():
        recs.sort(key=lambda r: r.snr_db)
        for lo, hi in zip(recs, recs[1:]):
            se = 3 * np.sqrt(lo.ber * (1 - lo.ber) / lo.bits_sent
                             + hi.ber * (1 - hi.ber) / hi.bits_sent)
            assert hi.ber <= lo.ber + se


@pytest.mark.parametrize("scheme", ["imnomarc", "pdnoma"])
def test_far_user_ber_matches_the_exact_oracle(scheme):
    # default 2:1:2 BPSK at 0.9/0.1: ML and SIC both decide the far bit by the
    # sign of Re(y/h), whose BER has a closed form over Rayleigh fading
    spec = ExperimentSpec(scheme=scheme, detectors=("ml", "sic"), snr_grid_db=(0.0, 10.0),
                          min_bit_errors=20_000, master_seed=5)
    records, _ = run_sweep(spec)
    far = [r for r in records if r.user == "1"]
    assert len(far) == 4
    for r in far:
        exact = exact_far_ber_2u_bpsk(r.snr_db, scheme)
        z = (r.ber - exact) / np.sqrt(exact * (1 - exact) / r.bits_sent)
        assert abs(z) <= 3, (r.detector, r.snr_db, z)


def test_near_user_and_index_ber_match_the_exact_oracle():
    # default 2:1:2 BPSK at 0.9/0.1: each channel stops at its own batch, so
    # these rows rest on about min_bit_errors errors each
    for scheme in ("imnomarc", "pdnoma"):
        spec = ExperimentSpec(scheme=scheme, detectors=("ml", "sic"),
                              snr_grid_db=(0.0, 10.0, 20.0, 30.0), max_bits=100_000,
                              master_seed=5)
        records, _ = run_sweep(spec)
        rows = [r for r in records if r.user != "1"]
        assert len(rows) == (16 if scheme == "imnomarc" else 8)
        for r in rows:
            exact = exact_ber_2u_bpsk(r.snr_db, scheme, r.user)
            z = (r.ber - exact) / np.sqrt(exact * (1 - exact) / r.bits_sent)
            assert abs(z) <= 3, (scheme, r.detector, r.user, r.snr_db, z)
        for snr_db in spec.snr_grid_db:  # the quadrature reproduces the closed form
            assert exact_ber_2u_bpsk(snr_db, scheme, "1") == pytest.approx(
                exact_far_ber_2u_bpsk(snr_db, scheme), rel=1e-7, abs=0)


def test_ml_and_sic_decide_alike_on_the_default_config(monkeypatch):
    # the 8-point 2:1:2 BPSK alphabet is symmetric under Re -> -Re, so ML's
    # far decision is the sign of Re(y/h), SIC's first stage, and so on down:
    # on every z either detector decides, both decide the receiver's bits alike
    spec = ExperimentSpec(cfg=SystemConfig(**TWO_USER), detectors=("ml", "sic"),
                          snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                          master_seed=11)
    ctx = _PointContext(spec)
    decide = harness._decide

    def recorded(ctx, detector, y, h, rx):
        ml, sic = (decide(ctx, d, y, h, rx) for d in ("ml", "sic"))
        for name, _, owner in ctx.channels:
            if owner == rx:
                assert not ctx.weights[name][ml ^ sic].any(), (name, rx)
        return ml if detector == "ml" else sic

    monkeypatch.setattr(harness, "_decide", recorded)
    for snr_db in spec.snr_grid_db:
        errors = _run_batch(ctx, snr_db, 0, every_receiver(ctx))
        assert errors["ml"] == errors["sic"]
        if snr_db == 0:
            assert all(errors["ml"].values())


def test_batches_do_not_fault_their_draw_back_in(tmp_path):
    # A batch's (R, 3n) draw, were it allocated and freed every batch, would be
    # faulted back in from the kernel by the next one: the (4R, n) Gaussian
    # draw it replaced took ~100 minor faults a batch through the CLI, once no
    # import had raised glibc's mmap threshold by accident. A fresh
    # interpreter keeps this process's imports out of the count.
    code = """if True:
        import contextlib, io, resource, statistics, sys
        from imnomarc import harness
        from imnomarc.cli import main
        faults, run_batch = [], harness._run_batch

        def counted(*args):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            out = run_batch(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return out

        harness._run_batch = counted
        with contextlib.redirect_stdout(io.StringIO()):
            main(["ber", "--config", sys.argv[1], "--out", sys.argv[2], "--snr", "20"])
        print(len(faults), statistics.median(faults[1:]))
    """
    ini = tmp_path / "ml+sic.ini"
    ini.write_text("[sweep]\ndetectors = ml, sic\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, str(ini), str(tmp_path / "out")],
                         capture_output=True, text=True, check=True, env=env)
    batches, median_faults = out.stdout.split()
    assert int(batches) > 10 and float(median_faults) <= 10


def test_empty_grid_gives_empty_results_and_valid_manifest():
    spec = small_spec(snr_grid_db=())
    records, manifest = run_sweep(spec)
    assert records == []
    assert manifest["master_seed"] == 3
    assert manifest["points"] == {}
    assert platform.python_version().startswith(manifest["python"])
    assert manifest["numpy"] == np.__version__


def test_manifest_times_every_point():
    _, manifest = run_sweep(small_spec(snr_grid_db=(5.0, 10.0)))
    assert list(manifest["points"]) == ["5", "10"]
    assert all(point["seconds"] > 0 for point in manifest["points"].values())


def test_manifest_reports_blocks_run_and_stop_reasons():
    # At 30 dB user 1 makes fewer than 20 errors in 10^4 bits, users 2 and
    # index reach 20 before
    spec = small_spec(snr_grid_db=(5.0, 30.0), max_bits=10_000, min_bit_errors=20,
                      n_subcarriers=64, detectors=("ml", "sic"))
    records, manifest = run_sweep(spec)
    point = manifest["points"]["30"]
    assert set(point) == {"seconds", "blocks_run", "stop_reason", "ber_interval",
                          "decided_share"}
    for detector in ("ml", "sic"):
        assert point["stop_reason"][detector] == {
            "1": "max_bits", "2": "min_errors", "index": "min_errors"}
        assert manifest["points"]["5"]["stop_reason"][detector] == dict.fromkeys(
            ("1", "2", "index"), "min_errors")
    for detector in ("ml", "sic"):  # users 2 and index stop before user 1
        blocks = point["blocks_run"][detector]
        assert blocks["2"] < blocks["1"] and blocks["index"] < blocks["1"]
    for r in records:
        blocks = manifest["points"][f"{r.snr_db:g}"]["blocks_run"][r.detector][r.user]
        assert r.bits_sent == blocks * 64  # one BPSK bit per subcarrier and channel
        reason = manifest["points"][f"{r.snr_db:g}"]["stop_reason"][r.detector][r.user]
        assert (r.bit_errors >= 20) == (reason == "min_errors")
        if reason == "max_bits":
            assert r.bits_sent >= 10_000


def test_manifest_records_the_share_of_rows_each_detector_decided(tmp_path):
    # ML over A = 1024 has no skip tables and decides every row it draws
    cfg = SystemConfig(**GOLDEN_CONFIGS["4:1:4"])
    spec = ExperimentSpec(cfg=cfg, detectors=("ml", "sic"), snr_grid_db=(30.0,),
                          n_subcarriers=32, max_bits=4000, min_bit_errors=60, master_seed=13)
    share = run_sweep(spec)[1]["points"]["30"]["decided_share"]
    assert share["ml"] == 1.0 and 0 < share["sic"] < 1
    # on the default config at 30 dB almost every row skips detection, and
    # results.csv is byte for byte that of the every-row oracle
    spec = ExperimentSpec(detectors=("ml", "sic"), snr_grid_db=(30.0,), max_bits=100_000,
                          master_seed=13)
    records, manifest = run_sweep(spec)
    share = manifest["points"]["30"]["decided_share"]
    assert 0 < share["ml"] < 0.05 and 0 < share["sic"] < 0.05
    harness.write_csv(records, tmp_path / "results.csv")
    harness.write_csv([BerRecord(spec.scheme, d, user, 30.0, n, e, e / n)
                       for d, user, n, e in run_prefix_oracle(spec, 30.0)], tmp_path / "oracle.csv")
    assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_manifest_bounds_every_ber_with_its_wilson_interval():
    # 40 dB leaves user 1 without an error in its 2048 bits
    spec = small_spec(snr_grid_db=(0.0, 40.0), max_bits=2000, min_bit_errors=50,
                      detectors=("ml", "sic"))
    records, manifest = run_sweep(spec)
    z = statistics.NormalDist().inv_cdf(0.975)
    assert any(r.bit_errors == 0 for r in records)
    for r in records:
        lo, hi = manifest["points"][f"{r.snr_db:g}"]["ber_interval"][r.detector][r.user]
        assert 0 <= lo <= r.ber <= hi <= 1
        n, p = r.bits_sent, r.bit_errors / r.bits_sent
        # the score interval as Brown, Cai and DasGupta write it
        center = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        assert np.allclose([lo, hi], [center - half, center + half], rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("errors, trials", [(0, 1), (1, 1), (0, 10 ** 7), (10 ** 7, 10 ** 7),
                                            (1, 10 ** 7), (3, 7), (10 ** 7 - 1, 10 ** 7)])
def test_wilson_interval_holds_its_rate_inside_the_unit_interval(errors, trials):
    lo, hi = harness._wilson_interval(errors, trials)
    assert 0 <= lo <= errors / trials <= hi <= 1
    assert lo < hi


def test_shared_pass_equals_separate_sweeps():
    # 3:2:2 near mode, where ML and SIC stop at different blocks
    cfg = SystemConfig(**GOLDEN_CONFIGS["3:2:2"], index_user_mode="near")
    for scheme in ("imnomarc", "pdnoma"):
        spec = ExperimentSpec(scheme=scheme, cfg=cfg, detectors=("ml", "sic"), master_seed=3)
        shared, manifest = run_sweep(spec)
        separate = [r for detector in spec.detectors
                    for r in run_sweep(replace(spec, detectors=(detector,)))[0]]
        assert shared == separate
        blocks = [point["blocks_run"] for point in manifest["points"].values()]
        assert any(b["ml"][user] != b["sic"][user] for b in blocks for user in b["ml"])


def test_spec_refuses_a_batch_over_the_memory_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_PointContext", refuse)
    # one batch's (R, 48 L) draw alone would be 1073 GiB
    with pytest.raises(ValueError, match="budget"):
        ExperimentSpec(n_subcarriers=10 ** 9)
    # (scheme, index_user_mode, receivers, widest scan): 2:1:2 scans A = 8
    # entries, its PD-NOMA 4 and 8-QAM OFDM 8 points. The receivers are those
    # of the scheme's channel table: PD-NOMA and near mode have no virtual one.
    for scheme, mode, receivers, width in (("imnomarc", "virtual", 3, 8),
                                           ("imnomarc", "near", 2, 8),
                                           ("pdnoma", "virtual", 2, 4),
                                           ("ofdm", "virtual", 1, 8)):
        cfg = SystemConfig(**TWO_USER, index_user_mode=mode)
        largest = BATCH_BUDGET // harness.batch_bytes(1, receivers, width)
        ExperimentSpec(scheme=scheme, cfg=cfg, n_subcarriers=largest)
        need = harness.batch_bytes(largest + 1, receivers, width)
        with pytest.raises(ValueError, match=f"need {need} bytes per batch, over the budget"):
            ExperimentSpec(scheme=scheme, cfg=cfg, n_subcarriers=largest + 1)
    # L = 128 passes with room to spare, also at A = 1024
    assert harness.batch_bytes(128, 5, SCAN_MAX) < BATCH_BUDGET // 100
    ExperimentSpec(cfg=SystemConfig(**GOLDEN_CONFIGS["4:1:4"]), detectors=("ml", "sic"))


@pytest.mark.parametrize("cfg_name, detectors, snr_db", [
    ("2:1:2", ("ml", "sic"), 0.0), ("2:1:2", ("ml", "sic"), 30.0),
    ("3:2:2", ("ml",), 0.0),  # the (n, 16) scan of most rows: nearest the bound
    ("4:1:4", ("ml", "sic"), 30.0)])
def test_a_batch_holds_at_most_batch_bytes(cfg_name, detectors, snr_db):
    # batch_bytes bounds what a batch allocates beside its draw, at a low SNR
    # where most rows are decided and at a high one where most skip
    cfg = SystemConfig(**GOLDEN_CONFIGS[cfg_name])
    spec = ExperimentSpec(cfg=cfg, detectors=detectors, n_subcarriers=1024)
    ctx = _PointContext(spec)
    width = min(len(ctx.alphabet.x), SCAN_MAX)
    if "sic" in detectors:
        width = max(width, 2 * cfg.mod_order)
    _run_batch(ctx, snr_db, 0, every_receiver(ctx))  # the detectors' first-use tables
    tracemalloc.start()
    try:
        _run_batch(ctx, snr_db, 0, every_receiver(ctx))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= harness.batch_bytes(1024, ctx.n_receivers, width) - ctx.draw.nbytes


@pytest.mark.parametrize("order, family", [(2, "PSK"), (4, "PSK"), (8, "QAM"), (16, "QAM")])
def test_ofdm_is_the_one_user_system(order, family):
    # the ofdm scheme transmits the one-user system: same rows at one seed,
    # and SIC's one stage decides as ML does
    one_user = SystemConfig(n_users=1, n_far=1, mod_order=order, family=family,
                            power_coeffs=(1.0,))
    grid = dict(snr_grid_db=(0.0, 10.0, 20.0), max_bits=20_000, min_bit_errors=50,
                master_seed=5, n_subcarriers=16)
    ofdm, _ = run_sweep(ExperimentSpec(scheme="ofdm", ofdm_order=order, ofdm_family=family,
                                       **grid))
    system, _ = run_sweep(ExperimentSpec(cfg=one_user, detectors=("ml", "sic"), **grid))
    assert [r.user for r in system] == ["1"] * 6
    assert [replace(r, scheme="imnomarc") for r in ofdm] == system[:3]
    assert [replace(r, detector="ml") for r in system[3:]] == system[:3]


def test_sweep_builds_its_alphabet_once(monkeypatch):
    builds = []

    def counted(cfg):
        builds.append(cfg)
        return build_super_alphabet(cfg)

    monkeypatch.setattr(harness, "build_super_alphabet", counted)
    records, _ = run_sweep(small_spec(snr_grid_db=(0.0, 5.0, 10.0)))
    assert len(builds) == 1
    assert sorted({r.snr_db for r in records}) == [0.0, 5.0, 10.0]


def test_manifest_records_the_system_the_scheme_transmits():
    # the spec echoes the [system] config; "system" is what the scheme sends
    for scheme, system, bits in (
            ("imnomarc", SystemConfig(), 3),
            ("pdnoma", SystemConfig(im_enabled=False), 2),
            ("ofdm", SystemConfig(n_users=1, n_far=1, mod_order=8, family="QAM",
                                  power_coeffs=(1.0,)), 3)):
        _, manifest = run_sweep(small_spec(scheme=scheme, snr_grid_db=()))
        assert manifest["system"] == asdict(system)
        assert manifest["bits_per_subcarrier"] == bits
        assert manifest["spec"]["cfg"] == asdict(SystemConfig())
        assert manifest["system"]["im_enabled"] == (scheme != "pdnoma")


def test_manifest_echo_roundtrips():
    spec = small_spec(snr_grid_db=(5.0, 10.0), detectors=("sic", "ml"))
    _, manifest = run_sweep(small_spec(snr_grid_db=()))
    assert spec_from_dict(asdict(spec)) == spec
    assert spec_from_dict(manifest["spec"]) == small_spec(snr_grid_db=())


def test_persist_roundtrip(tmp_path):
    spec = small_spec(snr_grid_db=(10.0,))
    records, manifest = run_sweep(spec)
    csv_path, manifest_path = persist(records, manifest, tmp_path)
    text = csv_path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    loaded = load_results(csv_path)
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert (orig.scheme, orig.detector, orig.user) == (back.scheme, back.detector, back.user)
        assert (orig.bits_sent, orig.bit_errors) == (back.bits_sent, back.bit_errors)
        assert np.isclose(orig.ber, back.ber, rtol=1e-5)
    stored = json.loads(manifest_path.read_text())
    assert stored["master_seed"] == spec.master_seed


def test_csv_ber_format_is_scientific(tmp_path):
    rec = BerRecord("imnomarc", "ml", "1", 10.0, 1000, 3, 0.003)
    csv_path, _ = persist([rec], {"spec": {}}, tmp_path)
    line = csv_path.read_text().splitlines()[1]
    assert line == "imnomarc,ml,1,10,1000,3,3.00000e-03"


def test_relative_standard_error_bookkeeping():
    # with >= 100 errors the relative standard error of the estimate is <= 10%
    recs = run_point(small_spec(min_bit_errors=100, max_bits=1_000_000), 10.0)
    for r in recs:
        if r.bit_errors >= 100:
            rse = np.sqrt((1 - r.ber) / r.bit_errors)
            assert rse <= 0.10


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(scheme="bogus")
    with pytest.raises(ValueError):
        ExperimentSpec(detectors=("zf",))
    for detectors in ((), ("ml", "ml")):
        with pytest.raises(ValueError, match="distinct"):
            ExperimentSpec(detectors=detectors)
    with pytest.raises(ValueError):
        ExperimentSpec(snr_grid_db=(10.0, 5.0))
    with pytest.raises(ValueError):
        ExperimentSpec(max_bits=100, min_bit_errors=200)
    with pytest.raises(ValueError, match="master_seed"):
        ExperimentSpec(master_seed=-1)
    with pytest.raises(ValueError, match="n_subcarriers"):
        ExperimentSpec(n_subcarriers=0)
    for min_bit_errors in (0, -1):
        with pytest.raises(ValueError, match="min_bit_errors"):
            ExperimentSpec(min_bit_errors=min_bit_errors)
    with pytest.raises(ValueError, match="unsupported order 3"):
        ExperimentSpec(scheme="ofdm", ofdm_order=3)
    ExperimentSpec(scheme="ofdm", detectors=("ml", "sic"))  # the one-user system runs SIC
    ExperimentSpec(scheme="imnomarc", ofdm_order=3)  # read by the OFDM scheme only


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=cwd, check=True, capture_output=True, timeout=30)


def test_version_string_names_only_the_checkout_holding_the_package(tmp_path):
    package = Path(harness.__file__).parent
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "commit", "-q", "--allow-empty", "-m", "other project")
    # an untracked copy the other project's checkout merely holds, as an
    # installed copy inside a virtualenv in that checkout
    copy = tmp_path / "venv" / "site-packages" / "imnomarc"
    shutil.copytree(package, copy)
    assert harness._version_string(copy) == __version__
    # the package as that checkout's src/imnomarc: git describes the checkout
    shutil.copytree(package, tmp_path / "src" / "imnomarc")
    _git(tmp_path, "add", "src")
    _git(tmp_path, "commit", "-q", "-m", "the package")
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=30).stdout.strip()
    version = harness._version_string(tmp_path / "src" / "imnomarc")
    assert version.startswith(f"{__version__}+{head}")


def test_version_string_survives_a_git_timeout(monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hang)
    assert harness._version_string() == __version__


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 3085.0, -3085.0])
def test_spec_rejects_non_finite_snr(bad):
    with pytest.raises(ValueError, match="finite"):
        ExperimentSpec(snr_grid_db=(0.0, bad))


def test_spec_refuses_alphabet_over_cap():
    cfg = SystemConfig(n_users=5, n_far=2, mod_order=16, family="QAM",
                       power_coeffs=(0.5, 0.25, 0.15, 0.07, 0.03))
    with pytest.raises(ValueError, match="alphabet size 4194304 exceeds"):
        ExperimentSpec(cfg=cfg)
    # PD-NOMA enumerates M^N = 2^20 entries, at the cap; OFDM none
    ExperimentSpec(scheme="pdnoma", cfg=cfg)
    ExperimentSpec(scheme="ofdm", cfg=cfg)


class _RngSites(ast.NodeVisitor):
    """Every use of numpy.random or of the random module, by enclosing scope."""

    def __init__(self):
        self.scope, self.sites = [], set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _hit(self):
        self.sites.add(".".join(self.scope))

    def visit_Attribute(self, node):
        if (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            self._hit()
        self.generic_visit(node)

    def visit_Import(self, node):
        if any(a.name == "random" or a.name.startswith("numpy.random") for a in node.names):
            self._hit()

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if (module == "random" or module.startswith("numpy.random")
                or module == "numpy" and any(a.name == "random" for a in node.names)):
            self._hit()


def rng_sites(source: str, module: str) -> set[str]:
    visitor = _RngSites()
    visitor.visit(ast.parse(source))
    return {".".join(filter(None, (module, scope))) for scope in visitor.sites}


def test_only_run_batch_draws_random_numbers():
    # Detection and the stop rule draw nothing, so a fixed seed reproduces
    # results.csv; every draw is in the one stream per batch.
    sites = set()
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        sites |= rng_sites(path.read_text(), path.stem)
    assert sites == {"harness._run_batch"}
    # the scan sees a draw however numpy.random or random is reached
    for source in ("def run_point():\n    rng = np.random.default_rng()",
                   "def ml_block():\n    numpy.random.seed(0)",
                   "def ml_block():\n    from numpy.random import default_rng",
                   "from numpy import random",
                   "import random"):
        assert rng_sites(source, "m"), source
