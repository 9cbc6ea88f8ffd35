import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from imnomarc.constellation import RotationSet
from imnomarc.detectors import (SCAN_MAX, angles_to_phi, detect_ml, detect_sic,
                                extract_user_bits, flops_ml, flops_sic,
                                ml_block, sic_block)
from imnomarc.harness import _OfdmAlphabet
from imnomarc.superposition import (SystemConfig, build_super_alphabet,
                                    spectral_efficiency)

TWO_USER = dict(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1))
FOUR_USER_QPSK = dict(n_users=4, n_far=1, mod_order=4,
                      power_coeffs=(0.75, 0.18, 0.05, 0.02))


def exhaustive_ml(y, h, alphabet):
    """Exhaustive scan of |y - h x|^2 over the whole alphabet, lowest index on ties."""
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    d = np.abs(y[:, None] - h[:, None] * alphabet.x[None, :]) ** 2
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(len(y)), idx]


def brute_force_scan(y, h, cfg):
    """Independent exhaustive hypothesis scan with inline superposition math."""
    points = cfg.constellation.points
    best = None
    hyp_index = 0
    for bits_int in range(2 ** spectral_efficiency(cfg)):
        # decode the packed bit-string exactly as the transmitter would
        p = spectral_efficiency(cfg)
        bits = [(bits_int >> (p - 1 - k)) & 1 for k in range(p)]
        b = cfg.bits_per_symbol
        s = []
        for n in range(cfg.n_users):
            chunk = tuple(bits[n * b:(n + 1) * b])
            s.append(points[cfg.constellation.labels[chunk]])
        phi = 0
        for bit in bits[cfg.n_symbol_bits:]:
            phi = phi * 2 + bit
        x = 0j
        for n in range(cfg.n_users):
            factor = 1j if (n + 1) > cfg.n_users - phi else 1.0
            x += np.sqrt(cfg.power_coeffs[n] * cfg.total_power) * factor * s[n]
        metric = abs(y - h * x) ** 2
        if best is None or metric < best[1]:
            best = (hyp_index, metric)
        hyp_index += 1
    return best[0]


def canonical_entry(alphabet, idx):
    """Lowest alphabet index transmitting the same physical symbol.

    Rotation can map a constellation onto itself (QPSK under pi/2), so
    distinct (symbols, pattern) entries may share one superimposed value;
    decisions are only defined up to that physical value.
    """
    return int(np.flatnonzero(np.abs(alphabet.x - alphabet.x[idx]) < 1e-9)[0])


def test_ml_noiseless_recovers_every_entry():
    cfg = SystemConfig(**TWO_USER)
    alphabet = build_super_alphabet(cfg)
    h = 0.3 - 0.7j
    for i in range(len(alphabet)):
        r = detect_ml(h * alphabet.x[i], h, alphabet)
        assert r.symbol_indices == tuple(alphabet.symbol_indices[i])
        assert r.phi_hat == alphabet.phis[i]
        assert r.metric < 1e-20


def test_ml_two_user_rotated_case():
    cfg = SystemConfig(**TWO_USER)
    alphabet = build_super_alphabet(cfg)
    y = np.sqrt(0.9) + 1j * np.sqrt(0.1)
    r = detect_ml(y, 1 + 0j, alphabet)
    assert r.symbols == (1 + 0j, 1 + 0j) and r.phi_hat == 1


@pytest.mark.parametrize("mod_order", [2, 4])
def test_ml_agrees_with_brute_force_oracle(mod_order):
    cfg = SystemConfig(n_users=2, n_far=1, mod_order=mod_order,
                       power_coeffs=(0.9, 0.1))
    alphabet = build_super_alphabet(cfg)
    rng = np.random.default_rng(42)
    n = 2000
    idx_tx = rng.integers(0, len(alphabet), n)
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.05)
    y = h * alphabet.x[idx_tx] + w
    decided, _ = ml_block(y, h, alphabet)
    for k in range(n):
        oracle = brute_force_scan(y[k], h[k], cfg)
        assert canonical_entry(alphabet, decided[k]) == canonical_entry(alphabet, oracle)


def _multiplicity(x):
    return int(np.unique(np.round(x, 9), return_counts=True)[1].max())


def _ml_edge_inputs(x, rng):
    """Rows that stress an ML kernel: noisy at several SNRs, noiseless, exact
    midpoints between an entry and its nearest distinct neighbour, h = 0,
    h = 1e-300 with y/h overflowing, and |h| = |y| = 1e-300, 1e-160 or 1e200,
    where y/h is moderate but the metrics underflow or overflow."""
    n = 256
    ys, hs = [], []

    def rayleigh(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)

    for snr_db in (-10, 0, 10, 20, 40, 80, None):
        h = rayleigh(n)
        y = h * x[rng.integers(0, len(x), n)]
        if snr_db is not None:
            y = y + rayleigh(n) * np.sqrt(10 ** (-snr_db / 10))
        ys.append(y)
        hs.append(h)
    i = rng.integers(0, len(x), n)
    gap = np.abs(x[i][:, None] - x[None, :])
    gap[gap < 1e-9] = np.inf
    j = np.argmin(gap, axis=1)
    h = rayleigh(n)
    ys += [h * (x[i] + x[j]) / 2, h * (x[i] + x[rng.integers(0, len(x), n)]) / 2]
    hs += [h, h]
    for h_abs, y_abs in ((0.0, 1.0), (1e-300, 1.0), (1e-300, 1e-300), (1e-160, 1e-160),
                         (1e200, 1e200)):
        ys.append(y_abs * (x[rng.integers(0, len(x), n)] + 0.1 * rayleigh(n)))
        hs.append(np.full(n, h_abs, dtype=complex))
    return np.concatenate(ys), np.concatenate(hs)


def _twice_128psk():
    """Every point of 128-PSK stored twice, bit-identical: exact metric ties
    that only the lowest-index rule settles."""
    return SimpleNamespace(x=np.tile(_OfdmAlphabet(128, "PSK", 1.0).x, 2))


# name -> (builder, largest number of entries sharing a point)
ML_ALPHABETS = {
    "4:1:4-qpsk-pi/4": (lambda: build_super_alphabet(SystemConfig(
        **FOUR_USER_QPSK, rotation=RotationSet((0.0, np.pi / 4)))), 1),
    "4:1:4-qpsk-pi/2": (lambda: build_super_alphabet(SystemConfig(**FOUR_USER_QPSK)), 4),
    "4:2:2-bpsk": (lambda: build_super_alphabet(SystemConfig(
        n_users=4, n_far=2, mod_order=2, power_coeffs=(0.5, 0.3, 0.15, 0.05))), 1),
    "ofdm-256psk": (lambda: _OfdmAlphabet(256, "PSK", 1.0), 1),
    "128psk-twice": (_twice_128psk, 2),
}


@pytest.mark.parametrize("name", ML_ALPHABETS)
def test_ml_block_matches_exhaustive_oracle_bit_for_bit(name):
    build, multiplicity = ML_ALPHABETS[name]
    alphabet = build()
    assert _multiplicity(alphabet.x) == multiplicity
    # one alphabet takes the scan, the others the tree search
    assert (len(alphabet.x) <= SCAN_MAX) == (name == "4:2:2-bpsk")
    y, h = _ml_edge_inputs(alphabet.x, np.random.default_rng(11))
    for rows in (slice(None), slice(0, 128), slice(-128, None)):
        with np.errstate(over="ignore"):  # the |h| = 1e200 rows
            idx, metric = ml_block(y[rows], h[rows], alphabet)
            ref_idx, ref_metric = exhaustive_ml(y[rows], h[rows], alphabet)
        assert idx.dtype == ref_idx.dtype and metric.dtype == ref_metric.dtype
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(metric.view(np.int64), ref_metric.view(np.int64))


def test_detect_ml_on_a_tree_searched_alphabet():
    cfg = SystemConfig(**FOUR_USER_QPSK, rotation=RotationSet((0.0, np.pi / 4)))
    alphabet = build_super_alphabet(cfg)
    h = 0.4 + 0.9j
    for i in (0, 517, len(alphabet) - 1):
        r = detect_ml(h * alphabet.x[i], h, alphabet)
        assert r.symbol_indices == tuple(alphabet.symbol_indices[i])
        assert r.phi_hat == alphabet.phis[i]


def test_ml_block_memory_does_not_scale_with_rows_times_alphabet():
    # 14:1:2 BPSK: A = 2^14 * 2^3; an L x A metric matrix would take
    # 128 * 131072 * 16 B = 256 MiB
    raw = 2.0 ** -np.arange(14)
    cfg = SystemConfig(n_users=14, n_far=1, mod_order=2,
                       power_coeffs=tuple(raw / raw.sum()))
    alphabet = build_super_alphabet(cfg)
    assert len(alphabet) >= 2 ** 16
    rng = np.random.default_rng(2)
    tx = rng.integers(0, len(alphabet), 128)
    h = (rng.standard_normal(128) + 1j * rng.standard_normal(128)) / np.sqrt(2)
    tracemalloc.start()
    try:
        idx, _ = ml_block(h * alphabet.x[tx], h, alphabet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert np.array_equal(idx, tx)


def test_sic_far_user_noiseless():
    cfg = SystemConfig(**TWO_USER)
    h = 1.0 + 0j
    y = h * (np.sqrt(0.9) * 1 + np.sqrt(0.1) * -1)
    r = detect_sic(y, h, cfg, 1)
    assert r.symbols == (1 + 0j,)
    assert r.theta_indices is None and r.phi_hat is None


def test_sic_near_user_noiseless_rotated():
    cfg = SystemConfig(**TWO_USER)
    h = 1.0 + 0j
    y = h * (np.sqrt(0.9) + 1j * np.sqrt(0.1))
    r = detect_sic(y, h, cfg, 2)
    assert r.symbol_indices == (0, 0)
    assert r.theta_indices == (1,)
    assert r.phi_hat == 1
    assert np.array_equal(extract_user_bits(r, cfg, 2), [0])


def test_sic_matches_ml_at_high_snr():
    cfg = SystemConfig(**TWO_USER)
    alphabet = build_super_alphabet(cfg)
    rng = np.random.default_rng(5)
    n = 20_000
    sigma2 = 10 ** (-40 / 10)
    idx_tx = rng.integers(0, len(alphabet), n)
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(sigma2 / 2)
    y = h * alphabet.x[idx_tx] + w
    ml_idx, _ = ml_block(y, h, alphabet)
    sym_idx, _, phi_hat, _ = sic_block(y, h, cfg, cfg.n_users + 1)
    agree = np.logical_and(
        np.all(sym_idx == alphabet.symbol_indices[ml_idx], axis=1),
        phi_hat == alphabet.phis[ml_idx])
    assert np.mean(agree) >= 0.999


def test_angles_to_phi_basic():
    alphas = (0.5, 0.3, 0.2)
    cfg = SystemConfig(n_users=3, n_far=1, mod_order=2, power_coeffs=alphas)
    assert cfg.n_index_bits == 1
    assert angles_to_phi([0.0, 0.0], cfg) == 0
    assert angles_to_phi([0.0, np.pi / 2], cfg) == 1
    # inconsistent non-suffix pattern: both valid patterns at distance 1,
    # tie breaks toward the smaller index
    assert angles_to_phi([np.pi / 2, 0.0], cfg) == 0


def test_angles_to_phi_exhaustive_projection():
    alphas = (0.4, 0.3, 0.2, 0.1)
    cfg = SystemConfig(n_users=4, n_far=1, mod_order=2, power_coeffs=alphas)
    assert cfg.n_index_bits == 2
    valid = {0: (0, 0, 0), 1: (0, 0, 1), 2: (0, 1, 1), 3: (1, 1, 1)}
    for flags in itertools.product((0, 1), repeat=3):
        got = angles_to_phi(flags, cfg)
        dists = {phi: sum(a != b for a, b in zip(flags, pat))
                 for phi, pat in valid.items()}
        best = min(dists.values())
        expected = min(phi for phi, d in dists.items() if d == best)
        assert got == expected


def test_extract_user_bits_from_ml():
    cfg = SystemConfig(**TWO_USER, index_user_mode="near")
    alphabet = build_super_alphabet(cfg)
    y = np.sqrt(0.9) * 1 + 1j * np.sqrt(0.1) * -1
    r = detect_ml(y, 1 + 0j, alphabet)
    assert np.array_equal(extract_user_bits(r, cfg, 1), [0])
    assert np.array_equal(extract_user_bits(r, cfg, 2), [1, 1])


def test_extract_virtual_user_bits():
    cfg = SystemConfig(**TWO_USER, index_user_mode="virtual")
    alphabet = build_super_alphabet(cfg)
    r = detect_ml(np.sqrt(0.9) + 1j * np.sqrt(0.1), 1 + 0j, alphabet)
    assert np.array_equal(extract_user_bits(r, cfg, 3), [1])


def test_extract_user_bits_errors():
    cfg = SystemConfig(**TWO_USER)
    r = detect_sic(np.sqrt(0.9) + 0j, 1 + 0j, cfg, 1)
    with pytest.raises(ValueError):
        extract_user_bits(r, cfg, 2)
    with pytest.raises(ValueError):
        extract_user_bits(r, cfg, 5)


def test_flops_worked_values():
    cfg = SystemConfig(**TWO_USER)
    assert flops_ml(cfg) == 24
    assert flops_sic(cfg, 1) == 6
    assert flops_sic(cfg, 2) == 23


def test_flops_formula_grid():
    for n in range(2, 6):
        for b in range(1, n):
            alphas = tuple(2.0 ** (n - k) for k in range(n))
            alphas = tuple(a / sum(alphas) for a in alphas)
            for m in (2, 4, 8):
                cfg = SystemConfig(n_users=n, n_far=b, mod_order=m,
                                   family="PSK" if m != 8 else "QAM",
                                   power_coeffs=alphas)
                c_im = 2 ** cfg.n_index_bits
                assert flops_ml(cfg) == 3 * m ** n * c_im
                for u in range(1, b + 1):
                    assert flops_sic(cfg, u) == 3 * m * u + u - 1
                for u in range(b + 1, n + 1):
                    assert flops_sic(cfg, u) == 3 * m * b + 4 * m * c_im * (u - b) + u - 1


def test_flops_sic_user_out_of_range():
    cfg = SystemConfig(**TWO_USER)
    with pytest.raises(ValueError):
        flops_sic(cfg, 3)


def test_sic_far_decisions_identical_with_im_disabled():
    # far-user stage-1 decision on shared realizations is bit-exact whether
    # or not index modulation is active on the near users
    cfg_im = SystemConfig(**TWO_USER)
    cfg_pd = SystemConfig(**TWO_USER, im_enabled=False)
    rng = np.random.default_rng(17)
    n = 5000
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    y = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    a_idx, _, _, _ = sic_block(y, h, cfg_im, 1)
    b_idx, _, _, _ = sic_block(y, h, cfg_pd, 1)
    assert np.array_equal(a_idx, b_idx)


def test_pdnoma_sic_searches_no_rotation():
    # Without index bits the transmitter never rotates, so the near stage
    # searches the base constellation: the rotated point j would be nearer.
    cfg = SystemConfig(**TWO_USER, im_enabled=False)
    y = np.array([np.sqrt(0.9) + np.sqrt(0.1) * (-0.2 + 0.9j)])
    sym_idx, theta_idx, phi_hat, _ = sic_block(y, np.ones(1, dtype=complex), cfg, 2)
    assert sym_idx.tolist() == [[0, 1]]
    assert theta_idx.tolist() == [[0]]
    assert phi_hat is None


def test_sic_rejects_bad_users():
    cfg = SystemConfig(**TWO_USER, index_user_mode="near")
    with pytest.raises(ValueError):
        detect_sic(0j, 1 + 0j, cfg, 0)
    with pytest.raises(ValueError):
        detect_sic(0j, 1 + 0j, cfg, 3)  # virtual user needs virtual mode
