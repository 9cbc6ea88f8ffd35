import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from imnomarc.detectors import (_WALK_MAX, SCAN_MAX, _CellTable, _scan, _SicStages, flops_ml,
                                flops_sic, ml_block, sic_block)
from imnomarc.harness import ExperimentSpec, _decide, _PointContext
from imnomarc.superposition import SystemConfig, build_super_alphabet, user_bit_positions

from oracles import (brute_force_cell_lists, brute_force_hypotheses, brute_force_scan,
                     canonical_entry, entry_index, exhaustive_ml, sic_scalar)

TWO_USER = dict(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1))
FOUR_USER_QPSK = dict(n_users=4, n_far=1, mod_order=4,
                      power_coeffs=(0.75, 0.18, 0.05, 0.02))


def one(value):
    """A single subcarrier as a 1-row block."""
    return np.array([value], dtype=complex)


def user_bits(cfg, detector, y, h, user):
    """Bits ``user`` owns in the decision of its receiver, for one subcarrier.

    A near user in "near" mode owns the index bits too; the virtual user N+1
    owns only the index bits.
    """
    ctx = _PointContext(ExperimentSpec(cfg=cfg, detectors=(detector,)))
    pos = [] if user == cfg.n_users + 1 else list(user_bit_positions(cfg, user))
    if user == cfg.n_users + 1 or (user > cfg.n_far and cfg.index_user_mode == "near"):
        pos += list(user_bit_positions(cfg, "index"))
    return ctx.alphabet.bits[_decide(ctx, detector, one(y), one(h), user)][0, pos]


@pytest.mark.parametrize("k", [1, 2, _WALK_MAX, _WALK_MAX + 1, 16])
@pytest.mark.parametrize("shape", ["shared", "per-row"])
def test_scan_takes_ties_and_nan_as_argmin(k, shape):
    # Both ways of scanning return np.argmin's choice, the first least metric
    # or the first NaN, and that metric, on rows of exact ties and of NaNs
    rng = np.random.default_rng(k)
    n = 400
    levels = np.array([0.0, 1.0, 2.0, np.nan])  # few values: many exact ties
    x = (levels[rng.integers(0, 4, (n, k))] + 1j * levels[rng.integers(0, 3, (n, k))])
    if shape == "shared":
        x = x[0].real + 0j
        x[k // 2] = np.nan  # the first NaN of every row
    y = levels[rng.integers(0, 3, n)] + 0j
    y[:10] = np.nan  # rows of NaNs only
    h = np.ones(n, dtype=complex)
    idx, metric = _scan(y, h, x)
    d = np.abs(y[:, None] - h[:, None] * x) ** 2
    want = np.argmin(d, axis=1)
    assert np.array_equal(idx, want)
    assert np.array_equal(metric, d[np.arange(n), want], equal_nan=True)


def test_ml_noiseless_recovers_every_entry():
    cfg = SystemConfig(**TWO_USER)
    alphabet = build_super_alphabet(cfg)
    h = 0.3 - 0.7j
    for i in range(len(alphabet)):
        idx, metric = ml_block(one(h * alphabet.x[i]), one(h), alphabet)
        assert idx[0] == i
        assert metric[0] < 1e-20


def test_ml_two_user_rotated_case():
    cfg = SystemConfig(**TWO_USER)
    alphabet = build_super_alphabet(cfg)
    y = np.sqrt(0.9) + 1j * np.sqrt(0.1)
    idx, _ = ml_block(one(y), one(1), alphabet)
    # both users send point 0 (1 + 0j) and the near user is rotated
    assert idx.tolist() == entry_index(cfg, np.array([[0, 0]]), np.array([1])).tolist()


@pytest.mark.parametrize("mod_order", [2, 4])
def test_ml_agrees_with_brute_force_oracle(mod_order):
    cfg = SystemConfig(n_users=2, n_far=1, mod_order=mod_order,
                       power_coeffs=(0.9, 0.1))
    alphabet = build_super_alphabet(cfg)
    hypotheses = brute_force_hypotheses(cfg)
    rng = np.random.default_rng(42)
    n = 2000
    idx_tx = rng.integers(0, len(alphabet), n)
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.05)
    y = h * alphabet.x[idx_tx] + w
    decided, _ = ml_block(y, h, alphabet)
    for k in range(n):
        oracle = brute_force_scan(y[k], h[k], hypotheses)
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


def _halving_powers(n_users):
    """n_users users, one far, at power proportional to 2^-k."""
    raw = 2.0 ** -np.arange(n_users)
    return dict(n_users=n_users, n_far=1, power_coeffs=tuple(raw / raw.sum()))


def _ofdm_alphabet(order, family):
    """The OFDM scheme's alphabet: the one-user system's super-alphabet."""
    return build_super_alphabet(ExperimentSpec(
        scheme="ofdm", ofdm_order=order, ofdm_family=family).scheme_cfg())


def _twice_128psk():
    """Every point of 128-PSK stored twice, bit-identical: exact metric ties
    that only the lowest-index rule settles."""
    return SimpleNamespace(x=np.tile(_ofdm_alphabet(128, "PSK").x, 2))


# name -> (builder, largest number of entries sharing a point)
ML_ALPHABETS = {
    "4:1:4-qpsk-pi/4": (lambda: build_super_alphabet(SystemConfig(
        **FOUR_USER_QPSK, rotation_angle=np.pi / 4)), 1),
    "4:1:4-qpsk-pi/2": (lambda: build_super_alphabet(SystemConfig(**FOUR_USER_QPSK)), 4),
    "4:2:2-bpsk": (lambda: build_super_alphabet(SystemConfig(
        n_users=4, n_far=2, mod_order=2, power_coeffs=(0.5, 0.3, 0.15, 0.05))), 1),
    "ofdm-256psk": (lambda: _ofdm_alphabet(256, "PSK"), 1),
    # at most _WALK_MAX points: walked one hypothesis at a time
    "2:1:2-bpsk": (lambda: build_super_alphabet(SystemConfig(**TWO_USER)), 1),
    "ofdm-8qam": (lambda: _ofdm_alphabet(8, "QAM"), 1),
    "128psk-twice": (_twice_128psk, 2),
    # PD-NOMA, every point on the real axis and on the hull
    "10:1:2-bpsk-collinear": (lambda: build_super_alphabet(SystemConfig(
        **_halving_powers(10), mod_order=2, im_enabled=False)), 1),
}


@pytest.mark.parametrize("name", ML_ALPHABETS)
def test_ml_block_matches_exhaustive_oracle_bit_for_bit(name):
    build, multiplicity = ML_ALPHABETS[name]
    alphabet = build()
    assert _multiplicity(alphabet.x) == multiplicity
    # three alphabets take the scan (two of them the walk), the others the
    # cell-table search
    assert (len(alphabet.x) <= SCAN_MAX) == (name in ("4:2:2-bpsk", "2:1:2-bpsk", "ofdm-8qam"))
    assert (len(alphabet.x) <= _WALK_MAX) == (name in ("2:1:2-bpsk", "ofdm-8qam"))
    y, h = _ml_edge_inputs(alphabet.x, np.random.default_rng(11))
    for rows in (slice(None), slice(0, 128), slice(-128, None)):
        with np.errstate(over="ignore"):  # the |h| = 1e200 rows
            idx, metric = ml_block(y[rows], h[rows], alphabet)
            ref_idx, ref_metric = exhaustive_ml(y[rows], h[rows], alphabet)
        assert idx.dtype == ref_idx.dtype and metric.dtype == ref_metric.dtype
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(metric.view(np.int64), ref_metric.view(np.int64))


@pytest.mark.parametrize("name", ["4:1:4-qpsk-pi/4", "4:1:4-qpsk-pi/2", "ofdm-256psk",
                                  "128psk-twice", "10:1:2-bpsk-collinear"])
def test_cell_table_lists_match_the_brute_force_rule(name):
    # each cell's row in its width class is its list padded to the width by
    # repeating the last entry, with the points of those entries beside it
    x = ML_ALPHABETS[name][0]().x
    table = _CellTable(x)
    want = brute_force_cell_lists(x)
    assert len(want) == len(table.width) == np.prod(table.shape)
    classes = {w: (cand, points) for w, cand, points in table.classes}
    for c, listed in enumerate(want):
        w = table.width[c]
        cand, points = classes[w]
        assert w == 1 << (len(listed) - 1).bit_length()
        assert np.array_equal(cand[table.row[c]], np.pad(listed, (0, w - len(listed)), mode="edge"))
        assert np.array_equal(points[table.row[c]], x[cand[table.row[c]]])


def test_capped_cell_table_lists_match_the_brute_force_rule():
    # 14:1:2 BPSK, A = 2^17: the cell count is capped near 2^15, and each
    # class holds int32 lists padded as above, its points gathered from x
    # per call; 256 random cells and every edge cell, whose lists make the hull
    x = build_super_alphabet(SystemConfig(**_halving_powers(14), mod_order=2)).x
    table = _CellTable(x)
    G = table.shape
    assert len(x) == 2 ** 17 and 2 ** 15 <= np.prod(G) < 2 ** 15 * 1.1
    assert all(cand.dtype == np.int32 and points is x for _, cand, points in table.classes)
    i, j = np.divmod(np.arange(np.prod(G)), G[1])
    edge = np.flatnonzero((i == 0) | (i == G[0] - 1) | (j == 0) | (j == G[1] - 1))
    cells = np.concatenate([np.random.default_rng(5).choice(np.prod(G), 256, replace=False), edge])
    classes = {w: cand for w, cand, _ in table.classes}
    for c, listed in zip(cells, brute_force_cell_lists(x, cells)):
        w = table.width[c]
        assert w == 1 << (len(listed) - 1).bit_length()
        assert np.array_equal(classes[w][table.row[c]], np.pad(listed, (0, w - len(listed)), mode="edge"))
    assert np.array_equal(table.hull, np.unique(np.concatenate(brute_force_cell_lists(x, edge))))


def test_detect_ml_on_a_table_searched_alphabet():
    cfg = SystemConfig(**FOUR_USER_QPSK, rotation_angle=np.pi / 4)
    alphabet = build_super_alphabet(cfg)
    h = 0.4 + 0.9j
    for i in (0, 517, len(alphabet) - 1):
        idx, _ = ml_block(one(h * alphabet.x[i]), one(h), alphabet)
        assert idx[0] == i


def _rayleigh(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


def _assert_matches_exhaustive(y, h, alphabet, rows=512):
    """ml_block equals exhaustive_ml bit for bit, compared ``rows`` at a time."""
    for s in range(0, len(y), rows):
        with np.errstate(over="ignore"):
            idx, metric = ml_block(y[s:s + rows], h[s:s + rows], alphabet)
            ref_idx, ref_metric = exhaustive_ml(y[s:s + rows], h[s:s + rows], alphabet)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(metric.view(np.int64), ref_metric.view(np.int64))


def test_ml_rows_outside_the_cell_table():
    # 0 dB puts many y/h outside the table's box (answered from the hull);
    # |h| = 1e-5 .. 1e-8 puts y/h beyond the table's reach (scanned in full)
    alphabet = build_super_alphabet(SystemConfig(**FOUR_USER_QPSK, rotation_angle=np.pi / 4))
    rng = np.random.default_rng(4)
    n = 2048
    h = _rayleigh(rng, n)
    y = h * alphabet.x[rng.integers(0, len(alphabet), n)] + _rayleigh(rng, n)
    h[:64] *= 10.0 ** -rng.uniform(5, 8, 64)
    ml_block(y[:1], h[:1], alphabet)
    table = alphabet._search
    assert isinstance(table, _CellTable)
    u = y / h
    cell = np.floor((np.column_stack([u.real, u.imag]) - table.lo) / table.step)
    outside = ((cell < 0) | (cell >= table.shape)).any(axis=1)
    assert outside.mean() > 0.1
    assert (np.abs(u) > table.reach).sum() >= 32
    _assert_matches_exhaustive(y, h, alphabet)


@pytest.mark.parametrize("cfg", [
    # 3:1:16 QAM: A = 16^3 * 2 = 8192, 4 cells per point
    SystemConfig(n_users=3, n_far=1, mod_order=16, family="QAM", power_coeffs=(0.8, 0.15, 0.05)),
    # 4:1:8 PSK at pi/8: A = 8^4 * 4 = 16384, the cell count capped
    SystemConfig(**dict(FOUR_USER_QPSK, mod_order=8), rotation_angle=np.pi / 8),
], ids=["3:1:16-qam", "4:1:8-psk-pi/8"])
def test_ml_above_4096_points_takes_the_cell_table(cfg):
    alphabet = build_super_alphabet(cfg)
    assert len(alphabet) > 4096
    y, h = _ml_edge_inputs(alphabet.x, np.random.default_rng(12))
    _assert_matches_exhaustive(y, h, alphabet)
    assert isinstance(alphabet._search, _CellTable)


def test_ml_on_coincident_points():
    # pi/2 maps every 4:1:4 point onto 4 entries (equal to 9 decimals): the
    # table lists all 4 copies, and the metrics decide between them
    alphabet = build_super_alphabet(SystemConfig(**FOUR_USER_QPSK))
    x = alphabet.x
    rng = np.random.default_rng(6)
    h = _rayleigh(rng, len(x))
    decided = ml_block(h * x, h, alphabet)[0]
    assert np.array_equal(np.round(x[decided], 9), np.round(x, 9))
    assert isinstance(alphabet._search, _CellTable)
    _assert_matches_exhaustive(h * x, h, alphabet)
    _assert_matches_exhaustive(h * x + _rayleigh(rng, len(x)), h, alphabet)


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


def test_ml_block_first_call_memory_at_the_table_cap():
    # 5:1:4 QPSK at pi/4: A = 4096; the first call builds the cell table,
    # and its width classes must not grow as A times the widest list
    cfg = SystemConfig(**_halving_powers(5), mod_order=4, rotation_angle=np.pi / 4)
    alphabet = build_super_alphabet(cfg)
    assert len(alphabet) == 4096
    rng = np.random.default_rng(3)
    tx = rng.integers(0, len(alphabet), 2048)
    h = _rayleigh(rng, 2048)
    tracemalloc.start()
    try:
        idx, _ = ml_block(h * alphabet.x[tx], h, alphabet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(alphabet._search, _CellTable)
    assert peak < 16 * 2 ** 20
    # entries can share a point here: compare the points sent and decided
    assert np.array_equal(np.round(alphabet.x[idx], 9), np.round(alphabet.x[tx], 9))


def test_sic_far_user_noiseless():
    cfg = SystemConfig(**TWO_USER)
    h = 1.0 + 0j
    y = h * (np.sqrt(0.9) * 1 + np.sqrt(0.1) * -1)
    entries, _ = sic_block(one(y), one(h), cfg, 1)
    # the far user's point 0 (1 + 0j); the near user and the pattern stay 0
    assert cfg.constellation.points[0] == 1 + 0j
    assert entries.tolist() == entry_index(cfg, np.array([[0]])).tolist()


def test_sic_near_user_noiseless_rotated():
    cfg = SystemConfig(**TWO_USER)
    h = 1.0 + 0j
    y = h * (np.sqrt(0.9) + 1j * np.sqrt(0.1))
    entries, _ = sic_block(one(y), one(h), cfg, 2)
    # both users send point 0 and the near user is rotated (pattern 1)
    assert entries.tolist() == entry_index(cfg, np.array([[0, 0]]), np.array([1])).tolist()
    assert np.array_equal(user_bits(cfg, "sic", y, h, 2), [0])


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
    sic_idx, _ = sic_block(y, h, cfg, cfg.n_users + 1)
    assert np.mean(sic_idx == ml_idx) >= 0.999


# name -> config: near and virtual index bits, two far users, four near-group
# users at pi/4 and PD-NOMA, whose near stages search no rotation
SIC_CONFIGS = {
    "2:1:2-virtual": SystemConfig(**TWO_USER),
    "2:1:2-near": SystemConfig(**TWO_USER, index_user_mode="near"),
    "3:2:2": SystemConfig(n_users=3, n_far=2, mod_order=2, power_coeffs=(0.6, 0.3, 0.1)),
    "4:1:4-pi/4": SystemConfig(**FOUR_USER_QPSK, rotation_angle=np.pi / 4),
    "pdnoma": SystemConfig(**TWO_USER, im_enabled=False),
}


@pytest.mark.parametrize("name", SIC_CONFIGS)
def test_sic_block_matches_scalar_stage_by_stage_oracle(name):
    cfg = SIC_CONFIGS[name]
    alphabet = build_super_alphabet(cfg)
    rng = np.random.default_rng(17)
    n = 64
    ys, hs = [], []
    for snr_db in (-5, 5, 15, 30, None):
        h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        y = h * alphabet.x[rng.integers(0, len(alphabet), n)]
        if snr_db is not None:
            y = y + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(
                10 ** (-snr_db / 10) / 2)
        ys.append(y)
        hs.append(h)
    ys.append(np.zeros(4, dtype=complex))  # every hypothesis ties
    hs.append(np.ones(4, dtype=complex))
    y, h = np.concatenate(ys), np.concatenate(hs)
    last = cfg.n_users + (cfg.index_user_mode == "virtual")
    for user in range(1, last + 1):
        entries, metrics = sic_block(y, h, cfg, user)
        want_entries, want_metrics = sic_scalar(y, h, cfg, user)
        assert np.array_equal(entries, want_entries), user
        assert np.array_equal(metrics.view(np.int64), want_metrics.view(np.int64)), user


def packed_flags(flags):
    """The SIC code's low bits for near-user rotation flags from user B+1 on."""
    return sum(f << j for j, f in enumerate(flags))


def test_angles_to_phi_basic():
    alphas = (0.5, 0.3, 0.2)
    cfg = SystemConfig(n_users=3, n_far=1, mod_order=2, power_coeffs=alphas)
    assert cfg.n_index_bits == 1
    phi = _SicStages(cfg).phi
    assert phi[packed_flags((0, 0))] == 0
    assert phi[packed_flags((0, 1))] == 1
    # inconsistent non-suffix pattern: at distance 1 from pattern 0 and 2 from
    # pattern 1 (the exhaustive test below covers ties)
    assert phi[packed_flags((1, 0))] == 0


def test_angles_to_phi_exhaustive_projection():
    alphas = (0.4, 0.3, 0.2, 0.1)
    cfg = SystemConfig(n_users=4, n_far=1, mod_order=2, power_coeffs=alphas)
    assert cfg.n_index_bits == 2
    phi = _SicStages(cfg).phi
    valid = {0: (0, 0, 0), 1: (0, 0, 1), 2: (0, 1, 1), 3: (1, 1, 1)}
    for flags in itertools.product((0, 1), repeat=3):
        got = int(phi[packed_flags(flags)])
        dists = {phi: sum(a != b for a, b in zip(flags, pat))
                 for phi, pat in valid.items()}
        best = min(dists.values())
        expected = min(phi for phi, d in dists.items() if d == best)
        assert got == expected


def test_ml_decision_bits_near_mode():
    cfg = SystemConfig(**TWO_USER, index_user_mode="near")
    y = np.sqrt(0.9) * 1 + 1j * np.sqrt(0.1) * -1
    assert np.array_equal(user_bits(cfg, "ml", y, 1, 1), [0])
    assert np.array_equal(user_bits(cfg, "ml", y, 1, 2), [1, 1])


def test_ml_decision_bits_virtual_user():
    cfg = SystemConfig(**TWO_USER, index_user_mode="virtual")
    y = np.sqrt(0.9) + 1j * np.sqrt(0.1)
    assert np.array_equal(user_bits(cfg, "ml", y, 1, 3), [1])


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
    far = list(user_bit_positions(cfg_im, 1))
    a_bits = build_super_alphabet(cfg_im).bits[sic_block(y, h, cfg_im, 1)[0]][:, far]
    b_bits = build_super_alphabet(cfg_pd).bits[sic_block(y, h, cfg_pd, 1)[0]][:, far]
    assert np.array_equal(a_bits, b_bits)


def test_pdnoma_sic_searches_no_rotation():
    # Without index bits the transmitter never rotates, so the near stage
    # searches the base constellation: the rotated point j would be nearer.
    cfg = SystemConfig(**TWO_USER, im_enabled=False)
    y = np.array([np.sqrt(0.9) + np.sqrt(0.1) * (-0.2 + 0.9j)])
    entries, _ = sic_block(y, np.ones(1, dtype=complex), cfg, 2)
    assert entries.tolist() == entry_index(cfg, np.array([[0, 1]])).tolist()


def test_sic_rejects_bad_users():
    cfg = SystemConfig(**TWO_USER, index_user_mode="near")
    with pytest.raises(ValueError):
        sic_block(one(0), one(1), cfg, 0)
    with pytest.raises(ValueError):
        sic_block(one(0), one(1), cfg, 3)  # virtual user needs virtual mode
