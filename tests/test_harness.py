import json
import math

import numpy as np
import pytest

from imnomarc.constellation import RotationSet
from imnomarc.harness import (CSV_HEADER, BerRecord, ExperimentSpec,
                              load_results, persist, run_point, run_sweep,
                              spec_from_dict, spec_to_dict)
from imnomarc.superposition import SystemConfig

TWO_USER = dict(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1))


def small_spec(**overrides):
    base = dict(snr_grid_db=(10.0,), max_bits=20_000, min_bit_errors=50,
                master_seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_noiseless_run_has_zero_errors():
    for detector in ("ml", "sic"):
        spec = small_spec(detector=detector, noiseless=True, max_bits=5000,
                          min_bit_errors=20, snr_grid_db=(0.0,))
        for rec in run_point(spec, 0.0):
            assert rec.bit_errors == 0


def test_same_seed_is_bit_identical():
    spec = small_spec()
    a = run_point(spec, 10.0)
    b = run_point(spec, 10.0)
    for x, y in zip(a, b):
        assert (x.bits_sent, x.bit_errors, x.ber) == (y.bits_sent, y.bit_errors, y.ber)


GOLDEN_CONFIGS = {
    "2:1:2": TWO_USER,
    "4:1:4": dict(n_users=4, n_far=1, mod_order=4, power_coeffs=(0.75, 0.18, 0.05, 0.02),
                  rotation=RotationSet((0.0, math.pi / 4))),
    "3:2:2": dict(n_users=3, n_far=2, mod_order=2, power_coeffs=(0.6, 0.3, 0.1)),
}

# (config, scheme, detector, index_user_mode) -> [(snr_db, [(user, bits_sent,
# bit_errors), ...]), ...] from run_point with n_subcarriers=32, max_bits=3000,
# min_bit_errors=20, master_seed=11. Detection draws no random numbers, so any
# change to how blocks are detected or scored must reproduce these exactly.
GOLDEN = {
    ('2:1:2', 'imnomarc', 'ml', 'virtual'): [
        (5.0, [('1', 512, 39), ('2', 512, 165), ('index', 512, 205)]),
        (15.0, [('1', 2048, 21), ('2', 2048, 236), ('index', 2048, 332)]),
    ],
    ('2:1:2', 'imnomarc', 'ml', 'near'): [
        (5.0, [('1', 512, 50), ('2', 512, 172), ('index', 512, 197)]),
        (15.0, [('1', 2560, 23), ('2', 2560, 271), ('index', 2560, 438)]),
    ],
    ('2:1:2', 'imnomarc', 'sic', 'virtual'): [
        (5.0, [('1', 512, 39), ('2', 512, 165), ('index', 512, 205)]),
        (15.0, [('1', 2048, 21), ('2', 2048, 236), ('index', 2048, 332)]),
    ],
    ('2:1:2', 'imnomarc', 'sic', 'near'): [
        (5.0, [('1', 512, 50), ('2', 512, 172), ('index', 512, 197)]),
        (15.0, [('1', 2560, 23), ('2', 2560, 271), ('index', 2560, 438)]),
    ],
    ('2:1:2', 'pdnoma', 'ml', 'virtual'): [
        (5.0, [('1', 512, 45), ('2', 512, 137)]),
        (15.0, [('1', 2560, 29), ('2', 2560, 175)]),
    ],
    ('2:1:2', 'pdnoma', 'ml', 'near'): [
        (5.0, [('1', 512, 45), ('2', 512, 137)]),
        (15.0, [('1', 2560, 29), ('2', 2560, 175)]),
    ],
    ('2:1:2', 'pdnoma', 'sic', 'virtual'): [
        (5.0, [('1', 512, 45), ('2', 512, 180)]),
        (15.0, [('1', 2560, 29), ('2', 2560, 283)]),
    ],
    ('2:1:2', 'pdnoma', 'sic', 'near'): [
        (5.0, [('1', 512, 45), ('2', 512, 180)]),
        (15.0, [('1', 2560, 29), ('2', 2560, 283)]),
    ],
    ('2:1:2', 'ofdm', 'ml', 'virtual'): [
        (5.0, [('1', 1536, 289)]),
        (15.0, [('1', 1536, 54)]),
    ],
    ('2:1:2', 'ofdm', 'ml', 'near'): [
        (5.0, [('1', 1536, 289)]),
        (15.0, [('1', 1536, 54)]),
    ],
    ('2:1:2', 'ofdm', 'sic', 'virtual'): [
        (5.0, [('1', 1536, 289)]),
        (15.0, [('1', 1536, 54)]),
    ],
    ('2:1:2', 'ofdm', 'sic', 'near'): [
        (5.0, [('1', 1536, 289)]),
        (15.0, [('1', 1536, 54)]),
    ],
    ('4:1:4', 'imnomarc', 'ml', 'virtual'): [
        (5.0, [('1', 1024, 188), ('2', 1024, 388), ('3', 1024, 483), ('4', 1024, 484), ('index', 1024, 503)]),
        (15.0, [('1', 1024, 71), ('2', 1024, 259), ('3', 1024, 425), ('4', 1024, 492), ('index', 1024, 509)]),
    ],
    ('4:1:4', 'imnomarc', 'ml', 'near'): [
        (5.0, [('1', 1024, 189), ('2', 1024, 380), ('3', 1024, 481), ('4', 1024, 469), ('index', 1024, 520)]),
        (15.0, [('1', 1024, 83), ('2', 1024, 265), ('3', 1024, 443), ('4', 1024, 462), ('index', 1024, 502)]),
    ],
    ('4:1:4', 'imnomarc', 'sic', 'virtual'): [
        (5.0, [('1', 1024, 187), ('2', 1024, 387), ('3', 1024, 469), ('4', 1024, 473), ('index', 1024, 491)]),
        (15.0, [('1', 1024, 64), ('2', 1024, 244), ('3', 1024, 408), ('4', 1024, 489), ('index', 1024, 492)]),
    ],
    ('4:1:4', 'imnomarc', 'sic', 'near'): [
        (5.0, [('1', 1024, 189), ('2', 1024, 369), ('3', 1024, 469), ('4', 1024, 484), ('index', 1024, 509)]),
        (15.0, [('1', 1024, 79), ('2', 1024, 256), ('3', 1024, 458), ('4', 1024, 476), ('index', 1024, 484)]),
    ],
    ('3:2:2', 'imnomarc', 'ml', 'near'): [
        (5.0, [('1', 512, 99), ('2', 512, 148), ('3', 512, 187), ('index', 512, 228)]),
        (15.0, [('1', 512, 53), ('2', 512, 71), ('3', 512, 71), ('index', 512, 86)]),
    ],
    ('3:2:2', 'imnomarc', 'sic', 'near'): [
        (5.0, [('1', 512, 94), ('2', 512, 151), ('3', 512, 189), ('index', 512, 232)]),
        (15.0, [('1', 512, 56), ('2', 512, 85), ('3', 512, 89), ('index', 512, 92)]),
    ],
}


@pytest.mark.parametrize("case", GOLDEN, ids="-".join)
def test_run_point_matches_golden_counts(case):
    name, scheme, detector, mode = case
    cfg = SystemConfig(**GOLDEN_CONFIGS[name], index_user_mode=mode)
    spec = ExperimentSpec(scheme=scheme, cfg=cfg, detector=detector,
                          snr_grid_db=(5.0, 15.0), n_subcarriers=32, max_bits=3000,
                          min_bit_errors=20, master_seed=11)
    for snr_db, want in GOLDEN[case]:
        got = [(r.user, r.bits_sent, r.bit_errors) for r in run_point(spec, snr_db)]
        assert got == want


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
        recs = run_point(small_spec(cfg=cfg, detector=detector), 10.0)
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


def test_empty_grid_gives_empty_results_and_valid_manifest():
    spec = small_spec(snr_grid_db=())
    records, manifest = run_sweep(spec)
    assert records == []
    assert manifest["master_seed"] == 3
    assert manifest["points"] == {}


def test_manifest_echo_roundtrips():
    spec = small_spec(snr_grid_db=(5.0, 10.0), detector="sic")
    _, manifest = run_sweep(small_spec(snr_grid_db=()))
    assert spec_from_dict(spec_to_dict(spec)) == spec
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
        ExperimentSpec(detector="zf")
    with pytest.raises(ValueError):
        ExperimentSpec(snr_grid_db=(10.0, 5.0))
    with pytest.raises(ValueError):
        ExperimentSpec(max_bits=100, min_bit_errors=200)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_snr(bad):
    with pytest.raises(ValueError, match="finite"):
        ExperimentSpec(snr_grid_db=(0.0, bad))
