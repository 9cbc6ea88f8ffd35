import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from imnomarc import analysis
from imnomarc.analysis import pep_rayleigh_closed_form, union_bound_ber
from imnomarc.harness import noise_variance
from imnomarc.superposition import (SuperAlphabet, SystemConfig,
                                    build_super_alphabet, user_bit_positions)

from oracles import pep_rayleigh, q_function

TWO_USER = dict(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1))


def test_q_at_zero():
    assert q_function(0.0) == 0.5


def test_q_tail_underflows():
    assert q_function(40.0) < 1e-300


def test_q_at_one_against_normal_tail_integral():
    # oracle: direct numerical integration of the standard normal density
    oracle, _ = quad(lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), 1.0, np.inf,
                     epsabs=1e-12, epsrel=1e-12)
    assert abs(q_function(1.0) - oracle) < 1e-9
    assert abs(q_function(1.0) - 0.15865525393145707) < 1e-12


def test_pep_zero_distance():
    assert pep_rayleigh(0j, 0.5) == 0.5


def test_pep_vanishes_at_large_distance():
    assert pep_rayleigh(1e4 + 0j, 1e-4) < 1e-6


def test_pep_quadrature_matches_closed_form():
    sigma2 = 1.0
    for c in (0.1, 1.0, 10.0):
        delta = np.sqrt(4 * sigma2 * c)
        got = pep_rayleigh(delta, sigma2)
        want = pep_rayleigh_closed_form(delta, sigma2)
        assert abs(got - want) / want < 1e-6


def test_pep_closed_form_agreement_wide_range():
    sigma2 = 0.3
    for c in np.logspace(-3, 3, 25):
        delta = np.sqrt(4 * sigma2 * c)
        got = pep_rayleigh(delta, sigma2)
        want = pep_rayleigh_closed_form(delta, sigma2)
        assert abs(got - want) / want < 1e-6


def test_closed_form_pep_has_no_cancellation_at_high_snr():
    # 1 - sqrt(c / (1 + c)) = 1/(2c) - 3/(8c^2) + ...: the PEP is 1/(4c) to
    # relative 1e-12 at c = 1e12, where the subtraction would keep ~4 digits
    sigma2, delta = 1e-12, 2.0
    c = delta ** 2 / (4 * sigma2)
    want = 1 / (4 * c) - 3 / (16 * c ** 2)
    assert np.isclose(pep_rayleigh_closed_form(delta, sigma2), want, rtol=1e-11, atol=0)


def test_pep_depends_only_on_magnitude():
    for theta in (0.3, 1.1, -2.0):
        assert np.isclose(pep_rayleigh(0.7 * np.exp(1j * theta), 0.2),
                          pep_rayleigh(0.7, 0.2), rtol=1e-9)


def test_pep_rejects_bad_sigma():
    with pytest.raises(ValueError):
        pep_rayleigh(1.0, 0.0)


def test_union_bound_degenerate_antipodal_pair():
    cfg = SystemConfig(**TWO_USER)
    amp = 0.8
    alphabet = SuperAlphabet(
        cfg=cfg,
        x=np.array([amp, -amp], dtype=complex),
        bits=np.array([[0], [1]], dtype=np.uint8))
    sigma2 = 0.25
    bound = union_bound_ber(alphabet, sigma2)
    assert np.isclose(bound, pep_rayleigh(2 * amp, sigma2), rtol=1e-9)


def test_union_bound_increases_with_noise():
    alphabet = build_super_alphabet(SystemConfig(**TWO_USER))
    assert union_bound_ber(alphabet, 0.02) > union_bound_ber(alphabet, 0.01)


def all_pairs_bound(alphabet, sigma2, user=None):
    """Oracle: the union bound summed over every ordered pair with the closed-form PEP."""
    p = alphabet.bits.shape[1]
    positions = list(range(p) if user is None else user_bit_positions(alphabet.cfg, user))
    bits = alphabet.bits[:, positions].astype(int)
    weights = np.abs(bits[:, None, :] - bits[None, :, :]).sum(axis=2)
    peps = pep_rayleigh_closed_form(alphabet.x[None, :] - alphabet.x[:, None], sigma2)
    return float((weights * peps).sum()) / (len(positions) * len(alphabet))


ORACLE_CONFIGS = {
    "2-1-2": TWO_USER,
    # QPSK under the pi/2 rotation maps onto itself: coincident points, d = 0
    # pairs at PEP 0.5
    "2-1-4": dict(n_users=2, n_far=1, mod_order=4, power_coeffs=(0.8, 0.2)),
    # A = 128: the pair matrix spans more than one row block
    "3-1-4": dict(n_users=3, n_far=1, mod_order=4, power_coeffs=(0.7, 0.2, 0.1)),
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_union_bound_matches_all_pairs_oracle(name):
    cfg = SystemConfig(**ORACLE_CONFIGS[name])
    alphabet = build_super_alphabet(cfg)
    if name == "2-1-4":
        assert len(np.unique(np.round(alphabet.x, 9))) < len(alphabet)
    sigma2 = 0.05
    for user in (None, *range(1, cfg.n_users + 1), "index"):
        want = all_pairs_bound(alphabet, sigma2, user)
        assert np.isclose(union_bound_ber(alphabet, sigma2, user=user), want,
                          rtol=1e-6, atol=0)


def test_oracle_configs_straddle_the_row_block():
    sizes = [len(build_super_alphabet(SystemConfig(**c))) for c in ORACLE_CONFIGS.values()]
    assert {np.sign(a - analysis._TILE) for a in sizes} == {-1, 0, 1}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_pair_spectrum_bound_matches_all_pairs_oracle_to_rounding(name):
    # each unordered pair walked once and summed per XOR class: only the
    # order of the additions differs from the ordered-pair oracle
    cfg = SystemConfig(**ORACLE_CONFIGS[name])
    alphabet = build_super_alphabet(cfg)
    for sigma2 in (0.05, 0.002):
        for user in (None, *range(1, cfg.n_users + 1), "index"):
            want = all_pairs_bound(alphabet, sigma2, user)
            assert np.isclose(union_bound_ber(alphabet, sigma2, user=user), want,
                              rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["2-1-2", "2-1-4"])
def test_union_bound_at_3081_db_has_no_nan(name):
    # sigma^2 = 7.9e-309: c overflows for most pairs and their PEP is 0; the
    # coincident pairs of 2-1-4 keep their PEP of 0.5
    cfg = SystemConfig(**ORACLE_CONFIGS[name])
    alphabet = build_super_alphabet(cfg)
    sigma2 = noise_variance(3081)
    for user in (None, *range(1, cfg.n_users + 1), "index"):
        got = union_bound_ber(alphabet, sigma2, user=user)
        want = all_pairs_bound(alphabet, sigma2, user)
        if want > 1e-300:  # the coincident pairs' share
            assert np.isclose(got, want, rtol=1e-12, atol=0)
        else:
            assert 0 <= got < 1e-300
    assert (union_bound_ber(alphabet, sigma2) > 0.01) == (name == "2-1-4")


def brute_force_spectrum(x, sigma2):
    """Oracle: s[k] = sum_i PEP(x[i ^ k] - x[i]) from full (A, A) arrays."""
    i = np.arange(len(x))
    return pep_rayleigh_closed_form(x[i ^ i[:, None]] - x[i], sigma2).sum(axis=1)


@pytest.mark.parametrize("angle", [np.pi / 4, np.pi / 2])
def test_pair_spectrum_matches_brute_force_over_many_tiles(angle):
    # A = 1024 spans 32 x 32 tiles, so row blocks meet column blocks at every
    # XOR block distance; pi/4 keeps the points distinct, pi/2 makes some
    # coincide (d = 0 pairs at PEP 0.5)
    cfg = SystemConfig(n_users=4, n_far=1, mod_order=4,
                       power_coeffs=(0.75, 0.18, 0.05, 0.02), rotation_angle=angle)
    x = build_super_alphabet(cfg).x
    assert len(x) == 1024 and len(x) // analysis._TILE == 32
    distinct = len(np.unique(np.round(x, 9)))
    assert distinct == 1024 if angle == np.pi / 4 else distinct < 1024
    for sigma2 in (0.05, 0.002):
        np.testing.assert_allclose(analysis._pair_spectrum(x, sigma2),
                                   brute_force_spectrum(x, sigma2), rtol=1e-12, atol=0)


def test_pair_spectrum_working_set_grows_as_a_times_the_tile():
    # 5:1:4 QPSK at pi/4, A = 4096: an (A, A) float array would be 128 MiB,
    # and two (A/T, T, T) buffers are 2 MiB
    cfg = SystemConfig(n_users=5, n_far=1, mod_order=4,
                       power_coeffs=(0.6, 0.2, 0.1, 0.06, 0.04), rotation_angle=np.pi / 4)
    x = build_super_alphabet(cfg).x
    assert len(x) == 4096
    analysis._pair_spectrum(x, 0.01)
    tracemalloc.start()
    try:
        analysis._pair_spectrum(x, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_consecutive_calls_at_one_noise_variance_share_one_spectrum(pair_spectra):
    cfg = SystemConfig(**ORACLE_CONFIGS["3-1-4"])
    a, b = 0.05, 0.002
    # (alphabet, sigma2, user); the alphabet keeps only its last spectrum
    sequence = [(0, a, None), (0, a, 1), (1, a, "index"), (0, a, 2), (0, b, 1),
                (1, a, 2), (0, b, None), (0, a, "index"), (1, b, 3), (0, a, 1),
                (1, b, None)]
    alphabets = [build_super_alphabet(cfg), build_super_alphabet(cfg)]
    got = [union_bound_ber(alphabets[k], sigma2, user=user) for k, sigma2, user in sequence]
    # a pass only where an alphabet's noise variance changes: alphabet 0 at
    # calls 1, 5 and 8, alphabet 1 at calls 3 and 9
    assert pair_spectra == [a, a, b, a, b]
    assert got == [union_bound_ber(build_super_alphabet(cfg), sigma2, user=user)
                   for _, sigma2, user in sequence]


def test_per_user_bounds_partition_the_aggregate():
    cfg = SystemConfig(**TWO_USER)
    alphabet = build_super_alphabet(cfg)
    sigma2 = 0.05
    p = alphabet.bits.shape[1]
    total = union_bound_ber(alphabet, sigma2)
    parts = (1 / p) * union_bound_ber(alphabet, sigma2, user=1) \
        + (1 / p) * union_bound_ber(alphabet, sigma2, user=2) \
        + (1 / p) * union_bound_ber(alphabet, sigma2, user="index")
    assert abs(total - parts) < 1e-12


def test_union_bound_rejects_inconsistent_alphabet():
    cfg = SystemConfig(**TWO_USER)
    broken = SuperAlphabet(
        cfg=cfg,
        x=np.array([1, 2, 3], dtype=complex),
        bits=np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        union_bound_ber(broken, 0.1)


def test_union_bound_rejects_bad_noise_variance_and_bitless_user():
    alphabet = build_super_alphabet(SystemConfig(**TWO_USER))
    for sigma2 in (0.0, -0.1):
        with pytest.raises(ValueError, match="noise variance must be positive"):
            union_bound_ber(alphabet, sigma2)
    pdnoma = build_super_alphabet(SystemConfig(**TWO_USER, im_enabled=False))
    with pytest.raises(ValueError, match="carries no bits"):
        union_bound_ber(pdnoma, 0.1, user="index")


def test_import_leaves_quadrature_unloaded():
    code = "import sys, imnomarc; print([m for m in sys.modules if m.startswith('scipy')])"
    # the child imports imnomarc from wherever this process found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_bound_and_ml_leave_numpy_ma_unloaded():
    # numpy.ma costs 13-16 ms to import, and np.unique imports it
    code = """if True:
        import sys
        import numpy as np
        from imnomarc.analysis import union_bound_ber
        from imnomarc.detectors import ml_block
        from imnomarc.superposition import SystemConfig, build_super_alphabet
        build_super_alphabet(SystemConfig())
        alphabet = build_super_alphabet(SystemConfig(
            n_users=4, n_far=1, mod_order=4, power_coeffs=(0.75, 0.18, 0.05, 0.02),
            rotation_angle=np.pi / 4))
        rng = np.random.default_rng(0)
        h = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        y = h * alphabet.x[rng.integers(0, len(alphabet), 2048)] + 0.1 * rng.standard_normal(2048)
        ml_block(y, h, alphabet)
        union_bound_ber(alphabet, 0.01)
        print("numpy.ma" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_union_bound_never_calls_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("union_bound_ber called the quadrature")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    alphabet = build_super_alphabet(SystemConfig(**TWO_USER))
    assert 0 < union_bound_ber(alphabet, 0.05) < 0.5


def quadrature_bound(alphabet, sigma2, user=None):
    """Oracle: the union bound with one quadrature PEP per distinct distance."""
    p = alphabet.bits.shape[1]
    positions = list(range(p) if user is None else user_bit_positions(alphabet.cfg, user))
    bits = alphabet.bits[:, positions].astype(int)
    weights = np.abs(bits[:, None, :] - bits[None, :, :]).sum(axis=2).ravel()
    d2 = np.round(np.abs(alphabet.x[None, :] - alphabet.x[:, None]) ** 2, 12).ravel()
    keys, inverse = np.unique(d2, return_inverse=True)
    peps = np.array([pep_rayleigh(np.sqrt(k), sigma2) for k in keys])
    return float((peps[inverse] * weights).sum()) / (len(positions) * len(alphabet))


@pytest.mark.parametrize("name", ["2-1-2", "2-1-4"])
def test_union_bound_matches_quadrature_oracle(name):
    cfg = SystemConfig(**ORACLE_CONFIGS[name])
    alphabet = build_super_alphabet(cfg)
    for sigma2 in (0.05, 0.002):
        for user in (None, *range(1, cfg.n_users + 1), "index"):
            want = quadrature_bound(alphabet, sigma2, user)
            assert np.isclose(union_bound_ber(alphabet, sigma2, user=user), want,
                              rtol=1e-8, atol=0)
