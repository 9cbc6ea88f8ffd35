import numpy as np
import pytest
from scipy.integrate import quad

from imnomarc.analysis import (pep_rayleigh, pep_rayleigh_closed_form,
                               q_function, union_bound_ber)
from imnomarc.superposition import (SuperAlphabet, SystemConfig,
                                    build_super_alphabet, user_bit_positions)

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
        symbol_indices=np.array([[0, 0], [1, 1]]),
        phis=np.array([0, 0]),
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
        symbol_indices=np.zeros((3, 2), dtype=int),
        phis=np.zeros(3, dtype=int),
        x=np.array([1, 2, 3], dtype=complex),
        bits=np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        union_bound_ber(broken, 0.1)
