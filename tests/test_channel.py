import numpy as np
import pytest

from imnomarc.harness import noise_variance

from oracles import (ChannelRealization, apply_channel, draw_channel,
                     ofdm_demodulate, ofdm_modulate)


def test_channel_power_is_unit():
    rng = np.random.default_rng(0)
    ch = draw_channel(4, 250_000, 10.0, rng=rng)
    assert abs(np.mean(np.abs(ch.h) ** 2) - 1.0) < 0.01


@pytest.mark.parametrize("snr_db,expected", [(0.0, 1.0), (10.0, 0.1), (20.0, 0.01)])
def test_noise_variance(snr_db, expected):
    assert np.isclose(noise_variance(snr_db, 1.0), expected)


def test_noise_variance_scales_with_power():
    assert np.isclose(noise_variance(10.0, 2.0), 0.2)
    with pytest.raises(ValueError):
        noise_variance(np.inf)


def test_noiseless_apply_is_elementwise_product():
    rng = np.random.default_rng(1)
    ch = draw_channel(2, 64, np.inf, rng=rng)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = apply_channel(x, ch, 2, rng)
    assert np.allclose(y, ch.h[1] * x)



@pytest.mark.parametrize("n_rx", [1, 3])
def test_one_gaussian_draw_equals_channel_then_noise_draws(n_rx):
    """One 4-row block per receiver, h real, h imaginary, noise real and
    imaginary: the variates one draw_channel and one apply_channel call per
    receiver consume, in order."""
    L, snr_db = 50, 7.0
    x = np.exp(1j * np.arange(L))
    rng = np.random.default_rng(9)
    g = np.random.default_rng(9).standard_normal((4 * n_rx, L))
    sigma2 = noise_variance(snr_db)
    for rx in range(n_rx):
        ch = draw_channel(1, L, snr_db, rng=rng)
        y = apply_channel(x, ch, 1, rng)
        k = 4 * rx
        h = (g[k] + 1j * g[k + 1]) / np.sqrt(2)
        assert h.tobytes() == ch.h[0].tobytes()
        w = g[k + 2] + 1j * g[k + 3]
        assert (h * x + np.sqrt(sigma2 / 2) * w).tobytes() == y.tobytes()


def test_identity_channel():
    ch = ChannelRealization(h=np.ones((1, 32)), noise_var=0.0)
    x = np.exp(1j * np.linspace(0, 3, 32))
    assert np.allclose(apply_channel(x, ch, 1), x)


def test_received_power_at_zero_db():
    # E|y|^2 = signal power + noise power = 2 at 0 dB with unit-power input
    rng = np.random.default_rng(2)
    n = 1_000_000
    ch = draw_channel(1, n, 0.0, rng=rng)
    x = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    y = apply_channel(x, ch, 1, rng)
    assert abs(np.mean(np.abs(y) ** 2) - 2.0) < 0.04


def test_apply_channel_validates_inputs():
    ch = draw_channel(2, 16, 10.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_channel(np.ones(8), ch, 1)
    with pytest.raises(ValueError):
        apply_channel(np.ones(16), ch, 3)


def test_ofdm_roundtrip():
    rng = np.random.default_rng(3)
    freq = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    time = ofdm_modulate(freq, 16)
    assert len(time) == 144
    assert np.max(np.abs(ofdm_demodulate(time, 128, 16) - freq)) < 1e-10


def test_impulse_gives_constant_time_sequence():
    freq = np.zeros(64, dtype=complex)
    freq[0] = 1.0
    time = ofdm_modulate(freq, 0)
    assert np.allclose(time, time[0])


def test_parseval_under_unitary_scaling():
    rng = np.random.default_rng(4)
    freq = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    time = ofdm_modulate(freq, 16)[16:]
    assert abs(np.sum(np.abs(freq) ** 2) - np.sum(np.abs(time) ** 2)) < 1e-10


def test_ofdm_length_validation():
    with pytest.raises(ValueError):
        ofdm_modulate(np.ones(100), 8)
    with pytest.raises(ValueError):
        ofdm_modulate(np.ones(64), 64)
    with pytest.raises(ValueError):
        ofdm_demodulate(np.ones(70), 64, 8)


def test_seeded_draws_are_reproducible():
    a = draw_channel(3, 64, 12.0, rng=np.random.default_rng(99))
    b = draw_channel(3, 64, 12.0, rng=np.random.default_rng(99))
    assert np.array_equal(a.h, b.h) and a.noise_var == b.noise_var


def test_noise_independent_across_users_and_calls():
    rng = np.random.default_rng(5)
    n = 100_000
    ch = draw_channel(2, n, 0.0, rng=rng)
    x = np.zeros(n, dtype=complex)
    w1 = apply_channel(x, ch, 1, rng)
    w2 = apply_channel(x, ch, 2, rng)
    w1b = apply_channel(x, ch, 1, rng)
    limit = 3 / np.sqrt(n)
    assert abs(np.mean(w1 * np.conj(w2))) < limit
    assert abs(np.mean(w1 * np.conj(w1b))) < limit


def test_freq_path_matches_time_path_noiseless():
    # unit channel, no noise: modulate -> per-subcarrier gain -> demodulate
    # must agree with the direct frequency-domain product
    rng = np.random.default_rng(6)
    L, cp = 128, 16
    x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    ch = ChannelRealization(h=np.ones((1, L)), noise_var=0.0)
    fast = apply_channel(x, ch, 1)
    framed = ofdm_demodulate(ofdm_modulate(ch.h[0] * x, cp), L, cp)
    assert np.max(np.abs(fast - framed)) < 1e-10
