import math

import numpy as np
import pytest

from imnomarc.superposition import (SystemConfig, build_super_alphabet, channels,
                                    rotation_flags, spectral_efficiency, user_bit_positions)

from oracles import (entry_index, im_pattern, index_for_bits, pack_bits, superimpose,
                     unpack_bits)

TWO_USER = dict(n_users=2, n_far=1, mod_order=2, power_coeffs=(0.9, 0.1))


def three_user_cfg():
    return SystemConfig(n_users=3, n_far=1, mod_order=2, power_coeffs=(0.8, 0.15, 0.05))


def test_rotation_angle_validation():
    for angle in (np.pi / 2, np.pi / 4, -np.pi / 2, 2 * np.pi - 1e-6):
        assert SystemConfig(**TWO_USER, rotation_angle=angle).rotation_angle == angle
    # the unrotated users' angle is 0, so the rotated users' must differ from it
    for angle in (0.0, 2 * np.pi, -4 * np.pi, np.nan, np.inf):
        with pytest.raises(ValueError, match="rotation angle"):
            SystemConfig(**TWO_USER, rotation_angle=angle)


def test_total_power_is_a_constant():
    assert SystemConfig.total_power == SystemConfig().total_power == 1.0
    with pytest.raises(TypeError):
        SystemConfig(total_power=2.0)


def test_se_two_user_bpsk():
    assert spectral_efficiency(SystemConfig(**TWO_USER)) == 3


def test_se_im_disabled_comparator():
    assert spectral_efficiency(SystemConfig(**TWO_USER, im_enabled=False)) == 2


def test_se_five_users():
    alphas = (0.5, 0.25, 0.12, 0.08, 0.05)
    cfg = SystemConfig(n_users=5, n_far=2, mod_order=2, power_coeffs=alphas)
    assert spectral_efficiency(cfg) == 7


def test_se_additivity_over_grid():
    for n in range(2, 6):
        for b in range(1, n):
            alphas = tuple(2.0 ** (n - k) for k in range(n))
            alphas = tuple(a / sum(alphas) for a in alphas)
            for m in (2, 4, 8):
                cfg = SystemConfig(n_users=n, n_far=b, mod_order=m,
                                   family="PSK" if m != 8 else "QAM",
                                   power_coeffs=alphas)
                assert spectral_efficiency(cfg) - n * int(np.log2(m)) == cfg.n_index_bits


def test_superimpose_no_rotation():
    cfg = SystemConfig(**TWO_USER)
    x = superimpose(cfg, [1, 1], 0)
    assert np.isclose(x, np.sqrt(0.9) + np.sqrt(0.1))


def test_superimpose_rotated_near_user():
    cfg = SystemConfig(**TWO_USER)
    x = superimpose(cfg, [1, 1], 1)
    assert np.isclose(x, np.sqrt(0.9) + 1j * np.sqrt(0.1))


def test_superimpose_three_user_termwise():
    # independent term-by-term evaluation of the weighted sums
    cfg = three_user_cfg()
    s = np.array([1, -1, 1], dtype=complex)
    phi = 1
    far = np.sqrt(0.8) * s[0]
    near_plain = np.sqrt(0.15) * s[1]
    near_rot = np.exp(1j * np.pi / 2) * np.sqrt(0.05) * s[2]
    assert np.isclose(superimpose(cfg, s, phi), far + near_plain + near_rot, atol=1e-12)


def test_superimpose_rejects_bad_inputs():
    cfg = SystemConfig(**TWO_USER)
    with pytest.raises(ValueError):
        superimpose(cfg, [1, 1], 2)
    with pytest.raises(ValueError):
        superimpose(cfg, [1, 0.5], 0)


def test_pack_bits_examples():
    cfg = SystemConfig(**TWO_USER)
    s, phi = pack_bits(cfg, [0, 1], [1])
    assert np.allclose(s, [1, -1]) and phi == 1
    s, phi = pack_bits(cfg, [0, 0], [0])
    assert np.allclose(s, [1, 1]) and phi == 0


def test_pack_bits_four_user_lookup_row():
    alphas = (0.5, 0.25, 0.15, 0.10)
    cfg = SystemConfig(n_users=4, n_far=1, mod_order=2, power_coeffs=alphas)
    assert cfg.n_index_bits == 2
    _, phi = pack_bits(cfg, [0, 0, 0, 0], [1, 0])
    assert phi == 2
    assert im_pattern(cfg, phi).rotated_set == (3, 4)


def test_pack_bits_wrong_lengths():
    cfg = SystemConfig(**TWO_USER)
    with pytest.raises(ValueError):
        pack_bits(cfg, [0], [1])
    with pytest.raises(ValueError):
        pack_bits(cfg, [0, 1], [])


def test_pack_unpack_roundtrip_random():
    cfg = SystemConfig(n_users=3, n_far=1, mod_order=4,
                       power_coeffs=(0.7, 0.2, 0.1))
    p = spectral_efficiency(cfg)
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        bits = rng.integers(0, 2, size=p)
        s, phi = pack_bits(cfg, bits[:cfg.n_symbol_bits], bits[cfg.n_symbol_bits:])
        assert np.array_equal(unpack_bits(cfg, s, phi), bits)


def test_phi_zero_gives_zero_index_bits():
    cfg = SystemConfig(**TWO_USER)
    s, phi = pack_bits(cfg, [1, 0], [0])
    assert phi == 0
    assert unpack_bits(cfg, s, phi)[-1] == 0


def test_alphabet_sizes():
    assert len(build_super_alphabet(SystemConfig(**TWO_USER))) == 8
    qpsk = SystemConfig(n_users=2, n_far=1, mod_order=4, power_coeffs=(0.9, 0.1))
    assert len(build_super_alphabet(qpsk)) == 32


def test_alphabet_cap():
    # 5:2:16 QAM: A = 16^5 * 4 = 2^22, refused before anything is allocated
    cfg = SystemConfig(n_users=5, n_far=2, mod_order=16, family="QAM",
                       power_coeffs=(0.5, 0.25, 0.15, 0.07, 0.03))
    with pytest.raises(ValueError):
        build_super_alphabet(cfg)


def test_alphabet_matches_hand_evaluated_two_user_diagram():
    cfg = SystemConfig(**TWO_USER)
    a, b = np.sqrt(0.9), np.sqrt(0.1)
    expected = {complex(np.round(s1 * a + f * s2 * b, 12))
                for s1 in (1, -1) for s2 in (1, -1) for f in (1, 1j)}
    got = {complex(np.round(x, 12)) for x in build_super_alphabet(cfg).x}
    assert got == expected and len(expected) == 8


def test_alphabet_entries_match_superimpose():
    cfg = three_user_cfg()
    alphabet = build_super_alphabet(cfg)
    nsb = cfg.n_symbol_bits
    for bits, x in zip(alphabet.bits, alphabet.x):
        s, phi = pack_bits(cfg, bits[:nsb], bits[nsb:])
        assert abs(x - superimpose(cfg, s, phi)) < 1e-12


def test_alphabet_mean_power_equals_total_power():
    for cfg in (SystemConfig(**TWO_USER), three_user_cfg()):
        alphabet = build_super_alphabet(cfg)
        assert abs(np.mean(np.abs(alphabet.x) ** 2) - cfg.total_power) < 1e-10


def test_far_marginal_invariant_under_patterns():
    cfg = three_user_cfg()
    alphabet = build_super_alphabet(cfg)
    nsb = cfg.n_symbol_bits
    far_terms = {}
    for bits in alphabet.bits:
        s, phi = pack_bits(cfg, bits[:nsb], bits[nsb:])
        contribution = complex(np.round(cfg.amplitudes[0] * s[0], 12))
        far_terms.setdefault(phi, []).append(contribution)
    reference = sorted(far_terms[0], key=lambda z: (z.real, z.imag))
    for phi, terms in far_terms.items():
        assert sorted(terms, key=lambda z: (z.real, z.imag)) == reference


def test_entry_index_selects_the_superimposed_point():
    cfg = three_user_cfg()
    alphabet = build_super_alphabet(cfg)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, cfg.mod_order, size=(50, 3))
    phis = rng.integers(0, cfg.n_patterns, size=50)
    x = alphabet.x[entry_index(cfg, idx, phis)]
    points = cfg.constellation.points
    for k in range(50):
        assert abs(x[k] - superimpose(cfg, points[idx[k]], int(phis[k]))) < 1e-12


def test_user_bit_positions_partition():
    cfg = three_user_cfg()
    covered = []
    for u in range(1, cfg.n_users + 1):
        covered.extend(user_bit_positions(cfg, u))
    covered.extend(user_bit_positions(cfg, "index"))
    assert sorted(covered) == list(range(spectral_efficiency(cfg)))
    for user in (0, cfg.n_users + 1):
        with pytest.raises(ValueError, match="out of range"):
            user_bit_positions(cfg, user)


@pytest.mark.parametrize("kw, want", [
    ({}, [("1", 1), ("2", 2), ("3", 3), ("index", 4)]),
    ({"index_user_mode": "near"}, [("1", 1), ("2", 2), ("3", 3), ("index", 3)]),
    ({"im_enabled": False}, [("1", 1), ("2", 2), ("3", 3)]),
], ids=["virtual", "near", "pdnoma"])
def test_channel_table_names_each_curve_and_its_receiver(kw, want):
    cfg = SystemConfig(n_users=3, n_far=1, mod_order=2, power_coeffs=(0.8, 0.15, 0.05), **kw)
    table = channels(cfg)
    assert [(name, rx) for name, _, rx in table] == want
    for name, pos, _ in table:
        assert pos == user_bit_positions(cfg, name)


def test_config_validation():
    # the one-user system is the OFDM baseline: no near group, no index bits
    one = SystemConfig(n_users=1, n_far=1, power_coeffs=(1.0,))
    assert one.n_index_bits == 0 and spectral_efficiency(one) == 1
    with pytest.raises(ValueError, match="one user"):
        SystemConfig(n_users=0, n_far=1, power_coeffs=())
    valid_powers = {1: (1.0,), 2: (0.9, 0.1), 3: (0.6, 0.3, 0.1)}
    for n_users, n_far in ((1, 0), (2, 0), (2, 2), (3, 3)):
        with pytest.raises(ValueError, match="n_far"):
            SystemConfig(n_users=n_users, n_far=n_far, power_coeffs=valid_powers[n_users])
    with pytest.raises(ValueError, match="one power coefficient per user"):
        SystemConfig(n_users=3, n_far=1, power_coeffs=(0.9, 0.1))
    with pytest.raises(ValueError):
        SystemConfig(n_users=2, n_far=2, power_coeffs=(0.9, 0.1))
    with pytest.raises(ValueError):
        SystemConfig(n_users=2, n_far=1, power_coeffs=(0.1, 0.9))
    with pytest.raises(ValueError):
        SystemConfig(n_users=2, n_far=1, power_coeffs=(0.8, 0.1))
    with pytest.raises(ValueError):
        SystemConfig(n_users=2, n_far=1, power_coeffs=(0.9, 0.1),
                     index_user_mode="bogus")


def _alphas(n):
    """Strictly decreasing power split summing to 1."""
    raw = np.arange(n, 0, -1, dtype=float)
    return tuple(raw / raw.sum())


ALPHABET_TABLE_CONFIGS = {
    "2:1:4": dict(n_users=2, n_far=1, mod_order=4, power_coeffs=(0.9, 0.1)),
    "2:1:8QAM": dict(n_users=2, n_far=1, mod_order=8, family="QAM", power_coeffs=(0.9, 0.1)),
    "2:1:16QAM": dict(n_users=2, n_far=1, mod_order=16, family="QAM", power_coeffs=(0.9, 0.1)),
    "4:1:2": dict(n_users=4, n_far=1, mod_order=2, power_coeffs=_alphas(4)),
    "5:2:2": dict(n_users=5, n_far=2, mod_order=2, power_coeffs=_alphas(5)),
    "3:1:8-noIM": dict(n_users=3, n_far=1, mod_order=8, power_coeffs=_alphas(3),
                       im_enabled=False),
}


@pytest.mark.parametrize("name", ALPHABET_TABLE_CONFIGS)
def test_alphabet_entry_fields_decode_its_bit_string(name):
    # pack_bits is the scalar oracle: entry i transmits the bit-string i, and
    # entry_index encodes its symbols and pattern back to i
    cfg = SystemConfig(**ALPHABET_TABLE_CONFIGS[name])
    alphabet = build_super_alphabet(cfg)
    weights = 1 << np.arange(spectral_efficiency(cfg) - 1, -1, -1)
    assert np.array_equal(alphabet.bits @ weights, np.arange(len(alphabet)))
    nsb, b = cfg.n_symbol_bits, cfg.bits_per_symbol
    const = cfg.constellation
    sym_idx = np.empty((len(alphabet), cfg.n_users), dtype=int)
    phis = np.empty(len(alphabet), dtype=int)
    for i, bits in enumerate(alphabet.bits):
        s, phis[i] = pack_bits(cfg, bits[:nsb], bits[nsb:])
        sym_idx[i] = [index_for_bits(const, bits[n * b:(n + 1) * b]) for n in range(cfg.n_users)]
        assert np.array_equal(s, const.points[sym_idx[i]])
        assert abs(alphabet.x[i] - superimpose(cfg, s, phis[i])) < 1e-12
    assert np.array_equal(entry_index(cfg, sym_idx, phis), np.arange(len(alphabet)))


def test_entry_index_leaves_undecided_fields_zero():
    # the SIC receiver of user 2 of 3 decides two symbols and no pattern
    cfg = three_user_cfg()
    entries = entry_index(cfg, np.array([[1, 1], [0, 1]]))
    assert entries.tolist() == [0b1100, 0b0100]
    assert entry_index(cfg, np.array([[1, 1, 1]]), np.array([1])).tolist() == [0b1111]


@pytest.mark.parametrize("n, b", [(2, 1), (3, 1), (4, 1), (5, 2)])
def test_rotation_flags_match_im_pattern(n, b):
    cfg = SystemConfig(n_users=n, n_far=b, mod_order=2, power_coeffs=_alphas(n))
    flags = rotation_flags(cfg)
    assert flags.shape == (cfg.n_patterns, n)
    for phi in range(cfg.n_patterns):
        rotated = tuple(int(u) + 1 for u in np.flatnonzero(flags[phi]))
        assert rotated == im_pattern(cfg, phi).rotated_set


def test_n_index_bits_is_floor_log2_of_patterns():
    for n_near in range(1, 65):
        cfg = SystemConfig(n_users=n_near + 1, n_far=1, mod_order=2,
                           power_coeffs=_alphas(n_near + 1))
        assert cfg.n_index_bits == math.floor(math.log2(n_near + 1))
        assert cfg.n_patterns == 2 ** cfg.n_index_bits
