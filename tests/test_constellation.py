import numpy as np
import pytest

from imnomarc.constellation import (Constellation, RotationSet,
                                    build_constellation, map_bits, rotate)


def test_bpsk_points_and_labels():
    c = build_constellation(2, "PSK")
    assert np.allclose(c.points, [1, -1])
    assert map_bits(c, [0]) == 1
    assert map_bits(c, [1]) == -1


def test_qpsk_points_on_diagonals():
    c = build_constellation(4, "PSK")
    expected = np.exp(1j * np.array([1, 3, 5, 7]) * np.pi / 4)
    assert np.allclose(sorted(c.points, key=lambda z: np.angle(z)),
                       sorted(expected, key=lambda z: np.angle(z)))


def test_8qam_scale_factor():
    # oracle: enumerate the +-1/+-3 x +-1 lattice and normalize by its mean power
    lattice = np.array([re + 1j * im for re in (-3, -1, 1, 3) for im in (-1, 1)])
    mean_power = np.mean(np.abs(lattice) ** 2)
    assert np.isclose(mean_power, 6.0)
    c = build_constellation(8, "QAM")
    assert np.isclose(np.max(np.abs(c.points.real)), 3 / np.sqrt(6))
    assert set(np.round(np.abs(c.points.imag), 12)) == {round(1 / np.sqrt(6), 12)}


@pytest.mark.parametrize("order,family", [(2, "PSK"), (4, "PSK"), (8, "PSK"),
                                          (4, "QAM"), (8, "QAM"), (16, "QAM"), (64, "QAM")])
def test_unit_average_power(order, family):
    c = build_constellation(order, family)
    assert abs(c.average_power() - 1.0) < 1e-12


@pytest.mark.parametrize("order,family", [(3, "PSK"), (2, "QAM"), (32, "QAM"), (4, "APSK")])
def test_unsupported_pairs_raise(order, family):
    with pytest.raises(ValueError):
        build_constellation(order, family)


def test_rotate_bpsk_quarter_turn():
    c = rotate(build_constellation(2, "PSK"), np.pi / 2)
    assert np.allclose(c.points, [1j, -1j])


def test_rotate_identity():
    c = build_constellation(4, "QAM")
    assert np.allclose(rotate(c, 0.0).points, c.points)


def test_rotate_inverse_roundtrip():
    rng = np.random.default_rng(7)
    c = build_constellation(8, "QAM")
    for theta in rng.uniform(-np.pi, np.pi, size=25):
        back = rotate(rotate(c, theta), -theta)
        assert np.max(np.abs(back.points - c.points)) < 1e-12


def test_rotate_preserves_power():
    c = build_constellation(16, "QAM")
    for theta in np.linspace(0, 2 * np.pi, 13):
        assert abs(rotate(c, theta).average_power() - c.average_power()) < 1e-12


def test_qpsk_pi_half_symmetry():
    c = build_constellation(4, "PSK")
    r = rotate(c, np.pi / 2)
    # same point set, labels permuted
    for p in r.points:
        assert np.min(np.abs(c.points - p)) < 1e-12
    assert not np.allclose(r.points, c.points)


@pytest.mark.parametrize("order,family", [(2, "PSK"), (4, "PSK"), (8, "QAM"), (16, "QAM")])
def test_map_bits_injective(order, family):
    c = build_constellation(order, family)
    b = c.bits_per_symbol
    seen = {map_bits(c, [(k >> (b - 1 - i)) & 1 for i in range(b)]) for k in range(order)}
    assert len(seen) == order


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_psk_gray_property(order):
    c = build_constellation(order, "PSK")
    dists = np.abs(c.points[:, None] - c.points[None, :])
    np.fill_diagonal(dists, np.inf)
    dmin = dists.min()
    for i in range(order):
        for j in range(order):
            if i < j and np.isclose(dists[i, j], dmin):
                hamming = sum(a != b for a, b in zip(c.bits_for_index(i), c.bits_for_index(j)))
                assert hamming == 1


def test_map_bits_wrong_length():
    c = build_constellation(4, "PSK")
    with pytest.raises(ValueError):
        map_bits(c, [0])


def test_qpsk_gray_neighbor_of_00():
    c = build_constellation(4, "PSK")
    p00 = map_bits(c, [0, 0])
    p01 = map_bits(c, [0, 1])
    dists = np.abs(c.points[:, None] - c.points[None, :])
    np.fill_diagonal(dists, np.inf)
    assert np.isclose(abs(p00 - p01), dists.min())


def test_rotation_set_validation():
    RotationSet((0.0, np.pi / 2))
    with pytest.raises(ValueError):
        RotationSet((np.pi / 2, 0.0))
    with pytest.raises(ValueError):
        RotationSet((0.0, np.pi, np.pi - 2 * np.pi + 2 * np.pi))
    with pytest.raises(ValueError):
        RotationSet((0.0, 2 * np.pi))
    for wrong_count in ((0.0,), (0.0, 1.0, 2.0)):
        with pytest.raises(ValueError, match="exactly two"):
            RotationSet(wrong_count)


def test_constellation_rejects_nonunit_power():
    with pytest.raises(ValueError):
        Constellation(points=np.array([2.0, -2.0]), labels={(0,): 0, (1,): 1}, order=2)
