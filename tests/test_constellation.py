import numpy as np
import pytest

from imnomarc.constellation import Constellation, build_constellation

from oracles import map_bits, rotate


def mean_power(c):
    return float(np.mean(np.abs(c.points) ** 2))


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
    assert abs(mean_power(c) - 1.0) < 1e-12


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
        assert abs(mean_power(rotate(c, theta)) - mean_power(c)) < 1e-12


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
                hamming = sum(a != b for a, b in zip(c.bits[i], c.bits[j]))
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


def test_constellation_rejects_nonunit_power():
    with pytest.raises(ValueError):
        Constellation(points=np.array([2.0, -2.0]), bits=np.array([[0], [1]]))


def test_constellation_rejects_point_count_not_a_power_of_two():
    points = np.exp(2j * np.pi * np.arange(3) / 3)
    with pytest.raises(ValueError, match="power of two, got 3"):
        Constellation(points=points, bits=np.array([[0], [1], [1]]))


# Label rows of point 0, 1, ..., M-1, as built from the Gray code.
LABEL_TABLES = {
    (2, "PSK"): [[0], [1]],
    (4, "PSK"): [[0, 0], [0, 1], [1, 1], [1, 0]],
    (8, "PSK"): [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0],
                 [1, 1, 0], [1, 1, 1], [1, 0, 1], [1, 0, 0]],
    (8, "QAM"): [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
                 [1, 1, 0], [1, 1, 1], [1, 0, 0], [1, 0, 1]],
    (16, "QAM"): [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 0],
                  [0, 1, 0, 0], [0, 1, 0, 1], [0, 1, 1, 1], [0, 1, 1, 0],
                  [1, 1, 0, 0], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0],
                  [1, 0, 0, 0], [1, 0, 0, 1], [1, 0, 1, 1], [1, 0, 1, 0]],
}


@pytest.mark.parametrize("order,family", LABEL_TABLES)
def test_label_tables_are_pinned(order, family):
    c = build_constellation(order, family)
    assert c.bits.dtype == np.uint8
    assert c.bits.tolist() == LABEL_TABLES[(order, family)]


@pytest.mark.parametrize("bits", [[[0], [0]], [[0, 0], [1, 1]], [[0], [2]]],
                         ids=["repeated-row", "wrong-width", "not-a-bit"])
def test_constellation_rejects_labels_that_are_not_a_bijection(bits):
    with pytest.raises(ValueError, match="bijection"):
        Constellation(points=np.array([1.0, -1.0]), bits=np.array(bits))


@pytest.mark.parametrize("order,family", [(2 ** k, "PSK") for k in range(1, 9)]
                         + [(m, "QAM") for m in (4, 8, 16, 64)])
def test_labels_are_linear_over_xor(order, family):
    # The harness and the bound count bit errors as a weight table at i ^ j;
    # that needs bits[i ^ j] == bits[i] ^ bits[j] for every pair of points.
    bits = build_constellation(order, family).bits
    i = np.arange(order)
    assert np.array_equal(bits[i[:, None] ^ i], bits[:, None, :] ^ bits[None, :, :])


@pytest.mark.parametrize("order,family", [(m, "PSK") for m in (2, 4, 8, 16, 32)]
                         + [(m, "QAM") for m in (4, 8, 16, 64)])
def test_negation_is_one_label_mask_bit_for_bit(order, family):
    # The bound folds an alphabet's pairs under x[i ^ m] == -x[i]; that needs
    # the point with label l ^ mask to be the exact negation of the point
    # with label l, for one mask and every l
    c = build_constellation(order, family)
    labels = c.bits @ (1 << np.arange(c.bits_per_symbol - 1, -1, -1))
    point_of_label = np.argsort(labels)
    negated = (-c.points).view(np.uint64)
    masks = [m for m in range(1, order)
             if np.array_equal(c.points[point_of_label[labels ^ m]].view(np.uint64), negated)]
    assert len(masks) == 1
