"""Base M-ary constellations: construction, Gray labeling, and rotation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POWER_TOL = 1e-12


def _gray_code(i: int) -> int:
    return i ^ (i >> 1)


def _int_to_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - k)) & 1 for k in range(width))


@dataclass
class Constellation:
    """An ordered set of unit-average-power complex points with a bit-label map.

    ``labels`` maps each length-log2(M) bit tuple to a point index; the map is
    a bijection over all M points. ``bits`` is its inverse as an (M, log2 M)
    uint8 table, the one every bit mapping reads.
    """

    points: np.ndarray
    labels: dict[tuple[int, ...], int]
    order: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        if self.order < 2 or self.order & (self.order - 1):
            raise ValueError(f"order must be a power of two, got {self.order}")
        if len(self.points) != self.order:
            raise ValueError("point count does not match order")
        mean_power = np.mean(np.abs(self.points) ** 2)
        if abs(mean_power - 1.0) > 1e-9:
            raise ValueError(f"constellation not unit power: {mean_power}")
        if len(self.labels) != self.order or set(self.labels.values()) != set(range(self.order)):
            raise ValueError("labels must form a bijection over all points")
        self.bits = np.zeros((self.order, self.bits_per_symbol), dtype=np.uint8)
        for label, idx in self.labels.items():
            self.bits[idx] = label

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    def bits_for_index(self, index: int) -> tuple[int, ...]:
        return tuple(int(b) for b in self.bits[index])

    def index_for_bits(self, bits) -> int:
        key = tuple(int(b) for b in bits)
        if len(key) != self.bits_per_symbol:
            raise ValueError(f"expected {self.bits_per_symbol} bits, got {len(key)}")
        return self.labels[key]

    def average_power(self) -> float:
        return float(np.mean(np.abs(self.points) ** 2))


@dataclass
class RotationSet:
    """The two rotation angles (radians) of the IM operation: 0 for unrotated
    users and the angle applied to the rotated suffix."""

    angles: tuple[float, ...] = (0.0, np.pi / 2)

    def __post_init__(self):
        self.angles = tuple(float(a) for a in self.angles)
        if len(self.angles) != 2:
            raise ValueError(f"expected exactly two rotation angles, got {len(self.angles)}")
        if self.angles[0] != 0.0:
            raise ValueError("first rotation angle must be exactly 0")
        reduced = np.mod(self.angles, 2 * np.pi)
        if len(np.unique(np.round(reduced, 12))) != len(self.angles):
            raise ValueError("rotation angles must be distinct modulo 2*pi")


def build_constellation(order: int, family: str = "PSK") -> Constellation:
    """Build a unit-average-power Gray-labeled constellation.

    PSK places points on the unit circle (QPSK on the pi/4 diagonals). QAM
    uses the rectangular grid: square for M in {4, 16, 64}, 4x2 for M = 8.
    """
    family = family.upper()
    if order < 2 or order & (order - 1):
        raise ValueError(f"unsupported order {order}")
    if family == "PSK":
        return _build_psk(order)
    if family == "QAM":
        if order not in (4, 8, 16, 64):
            raise ValueError(f"unsupported QAM order {order}")
        return _build_qam(order)
    raise ValueError(f"unsupported family {family!r}")


def _build_psk(order: int) -> Constellation:
    b = int(np.log2(order))
    offset = np.pi / 4 if order == 4 else 0.0
    points = np.exp(1j * (2 * np.pi * np.arange(order) / order + offset))
    if order == 2:
        points = np.array([1.0 + 0j, -1.0 + 0j])
    labels = {_int_to_bits(_gray_code(k), b): k for k in range(order)}
    return Constellation(points=points, labels=labels, order=order)


def _build_qam(order: int) -> Constellation:
    b = int(np.log2(order))
    re_bits = (b + 1) // 2
    im_bits = b - re_bits
    n_re, n_im = 2 ** re_bits, 2 ** im_bits
    re_levels = 2 * np.arange(n_re) - (n_re - 1)
    im_levels = 2 * np.arange(n_im) - (n_im - 1)
    points = np.empty(order, dtype=complex)
    labels = {}
    for col in range(n_re):
        for row in range(n_im):
            idx = col * n_im + row
            points[idx] = re_levels[col] + 1j * im_levels[row]
            bits = _int_to_bits(_gray_code(col), re_bits) + _int_to_bits(_gray_code(row), im_bits)
            labels[bits] = idx
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    return Constellation(points=points, labels=labels, order=order)


def rotate(c: Constellation, angle: float) -> Constellation:
    """Rotate every point by ``angle`` radians; labels and power are preserved."""
    return Constellation(points=c.points * np.exp(1j * angle), labels=dict(c.labels), order=c.order)


def map_bits(c: Constellation, bits) -> complex:
    """Map a length-log2(M) bit sequence to its labeled point."""
    return complex(c.points[c.index_for_bits(bits)])
