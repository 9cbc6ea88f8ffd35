"""Base M-ary constellations: construction and Gray labeling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def bit_rows(values, width: int) -> np.ndarray:
    """(len(values), width) uint8 table of each integer's bits, MSB first."""
    values = np.asarray(values)
    return ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


@dataclass
class Constellation:
    """An ordered set of unit-average-power complex points with their bit labels.

    ``bits`` is the (M, log2 M) uint8 table whose row k labels point k; its
    rows are distinct, so the labeling is a bijection over all M points.
    """

    points: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        order = len(self.points)
        if order < 2 or order & (order - 1):
            raise ValueError(f"point count must be a power of two, got {order}")
        mean_power = np.mean(np.abs(self.points) ** 2)
        if abs(mean_power - 1.0) > 1e-9:
            raise ValueError(f"constellation not unit power: {mean_power}")
        if (self.bits.shape != (order, self.bits_per_symbol) or self.bits.max() > 1
                or np.bincount(self.bits @ (1 << np.arange(self.bits_per_symbol))).max() > 1):
            raise ValueError("bit labels must form a bijection over all points")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(len(self.points)))


def build_constellation(order: int, family: str = "PSK") -> Constellation:
    """Build a unit-average-power Gray-labeled constellation.

    PSK places points on the unit circle (QPSK on the pi/4 diagonals). QAM
    uses the rectangular grid: square for M in {4, 16, 64}, 4x2 for M = 8.
    Every constellation is exactly antipodal: negating a point, bit for bit,
    gives the point whose label is its own XOR one fixed mask.
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


def _gray_code(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


def _build_psk(order: int) -> Constellation:
    k = np.arange(order)
    offset = np.pi / 4 if order == 4 else 0.0
    half = np.exp(1j * (2 * np.pi * k[:order // 2] / order + offset))
    # point k + M/2 is the exact negation of point k, which exp misses by an
    # ulp; point k carries the Gray code of k
    points = np.concatenate([half, -half])
    return Constellation(points=points, bits=bit_rows(_gray_code(k), int(np.log2(order))))


def _build_qam(order: int) -> Constellation:
    b = int(np.log2(order))
    re_bits = (b + 1) // 2
    im_bits = b - re_bits
    n_re, n_im = 2 ** re_bits, 2 ** im_bits
    # point col * n_im + row: Gray-coded column bits, then Gray-coded row bits
    col, row = np.divmod(np.arange(order), n_im)
    points = (2 * col - (n_re - 1)) + 1j * (2 * row - (n_im - 1))
    points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    gray = (_gray_code(col) << im_bits) | _gray_code(row)
    return Constellation(points=points, bits=bit_rows(gray, b))
