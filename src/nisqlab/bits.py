"""Bitstring/integer conversions shared across modules.

All strings are MSB-first, matching the package-wide outcome ordering.
"""

from __future__ import annotations

import numpy as np


def int_to_bits(x: int, width: int) -> str:
    return format(x, f"0{width}b")


def bits_to_int(s: str) -> int:
    return int(s, 2) if s else 0


def parity(x: int) -> int:
    return x.bit_count() & 1


def str_to_arr(s: str) -> np.ndarray:
    """'0101' -> uint8 array [0,1,0,1]."""
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def arr_to_str(a: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(a).reshape(-1))


def extract_field(idx: np.ndarray, positions, total_bits: int) -> np.ndarray:
    """Pull the bits at `positions` (MSB-first order) out of each index."""
    out = np.zeros_like(idx)
    width = len(positions)
    for j, pos in enumerate(positions):
        bit = (idx >> (total_bits - 1 - pos)) & 1
        out |= bit << (width - 1 - j)
    return out


def spread_field(values: np.ndarray, positions, total_bits: int) -> np.ndarray:
    """Inverse of extract_field: place value bits at `positions`."""
    out = np.zeros_like(values)
    width = len(positions)
    for j, pos in enumerate(positions):
        bit = (values >> (width - 1 - j)) & 1
        out |= bit << (total_bits - 1 - pos)
    return out
