"""Bitstring/integer conversions shared across modules.

All strings are MSB-first, matching the package-wide outcome ordering.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def int_to_bits(x: int, width: int) -> str:
    return format(x, f"0{width}b")


def ints_to_bits(xs: np.ndarray, width: int) -> list[str]:
    """Array form of int_to_bits, for 0 <= x < 2^width, built a byte per character."""
    xs, chars = np.asarray(xs, dtype=np.int64), np.empty((len(xs), width), dtype=np.uint8)
    for j in range(width):
        chars[:, j] = ((xs >> (width - 1 - j)) & 1) + ord("0")
    text = chars.tobytes().decode("ascii")
    return [text[i * width : (i + 1) * width] for i in range(len(chars))]


def bits_to_int(s: str) -> int:
    return int(s, 2) if s else 0


def str_to_arr(s: str) -> np.ndarray:
    """'0101' -> uint8 array [0,1,0,1]."""
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def strs_to_arr(strings: list[str]) -> np.ndarray:
    """Array form of str_to_arr: strings of one length -> uint8 matrix, a row each."""
    if len(set(map(len, strings))) > 1:
        raise UsageError("bit strings differ in length")
    return str_to_arr("".join(strings)).reshape(len(strings), len(strings[0]) if strings else 0)


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
