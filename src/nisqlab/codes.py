"""Recursive concatenated classical code: membership, decoding, robust eval.

The construction starts from a base pair (C, C^perp) with C^perp a subcode
of C and the all-ones complement coset C^perp + 1 at distance >= 2d + 1 from
C^perp.  Level-1 codeword sets are B_0 = C^perp and B_1 = C^perp + 1; level r
encodes an m-bit codeword of level 1 by replacing each bit with a level-(r-1)
block.  A-sets are the error neighborhoods: up to d sub-blocks may be
arbitrary per level.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bits import arr_to_str, str_to_arr
from .errors import CapacityError, InvariantViolation, UsageError
from .oracles import SimonSpec, make_simon
from .qsim import PureState

BLOCK_LENGTH_CAP = 2**20
STATE_BLOCK_CAP = 14


class DecodedBit(enum.Enum):
    ZERO = 0
    ONE = 1
    BOTTOM = "bottom"

    @classmethod
    def from_bit(cls, b: int) -> "DecodedBit":
        return cls.ONE if b else cls.ZERO

    @property
    def is_bottom(self) -> bool:
        return self is DecodedBit.BOTTOM

    @property
    def bit(self) -> int:
        if self.is_bottom:
            raise UsageError("no bit value: decoding failed")
        return self.value


def _span(generator: np.ndarray) -> np.ndarray:
    """All GF(2) combinations of the generator rows, one unique word per row."""
    k, m = generator.shape
    combos = ((np.arange(2**k)[:, None] >> np.arange(k)[None, ::-1]) & 1).astype(np.uint8)
    return np.unique((combos @ generator) % 2, axis=0)


@dataclass(frozen=True)
class BaseCode:
    """Base pair (C, C^perp) with C^perp <= C and well-separated cosets."""

    m: int
    generator_c: np.ndarray
    generator_c_perp: np.ndarray
    d: int

    def __post_init__(self) -> None:
        gc = np.asarray(self.generator_c, dtype=np.uint8) % 2
        gp = np.asarray(self.generator_c_perp, dtype=np.uint8) % 2
        if gc.ndim != 2 or gc.shape[1] != self.m or gp.ndim != 2 or gp.shape[1] != self.m:
            raise UsageError(f"generator matrices must have {self.m} columns")
        if self.d < 0:
            raise UsageError("d must be nonnegative")
        object.__setattr__(self, "generator_c", gc)
        object.__setattr__(self, "generator_c_perp", gp)
        code_c = {arr_to_str(w) for w in _span(gc)}
        coset0 = _span(gp)
        coset1 = (coset0 + 1) % 2
        missing = [arr_to_str(w) for w in coset0 if arr_to_str(w) not in code_c]
        if missing:
            raise UsageError(f"dual words {missing[:3]} are not codewords of C")
        sep = min(
            int((w0 != w1).sum()) for w0 in coset0 for w1 in coset1
        )
        if sep < 2 * self.d + 1:
            raise UsageError(
                f"coset separation {sep} below 2d+1 = {2 * self.d + 1}"
            )
        object.__setattr__(self, "_cosets", (coset0, coset1))
        object.__setattr__(self, "_coset_sets", (
            {arr_to_str(w) for w in coset0},
            {arr_to_str(w) for w in coset1},
        ))

    def coset(self, b: int) -> np.ndarray:
        return self._cosets[b]

    def in_coset(self, word: np.ndarray, b: int) -> bool:
        return arr_to_str(word) in self._coset_sets[b]

    @classmethod
    def from_json(cls, text: str) -> "BaseCode":
        doc = json.loads(text)
        return cls(
            int(doc["m"]),
            np.array(doc["generator_c"], dtype=np.uint8),
            np.array(doc["generator_c_perp"], dtype=np.uint8),
            int(doc["d"]),
        )


def hamming_base_code() -> BaseCode:
    """[7,4] Hamming with its simplex dual; corrects d = 1 error per level."""
    gen_c = [
        [1, 1, 1, 0, 0, 0, 0],
        [1, 0, 0, 1, 1, 0, 0],
        [0, 1, 0, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 0, 1],
    ]
    gen_perp = [
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ]
    return BaseCode(7, np.array(gen_c), np.array(gen_perp), 1)


def tiny_base_code() -> BaseCode:
    """m = 3 toy base (C = full space, C^perp = {0}); handy for r = 2 states."""
    gen_c = np.eye(3, dtype=np.uint8)
    gen_perp = np.zeros((1, 3), dtype=np.uint8)
    return BaseCode(3, gen_c, gen_perp, 1)


@dataclass(frozen=True)
class ConcatCodeSpec:
    base: BaseCode
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise UsageError("recursion depth must be >= 1")
        if self.block_length > BLOCK_LENGTH_CAP:
            raise CapacityError(
                f"block length {self.base.m}^{self.r} exceeds {BLOCK_LENGTH_CAP}"
            )

    @property
    def block_length(self) -> int:
        return self.base.m**self.r


def _as_block(x, length: int) -> np.ndarray:
    arr = str_to_arr(x) if isinstance(x, str) else np.asarray(x, dtype=np.uint8) % 2
    if arr.shape != (length,):
        raise UsageError(f"expected a {length}-bit block, got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _membership_b(arr: np.ndarray, base: BaseCode, r: int) -> DecodedBit:
    if r == 1:
        for b in (0, 1):
            if base.in_coset(arr, b):
                return DecodedBit.from_bit(b)
        return DecodedBit.BOTTOM
    sub = arr.reshape(base.m, -1)
    word = np.empty(base.m, dtype=np.uint8)
    for i in range(base.m):
        dec = _membership_b(sub[i], base, r - 1)
        if dec.is_bottom:
            return DecodedBit.BOTTOM
        word[i] = dec.bit
    for b in (0, 1):
        if base.in_coset(word, b):
            return DecodedBit.from_bit(b)
    return DecodedBit.BOTTOM


def membership_B(x, spec: ConcatCodeSpec) -> DecodedBit:
    """Exact codeword membership: b if x encodes b with zero errors."""
    return _membership_b(_as_block(x, spec.block_length), spec.base, spec.r)


def _coset_distance(word: np.ndarray, base: BaseCode, b: int) -> int:
    return int((word[None, :] != base.coset(b)).sum(axis=1).min())


def _membership_a(arr: np.ndarray, base: BaseCode, r: int) -> DecodedBit:
    if r == 1:
        decoded = arr
    else:
        sub = arr.reshape(base.m, -1)
        decoded = np.full(base.m, 2, dtype=np.uint8)  # 2 marks a failed sub-block
        for i in range(base.m):
            dec = _membership_a(sub[i], base, r - 1)
            if not dec.is_bottom:
                decoded[i] = dec.bit
    hits = [b for b in (0, 1) if _coset_distance(decoded, base, b) <= base.d]
    if len(hits) > 1:
        raise InvariantViolation(f"error sets overlap at r={r}: {arr_to_str(arr)}")
    return DecodedBit.from_bit(hits[0]) if hits else DecodedBit.BOTTOM


def membership_A(x, spec: ConcatCodeSpec) -> DecodedBit:
    """Error-neighborhood membership: up to d bad sub-blocks per level."""
    return _membership_a(_as_block(x, spec.block_length), spec.base, spec.r)


# ---------------------------------------------------------------------------
# encoding / sampling helpers
# ---------------------------------------------------------------------------


def encode_bit(spec: ConcatCodeSpec, b: int, index: int = 0) -> np.ndarray:
    """A canonical codeword of B^(r)_b (coset word `index` at every level)."""
    base = spec.base

    def build(bit: int, r: int) -> np.ndarray:
        word = base.coset(bit)[index % len(base.coset(bit))]
        if r == 1:
            return word.copy()
        return np.concatenate([build(int(w), r - 1) for w in word])

    return build(int(b), spec.r)


def sample_codeword(spec: ConcatCodeSpec, b: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random element of B^(r)_b."""
    base = spec.base

    def build(bit: int, r: int) -> np.ndarray:
        word = base.coset(bit)[rng.integers(0, len(base.coset(bit)))]
        if r == 1:
            return word.copy()
        return np.concatenate([build(int(w), r - 1) for w in word])

    return build(int(b), spec.r)


def sample_sparse_flips(spec: ConcatCodeSpec, rng: np.random.Generator, r: int | None = None) -> np.ndarray:
    """A random flip pattern the A-sets absorb: per level, at most d
    sub-blocks are corrupted arbitrarily and the rest recurse."""
    base = spec.base

    def build(r: int) -> np.ndarray:
        length = base.m**r
        if r == 1:
            flips = np.zeros(base.m, dtype=np.uint8)
            hit = rng.choice(base.m, size=rng.integers(0, base.d + 1), replace=False)
            flips[hit] = 1
            return flips
        out = np.concatenate([build(r - 1) for _ in range(base.m)])
        wild = rng.choice(base.m, size=rng.integers(0, base.d + 1), replace=False)
        sub = base.m ** (r - 1)
        for i in wild:
            out[i * sub : (i + 1) * sub] = rng.integers(0, 2, size=sub)
        return out

    return build(spec.r if r is None else r)


# ---------------------------------------------------------------------------
# robust function evaluation and majority decoding
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _simon_table(simon: SimonSpec) -> np.ndarray:
    return make_simon(simon).table()


def robust_simon_eval(x, spec: ConcatCodeSpec, simon: SimonSpec) -> str:
    """Decode n' blocks, apply the hidden-period function, repetition-encode.

    Any block outside both error neighborhoods collapses the output to the
    repetition encoding of the all-zero string.  Bits past the first
    n' * m^r are ignored (the lifting acts trivially on them).
    """
    block = spec.block_length
    n_prime = simon.n
    arr = str_to_arr(x) if isinstance(x, str) else np.asarray(x, dtype=np.uint8) % 2
    if arr.size < block * n_prime:
        raise UsageError(
            f"need at least {block * n_prime} bits, got {arr.size}"
        )
    bits = []
    for j in range(n_prime):
        dec = _membership_a(arr[j * block : (j + 1) * block], spec.base, spec.r)
        if dec.is_bottom:
            return "0" * (block * n_prime)
        bits.append(dec.bit)
    z = int("".join(map(str, bits)), 2)
    fz = int(_simon_table(simon)[z])
    out = np.zeros(block * n_prime, dtype=np.uint8)
    for j in range(n_prime):
        if (fz >> (n_prime - 1 - j)) & 1:
            out[j * block : (j + 1) * block] = 1
    return arr_to_str(out)


def _nearest_coset_bit(word: np.ndarray, base: BaseCode) -> int:
    return 0 if _coset_distance(word, base, 0) <= _coset_distance(word, base, 1) else 1


def recursive_majority_decode(x, spec: ConcatCodeSpec) -> int:
    """Nearest-coset decoding at every level; total (ties go to 0)."""
    base = spec.base

    def decode(arr: np.ndarray, r: int) -> int:
        if r == 1:
            return _nearest_coset_bit(arr, base)
        sub = arr.reshape(base.m, -1)
        word = np.array([decode(sub[i], r - 1) for i in range(base.m)], dtype=np.uint8)
        return _nearest_coset_bit(word, base)

    return decode(_as_block(x, spec.block_length), spec.r)


def enumerate_codewords(spec: ConcatCodeSpec, b: int, r: int | None = None) -> list[np.ndarray]:
    """All of B^(r)_b; exponential in r, guarded by the state cap."""
    base = spec.base
    r = spec.r if r is None else r
    if base.m**r > STATE_BLOCK_CAP:
        raise CapacityError(f"enumeration over {base.m}^{r} bits exceeds {STATE_BLOCK_CAP}")

    def build(bit: int, level: int) -> list[np.ndarray]:
        if level == 1:
            return [w.copy() for w in base.coset(bit)]
        out = []
        for word in base.coset(bit):
            parts = [build(int(w), level - 1) for w in word]
            idx = [0] * base.m
            while True:
                out.append(np.concatenate([parts[i][idx[i]] for i in range(base.m)]))
                for i in reversed(range(base.m)):
                    idx[i] += 1
                    if idx[i] < len(parts[i]):
                        break
                    idx[i] = 0
                else:
                    break
        return out

    return build(int(b), r)


def codeword_state(spec: ConcatCodeSpec, b: int, r: int | None = None) -> PureState:
    """Uniform superposition over B^(r)_b on m^r qubits."""
    base = spec.base
    r = spec.r if r is None else r
    n = base.m**r
    if n > STATE_BLOCK_CAP:
        raise CapacityError(f"codeword state needs {n} qubits, cap {STATE_BLOCK_CAP}")
    words = enumerate_codewords(spec, b, r)
    amps = np.zeros(2**n, dtype=np.complex128)
    for w in words:
        amps[int(arr_to_str(w), 2)] = 1.0
    amps /= math.sqrt(len(words))
    return PureState(n, amps)
