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
import itertools
from dataclasses import dataclass

import numpy as np

from .bits import arr_to_str, str_to_arr
from .errors import CapacityError, InvariantViolation, UsageError
from .oracles import SimonSpec, make_simon

BLOCK_LENGTH_CAP = 2**20
STATE_BLOCK_CAP = 14


class DecodedBit(enum.Enum):
    ZERO = 0
    ONE = 1
    BOTTOM = "bottom"

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
        object.__setattr__(self, "_cosets", (coset0, coset1))
        sep = int(_coset_distance(coset1, self, 0).min())
        if sep < 2 * self.d + 1:
            raise UsageError(
                f"coset separation {sep} below 2d+1 = {2 * self.d + 1}"
            )

    def coset(self, b: int) -> np.ndarray:
        return self._cosets[b]


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


def _as_bits(x) -> np.ndarray:
    if isinstance(x, str):
        if set(x) - {"0", "1"}:
            raise UsageError(f"bit strings hold only 0 and 1, got {x!r}")
        return str_to_arr(x)
    return np.asarray(x, dtype=np.uint8) % 2


def _as_block(x, length: int) -> np.ndarray:
    arr = _as_bits(x)
    if arr.shape != (length,):
        raise UsageError(f"expected a {length}-bit block, got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# membership and decoding: one level-wise fold
# ---------------------------------------------------------------------------


def _coset_distance(words: np.ndarray, base: BaseCode, b: int) -> np.ndarray:
    """Distance from each row of `words` to the nearest word of coset b."""
    return (words[:, None, :] != base.coset(b)).sum(axis=2).min(axis=1)


# Each rule names the words it accepts into coset 0 and into coset 1.


def _exact(d0, d1, d):
    return d0 == 0, d1 == 0


def _neighbourhood(d0, d1, d):
    return d0 <= d, d1 <= d


def _majority(d0, d1, d):
    return d0 <= d1, d1 < d0


def _fold(arr: np.ndarray, spec: ConcatCodeSpec, classify) -> np.ndarray:
    """Decode each m^r-bit block of `arr` to one symbol, bottom level first.

    Every level reads the symbols as m-symbol words and maps each word to 0
    or 1 if `classify` accepts it into that coset only, else to 2
    (undecoded).  Symbol 2 matches no coset letter, so an undecoded
    sub-block is one error a level up.  A word accepted by both cosets
    means the error sets overlap.
    """
    base, sym = spec.base, arr
    for level in range(1, spec.r + 1):
        words = sym.reshape(-1, base.m)
        hit0, hit1 = classify(_coset_distance(words, base, 0), _coset_distance(words, base, 1), base.d)
        both = np.flatnonzero(hit0 & hit1)
        if both.size:
            word = "".join(map(str, words[both[0]]))
            raise InvariantViolation(f"error sets overlap at r={level}: {word}")
        sym = np.where(hit0 | hit1, hit1, 2)
    return sym


_DECODED = (DecodedBit.ZERO, DecodedBit.ONE, DecodedBit.BOTTOM)


def membership_B(x, spec: ConcatCodeSpec) -> DecodedBit:
    """Exact codeword membership: b if x encodes b with zero errors."""
    return _DECODED[_fold(_as_block(x, spec.block_length), spec, _exact)[0]]


def membership_A(x, spec: ConcatCodeSpec) -> DecodedBit:
    """Error-neighborhood membership: up to d bad sub-blocks per level."""
    return _DECODED[_fold(_as_block(x, spec.block_length), spec, _neighbourhood)[0]]


def recursive_majority_decode(x, spec: ConcatCodeSpec) -> int:
    """Nearest-coset decoding at every level; total (ties go to 0)."""
    return int(_fold(_as_block(x, spec.block_length), spec, _majority)[0])


# ---------------------------------------------------------------------------
# encoding / sampling helpers
# ---------------------------------------------------------------------------


def _build(spec: ConcatCodeSpec, b: int, pick) -> np.ndarray:
    """A codeword of B^(r)_b, depth first; `pick(coset)` chooses each word."""

    def build(bit: int, r: int) -> np.ndarray:
        word = pick(spec.base.coset(bit))
        return word.copy() if r == 1 else np.concatenate([build(int(w), r - 1) for w in word])

    return build(int(b), spec.r)


def encode_bit(spec: ConcatCodeSpec, b: int, index: int = 0) -> np.ndarray:
    """A canonical codeword of B^(r)_b (coset word `index` at every level)."""
    return _build(spec, b, lambda coset: coset[index % len(coset)])


def sample_codeword(spec: ConcatCodeSpec, b: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random element of B^(r)_b."""
    return _build(spec, b, lambda coset: coset[rng.integers(0, len(coset))])


def sample_sparse_flips(spec: ConcatCodeSpec, rng: np.random.Generator) -> np.ndarray:
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

    return build(spec.r)


# ---------------------------------------------------------------------------
# robust function evaluation
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
    arr = _as_bits(x)
    if arr.size < block * n_prime:
        raise UsageError(
            f"need at least {block * n_prime} bits, got {arr.size}"
        )
    sym = _fold(arr[: block * n_prime], spec, _neighbourhood)
    if (sym == 2).any():
        return "0" * (block * n_prime)
    fz = int(_simon_table(simon)[int(arr_to_str(sym), 2)])
    return arr_to_str(np.repeat((fz >> np.arange(n_prime)[::-1]) & 1, block))


def enumerate_codewords(spec: ConcatCodeSpec, b: int) -> list[np.ndarray]:
    """All of B^(r)_b; exponential in r, guarded by the state cap."""
    base, r = spec.base, spec.r
    if base.m**r > STATE_BLOCK_CAP:
        raise CapacityError(f"enumeration over {base.m}^{r} bits exceeds {STATE_BLOCK_CAP}")

    def build(bit: int, level: int) -> list[np.ndarray]:
        if level == 1:
            return [w.copy() for w in base.coset(bit)]
        return [
            np.concatenate(parts)
            for word in base.coset(bit)
            for parts in itertools.product(*[build(int(w), level - 1) for w in word])
        ]

    return build(int(b), r)
