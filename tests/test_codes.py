"""Recursive code membership, decoding, and robust oracle evaluation."""

import functools

import numpy as np
import pytest

from nisqlab import codes
from nisqlab.bits import arr_to_str, str_to_arr
from nisqlab.codes import (
    BaseCode,
    ConcatCodeSpec,
    DecodedBit,
    encode_bit,
    enumerate_codewords,
    hamming_base_code,
    membership_A,
    membership_B,
    recursive_majority_decode,
    robust_simon_eval,
    sample_codeword,
    sample_sparse_flips,
)
from nisqlab.errors import CapacityError, InvariantViolation, UsageError
from nisqlab.oracles import SimonSpec, make_simon

ALL_7BIT = [format(i, "07b") for i in range(128)]


def coset_strings(base: BaseCode, b: int) -> set:
    return {arr_to_str(w) for w in base.coset(b)}


def hamming_weight(s: str) -> int:
    return s.count("1")


@pytest.fixture(scope="module")
def hamming():
    return hamming_base_code()


@pytest.fixture(scope="module")
def spec1(hamming):
    return ConcatCodeSpec(hamming, 1)


@pytest.fixture(scope="module")
def spec2(hamming):
    return ConcatCodeSpec(hamming, 2)


def tiny_base_code() -> BaseCode:
    """m = 3 toy base (C = full space, C^perp = {0}): r = 2 has one codeword per bit."""
    return BaseCode(3, np.eye(3, dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8), 1)


def weight4_base() -> BaseCode:
    # C = {0000, 1111}, C^perp = {0000}: separation 4 leaves words that
    # belong to neither error neighborhood, unlike the perfect Hamming base.
    return BaseCode(4, np.array([[1, 1, 1, 1]]), np.zeros((1, 4), dtype=np.uint8), 1)


class TestBaseCode:
    def test_hamming_shape(self, hamming):
        assert hamming.m == 7 and hamming.d == 1
        c0, c1 = coset_strings(hamming, 0), coset_strings(hamming, 1)
        assert len(c0) == 8 and len(c1) == 8
        assert {s.translate(str.maketrans("01", "10")) for s in c0} == c1

    def test_dual_weights_are_simplex(self, hamming):
        weights = sorted(hamming_weight(s) for s in coset_strings(hamming, 0))
        assert weights == [0] + [4] * 7

    def test_coset_separation_is_three(self, hamming):
        sep = min(
            sum(a != b for a, b in zip(w0, w1))
            for w0 in coset_strings(hamming, 0)
            for w1 in coset_strings(hamming, 1)
        )
        assert sep == 3 == 2 * hamming.d + 1

    def test_rejects_dual_outside_code(self, hamming):
        with pytest.raises(UsageError, match="not codewords"):
            BaseCode(7, hamming.generator_c, np.array([[1, 0, 0, 0, 0, 0, 0]]), 1)

    def test_rejects_close_cosets(self):
        with pytest.raises(UsageError, match="separation"):
            BaseCode(3, np.eye(3, dtype=np.uint8), np.array([[1, 1, 0]]), 1)

    def test_spec_validation(self, hamming):
        with pytest.raises(UsageError):
            ConcatCodeSpec(hamming, 0)
        with pytest.raises(CapacityError):
            ConcatCodeSpec(hamming, 8)  # 7^8 > 2^20
        assert ConcatCodeSpec(hamming, 2).block_length == 49


class TestMembershipExhaustive:
    """Every 7-bit word, level 1."""

    def test_exact_membership_matches_cosets(self, hamming, spec1):
        c0, c1 = coset_strings(hamming, 0), coset_strings(hamming, 1)
        counts = {DecodedBit.ZERO: 0, DecodedBit.ONE: 0, DecodedBit.BOTTOM: 0}
        for x in ALL_7BIT:
            got = membership_B(x, spec1)
            counts[got] += 1
            expect = (
                DecodedBit.ZERO if x in c0 else DecodedBit.ONE if x in c1 else DecodedBit.BOTTOM
            )
            assert got is expect, x
        assert counts == {DecodedBit.ZERO: 8, DecodedBit.ONE: 8, DecodedBit.BOTTOM: 112}

    def test_overlapping_error_sets_raise(self, spec1, monkeypatch):
        # every word within distance d of both cosets: the overlap check fires
        monkeypatch.setattr(codes, "_coset_distance", lambda word, base, b: 0)
        with pytest.raises(InvariantViolation, match="overlap"):
            membership_A("0" * 7, spec1)

    def test_single_flip_breaks_exact_membership(self, hamming, spec1):
        for b in (0, 1):
            for w in hamming.coset(b):
                for i in range(7):
                    y = w.copy()
                    y[i] ^= 1
                    assert membership_B(y, spec1).is_bottom

    def test_error_sets_partition_all_words(self, spec1):
        # the Hamming base is perfect: radius-1 balls around C tile F_2^7,
        # so the two error neighborhoods cover everything with no overlap
        sizes = {0: 0, 1: 0}
        for x in ALL_7BIT:
            got = membership_A(x, spec1)
            assert not got.is_bottom
            sizes[got.bit] += 1
        assert sizes == {0: 64, 1: 64}

    def test_radius_d_ball_decodes(self, hamming, spec1):
        for b in (0, 1):
            for w in hamming.coset(b):
                assert membership_A(w, spec1).bit == b
                for i in range(7):
                    y = w.copy()
                    y[i] ^= 1
                    assert membership_A(y, spec1).bit == b

    def test_complement_symmetry(self, spec1):
        for x in ALL_7BIT:
            flipped = x.translate(str.maketrans("01", "10"))
            assert membership_A(x, spec1).bit == 1 - membership_A(flipped, spec1).bit

    def test_majority_agrees_with_error_sets(self, spec1):
        for x in ALL_7BIT:
            assert recursive_majority_decode(x, spec1) == membership_A(x, spec1).bit


class TestBottomBase:
    """m = 4 base whose error neighborhoods leave gaps."""

    def test_membership_by_weight(self):
        spec = ConcatCodeSpec(weight4_base(), 1)
        for i in range(16):
            x = format(i, "04b")
            a = membership_A(x, spec)
            w = hamming_weight(x)
            if w <= 1:
                assert a.bit == 0
            elif w >= 3:
                assert a.bit == 1
            else:
                assert a.is_bottom
            # majority never gives up; weight-2 ties resolve to 0
            assert recursive_majority_decode(x, spec) == (0 if w <= 2 else 1)


def reference_decoder(base: BaseCode, rule: str):
    """Per-sub-block recursion for rule "A", "B" or "majority", written
    without the codes module's decoder: decode(bits, r) is 0, 1 or 2
    (undecoded), and an undecoded sub-block is a letter 2 one level up."""
    cosets = [[tuple(int(v) for v in w) for w in base.coset(b)] for b in (0, 1)]
    radius = {"A": base.d, "B": 0}.get(rule)

    @functools.lru_cache(maxsize=None)
    def decode(bits: tuple, r: int) -> int:
        if r > 1:
            k = len(bits) // base.m
            bits = tuple(decode(bits[i * k : (i + 1) * k], r - 1) for i in range(base.m))
        d0, d1 = (min(sum(a != c for a, c in zip(bits, w)) for w in coset) for coset in cosets)
        if radius is None:
            return 0 if d0 <= d1 else 1
        assert not (d0 <= radius and d1 <= radius)
        return 0 if d0 <= radius else 1 if d1 <= radius else 2

    return decode


def public_decode(x, spec: ConcatCodeSpec) -> tuple:
    """(A, B, majority) from the public decoders, with 2 for bottom."""
    a, b = membership_A(x, spec), membership_B(x, spec)
    return (2 if a.is_bottom else a.bit, 2 if b.is_bottom else b.bit, recursive_majority_decode(x, spec))


class TestFoldAgainstRecursion:
    """The fold against a recursion, mostly on bases whose error
    neighborhoods leave gaps, so that bottom occurs and propagates."""

    RULES = (("A", codes._neighbourhood), ("B", codes._exact), ("majority", codes._majority))

    def test_weight4_r2_every_word(self):
        spec = ConcatCodeSpec(weight4_base(), 2)
        words = ((np.arange(2**16)[:, None] >> np.arange(16)[::-1]) & 1).astype(np.uint8)
        for rule, classify in self.RULES:
            ref = reference_decoder(spec.base, rule)
            got = codes._fold(words.reshape(-1), spec, classify)
            expect = [ref(tuple(w), 2) for w in words.tolist()]
            assert got.tolist() == expect, rule
            assert rule == "majority" or 2 in expect
        refs = [reference_decoder(spec.base, rule) for rule, _ in self.RULES]
        for w in words[:: 2**16 // 512]:
            assert public_decode(w, spec) == tuple(ref(tuple(w.tolist()), 2) for ref in refs)

    @pytest.mark.parametrize(
        "base", [weight4_base(), tiny_base_code(), hamming_base_code()], ids=["weight4", "tiny", "hamming"]
    )
    def test_random_words_and_flipped_codewords(self, base, rng):
        refs = [reference_decoder(base, rule) for rule, _ in self.RULES]
        seen = set()
        for r in (2, 3):
            spec = ConcatCodeSpec(base, r)
            for j in range(300):
                if j % 3 == 0:
                    x = rng.integers(0, 2, size=spec.block_length).astype(np.uint8)
                else:
                    x = (sample_codeword(spec, j % 2, rng) + sample_sparse_flips(spec, rng)) % 2
                    if j % 3 == 2:
                        x[rng.integers(0, x.size, size=3)] ^= 1
                got = public_decode(x, spec)
                assert got == tuple(ref(tuple(x.tolist()), r) for ref in refs)
                seen.update(got)
        assert seen == {0, 1, 2}


class TestRecursiveSampled:
    """49-bit blocks, level 2, randomized."""

    def test_codewords_decode(self, spec2, rng):
        for b in (0, 1):
            for _ in range(200):
                x = sample_codeword(spec2, b, rng)
                assert membership_B(x, spec2).bit == b
                assert membership_A(x, spec2).bit == b
                assert recursive_majority_decode(x, spec2) == b

    def test_exact_membership_fragile(self, spec2, rng):
        for b in (0, 1):
            for _ in range(100):
                x = sample_codeword(spec2, b, rng)
                x[rng.integers(0, x.size)] ^= 1
                assert membership_B(x, spec2).is_bottom

    def test_sparse_flips_absorbed(self, spec2, rng):
        for _ in range(500):
            b = int(rng.integers(0, 2))
            y = (sample_codeword(spec2, b, rng) + sample_sparse_flips(spec2, rng)) % 2
            assert membership_A(y, spec2).bit == b
            assert recursive_majority_decode(y, spec2) == b

    def test_random_strings_consistent(self, spec2, rng):
        # perfection survives concatenation: no 49-bit word is unlabeled,
        # complements swap labels, and majority decoding agrees
        for _ in range(1500):
            x = rng.integers(0, 2, size=49).astype(np.uint8)
            a = membership_A(x, spec2)
            assert not a.is_bottom
            assert membership_A((x + 1) % 2, spec2).bit == 1 - a.bit
            assert recursive_majority_decode(x, spec2) == a.bit

    def test_encode_bit_is_codeword(self, spec1, spec2):
        for spec in (spec1, spec2):
            for b in (0, 1):
                assert membership_B(encode_bit(spec, b), spec).bit == b


class TestRobustEval:
    def test_clean_codewords_evaluate(self, hamming, spec1):
        simon = SimonSpec(2, "11", seed=3)
        table = make_simon(simon).table()
        for z in range(4):
            bits = [(z >> 1) & 1, z & 1]
            x = np.concatenate([encode_bit(spec1, bit, index=z % 8) for bit in bits])
            out = robust_simon_eval(x, spec1, simon)
            fz = int(table[z])
            expect = "".join(("1" if (fz >> (1 - j)) & 1 else "0") * 7 for j in range(2))
            assert out == expect

    def test_period_collision_survives_encoding(self, spec1):
        simon = SimonSpec(2, "11", seed=3)
        enc = lambda z: np.concatenate(
            [encode_bit(spec1, (z >> 1) & 1), encode_bit(spec1, z & 1)]
        )
        assert robust_simon_eval(enc(0b00), spec1, simon) == robust_simon_eval(
            enc(0b11), spec1, simon
        )
        assert robust_simon_eval(enc(0b01), spec1, simon) != robust_simon_eval(
            enc(0b00), spec1, simon
        )

    def test_sparse_flips_do_not_change_output(self, spec2, rng):
        simon = SimonSpec(2, "10", seed=5)
        for _ in range(150):
            z = int(rng.integers(0, 4))
            clean = np.concatenate(
                [sample_codeword(spec2, (z >> 1) & 1, rng), sample_codeword(spec2, z & 1, rng)]
            )
            noisy = clean.copy()
            for j in range(2):
                flips = sample_sparse_flips(spec2, rng)
                noisy[j * 49 : (j + 1) * 49] ^= flips
            assert robust_simon_eval(noisy, spec2, simon) == robust_simon_eval(
                clean, spec2, simon
            )

    def test_unlabeled_block_collapses_to_zero(self):
        spec = ConcatCodeSpec(weight4_base(), 1)
        simon = SimonSpec(2, "11", seed=3)
        good = np.concatenate([encode_bit(spec, 1), encode_bit(spec, 0)])
        assert "1" in robust_simon_eval(good, spec, simon) or set(
            robust_simon_eval(good, spec, simon)
        ) == {"0"}
        bad = good.copy()
        bad[:4] = [1, 1, 0, 0]  # weight-2 word sits in neither neighborhood
        assert robust_simon_eval(bad, spec, simon) == "0" * 8

    def test_trailing_bits_ignored(self, spec1, rng):
        simon = SimonSpec(2, "11", seed=3)
        x = np.concatenate([encode_bit(spec1, 1), encode_bit(spec1, 1)])
        padded = np.concatenate([x, rng.integers(0, 2, size=5).astype(np.uint8)])
        assert robust_simon_eval(x, spec1, simon) == robust_simon_eval(padded, spec1, simon)

    def test_short_input_rejected(self, spec1):
        with pytest.raises(UsageError, match="at least"):
            robust_simon_eval("0" * 13, spec1, SimonSpec(2, "11", seed=3))


class TestCodewordStates:
    def test_capacity(self, spec2):
        with pytest.raises(CapacityError):
            enumerate_codewords(spec2, 0)  # 49 bits

    def test_tiny_base_recursion(self):
        spec = ConcatCodeSpec(tiny_base_code(), 2)
        assert [arr_to_str(w) for w in enumerate_codewords(spec, 0)] == ["0" * 9]
        assert [arr_to_str(w) for w in enumerate_codewords(spec, 1)] == ["1" * 9]

    def test_enumeration_matches_coset(self, hamming, spec1):
        words = {arr_to_str(w) for w in enumerate_codewords(spec1, 1)}
        assert words == coset_strings(hamming, 1)

    def test_sampled_codeword_is_enumerated(self, rng):
        spec = ConcatCodeSpec(tiny_base_code(), 2)
        words = {arr_to_str(w) for w in enumerate_codewords(spec, 1)}
        for _ in range(20):
            assert arr_to_str(sample_codeword(spec, 1, rng)) in words


def test_non_binary_strings_rejected(spec1):
    for decode in (membership_A, membership_B, recursive_majority_decode):
        with pytest.raises(UsageError, match="only 0 and 1"):
            decode("1111112", spec1)
    with pytest.raises(UsageError, match="only 0 and 1"):
        robust_simon_eval("0" * 13 + "a", spec1, SimonSpec(2, "11", seed=3))
