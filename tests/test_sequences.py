"""Tests for alphabets, sequences, encodings, and mutation sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxbo.sequences import (
    PROTEIN_SYMBOLS,
    Alphabet,
    Sequence,
    encode_batch,
    hamming_distance,
    protein_alphabet,
    random_mutant,
    residue_array,
    row_keys,
    sample_mutants,
    small_alphabet,
)

AB4 = small_alphabet(4)


def seq(text: str, alphabet: Alphabet = AB4) -> Sequence:
    return alphabet.encode(text)


def encode_onehot(s: Sequence) -> np.ndarray:
    """The oracle of `encode_batch`: an L x V float matrix, row i hot at column s[i]."""
    mat = np.zeros((len(s), s.alphabet.size), dtype=np.float64)
    mat[np.arange(len(s)), s.residues] = 1.0
    return mat


class TestAlphabet:
    def test_protein_alphabet_has_twenty_canonical_symbols(self):
        ab = protein_alphabet()
        assert ab.symbols == PROTEIN_SYMBOLS
        assert ab.size == 20

    def test_ordinals_and_text_roundtrip(self):
        ab = protein_alphabet()
        assert ab.ordinals(ab.symbols) == tuple(range(20))
        assert ab.encode(ab.symbols).text == ab.symbols

    def test_unknown_symbol_raises(self):
        with pytest.raises(ValueError, match="'Z' not in alphabet"):
            AB4.ordinals("ACZ")

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("AAB")

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("")

    def test_small_alphabet_is_prefix_of_canonical(self):
        assert small_alphabet(2).symbols == PROTEIN_SYMBOLS[:2]
        assert small_alphabet(20).symbols == PROTEIN_SYMBOLS

    def test_encode_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            AB4.encode("AZ")


class TestSequence:
    def test_text_roundtrip(self):
        s = seq("ACDA")
        assert s.text == "ACDA"
        assert len(s) == 4

    def test_equality_and_hash_on_residues(self):
        a, b = seq("ACDA"), seq("ACDA")
        assert a == b
        assert hash(a) == hash(b)
        assert a != seq("ACDC")

    def test_out_of_range_residue_rejected(self):
        with pytest.raises(ValueError):
            Sequence((0, 4), AB4)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            Sequence((), AB4)


class TestHamming:
    def test_known_distance(self):
        assert hamming_distance(seq("ACDA"), seq("ACDC")) == 1
        assert hamming_distance(seq("AAAA"), seq("CCCC")) == 4

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming_distance(seq("AC"), seq("ACD"))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
           st.lists(st.integers(0, 3), min_size=1, max_size=12),
           st.lists(st.integers(0, 3), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, xs, ys, zs):
        n = min(len(xs), len(ys), len(zs))
        a = Sequence(tuple(xs[:n]), AB4)
        b = Sequence(tuple(ys[:n]), AB4)
        c = Sequence(tuple(zs[:n]), AB4)
        assert hamming_distance(a, a) == 0
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
        assert (hamming_distance(a, b) == 0) == (a == b)


class TestEncoding:
    def test_onehot_shape_and_rows(self):
        s = seq("ACDA")
        x = encode_batch(residue_array([s]), 4)[0]
        assert x.shape == (4, 4)
        assert np.array_equal(x.sum(axis=1), np.ones(4))
        assert np.array_equal(np.argmax(x, axis=1), np.array(s.residues))

    def test_onehot_roundtrip(self):
        ab = protein_alphabet()
        batch = [Sequence(tuple(int(r) for r in row), ab)
                 for row in np.random.default_rng(4).integers(0, ab.size, (6, 9))]
        x = encode_batch(residue_array(batch), ab.size)
        assert [Sequence(tuple(int(r) for r in np.argmax(m, axis=1)), ab) for m in x] == batch

    def test_batch_encoding_stacks(self):
        batch = [seq("ACDA"), seq("DDDD")]
        x = encode_batch(residue_array(batch), 4)
        assert x.shape == (2, 4, 4)
        assert np.array_equal(x[0], encode_onehot(batch[0]))

    @given(st.integers(2, 20), st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_stacked_onehots_byte_for_byte(self, v, length, n, seed):
        ab = small_alphabet(v)
        rng = np.random.default_rng(seed)
        batch = [Sequence(tuple(int(r) for r in rng.integers(0, v, length)), ab)
                 for _ in range(n)]
        x = encode_batch(residue_array(batch).astype(np.uint8), v)
        ref = np.stack([encode_onehot(s) for s in batch])
        assert x.shape == ref.shape and x.dtype == ref.dtype
        assert x.tobytes() == ref.tobytes()

    def test_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            encode_batch(np.zeros((0, 3), dtype=np.uint8), 4)


@pytest.mark.parametrize("dtype,length", [(np.uint8, n) for n in range(1, 10)]
                         + [(np.uint16, n) for n in range(1, 6)])
def test_row_keys_sort_as_the_rows_and_tell_them_apart(dtype, length):
    """Up to 8 bytes a row's key is an integer, ordered as the rows are lexicographically."""
    rng = np.random.default_rng(length)
    codes = rng.integers(0, np.iinfo(dtype).max + 1, (400, length)).astype(dtype)
    codes = np.concatenate([codes, codes[::7]])  # repeated rows
    keys = row_keys(codes)
    rows = [tuple(r) for r in codes.tolist()]
    same = keys[:, None] == keys[None, :]
    assert (same == np.array([[a == b for b in rows] for a in rows])).all()
    if codes.shape[1] * codes.itemsize <= 8:
        assert keys.dtype.kind == "u" and keys.dtype.itemsize <= 8
        order = np.argsort(keys, kind="stable")
        assert [rows[i] for i in order] == sorted(rows)


class TestMutation:
    def test_random_mutant_within_radius(self):
        rng = np.random.default_rng(3)
        s = seq("ACDADC")
        for _ in range(50):
            m = random_mutant(s, 2, rng)
            assert 1 <= hamming_distance(s, m) <= 2

    def test_sample_mutants_distinct_and_within_radius(self):
        rng = np.random.default_rng(5)
        s = seq("ACDADCAD")
        out = sample_mutants(s, radius=3, count=40, rng=rng)
        assert len(set(out)) == len(out) == 40
        assert all(1 <= hamming_distance(s, m) <= 3 for m in out)

    def test_sample_mutants_deterministic_under_seed(self):
        s = seq("ACDADCAD")
        a = sample_mutants(s, 2, 25, np.random.default_rng(11))
        b = sample_mutants(s, 2, 25, np.random.default_rng(11))
        assert a == b

    def test_sample_mutants_can_enumerate_tiny_neighborhood(self):
        # binary alphabet, length 3, radius 1: exactly three distinct mutants
        ab2 = small_alphabet(2)
        s = Sequence((0, 0, 0), ab2)
        out = sample_mutants(s, radius=1, count=3, rng=np.random.default_rng(0))
        assert sorted(m.residues for m in out) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_sample_mutants_rejects_bad_args(self):
        s = seq("ACDA")
        with pytest.raises(ValueError):
            sample_mutants(s, 0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_mutants(s, 2, 0, np.random.default_rng(0))
