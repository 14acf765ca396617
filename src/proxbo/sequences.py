"""Sequence representation, alphabets, Hamming distance, one-hot encoding, mutation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Canonical ordering of the 20 amino acids. Fixed so that one-hot encodings
# are reproducible across runs; prefixes of this string serve as the small
# synthetic alphabets (size 2, 4, ...).
PROTEIN_SYMBOLS = "ACDEFGHIKLMNPQRSTVWY"


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of residue symbols."""

    symbols: str

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValueError(f"alphabet needs at least 2 symbols, got {len(self.symbols)}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"alphabet symbols must be unique: {self.symbols!r}")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def ordinals(self, text: str) -> tuple[int, ...]:
        """Residue ordinals of a text sequence; an unknown symbol raises ValueError."""
        try:
            return tuple(map(self._index.__getitem__, text))
        except KeyError as e:
            raise ValueError(f"symbol {e.args[0]!r} not in alphabet {self.symbols!r}") from None

    def encode(self, text: str) -> "Sequence":
        """Parse a text sequence into ordinals."""
        return Sequence(self.ordinals(text), self)

    def text(self, residues) -> str:
        """The text of a sequence of residue ordinals, the inverse of `ordinals`."""
        return "".join(map(self.symbols.__getitem__, residues))


def protein_alphabet() -> Alphabet:
    return Alphabet(PROTEIN_SYMBOLS)


def small_alphabet(size: int) -> Alphabet:
    """Alphabet of the first `size` canonical symbols (binary, 4-letter, ...)."""
    if not 2 <= size <= len(PROTEIN_SYMBOLS):
        raise ValueError(f"alphabet size must be in [2, {len(PROTEIN_SYMBOLS)}], got {size}")
    return Alphabet(PROTEIN_SYMBOLS[:size])


@dataclass(frozen=True, eq=False)
class Sequence:
    """Fixed-length string over a finite alphabet, stored as integer ordinals.

    Equality and hashing use only the ordinals, so sequences from equal-sized
    alphabets compare by content.
    """

    residues: tuple[int, ...]
    alphabet: Alphabet = field(repr=False)

    def __post_init__(self):
        if not self.residues:
            raise ValueError("sequence must have at least one residue")
        v = self.alphabet.size
        for r in self.residues:
            if not 0 <= r < v:
                raise ValueError(f"residue ordinal {r} out of range for alphabet size {v}")

    def __len__(self) -> int:
        return len(self.residues)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self.residues == other.residues

    def __hash__(self) -> int:
        return hash(self.residues)

    def __repr__(self) -> str:
        return f"Sequence({self.text!r})"

    @property
    def text(self) -> str:
        return self.alphabet.text(self.residues)


def hamming_distance(a: Sequence, b: Sequence) -> int:
    """Number of positions where `a` and `b` differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a.residues, b.residues))


def residue_array(seqs: list[Sequence]) -> np.ndarray:
    """The (P, L) residue ordinals of equal-length sequences, one row each."""
    return np.array([s.residues for s in seqs])


def hamming_distances(rows: np.ndarray, ref: Sequence) -> np.ndarray:
    """Distance of every row of a (P, L) ordinal array to `ref`, as one != comparison."""
    if not len(rows):
        return np.zeros(0, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] != len(ref):
        raise ValueError(f"every sequence must have the reference length {len(ref)}")
    return (rows != np.array(ref.residues)).sum(axis=1)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D unsigned array as one key, equal only for equal rows.

    A row of up to 8 bytes is one native unsigned integer holding its items
    in big-endian order, first item highest, so the keys sort as the rows
    do, lexicographically, and sort and search as numbers. A wider row is
    one fixed-width void item of its bytes.
    """
    width = rows.shape[1] * rows.itemsize
    if width > 8:
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, width))).ravel()
    keys = np.zeros(len(rows), np.min_scalar_type((1 << 8 * width) - 1))
    for column in rows.T:
        keys <<= 8 * rows.itemsize
        keys |= column
    return keys


def encode_batch(codes: np.ndarray, size: int) -> np.ndarray:
    """One-hot encodings of a (B, L) residue array over `size` symbols, as a (B, L, V) array.

    One gather of identity rows by the ordinals: row i of sequence b is hot
    at column b's residue i.
    """
    if not len(codes):
        raise ValueError("empty sequence batch")
    return np.eye(size)[codes]


def mutant_residues(residues, radius: int, size: int, rng: np.random.Generator) -> tuple:
    """One mutant's residue tuple: 1..radius substitutions at distinct positions, each
    uniform over the `size` - 1 alternatives to the residue it replaces."""
    n_mut = int(rng.integers(1, radius + 1))
    residues = list(residues)
    for pos in rng.choice(len(residues), size=n_mut, replace=False):
        residues[pos] = (residues[pos] + int(rng.integers(1, size))) % size
    return tuple(residues)


def random_mutant(s: Sequence, radius: int, rng: np.random.Generator) -> Sequence:
    """One mutant with 1..radius substitutions at distinct positions."""
    return Sequence(mutant_residues(s.residues, radius, s.alphabet.size, rng), s.alphabet)


def mutant_block(anchors: np.ndarray, radius: int, count: int, alphabet_size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """`count` mutants of the rows of an (A, L) ordinal array, as a (count, L) array.

    Each row has the law of `random_mutant` applied to an anchor row drawn
    uniformly: the number of substitutions n is uniform on [1, radius], the
    positions are the n smallest of L uniform keys (uniform without
    replacement), and each substitution is uniform over the V-1 alternatives.
    Four vectorised draws, in this order: anchors, counts, keys, offsets.
    Rows are independent, so they may repeat.
    """
    anchors = np.asarray(anchors)
    if anchors.ndim != 2 or len(anchors) == 0:
        raise ValueError(f"anchors must be a non-empty (A, L) array, got shape {anchors.shape}")
    length = anchors.shape[1]
    if not 1 <= radius <= length:
        raise ValueError(f"radius must be in [1, {length}], got {radius}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = anchors[rng.integers(len(anchors), size=count)]
    n_mut = rng.integers(1, radius + 1, size=count)
    ranks = rng.random((count, length)).argsort(axis=1).argsort(axis=1)
    offsets = rng.integers(1, alphabet_size, size=(count, length))
    return np.where(ranks < n_mut[:, None], (base + offsets) % alphabet_size, base)


# draws `sample_mutants` may make per mutant asked for
MAX_ATTEMPTS_PER_MUTANT = 50


def sample_mutants(s: Sequence, radius: int, count: int,
                   rng: np.random.Generator) -> list[Sequence]:
    """Sample up to `count` distinct mutants within Hamming radius of `s`.

    The number of mutated positions is uniform on [1, radius], positions are
    drawn without replacement, and each replacement symbol is uniform over the
    alternatives. Duplicates are rejected and redrawn up to a bounded number
    of attempts, so fewer than `count` mutants may be returned when the
    neighborhood is nearly exhausted.
    """
    if not 1 <= radius <= len(s):
        raise ValueError(f"radius must be in [1, {len(s)}], got {radius}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out: dict[Sequence, None] = {}  # insertion-ordered set
    for _ in range(count * MAX_ATTEMPTS_PER_MUTANT):
        if len(out) == count:
            break
        out[random_mutant(s, radius, rng)] = None
    return list(out)
