"""Black-box fitness oracles: lookup tables, NK landscapes, budgeted query wrapper."""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Iterator, NoReturn, Protocol

import numpy as np

from .errors import BudgetError, DataError, DomainError, ParseError, decode_utf8
from .sequences import Alphabet, Sequence, protein_alphabet, row_keys, small_alphabet


class FitnessLandscape(Protocol):
    """Deterministic black-box oracle over fixed-length sequences and (B, L) ordinal arrays."""

    @property
    def length(self) -> int: ...

    @property
    def alphabet(self) -> Alphabet: ...

    wild_type: Sequence  # the campaign's starting point, a state of the landscape

    def evaluate_batch(self, codes: np.ndarray) -> list[float]: ...

    def in_domain(self, codes: np.ndarray) -> np.ndarray: ...


@dataclass(eq=False)
class LookupLandscape:
    """Fitness defined by an explicit table of scores, held as arrays.

    Row i of `codes` (n, L) holds one state's residue ordinals, in the
    smallest unsigned dtype that holds them, and `scores[i]` its fitness. The
    rows are distinct and keep table order. Rows are found by binary search in
    `_keys`, the rows' `row_keys` sorted once; `_order[i]` is the row of `_keys[i]`.
    `sha256` is the digest of the file the table was loaded from, if any.
    """

    codes: np.ndarray
    scores: np.ndarray
    wild_type: Sequence
    sha256: str | None = None
    _keys: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        keys = row_keys(self.codes)
        self._order = np.argsort(keys, kind="stable")  # linear on a table already in order
        self._keys = keys[self._order]
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise DataError("the lookup table's rows are not distinct")
        if not self.in_domain(np.array([self.wild_type.residues]))[0]:
            raise DataError("wild type is not a key of the lookup table")

    @property
    def length(self) -> int:
        return len(self.wild_type)

    @property
    def alphabet(self) -> Alphabet:
        return self.wild_type.alphabet

    def _find(self, codes: np.ndarray) -> np.ndarray:
        """Table row of each row of a (B, L) ordinal array; -1 where it is not in the table."""
        keys = self._keys
        found = np.full(len(codes), -1, dtype=np.intp)
        if codes.ndim == 2 and codes.shape[1] == self.length and len(keys):
            cast = codes.astype(self.codes.dtype)
            held = np.flatnonzero((cast == codes).all(axis=1))  # a wrapped ordinal is a miss
            query = row_keys(cast[held])
            at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            hit = keys[at] == query
            found[held[hit]] = self._order[at[hit]]
        return found

    def in_domain(self, codes: np.ndarray) -> np.ndarray:
        return self._find(codes) >= 0

    def evaluate_batch(self, codes: np.ndarray) -> list[float]:
        rows = self._find(codes)
        missing = np.flatnonzero(rows < 0)
        if len(missing):
            raise DomainError(f"row {missing[0]} {codes[missing[0]].tolist()} "
                              f"is not in the lookup table")
        return self.scores[rows].tolist()

    def states(self) -> np.ndarray:
        """Every state as one (S, L) ordinal array, in table order."""
        return self.codes

    def iter_domain(self) -> Iterator[Sequence]:
        return (Sequence(tuple(r), self.alphabet) for r in self.states().tolist())

    def num_states(self) -> int:
        return len(self.codes)


# rows per block where a table is read a block at a time, to keep buffers small
_BLOCK = 1 << 14


def _scores(units: np.ndarray, codec: str, starts: np.ndarray, stops: np.ndarray,
            skip: int) -> np.ndarray | None:
    """Python's own float() of each row's score field; None when one is missing or not a number.

    A field starts `skip` code units into its row and keeps its newline,
    which float() ignores. The fields of a block of rows are cut out as the
    lines of one buffer; float() reads ASCII bytes as it reads the same str.
    """
    blocks = []
    for a in range(0, len(starts), _BLOCK):
        block_starts, block_stops = starts[a:a + _BLOCK], stops[a:a + _BLOCK]
        origin = block_starts[0]
        span = units[origin:block_stops[-1] + 1]
        inside = np.zeros(len(span) + 2, dtype=np.int8)
        inside[block_starts + (skip - origin)] = 1
        inside[block_stops + (1 - origin)] = -1
        np.cumsum(inside, out=inside)
        fields = span[inside[:len(span)].view(bool)].tobytes()
        lines = io.BytesIO(fields) if codec == "ascii" else io.StringIO(fields.decode(codec))
        try:  # an empty last field leaves the block a line short
            blocks.append(np.fromiter(map(float, lines), np.float64, count=len(block_starts)))
        except ValueError:
            return None
    return np.concatenate(blocks)


def load_lookup(path: str | Path, alphabet: Alphabet | None = None,
                wild_type: str | None = None, negate: bool = False) -> LookupLandscape:
    """Load a TSV lookup landscape: one `SEQUENCE<TAB>SCORE` record per line.

    Lines starting with `# ` are comments; a `# alphabet SYMBOLS` directive
    (as written by gen_nk) sets the alphabet when the caller does not. The
    first data row is the wild type unless `wild_type` overrides it. With
    `negate`, scores are sign-flipped on load (for lower-is-better energies).
    A sequence may repeat with its score; its first row is kept. The
    landscape keeps the SHA-256 of the bytes read.

    The file is read once and parsed with NumPy over one array of its code
    units: its bytes when it is ASCII, else its text as UTF-32, so positions
    are character positions. Each check looks at every row at once and only
    decides whether the table is good; a bad table is read again by
    `_raise_bad_line`, which names its first bad line. Scores are read a
    block of rows at a time (`_scores`), and the text is freed before the
    rows are sorted, so the parse's buffers stay small next to the table.
    """
    path = Path(path)
    raw = path.read_bytes()
    sha256 = hashlib.sha256(raw).hexdigest()
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")  # line ends as in text mode
    codec = "ascii" if raw.isascii() else "utf-32-le"
    units = (np.frombuffer(raw, np.uint8) if codec == "ascii"
             else np.frombuffer(decode_utf8(raw, path).encode(codec), np.uint32))
    del raw

    offset = np.int32 if len(units) < 2**30 else np.intp
    breaks = np.flatnonzero(units == ord("\n")).astype(offset)
    starts = np.concatenate((np.zeros(1, offset), breaks + 1))
    stops = np.append(breaks, offset(len(units)))
    del breaks
    lines = np.flatnonzero(starts < stops).astype(offset)  # the non-empty ones
    comment = units[starts[lines]] == ord("#")
    data = lines[~comment]
    if alphabet is None:  # the first directive before the first data row sets it
        heads = (units[starts[line] + 1:stops[line]].tobytes().decode(codec).split()
                 for line in lines[comment].tolist() if not len(data) or line < data[0])
        alphabet = next((Alphabet(h[1]) for h in heads if len(h) == 2 and h[0] == "alphabet"),
                        protein_alphabet())
    starts, stops = starts[data], stops[data]
    del lines, comment, data

    # the shape: one tab, after a sequence as long as the first row's
    tabs = np.flatnonzero(units == ord("\t")).astype(offset)
    after = np.searchsorted(tabs, starts)
    tab = tabs[np.minimum(after, len(tabs) - 1)] if len(tabs) else stops
    length = int(tab[0] - starts[0]) if len(starts) else 0
    if (length < 1 or np.any(np.searchsorted(tabs, stops) - after != 1)
            or np.any(tab - starts != length)):
        _raise_bad_line(path, alphabet, negate)
    del tabs, after, tab

    # residues: column by column through a code unit -> ordinal table, v = unknown
    v = alphabet.size
    lut = np.full(max(map(ord, alphabet.symbols)) + 2, v, dtype=np.min_scalar_type(v))
    lut[[ord(c) for c in alphabet.symbols]] = np.arange(v)
    codes = np.empty((len(starts), length), dtype=np.min_scalar_type(v - 1))
    for j in range(length):
        codes[:, j] = col = lut[np.minimum(units[starts + j], len(lut) - 1)]
        if np.any(col == v):
            _raise_bad_line(path, alphabet, negate)

    scores = _scores(units, codec, starts, stops, length + 1)
    del units, starts, stops
    if scores is None or not np.isfinite(scores).all():
        _raise_bad_line(path, alphabet, negate)

    # a repeated sequence: its first row keeps it, the others must repeat its score
    _, first, inverse = np.unique(row_keys(codes), return_index=True, return_inverse=True)
    first = first[inverse]  # each row's first row with its sequence
    if np.any(scores != scores[first]):
        _raise_bad_line(path, alphabet, negate)
    keep = first == np.arange(len(first))
    codes, scores = codes[keep], -scores[keep] if negate else scores[keep]

    land = LookupLandscape(codes, scores, Sequence(tuple(codes[0].tolist()), alphabet), sha256)
    if wild_type is not None:
        try:
            wt = alphabet.encode(wild_type)
        except ValueError as e:
            raise DataError(f"wild-type override {wild_type}: {e}") from None
        if not land.in_domain(np.array([wt.residues]))[0]:
            raise DataError(f"wild-type override {wild_type}: not in the table")
        land.wild_type = wt
    return land


def _raise_bad_line(path: Path, alphabet: Alphabet, negate: bool) -> NoReturn:
    """Raise the error of a bad table's first bad data line, reading it line by line.

    The checks, their order and their messages are the line-by-line loader's.
    """
    table: dict[tuple[int, ...], float] = {}
    for lineno, line in enumerate(decode_utf8(path.read_bytes(), path).split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"{where}: expected 2 tab-separated columns, got {len(cols)}")
        try:
            residues = alphabet.ordinals(cols[0])
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
        if not residues:
            raise ParseError(f"{where}: sequence must have at least one residue")
        try:
            score = float(cols[1])
        except ValueError:
            raise ParseError(f"{where}: non-numeric score {cols[1]!r}") from None
        if not isfinite(score):
            raise ParseError(f"{where}: non-finite score {cols[1]!r}")
        score = -score if negate else score
        first = next(iter(table), residues)  # the first row's sequence
        if len(residues) != len(first):
            raise ParseError(f"{where}: sequence length {len(residues)} != {len(first)}")
        if table.setdefault(residues, score) != score:
            raise DataError(f"{where}: conflicting scores for {cols[0]}: "
                            f"{table[residues]} vs {score}")
    if not table:
        raise ParseError(f"{path}: no data rows")
    raise AssertionError(f"{path}: found bad, but every line passes on a second read")


# the most contribution-table entries an NK landscape may have (800 MB of float64)
MAX_NK_TABLE_ENTRIES = 10**8


def check_nk(n: int, k: int, v: int, seed: int) -> None:
    """Raise ValueError, naming the field, when NK(n, k, v, seed) cannot be built; draws nothing."""
    if not 1 <= n <= 10_000:  # the neighbour draw takes O(n**2) time
        raise ValueError(f"n: must be in [1, 10000], got {n}")
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k: must be in [0, n-1] = [0, {n - 1}], got {k}")
    if n * v ** (k + 1) > MAX_NK_TABLE_ENTRIES:
        raise ValueError(f"k: the tables would hold n*v^(k+1) = {n}*{v}^{k + 1} "
                         f"entries, more than {MAX_NK_TABLE_ENTRIES:,}; lower k, n or v")


@dataclass
class NKLandscape:
    """NK model: N sites, each interacting with K others through a random table.

    Fitness is the mean over sites of a per-site contribution drawn uniform on
    [0, 1), indexed by the site's own residue and its K neighbors. K = 0 gives
    an additive (site-separable) landscape; larger K increases ruggedness.
    Construction is bit-reproducible for a fixed seed. The wild type defaults
    to the all-first-symbol state.
    """

    n: int
    k: int
    alphabet: Alphabet
    seed: int
    wild_type: Sequence | None = None
    neighbor_map: np.ndarray = field(init=False, repr=False)
    tables: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = self.alphabet.size
        check_nk(self.n, self.k, v, self.seed)
        rng = np.random.default_rng(self.seed)
        self.neighbor_map = np.stack([
            np.sort(rng.choice(np.delete(np.arange(self.n), i), size=self.k, replace=False))
            for i in range(self.n)])
        self.tables = rng.uniform(size=(self.n, v ** (self.k + 1)))
        if self.wild_type is None:
            self.wild_type = Sequence((0,) * self.n, self.alphabet)
        if not self.in_domain(np.array([self.wild_type.residues]))[0]:
            raise ValueError(f"wild_type: {self.wild_type.text} is not a state of the landscape")

    @property
    def length(self) -> int:
        return self.n

    def in_domain(self, codes: np.ndarray) -> np.ndarray:
        if codes.ndim == 2 and codes.shape[1] == self.n:
            return ((codes >= 0) & (codes < self.alphabet.size)).all(axis=1)
        return np.zeros(len(codes), dtype=bool)

    def fitness_rows(self, codes: np.ndarray) -> np.ndarray:
        """Fitness of each row of a (B, N) in-domain ordinal array.

        A site's key is its residue, then its neighbours', as base-V digits. The
        sites are added in order from 0.0, so each row has the scalar sum's bits.
        """
        v = self.alphabet.size
        total = np.zeros(len(codes))
        for i, neighbors in enumerate(self.neighbor_map):
            key = codes[:, i].astype(np.intp)
            for j in neighbors:
                key = key * v + codes[:, j]
            total += self.tables[i, key]
        return total / self.n

    def fitness(self, s: Sequence) -> float:
        return self.evaluate_batch(np.array([s.residues]))[0]

    def evaluate_batch(self, codes: np.ndarray) -> list[float]:
        if not self.in_domain(codes).all():
            raise ValueError(f"sequence incompatible with NK landscape (N={self.n}, V={self.alphabet.size})")
        return self.fitness_rows(codes).tolist()

    def states(self) -> np.ndarray:
        """Every state as one (V**N, N) ordinal array, in lexicographic order."""
        v = self.alphabet.size
        grid = np.indices((v,) * self.n, dtype=np.min_scalar_type(v - 1))
        return np.ascontiguousarray(grid.reshape(self.n, -1).T)

    def iter_domain(self) -> Iterator[Sequence]:
        return (Sequence(tuple(r), self.alphabet) for r in self.states().tolist())

    def num_states(self) -> int:
        return self.alphabet.size**self.n

    def enumerate_optimum(self) -> tuple[Sequence, float]:
        """Exhaustive argmax, the first of equal maxima; only sensible for small V**N."""
        codes = self.states()
        fits = self.fitness_rows(codes)
        return Sequence(tuple(codes[fits.argmax()].tolist()), self.alphabet), fits.max()


def make_nk(n: int, k: int, alphabet_size: int, seed: int) -> NKLandscape:
    return NKLandscape(n=n, k=k, alphabet=small_alphabet(alphabet_size), seed=seed)


@dataclass
class BudgetedOracle:
    """Wraps a landscape with round-based budget accounting.

    The campaign may make at most `rounds_total` batch queries of at most
    `batch_size` sequences each; a round unit is consumed regardless of how
    full the batch is.
    """

    inner: FitnessLandscape
    rounds_total: int
    batch_size: int
    rounds_remaining: int = field(init=False)
    queries_made: int = field(init=False, default=0)

    def __post_init__(self):
        if self.rounds_total < 1 or self.batch_size < 1:
            raise ValueError("rounds_total and batch_size must be >= 1")
        self.rounds_remaining = self.rounds_total

    def query_batch(self, codes: np.ndarray) -> list[float]:
        """Fitness of each row of a (B, L) ordinal array, spending one round of the budget."""
        if not len(codes):
            raise ValueError("empty query batch")
        if len(codes) > self.batch_size:
            raise ValueError(f"batch of {len(codes)} exceeds batch size {self.batch_size}")
        if self.rounds_remaining <= 0:
            raise BudgetError(f"query budget exhausted after {self.rounds_total} rounds")
        scores = self.inner.evaluate_batch(codes)
        self.rounds_remaining -= 1
        self.queries_made += len(codes)
        return scores
