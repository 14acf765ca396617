"""Black-box fitness oracles: lookup tables, NK landscapes, budgeted query wrapper."""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Iterator, Protocol

import numpy as np

from .errors import BudgetError, DataError, DomainError, ParseError
from .sequences import Alphabet, Sequence, protein_alphabet, small_alphabet


class FitnessLandscape(Protocol):
    """Deterministic black-box oracle over fixed-length sequences."""

    @property
    def length(self) -> int: ...

    @property
    def alphabet(self) -> Alphabet: ...

    def evaluate_batch(self, batch: list[Sequence]) -> list[float]: ...

    def contains(self, s: Sequence) -> bool: ...


@dataclass(eq=False)
class LookupLandscape:
    """Fitness defined by an explicit table of scores, held as arrays.

    Row i of `codes` (n, L) holds one state's residue ordinals, in the
    smallest unsigned dtype that holds them, and `scores[i]` its fitness. The
    rows are distinct and keep table order. `index` maps each row's bytes to
    its row number; it is built when not given, and rebuilt, not pickled.
    """

    codes: np.ndarray
    scores: np.ndarray
    wild_type: Sequence
    index: dict[bytes, int] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.index is None:
            self.index = _row_index(self.codes)
        if len(self.index) != len(self.codes):
            raise DataError("the lookup table's rows are not distinct")
        if not self.contains(self.wild_type):
            raise DataError("wild type is not a key of the lookup table")

    def __reduce__(self):
        return LookupLandscape, (self.codes, self.scores, self.wild_type)

    @property
    def length(self) -> int:
        return len(self.wild_type)

    @property
    def alphabet(self) -> Alphabet:
        return self.wild_type.alphabet

    def _row(self, residues: tuple[int, ...]) -> int | None:
        try:
            key = (bytes(residues) if self.codes.itemsize == 1
                   else np.array(residues, dtype=self.codes.dtype).tobytes())
        except (ValueError, OverflowError):  # an ordinal the dtype cannot hold
            return None
        return self.index.get(key)

    def contains(self, s: Sequence) -> bool:
        return self._row(s.residues) is not None

    def evaluate_batch(self, batch: list[Sequence]) -> list[float]:
        rows = []
        for s in batch:
            row = self._row(s.residues)
            if row is None:
                raise DomainError(f"sequence {s.text} is not in the lookup table")
            rows.append(row)
        return self.scores[rows].tolist()

    def iter_residues(self) -> Iterator[tuple[int, ...]]:
        """Residue tuples of every state, in table order."""
        return map(tuple, self.codes.tolist())

    def iter_domain(self) -> Iterator[Sequence]:
        alphabet = self.alphabet
        return (Sequence(residues, alphabet) for residues in self.iter_residues())

    def num_states(self) -> int:
        return len(self.codes)


# rows per block where a table is indexed or read a block at a time, to keep buffers small
_BLOCK = 1 << 14


def _row_keys(codes: np.ndarray) -> np.ndarray:
    """Each row of an (n, L) array as one fixed-width void item."""
    codes = np.ascontiguousarray(codes)
    return codes.view(np.dtype((np.void, codes.shape[1] * codes.itemsize))).ravel()


def _row_index(codes: np.ndarray) -> dict[bytes, int]:
    """Each row's bytes -> its row number (the last such row, where rows repeat).

    Keys are listed a block at a time, so no list of every key is made.
    """
    keys, index = _row_keys(codes), {}
    for a in range(0, len(keys), _BLOCK):
        index.update(zip(keys[a:a + _BLOCK].tolist(), range(a, a + _BLOCK)))
    return index


def _first(bad: np.ndarray, default: int) -> int:
    """Index of the first True in `bad`, or `default` when there is none."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else default


def _floats(fields: Iterator[str | bytes]) -> Iterator[float]:
    """float() of each field, stopping at the first one that is not a number."""
    try:
        for f in fields:
            yield float(f)
    except ValueError:
        return


def _scores(units: np.ndarray, codec: str, starts: np.ndarray, stops: np.ndarray,
            skip: int) -> np.ndarray:
    """Python's own float() of each row's score field, up to the first that is not a number.

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
        blocks.append(np.fromiter(_floats(lines), dtype=np.float64))
        if len(blocks[-1]) < len(block_starts):
            break
    return np.concatenate(blocks) if blocks else np.empty(0)


def load_lookup(
    path: str | Path,
    alphabet: Alphabet | None = None,
    wild_type: str | None = None,
    negate: bool = False,
) -> LookupLandscape:
    """Load a TSV lookup landscape: one `SEQUENCE<TAB>SCORE` record per line.

    Lines starting with `# ` are comments; a `# alphabet SYMBOLS` directive
    (as written by gen_nk) sets the alphabet when the caller does not. The
    first data row is the wild type unless `wild_type` overrides it. With
    `negate`, scores are sign-flipped on load (for lower-is-better energies).
    A sequence may repeat with its score; its first row is kept.

    The file is parsed with NumPy over one array of its code units: its
    bytes when it is ASCII, with newlines translated as text mode translates
    them, else its text as UTF-32, so positions are character positions.
    `end` is the first data row found bad so far; each check looks only at
    the rows before it. The row it ends on is the first bad line, and
    `_raise_line_error` checks that line alone for its error. Scores are
    read a block of rows at a time (`_scores`), and the text is freed before
    the index is built, so the parse's buffers stay small next to the table.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw.isascii():  # CRLF and a lone CR end a line, as in text mode
        codec = "ascii"
        units = np.frombuffer(raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n"), np.uint8)
    else:
        codec = "utf-32-le"
        units = np.frombuffer(path.read_text(encoding="utf-8").encode(codec), np.uint32)
    del raw

    def decode(a: int, b: int) -> str:
        return units[a:b].tobytes().decode(codec)

    offset = np.int32 if len(units) < 2**30 else np.intp
    breaks = np.flatnonzero(units == ord("\n")).astype(offset)
    starts = np.concatenate((np.zeros(1, offset), breaks + 1))
    stops = np.append(breaks, offset(len(units)))
    del breaks
    lines = np.flatnonzero(starts < stops).astype(offset)  # the non-empty ones
    comment = units[starts[lines]] == ord("#")
    data = lines[~comment]
    if alphabet is None:
        # the first directive before the first data row sets the alphabet
        for line in lines[comment].tolist():
            if len(data) and line > data[0]:
                break
            parts = decode(starts[line] + 1, stops[line]).split()
            if len(parts) == 2 and parts[0] == "alphabet":
                alphabet = Alphabet(parts[1])
                break
    if not len(data):
        raise ParseError(f"{path}: no data rows")
    if alphabet is None:
        alphabet = protein_alphabet()
    starts, stops = starts[data], stops[data]
    del lines, comment

    # the shape: one tab, after a sequence as long as the first row's
    tabs = np.flatnonzero(units == ord("\t")).astype(offset)
    after = np.searchsorted(tabs, starts)
    one_tab = np.searchsorted(tabs, stops) - after == 1
    tab = tabs[np.minimum(after, len(tabs) - 1)] if len(tabs) else stops
    del tabs, after
    length = int(tab[0] - starts[0]) if one_tab[0] else 0
    end = _first(~one_tab | (tab - starts != length), len(data)) if length else 0
    del tab, one_tab

    # residues: column by column through a code unit -> ordinal table, v = unknown
    v = alphabet.size
    lut = np.full(max(map(ord, alphabet.symbols)) + 2, v, dtype=np.min_scalar_type(v))
    lut[[ord(c) for c in alphabet.symbols]] = np.arange(v)
    codes = np.empty((end, length), dtype=np.min_scalar_type(v - 1))
    known = np.ones(end, dtype=bool)
    for j in range(length):
        col = lut[np.minimum(units[starts[:end] + j], len(lut) - 1)]
        known &= col < v
        codes[:, j] = col
    end = _first(~known, end)

    scores = _scores(units, codec, starts[:end], stops[:end], length + 1)
    end = _first(~np.isfinite(scores), len(scores))
    codes, scores = codes[:end], scores[:end]
    if negate:
        scores = -scores
    # of the text, only the first bad line is kept
    bad_line = decode(starts[end], stops[end]) if end < len(data) else None
    del units, starts, stops

    # a repeated sequence: its first row keeps it, the others must repeat its score
    index = _row_index(codes)
    if len(index) < end:
        keys = _row_keys(codes).tolist()
        index = dict(zip(reversed(keys), range(end - 1, -1, -1)))
        first = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=end)
        repeat = first != np.arange(end)
        row = _first(repeat & (scores != scores[first]), end)
        if row < end:
            seq = Sequence(tuple(codes[row].tolist()), alphabet).text
            raise DataError(f"{path}:{data[row] + 1}: conflicting scores for {seq}: "
                            f"{float(scores[first[row]])} vs {float(scores[row])}")
        codes, scores, index = codes[~repeat], scores[~repeat], None

    if bad_line is not None:
        _raise_line_error(f"{path}:{data[end] + 1}", bad_line, alphabet, length if end else None)
    land = LookupLandscape(codes, scores, Sequence(tuple(codes[0].tolist()), alphabet), index)
    if wild_type is not None:
        try:
            wt = alphabet.encode(wild_type)
        except ValueError as e:
            raise DataError(f"wild-type override {wild_type}: {e}") from None
        if not land.contains(wt):
            raise DataError(f"wild-type override {wild_type}: not in the table")
        land.wild_type = wt
    return land


def _raise_line_error(where: str, line: str, alphabet: Alphabet, length: int | None):
    """Raise the ParseError of a bad data line, checking it as the line-by-line loader did.

    `length` is the first row's sequence length (None on the first row).
    """
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
    if length is not None and len(residues) != length:
        raise ParseError(f"{where}: sequence length {len(residues)} != {length}")
    raise AssertionError(f"{where}: {line!r} was found bad but passes every check")


# the most contribution-table entries an NK landscape may have (800 MB of float64)
MAX_NK_TABLE_ENTRIES = 10**8


@dataclass
class NKLandscape:
    """NK model: N sites, each interacting with K others through a random table.

    Fitness is the mean over sites of a per-site contribution drawn uniform on
    [0, 1), indexed by the site's own residue and its K neighbors. K = 0 gives
    an additive (site-separable) landscape; larger K increases ruggedness.
    Construction is bit-reproducible for a fixed seed.
    """

    n: int
    k: int
    alphabet: Alphabet
    seed: int
    neighbor_map: np.ndarray = field(init=False, repr=False)
    tables: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.n <= 10_000:  # the neighbour draw below takes O(n**2) time
            raise ValueError(f"n: must be in [1, 10000], got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if not 0 <= self.k <= self.n - 1:
            raise ValueError(f"k: must be in [0, n-1] = [0, {self.n - 1}], got {self.k}")
        v = self.alphabet.size
        if self.n * v ** (self.k + 1) > MAX_NK_TABLE_ENTRIES:
            raise ValueError(f"k: the tables would hold n*v^(k+1) = {self.n}*{v}^{self.k + 1} "
                             f"entries, more than {MAX_NK_TABLE_ENTRIES:,}; lower k, n or v")
        rng = np.random.default_rng(self.seed)
        neighbors = np.empty((self.n, self.k), dtype=np.int64)
        for i in range(self.n):
            others = np.delete(np.arange(self.n), i)
            neighbors[i] = np.sort(rng.choice(others, size=self.k, replace=False))
        self.neighbor_map = neighbors
        self.tables = rng.uniform(size=(self.n, v ** (self.k + 1)))

    @property
    def length(self) -> int:
        return self.n

    def contains(self, s: Sequence) -> bool:
        return len(s) == self.n and s.alphabet.size == self.alphabet.size

    def fitness(self, s: Sequence) -> float:
        if not self.contains(s):
            raise ValueError(f"sequence incompatible with NK landscape (N={self.n}, V={self.alphabet.size})")
        v = self.alphabet.size
        total = 0.0
        for i in range(self.n):
            key = s.residues[i]
            for j in self.neighbor_map[i]:
                key = key * v + s.residues[j]
            total += self.tables[i, key]
        return total / self.n

    def evaluate_batch(self, batch: list[Sequence]) -> list[float]:
        return [self.fitness(s) for s in batch]

    def iter_residues(self) -> Iterator[tuple[int, ...]]:
        """Residue tuples of every state, in lexicographic order."""
        return itertools.product(range(self.alphabet.size), repeat=self.n)

    def iter_domain(self) -> Iterator[Sequence]:
        for residues in self.iter_residues():
            yield Sequence(residues, self.alphabet)

    def num_states(self) -> int:
        return self.alphabet.size**self.n

    def enumerate_optimum(self) -> tuple[Sequence, float]:
        """Exhaustive argmax; only sensible for small V**N."""
        best_seq, best_fit = None, -np.inf
        for s in self.iter_domain():
            f = self.fitness(s)
            if f > best_fit:
                best_seq, best_fit = s, f
        return best_seq, best_fit


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
    query_log: list[tuple[Sequence, float]] = field(init=False, default_factory=list)

    def __post_init__(self):
        if self.rounds_total < 1 or self.batch_size < 1:
            raise ValueError("rounds_total and batch_size must be >= 1")
        self.rounds_remaining = self.rounds_total

    def query_batch(self, batch: list[Sequence]) -> list[float]:
        if not batch:
            raise ValueError("empty query batch")
        if len(batch) > self.batch_size:
            raise ValueError(f"batch of {len(batch)} exceeds batch size {self.batch_size}")
        if self.rounds_remaining <= 0:
            raise BudgetError(f"query budget exhausted after {self.rounds_total} rounds")
        scores = self.inner.evaluate_batch(batch)
        self.rounds_remaining -= 1
        self.queries_made += len(batch)
        self.query_log.extend(zip(batch, scores))
        return scores
