"""Black-box fitness oracles: lookup tables, NK landscapes, budgeted query wrapper."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Iterator, Protocol

import numpy as np

from .errors import BudgetError, DataError, DomainError, ParseError
from .sequences import Alphabet, Sequence, protein_alphabet, row_keys, small_alphabet


class FitnessLandscape(Protocol):
    """Deterministic black-box oracle over fixed-length sequences and (B, L) ordinal arrays."""

    @property
    def length(self) -> int: ...

    @property
    def alphabet(self) -> Alphabet: ...

    def evaluate_batch(self, codes: np.ndarray) -> list[float]: ...

    def in_domain(self, codes: np.ndarray) -> np.ndarray: ...

    def contains(self, s: Sequence) -> bool: ...


@dataclass(eq=False)
class LookupLandscape:
    """Fitness defined by an explicit table of scores, held as arrays.

    Row i of `codes` (n, L) holds one state's residue ordinals, in the
    smallest unsigned dtype that holds them, and `scores[i]` its fitness. The
    rows are distinct and keep table order. Rows are found by binary search in
    `_keys`, the rows' `row_keys` sorted once; `_order[i]` is the row of `_keys[i]`.
    """

    codes: np.ndarray
    scores: np.ndarray
    wild_type: Sequence
    _keys: np.ndarray = field(init=False, repr=False)
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        keys = row_keys(self.codes)
        self._order = np.argsort(keys, kind="stable")  # linear on a table already in order
        self._keys = keys[self._order]
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise DataError("the lookup table's rows are not distinct")
        if not self.contains(self.wild_type):
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

    def contains(self, s: Sequence) -> bool:
        return bool(self.in_domain(np.array([s.residues]))[0])

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
    the rows are sorted, so the parse's buffers stay small next to the table.
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
    _, first, inverse = np.unique(row_keys(codes), return_index=True, return_inverse=True)
    first = first[inverse]  # each row's first row with its sequence
    repeat = first != np.arange(end)
    row = _first(repeat & (scores != scores[first]), end)
    if row < end:
        seq = Sequence(tuple(codes[row].tolist()), alphabet).text
        raise DataError(f"{path}:{data[row] + 1}: conflicting scores for {seq}: "
                        f"{float(scores[first[row]])} vs {float(scores[row])}")
    codes, scores = codes[~repeat], scores[~repeat]

    if bad_line is not None:
        _raise_line_error(f"{path}:{data[end] + 1}", bad_line, alphabet, length if end else None)
    land = LookupLandscape(codes, scores, Sequence(tuple(codes[0].tolist()), alphabet))
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
        self.neighbor_map = np.stack([
            np.sort(rng.choice(np.delete(np.arange(self.n), i), size=self.k, replace=False))
            for i in range(self.n)])
        self.tables = rng.uniform(size=(self.n, v ** (self.k + 1)))

    @property
    def length(self) -> int:
        return self.n

    def in_domain(self, codes: np.ndarray) -> np.ndarray:
        if codes.ndim == 2 and codes.shape[1] == self.n:
            return ((codes >= 0) & (codes < self.alphabet.size)).all(axis=1)
        return np.zeros(len(codes), dtype=bool)

    def contains(self, s: Sequence) -> bool:
        return bool(self.in_domain(np.array([s.residues]))[0])

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
