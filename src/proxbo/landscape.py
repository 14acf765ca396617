"""Black-box fitness oracles: lookup tables, NK landscapes, budgeted query wrapper."""

from __future__ import annotations

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


@dataclass
class LookupLandscape:
    """Fitness defined by an explicit table of scores.

    `table` is keyed by residue tuples (`Sequence.residues`, ordinals into
    the wild type's alphabet), not by `Sequence` objects, so lookups hash and
    compare plain tuples.
    """

    table: dict[tuple[int, ...], float]
    wild_type: Sequence

    def __post_init__(self):
        if self.wild_type.residues not in self.table:
            raise DataError("wild type is not a key of the lookup table")

    @property
    def length(self) -> int:
        return len(self.wild_type)

    @property
    def alphabet(self) -> Alphabet:
        return self.wild_type.alphabet

    def contains(self, s: Sequence) -> bool:
        return s.residues in self.table

    def evaluate_batch(self, batch: list[Sequence]) -> list[float]:
        scores = []
        for s in batch:
            try:
                scores.append(self.table[s.residues])
            except KeyError:
                raise DomainError(f"sequence {s.text} is not in the lookup table") from None
        return scores

    def iter_residues(self) -> Iterator[tuple[int, ...]]:
        """Residue tuples of every state, in table order."""
        return iter(self.table)

    def iter_domain(self) -> Iterator[Sequence]:
        alphabet = self.alphabet
        return (Sequence(residues, alphabet) for residues in self.iter_residues())

    def num_states(self) -> int:
        return len(self.table)


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
    """
    path = Path(path)
    table: dict[tuple[int, ...], float] = {}
    first: tuple[int, ...] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "alphabet" and alphabet is None:
                    alphabet = Alphabet(parts[1])
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}")
            if alphabet is None:
                alphabet = protein_alphabet()
            try:
                residues = alphabet.ordinals(cols[0])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            if not residues:
                raise ParseError(f"{path}:{lineno}: sequence must have at least one residue")
            try:
                score = float(cols[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric score {cols[1]!r}") from None
            if not isfinite(score):
                raise ParseError(f"{path}:{lineno}: non-finite score {cols[1]!r}")
            if negate:
                score = -score
            if first is not None and len(residues) != len(first):
                raise ParseError(f"{path}:{lineno}: sequence length {len(residues)} != {len(first)}")
            if residues in table:
                if table[residues] != score:
                    raise DataError(
                        f"{path}:{lineno}: conflicting scores for {cols[0]}: {table[residues]} vs {score}"
                    )
                continue
            table[residues] = score
            if first is None:
                first = residues
    if not table:
        raise ParseError(f"{path}: no data rows")
    if wild_type is not None:
        try:
            wt = alphabet.encode(wild_type)
        except ValueError as e:
            raise DataError(f"wild-type override {wild_type}: {e}") from None
        if wt.residues not in table:
            raise DataError(f"wild-type override {wild_type}: not in the table")
    else:
        wt = Sequence(first, alphabet)
    return LookupLandscape(table=table, wild_type=wt)


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
