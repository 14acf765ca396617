"""Output checks on one run CSV, against values computed apart from the program."""

from __future__ import annotations

import math
from dataclasses import dataclass

HEADER = "round,query_index,sequence,fitness,cumulative_max"


class LookupTable:
    """Text -> fitness view of every state of a length-N domain, held as an array.

    `values[code]` is the fitness of the state whose residues, read as a
    base-V number, equal `code` (lexicographic order).
    """

    def __init__(self, alphabet: str, length: int, values):
        self._index = {c: i for i, c in enumerate(alphabet)}
        self._length = length
        self._values = values

    def _code(self, text: str):
        if len(text) != self._length:
            return None
        code = 0
        for c in text:
            i = self._index.get(c)
            if i is None:
                return None
            code = code * len(self._index) + i
        return code

    def __contains__(self, text: str) -> bool:
        return self._code(text) is not None

    def __getitem__(self, text: str) -> float:
        return float(self._values[self._code(text)])


@dataclass(frozen=True)
class Expected:
    """What a correct run CSV of one workload must satisfy."""

    rounds: int
    batch: int
    wild_type: str
    table: LookupTable        # in-domain sequence text -> exact fitness
    optimum: float


def nk_values(neighbours, tables, v: int) -> list[float]:
    """Fitness of every state of an NK model in lexicographic order, in plain Python.

    Sites are summed one after another, as `NKLandscape.fitness` documents
    the model, so each value must match the program's bit for bit.
    """
    n = len(neighbours)
    out = []
    for code in range(v ** n):
        residues = []
        for _ in range(n):
            code, r = divmod(code, v)
            residues.append(r)
        residues.reverse()
        total = 0.0
        for i in range(n):
            key = residues[i]
            for j in neighbours[i]:
                key = key * v + residues[j]
            total += tables[i][key]
        out.append(total / n)
    return out


def check_csv(text: str, exp: Expected) -> list[str]:
    """Problems found in one run CSV; empty when it passes every check."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["file does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != HEADER:
        return ["missing or wrong header"]
    if any(l.startswith("#") for l in lines):
        return ["early-stop marker present"]
    rows = lines[1:]
    if len(rows) != 1 + exp.rounds * exp.batch:
        return [f"{len(rows)} rows, expected {1 + exp.rounds * exp.batch}"]
    problems = []
    seen: set[str] = set()
    running = float("-inf")
    for i, row in enumerate(rows):
        cols = row.split(",")
        if len(cols) != 5:
            problems.append(f"row {i}: {len(cols)} columns")
            continue
        rnd, qi, seq, fit, cum = cols
        want_round = 0 if i == 0 else 1 + (i - 1) // exp.batch
        if (rnd, qi) != (str(want_round), str(i)):
            problems.append(f"row {i}: round/query_index {rnd},{qi}")
        if i == 0 and seq != exp.wild_type:
            problems.append(f"row 0: {seq} is not the wild type {exp.wild_type}")
        if seq in seen:
            problems.append(f"row {i}: {seq} measured before")
        seen.add(seq)
        if seq not in exp.table:
            problems.append(f"row {i}: {seq} outside the domain")
            continue
        try:
            y, c = float(fit), float(cum)
        except ValueError:
            problems.append(f"row {i}: non-numeric fitness or cumulative_max")
            continue
        if y != exp.table[seq]:
            problems.append(f"row {i}: fitness {fit} != {exp.table[seq]!r}")
        if y > exp.optimum:
            problems.append(f"row {i}: fitness {fit} above the optimum {exp.optimum!r}")
        running = max(running, y)
        if c != running:
            problems.append(f"row {i}: cumulative_max {cum} != running max {running!r}")
    return problems


def final_cumulative_max(text: str) -> float:
    return float(text.rstrip("\n").rsplit("\n", 1)[-1].split(",")[4])


def corruptions(text: str) -> list[tuple[str, str]]:
    """Copies of a valid CSV with one fitness or one cumulative_max nudged by one ulp."""
    lines = text.split("\n")
    out = []
    for col, label in ((3, "fitness"), (4, "cumulative_max")):
        bad = list(lines)
        cols = bad[len(bad) // 2].split(",")
        cols[col] = repr(math.nextafter(float(cols[col]), math.inf))
        bad[len(bad) // 2] = ",".join(cols)
        out.append((label, "\n".join(bad)))
    return out
