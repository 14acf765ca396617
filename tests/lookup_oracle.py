"""The line-by-line lookup loader: the oracle for the vectorised `load_lookup`.

This is the loader `proxbo.landscape.load_lookup` used before it parsed a
table in one pass over arrays. Its body is unchanged; only its result
differs: the residue-tuple table and the wild type, since `LookupLandscape`
now holds arrays.
"""

from __future__ import annotations

from math import isfinite
from pathlib import Path

from proxbo.errors import DataError, ParseError
from proxbo.sequences import Alphabet, Sequence, protein_alphabet


def load_lookup(
    path: str | Path,
    alphabet: Alphabet | None = None,
    wild_type: str | None = None,
    negate: bool = False,
) -> tuple[dict[tuple[int, ...], float], Sequence]:
    """Load a TSV lookup landscape: one `SEQUENCE<TAB>SCORE` record per line.

    Lines starting with `# ` are comments; a `# alphabet SYMBOLS` directive
    (as written by gen_nk) sets the alphabet when the caller does not. The
    first data row is the wild type unless `wild_type` overrides it. With
    `negate`, scores are sign-flipped on load (for lower-is-better energies).
    Returns the table (residue tuple -> score, in file order) and the wild
    type.
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
    return table, wt
