"""The vectorised `load_lookup` against the line-by-line loader it replaced.

Random valid tables, and copies of them with one defect each, are loaded by
both loaders (tests/lookup_oracle.py is the old one). They must give the same
rows in the same order, the same score bits, the same wild type and the same
alphabet, or raise the same exception type with the same message, which
names the first offending line.
"""

import numpy as np
import pytest

import proxbo.landscape as landscape
from proxbo.landscape import load_lookup
from proxbo.sequences import PROTEIN_SYMBOLS, Alphabet

import lookup_oracle

# score fields that float() reads, in several spellings
GOOD_SCORES = ["0.5", "-1.25", "3", "1e-3", "-0.0", "0.0", "2.5E2", "+7", "1_0", "6.",
               " 1.5", "4.0 ", "١٢", ".75"]
BAD_SCORES = ["abc", "nan", "inf", "-inf", "Infinity", "1e400", "", " ", "1.5x", "1__0",
              "0x10", "--1"]
# (symbols, whether the file names them in a directive)
ALPHABETS = [(PROTEIN_SYMBOLS, False), (PROTEIN_SYMBOLS, True), ("XY", True),
             ("ACGT", True), ("αβγ", True), ("aé中\U0001f600", True)]


def _outcome(load, path, **kwargs):
    """What a loader gives: its rows, score bits, wild type and alphabet, or its error."""
    try:
        result = load(path, **kwargs)
    except Exception as e:  # noqa: BLE001 - the error itself is the outcome
        return ("raised", type(e), str(e))
    if isinstance(result, tuple):  # the oracle: (table, wild type)
        table, wt = result
        rows, scores = list(table), np.array(list(table.values()), dtype=np.float64)
    else:
        wt = result.wild_type
        rows, scores = list(map(tuple, result.states().tolist())), result.scores
        assert scores.dtype == np.float64 and result.num_states() == len(rows)
    return ("loaded", rows, scores.tobytes(), wt.residues, wt.alphabet.symbols)


def _random_table(rng):
    """(lines, symbols, rows): a valid table's lines and its (sequence, score) rows."""
    symbols, directive = ALPHABETS[rng.integers(len(ALPHABETS))]
    length = int(rng.integers(1, 5))
    n = int(rng.integers(1, min(25, len(symbols) ** length) + 1))
    seqs = set()
    while len(seqs) < n:
        seqs.add("".join(symbols[i] for i in rng.integers(0, len(symbols), length)))
    rows = []
    for seq in sorted(seqs, key=lambda _: rng.random()):
        score = (GOOD_SCORES[rng.integers(len(GOOD_SCORES))] if rng.random() < 0.3
                 else repr(float(rng.normal())))
        rows.append((seq, score))
    lines = [f"{seq}\t{score}" for seq, score in rows]
    for _ in range(rng.integers(0, 4)):  # blank and comment lines anywhere
        filler = ["", "#", "# a comment", "#\tnot\tdata", "# alphabet"][rng.integers(5)]
        lines.insert(int(rng.integers(0, len(lines) + 1)), filler)
    if directive:
        lines.insert(0, f"# alphabet {symbols}")
    return lines, symbols, rows


def _data_lines(lines):
    return [i for i, line in enumerate(lines) if line and not line.startswith("#")]


def _mutate(lines, symbols, rows, rng):
    """A copy of `lines` with one defect (or one harmless change) in a random data line."""
    lines = list(lines)
    i = _data_lines(lines)[rng.integers(len(_data_lines(lines)))]
    seq, score = lines[i].split("\t")
    stranger = next(c for c in "Z*ébq" if c not in symbols)
    kind = rng.integers(11)
    if kind == 0:  # wrong column count
        lines[i] = [f"{seq} {score}", f"{seq}\t{score}\textra", seq, f"\t{seq}\t{score}"][
            rng.integers(4)]
    elif kind == 1:  # unknown symbol
        j = int(rng.integers(len(seq)))
        lines[i] = f"{seq[:j]}{stranger}{seq[j + 1:]}\t{score}"
    elif kind == 2:  # empty sequence
        lines[i] = f"\t{score}"
    elif kind == 3:  # length mismatch
        longer = rng.random() < 0.5 or len(seq) == 1
        lines[i] = f"{seq + symbols[0] if longer else seq[1:]}\t{score}"
    elif kind == 4:  # a score float() rejects, or a non-finite one
        lines[i] = f"{seq}\t{BAD_SCORES[rng.integers(len(BAD_SCORES))]}"
    elif kind == 5:  # a score float() reads in another spelling
        lines[i] = f"{seq}\t{GOOD_SCORES[rng.integers(len(GOOD_SCORES))]}"
    elif kind == 6:  # a consistent duplicate, later in the file
        lines.insert(int(rng.integers(i + 1, len(lines) + 1)), f"{seq}\t{score}")
    elif kind == 7:  # a conflicting duplicate, later in the file
        lines.insert(int(rng.integers(i + 1, len(lines) + 1)), f"{seq}\t{score}1")
    elif kind == 8:  # an alphabet directive after the first data line
        lines.insert(int(rng.integers(_data_lines(lines)[0] + 1, len(lines) + 1)),
                     f"# alphabet {symbols[::-1]}")
    elif kind == 9:  # a directive the alphabet rejects, before any data
        lines.insert(0, ["# alphabet A", "# alphabet AAB", "#alphabet  XY"][rng.integers(3)])
    else:  # a blank or comment line
        lines.insert(int(rng.integers(0, len(lines) + 1)), ["", "#x", "# alphabet XY Z"][
            rng.integers(3)])
    return lines


def _write(tmp_path, lines, rng, name="table.tsv"):
    newline = ["\n", "\r\n", "\r"][rng.integers(3)]
    text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def _load_options(symbols, rows, rng):
    """Keyword arguments: negate, and a wild-type override that is valid, absent or bad."""
    kwargs = {"negate": bool(rng.random() < 0.3)}
    pick = rng.integers(5)
    if pick == 1:
        kwargs["wild_type"] = rows[rng.integers(len(rows))][0]
    elif pick == 2:
        kwargs["wild_type"] = symbols[-1] * (len(rows[0][0]) + 1)  # absent: too long
    elif pick == 3:
        kwargs["wild_type"] = "Z!"
    return kwargs


def assert_same_outcome(path, **kwargs):
    new = _outcome(load_lookup, path, **kwargs)
    assert new == _outcome(lookup_oracle.load_lookup, path, **kwargs)
    return new


@pytest.mark.parametrize("seed", range(40))
def test_random_tables_load_as_the_oracle_loads_them(tmp_path, seed):
    rng = np.random.default_rng(seed)
    lines, symbols, rows = _random_table(rng)
    outcome = assert_same_outcome(_write(tmp_path, lines, rng), **_load_options(symbols, rows, rng))
    assert outcome[0] == "loaded" or "wild-type override" in outcome[2]


@pytest.mark.parametrize("seed", range(200))
def test_single_defect_mutants_fail_as_the_oracle_fails(tmp_path, seed):
    rng = np.random.default_rng(1000 + seed)
    lines, symbols, rows = _random_table(rng)
    mutant = _mutate(lines, symbols, rows, rng)
    assert_same_outcome(_write(tmp_path, mutant, rng), **_load_options(symbols, rows, rng))


@pytest.mark.parametrize("text", [
    "", "\n", "\r\n\r\n", "# alphabet XY\n", "# only a comment", "#\n\n#\n",
    "AC\t1.0", "AC\t1.0\r", "\tAC\t1.0\n", "AC\t1.0\nAD\t", "AC\t1.0\nAD\t\n", "AC\t\n",
    "AC\t1.0\r\r\nAD\t2\r", "\rAC\t1.0\n\r\nAD\t2", "AC\t1.0\nAC\t1.00\nAD\t-0.0\nAD\t0.0\n",
    "AC\t1.0\nAC\t2.0\nAD\tbad\n", "AD\tbad\nAC\t1.0\nAC\t2.0\n",
    "AC\t1.0\nACD\tbad\n", "AC\tbad\nACD\t1.0\n", "AC\t1.0\nAé\t1.0\n",
    "# alphabet αβ\nαβ\t1\nββ\t2\n",
    "# alphabet αβ\nαβ\t1\nβγ\t2\n",
    "# alphabet A\nAC\t1.0\n", "AC\t1.0\n# alphabet A\n", "# alphabet XY Z\nAC\t1\n",
    "#alphabet\tXY\nXY\t1\n", "AC\t1\t2\n", "AC 1\nAC\t1\n", "Aé\t1\nAC\t1\n",
])
def test_edge_case_files_load_as_the_oracle_loads_them(tmp_path, text):
    path = tmp_path / "table.tsv"
    path.write_bytes(text.encode("utf-8"))
    for kwargs in ({}, {"negate": True}, {"wild_type": "AC"}, {"alphabet": Alphabet("ACD")}):
        assert_same_outcome(path, **kwargs)


@pytest.mark.parametrize("defect", ["none", "score", "last score", "conflict", "symbol"])
def test_tables_longer_than_a_block_load_as_the_oracle_loads_them(tmp_path, defect):
    """Scores are read a block of rows at a time; a defect past the first block."""
    rng = np.random.default_rng(5)
    n = landscape._BLOCK + 3000
    codes = rng.permutation(20**4)[:n]
    lines = ["".join(PROTEIN_SYMBOLS[c // 20**k % 20] for k in range(4)) + f"\t{rng.normal()!r}"
             for c in codes.tolist()]
    i = landscape._BLOCK + 17
    if defect == "score":
        lines[i] = lines[i].split("\t")[0] + "\tx"
    elif defect == "last score":
        lines[-1] = lines[-1].split("\t")[0] + "\t"
    elif defect == "conflict":
        lines.insert(i, lines[3].split("\t")[0] + "\t7.5")
    elif defect == "symbol":
        lines[i] = "B" + lines[i][1:]
    path = tmp_path / "long.tsv"
    path.write_text("# a long table\n" + "\n".join(lines), encoding="utf-8")
    assert_same_outcome(path)


def test_load_builds_no_per_row_tuple(tmp_path, monkeypatch):
    """The old loader made a residue tuple per row; the new one makes one, for the wild type."""
    rng = np.random.default_rng(3)
    codes = np.unique(rng.integers(0, 20, (3000, 4)), axis=0)
    lines = ["".join(PROTEIN_SYMBOLS[r] for r in row) + f"\t{rng.normal()!r}" for row in codes]
    path = tmp_path / "big.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tuples = []

    def counting_tuple(*args):
        tuples.append(args)
        return tuple(*args)

    def no_ordinals(self, text):
        raise AssertionError("a valid table is parsed without Alphabet.ordinals")

    monkeypatch.setattr(landscape, "tuple", counting_tuple, raising=False)
    monkeypatch.setattr(Alphabet, "ordinals", no_ordinals)
    land = load_lookup(path)
    assert len(tuples) == 1
    assert land.codes.shape == (len(codes), 4) and land.codes.dtype == np.uint8
    assert np.array_equal(land.codes, codes)
