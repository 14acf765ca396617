"""Tests for lookup tables, NK landscapes, and the budgeted oracle."""

import hashlib
import itertools
import pickle
import re

import numpy as np
import pytest

import proxbo.landscape as landscape
from proxbo.errors import BudgetError, DataError, DomainError, ParseError
from proxbo.landscape import (
    BudgetedOracle,
    LookupLandscape,
    NKLandscape,
    load_lookup,
    make_nk,
)
from proxbo.sequences import Alphabet, Sequence, hamming_distance, residue_array, small_alphabet

from nk_oracle import scalar_fitnesses

AB2 = small_alphabet(2)
AB4 = small_alphabet(4)


def write(tmp_path, text, name="table.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadLookup:
    def test_generated_nk_table_loads_exact_fitness(self, tmp_path):
        from proxbo.harness import gen_nk

        gen_nk(5, 2, 3, 4, tmp_path / "land")
        land = load_lookup(tmp_path / "land.tsv")
        nk = make_nk(5, 2, 3, 4)
        states = list(land.iter_domain())
        assert len(states) == len(set(states)) == nk.num_states() == 243
        assert {s.residues for s in states} == {s.residues for s in nk.iter_domain()}
        assert all(s.alphabet == land.alphabet for s in states)
        assert land.evaluate_batch(residue_array(states)) == [nk.fitness(s) for s in states]
        assert land.wild_type.residues == (0,) * 5

    def test_basic_parse_and_wild_type(self, tmp_path):
        p = write(tmp_path, "ACD\t1.5\nAAD\t0.25\n")
        land = load_lookup(p)
        assert land.length == 3
        assert land.wild_type.text == "ACD"
        assert land.evaluate_batch(residue_array([land.wild_type])) == [1.5]
        assert land.num_states() == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path, "# a comment\n\nAC\t1.0\n# trailing\nAD\t2.0\n")
        assert load_lookup(p).num_states() == 2

    def test_alphabet_directive(self, tmp_path):
        p = write(tmp_path, "# alphabet XY\nXY\t1.0\nYY\t0.0\n")
        land = load_lookup(p)
        assert land.alphabet.symbols == "XY"
        assert land.wild_type.text == "XY"

    def test_wild_type_override(self, tmp_path):
        p = write(tmp_path, "AC\t1.0\nAD\t2.0\n")
        land = load_lookup(p, wild_type="AD")
        assert land.wild_type.text == "AD"

    def test_wild_type_override_missing_raises(self, tmp_path):
        p = write(tmp_path, "AC\t1.0\n")
        with pytest.raises(DataError):
            load_lookup(p, wild_type="DD")
        with pytest.raises(DataError, match="symbol 'Z'"):
            load_lookup(p, wild_type="ZZ")

    def test_negate_flips_scores(self, tmp_path):
        p = write(tmp_path, "AC\t1.5\n")
        land = load_lookup(p, negate=True)
        assert land.evaluate_batch(residue_array([land.wild_type])) == [-1.5]

    def test_parse_error_carries_location(self, tmp_path):
        p = write(tmp_path, "AC\t1.0\nAD\tnot-a-number\n")
        with pytest.raises(ParseError, match=r"table\.tsv:2"):
            load_lookup(p)

    @pytest.mark.parametrize("raw, line", [
        (b"AC\t1.0\nA\xe9\t2\n", 2),                     # Latin-1 in a sequence
        (b"# caf\xe9\nAC\t1.0\n", 1),                      # in a comment
        (b"AC\t1.0\r\nAD\t2\r\n\xff", 3),                # CRLF line ends, a stray last byte
        (b"# alphabet \xce\xb1\xce\xb2\r\xce\xb1\t1\r\xce", 3),  # CR line ends, cut short
    ], ids=["sequence", "comment", "crlf", "cr-truncated"])
    def test_text_that_is_not_utf8_names_its_line(self, tmp_path, raw, line):
        p = tmp_path / "table.tsv"
        p.write_bytes(raw)
        with pytest.raises(ParseError, match=rf"table\.tsv:{line}: not UTF-8 text: "):
            load_lookup(p)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_raises_with_location(self, tmp_path, score):
        p = write(tmp_path, f"AC\t1.0\nAD\t{score}\nAE\t2.0\n")
        with pytest.raises(ParseError, match=rf"table\.tsv:2: non-finite score '{score}'"):
            load_lookup(p)

    def test_wrong_column_count_raises(self, tmp_path):
        p = write(tmp_path, "AC 1.0\n")
        with pytest.raises(ParseError, match="2 tab-separated columns"):
            load_lookup(p)

    @pytest.mark.parametrize("text, line", [("AC\t1.0\t\n", 1), ("AC\t1.0\nAD\t2\t \n", 2)])
    def test_a_trailing_tab_is_a_third_column(self, tmp_path, text, line):
        # float() would read the score with the tab: only the tab count rejects the line
        p = write(tmp_path, text)
        with pytest.raises(ParseError, match=f":{line}: expected 2 tab-separated columns, got 3"):
            load_lookup(p)

    def test_length_mismatch_raises(self, tmp_path):
        p = write(tmp_path, "AC\t1.0\nACD\t2.0\n")
        with pytest.raises(ParseError, match=":2"):
            load_lookup(p)

    def test_conflicting_duplicate_raises(self, tmp_path):
        p = write(tmp_path, "AC\t1.0\nAC\t2.0\n")
        with pytest.raises(DataError, match="conflicting"):
            load_lookup(p)

    def test_consistent_duplicate_allowed(self, tmp_path):
        p = write(tmp_path, "AC\t1.0\nAC\t1.0\nAD\t0.0\n")
        assert load_lookup(p).num_states() == 2

    def test_empty_file_raises(self, tmp_path):
        p = write(tmp_path, "# nothing here\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_lookup(p)

    @pytest.mark.parametrize("text", ["AC\t1.0\r\nAD\t2\n", "# alphabet αβ\nαβ\t1\rββ\t2"])
    def test_keeps_the_digest_of_the_bytes_it_parsed(self, tmp_path, text):
        p = tmp_path / "table.tsv"
        p.write_bytes(text.encode("utf-8"))
        assert load_lookup(p).sha256 == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_unknown_sequence_raises_domain_error(self, tmp_path):
        p = write(tmp_path, "AC\t1.0\n")
        land = load_lookup(p)
        stranger = Sequence((3, 3), land.alphabet)
        assert not land.in_domain(residue_array([stranger]))[0]
        with pytest.raises(DomainError):
            land.evaluate_batch(residue_array([stranger]))


class TestLookupTable:
    """The array-backed table: its index, its pickled copy, and lookups that miss."""

    def _table(self, tmp_path):
        from proxbo.harness import gen_nk

        gen_nk(5, 2, 3, 4, tmp_path / "land")
        return load_lookup(tmp_path / "land.tsv")

    def test_pickled_table_answers_as_the_original(self, tmp_path):
        land = self._table(tmp_path)
        copy = pickle.loads(pickle.dumps(land))
        assert copy.states().tobytes() == land.states().tobytes()
        assert copy.wild_type == land.wild_type and copy.alphabet == land.alphabet
        states = list(land.iter_domain())
        assert all(copy.in_domain(residue_array([s]))[0] for s in states)
        assert copy.evaluate_batch(land.states()) == land.evaluate_batch(land.states())
        assert copy.scores.tobytes() == land.scores.tobytes()

    @pytest.mark.parametrize("residues", [(0, 0), (0,) * 6, (2, 2, 2, 2, 3)])
    def test_unknown_or_wrong_length_sequence_misses(self, tmp_path, residues):
        land = self._table(tmp_path)
        for table in (land, pickle.loads(pickle.dumps(land))):
            stranger = Sequence(residues, AB4)
            assert not table.in_domain(residue_array([stranger]))[0]
            rows = residue_array([land.wild_type, stranger] if len(residues) == 5 else [stranger])
            message = rf"^row {len(rows) - 1} \[{', '.join(map(str, residues))}\] is not in the lookup table$"
            with pytest.raises(DomainError, match=message):
                table.evaluate_batch(rows)

    def test_ordinals_the_dtype_cannot_hold_miss(self, tmp_path):
        land = self._table(tmp_path)
        assert land.codes.dtype == np.uint8
        wide = Alphabet("".join(chr(0x100 + i) for i in range(300)))
        assert not land.in_domain(residue_array([Sequence((0, 0, 0, 0, 299), wide)]))[0]

    def test_repeated_rows_are_refused(self):
        codes = np.array([[0, 1], [0, 1]], dtype=np.uint8)
        with pytest.raises(DataError, match="not distinct"):
            LookupLandscape(codes, np.zeros(2), Sequence((0, 1), AB2))

    def test_wide_alphabet_takes_a_wider_dtype(self, tmp_path):
        wide = "".join(chr(0x100 + i) for i in range(300))
        p = tmp_path / "wide.tsv"
        p.write_text(f"# alphabet {wide}\n{wide[299]}{wide[0]}\t1.0\n{wide[0]}{wide[1]}\t2.0\n",
                     encoding="utf-8")
        land = load_lookup(p)
        assert land.codes.dtype == np.uint16
        assert land.states().tolist() == [[299, 0], [0, 1]]
        assert land.evaluate_batch(residue_array([land.alphabet.encode(wide[0] + wide[1])])) == [2.0]
        assert not land.in_domain(residue_array([Sequence((299, 1), land.alphabet)]))[0]


class TestLookupSearch:
    """`in_domain` and `evaluate_batch` against a dict, on tables whose rows are out of order.

    The benchmark's table is written in sorted order, so it never makes the
    table sort its row keys; these tables do.
    """

    @staticmethod
    def _shuffled(v, length, n, seed):
        rng = np.random.default_rng(seed)
        rows = sorted({tuple(r) for r in rng.integers(0, v, (2 * n, length)).tolist()})[:n]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        scores = rng.normal(size=len(rows))
        alphabet = Alphabet("".join(chr(0x100 + i) for i in range(v)))
        codes = np.array(rows, dtype=np.min_scalar_type(v - 1))
        return codes, scores, alphabet, dict(zip(rows, scores.tolist()))

    @staticmethod
    def _loaded(tmp_path, codes, scores, alphabet):
        text = "".join(f"{''.join(alphabet.symbols[c] for c in row)}\t{y!r}\n"
                       for row, y in zip(codes.tolist(), scores.tolist()))
        path = tmp_path / "shuffled.tsv"
        path.write_text(f"# alphabet {alphabet.symbols}\n{text}", encoding="utf-8")
        return load_lookup(path)

    # rows of 1 to 10 bytes: integer keys up to 8 bytes, void keys beyond
    @pytest.mark.parametrize("v, length", [(20, 1), (5, 3), (5, 4), (5, 8), (5, 9), (300, 1),
                                           (300, 2), (300, 3), (300, 4), (300, 5)],
                             ids=lambda p: str(p))
    def test_answers_as_a_dict(self, tmp_path, v, length):
        codes, scores, alphabet, table = self._shuffled(v, length, min(200, v**length // 2),
                                                        seed=v)
        rows = list(table)
        assert rows != sorted(rows)
        built = LookupLandscape(codes, scores, Sequence(rows[0], alphabet))
        loaded = self._loaded(tmp_path, codes, scores, alphabet)
        assert loaded.states().tobytes() == codes.tobytes()
        width = 8 * codes.itemsize
        assert codes.dtype == (np.uint8 if v <= 256 else np.uint16)

        rng = np.random.default_rng(1)
        # ordinals the dtype cannot hold, which would wrap onto a row of the table
        wrapped, below = np.array(rows[:20]), np.array(rows[:20])
        wrapped[:, 0] += 1 << width
        below[:, -1] -= 1 << width
        queries = np.concatenate([np.array(rows), rng.integers(0, v, (300, length)),
                                  wrapped, below])
        queries = queries[rng.permutation(len(queries))]
        want = [tuple(q) in table for q in queries.tolist()]
        assert 0 < sum(want) < len(want)
        for land in (built, loaded):
            assert land.in_domain(queries).tolist() == want
            held = queries[((queries >= 0) & (queries < v)).all(axis=1)]
            assert (land.in_domain(held.astype(codes.dtype)) == land.in_domain(held)).all()
            for wrong in (queries[:, :-1], np.concatenate([queries, queries[:, :1]], axis=1)):
                assert not land.in_domain(wrong).any()

            seqs = [Sequence(tuple(q), alphabet) for q in queries.tolist()
                    if 0 <= min(q) and max(q) < v]
            hits = [s for s in seqs if s.residues in table]
            assert land.evaluate_batch(residue_array(hits)) == [table[s.residues] for s in hits]
            assert ([land.in_domain(residue_array([s]))[0] for s in seqs]
                    == [s.residues in table for s in seqs])
            miss = next(s for s in seqs if s.residues not in table)
            short = [Sequence(rows[0][:-1], alphabet)] if length > 1 else []
            for stranger in [miss] + short:
                assert not land.in_domain(residue_array([stranger]))[0]
                batch = hits[:3] + [stranger] + hits[3:5] if len(stranger) == length else [stranger]
                at = batch.index(stranger)
                message = rf"^row {at} {re.escape(str(list(stranger.residues)))} is not in"
                with pytest.raises(DomainError, match=message):
                    land.evaluate_batch(residue_array(batch))


class TestNKKernel:
    """`fitness_rows` against the per-site loop it replaced (tests/nk_oracle.py), bit for bit."""

    GRID = [(n, k, v) for n in (1, 2, 3, 4, 6) for k in range(4) for v in (2, 3, 4, 20)
            if k < n and v**n <= 10_000]

    @pytest.mark.parametrize("n, k, v", GRID)
    def test_every_state_matches_the_per_site_loop(self, n, k, v):
        land = make_nk(n, k, v, 100 * n + 10 * k + v)
        codes = land.states()
        assert codes.tolist() == [list(r) for r in itertools.product(range(v), repeat=n)]
        want = scalar_fitnesses(land, codes)
        assert (land.fitness_rows(codes) == want).all()
        assert (land.fitness_rows(codes.astype(np.int64)) == want).all()
        assert land.evaluate_batch(residue_array(list(land.iter_domain()))) == want.tolist()
        best_seq, best_fit = land.enumerate_optimum()
        first = int(np.argmax(want))  # a strict > scan keeps the first of equal maxima
        assert best_seq.residues == tuple(codes[first].tolist()) and best_fit == want[first]

    def test_random_rows_of_a_large_landscape_match_the_per_site_loop(self):
        land = make_nk(10, 4, 4, 7)
        codes = np.random.default_rng(0).integers(0, 4, (10_000, 10))
        want = scalar_fitnesses(land, codes)
        assert (land.fitness_rows(codes) == want).all()
        assert (land.fitness_rows(codes.astype(np.uint8)) == want).all()

    def test_optimum_of_nk_10_4_4(self):
        # the optimum the per-state scan found, over 4**10 = 1,048,576 states
        best_seq, best_fit = make_nk(10, 4, 4, 7).enumerate_optimum()
        assert best_seq.text == "CAEAEDAECD"
        assert best_fit == 0.881204784524931

    def test_in_domain_checks_length_and_range(self):
        land = make_nk(4, 1, 3, 0)
        codes = np.array([[0, 1, 2, 0], [0, 1, 3, 0], [0, -1, 2, 0], [2, 2, 2, 2]])
        assert land.in_domain(codes).tolist() == [True, False, False, True]
        assert not land.in_domain(codes[:, :3]).any()
        with pytest.raises(ValueError, match="incompatible"):
            land.evaluate_batch(np.array([[0, 1, 2, 0], [0, 1, 3, 0]]))


class TestNKLandscape:
    def test_construction_reproducible(self):
        a, b = make_nk(8, 2, 2, 42), make_nk(8, 2, 2, 42)
        assert np.array_equal(a.neighbor_map, b.neighbor_map)
        assert np.array_equal(a.tables, b.tables)
        s = Sequence((0, 1) * 4, AB2)
        assert a.fitness(s) == b.fitness(s)

    def test_different_seeds_differ(self):
        a, b = make_nk(8, 2, 2, 0), make_nk(8, 2, 2, 1)
        s = Sequence((0,) * 8, AB2)
        assert a.fitness(s) != b.fitness(s)

    def test_fitness_in_unit_interval(self):
        land = make_nk(6, 1, 4, 3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = Sequence(tuple(rng.integers(0, 4, 6)), AB4)
            assert 0.0 <= land.fitness(s) < 1.0

    def test_k_zero_is_additive(self):
        # with no interactions, a site's contribution depends on that site only,
        # so fitness deltas from single-site changes sum exactly
        land = make_nk(6, 0, 2, 9)
        base = Sequence((0,) * 6, AB2)
        mutated = Sequence((1,) * 6, AB2)
        f0 = land.fitness(base)
        deltas = 0.0
        for i in range(6):
            res = list(base.residues)
            res[i] = 1
            deltas += land.fitness(Sequence(tuple(res), AB2)) - f0
        assert land.fitness(mutated) == pytest.approx(f0 + deltas, abs=1e-12)

    def test_enumerate_optimum_matches_brute_force(self):
        land = make_nk(6, 2, 2, 7)
        best_seq, best_fit = land.enumerate_optimum()
        fits = {s: land.fitness(s) for s in land.iter_domain()}
        assert best_fit == max(fits.values())
        assert fits[best_seq] == best_fit
        assert land.num_states() == len(fits) == 64

    def test_mean_contribution_formula(self):
        # hand-check the mixed-radix table indexing on a tiny instance
        land = make_nk(3, 1, 2, 5)
        s = Sequence((1, 0, 1), AB2)
        total = 0.0
        for i in range(3):
            key = s.residues[i]
            for j in land.neighbor_map[i]:
                key = key * 2 + s.residues[j]
            total += land.tables[i, key]
        assert land.fitness(s) == pytest.approx(total / 3, abs=1e-15)

    def test_neighbor_map_excludes_self(self):
        land = make_nk(10, 3, 2, 1)
        for i in range(10):
            assert i not in land.neighbor_map[i]
            assert len(set(land.neighbor_map[i])) == 3

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            make_nk(0, 0, 2, 0)
        with pytest.raises(ValueError):
            make_nk(5, 5, 2, 0)

    def test_table_size_is_checked_before_allocating(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^k: the tables would hold n\*v\^\(k\+1\) = 30\*2\^30 "):
            make_nk(30, 29, 2, 0)
        monkeypatch.setattr(landscape, "MAX_NK_TABLE_ENTRIES", 6 * 2**2)
        assert make_nk(6, 1, 2, 0).tables.size == 24  # at the limit
        with pytest.raises(ValueError, match="more than 24"):
            make_nk(6, 2, 2, 0)

    def test_incompatible_sequence_raises(self):
        land = make_nk(4, 1, 2, 0)
        with pytest.raises(ValueError):
            land.fitness(Sequence((0, 1), AB2))

    def test_wild_type_defaults_to_the_all_first_symbol_state(self):
        assert make_nk(4, 1, 2, 0).wild_type == Sequence((0,) * 4, AB2)
        wt = Sequence((1, 0, 1, 1), AB2)
        assert NKLandscape(4, 1, AB2, 0, wt).wild_type == wt
        with pytest.raises(ValueError, match="^wild_type: ACAAA is not a state"):
            NKLandscape(4, 1, AB2, 0, Sequence((0, 1, 0, 0, 0), AB2))


class TestBudgetedOracle:
    def test_budget_accounting(self):
        land = make_nk(4, 0, 2, 0)
        oracle = BudgetedOracle(land, rounds_total=2, batch_size=3)
        batch = np.array(list(itertools.product((0, 1), repeat=4))[:3])
        oracle.query_batch(batch)
        assert oracle.rounds_remaining == 1
        assert oracle.queries_made == 3
        oracle.query_batch(batch[:1])
        assert oracle.rounds_remaining == 0
        assert oracle.queries_made == 4
        with pytest.raises(BudgetError):
            oracle.query_batch(batch[:1])

    def test_oversize_and_empty_batches_rejected(self):
        oracle = BudgetedOracle(make_nk(4, 0, 2, 0), rounds_total=1, batch_size=2)
        codes = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(ValueError):
            oracle.query_batch(codes)
        with pytest.raises(ValueError):
            oracle.query_batch(codes[:0])
        # neither error consumed budget
        assert oracle.rounds_remaining == 1

    def test_query_batch_returns_the_landscape_scores(self):
        land = make_nk(4, 1, 2, 3)
        oracle = BudgetedOracle(land, rounds_total=1, batch_size=2)
        batch = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
        scores = oracle.query_batch(batch)
        assert scores == land.evaluate_batch(batch)
