"""Tests for campaign configuration, CSV artifacts, aggregation, and the CLI."""

import builtins
import concurrent.futures
import hashlib
import itertools
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import proxbo.harness as harness
import proxbo.surrogate as surrogate
from proxbo.cli import main as cli_main
from proxbo.errors import ConfigError, DataError, TrainingError
from proxbo.harness import (
    AggregateCurve,
    CampaignConfig,
    aggregate_dir,
    aggregate_runs,
    config_hash,
    config_lines,
    gen_nk,
    load_config,
    parse_config_text,
    read_run_csv,
    run_campaign,
    run_one_seed,
    write_aggregate,
    write_run_csv,
)
from proxbo.landscape import load_lookup, make_nk
from proxbo.sequences import Sequence

import test_acceptance

RANDOM_NK_CONFIG = """
landscape.kind=nk
landscape.n=8
landscape.k=1
landscape.v=2
landscape.seed=3
method=random
rounds=2
batch=4
seeds=0,1
"""

DATA = Path(__file__).resolve().parent / "data"

SMALL_BO_CONFIG = """
landscape.kind=nk
landscape.n=8
landscape.k=1
landscape.v=2
landscape.seed=3
method=batch_bo
acquisition.kind=ucb
surrogate.kind=conv
surrogate.members=2
surrogate.channels=4,4
surrogate.kernel_size=3
surrogate.hidden_dense=8
train.epochs=10
rounds=2
batch=4
pool.size=32
lambda.kind=fixed
lambda.value=0
seeds=0
"""


def with_lines(base: str, extra: str) -> str:
    """Config text `base` with the lines of `extra` appended, each replacing `base`'s line
    for its key: a config key may be set once."""
    keys = {line.partition("=")[0] for line in extra.splitlines()}
    kept = [line for line in base.splitlines() if line.partition("=")[0] not in keys]
    return "\n".join(kept + extra.splitlines()) + "\n"


class TestConfigParsing:
    def test_roundtrip_through_canonical_echo(self):
        cfg = parse_config_text(RANDOM_NK_CONFIG)
        again = parse_config_text("\n".join(config_lines(cfg)))
        assert cfg == again

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# hello\n\nrounds=5\nbatch=2\n")
        assert (cfg.rounds, cfg.batch) == (5, 2)

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("no.such.key=1\n")

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match=r"^line 4: key 'rounds' repeats line 2$"):
            parse_config_text("# first\nrounds=3\nbatch=2\nrounds=5\n")

    def test_nk_config_is_checked_without_drawing_the_tables(self):
        """NK N=20 K=3 V=20 has 25.6 MB of tables: neither the config nor a `replace` draws them."""
        tracemalloc.start()
        try:
            cfg = CampaignConfig(nk_n=20, nk_k=3, nk_v=20, wild_type="ACDEFGHIKLMNPQRSTVWY")
            replace(cfg, seeds=(1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just a line\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config_text("rounds=many\n")

    def test_validation_errors_name_field_paths(self):
        with pytest.raises(ConfigError, match="landscape.kind"):
            parse_config_text("landscape.kind=maze\n")
        with pytest.raises(ConfigError, match="acquisition.kind"):
            parse_config_text("acquisition.kind=entropy\n")
        with pytest.raises(ConfigError, match="landscape.path"):
            parse_config_text("landscape.kind=lookup\n")
        with pytest.raises(ConfigError, match="seeds"):
            parse_config_text("seeds=1,1\n")

    @pytest.mark.parametrize("text, key", [
        ("train.epochs=0", "train.epochs"),
        ("lambda.kind=fixed\nlambda.value=-0.5", "lambda.value"),
        ("lambda.factor=-1", "lambda.factor"),
        ("pool.radius=0", "pool.radius"),
        ("landscape.n=6\nlandscape.k=12", "landscape.k"),
        ("landscape.v=1", "landscape.v"),
        ("surrogate.members=0", "surrogate.members"),
        ("surrogate.channels=", "surrogate.channels"),
        ("acquisition.kg.n_fantasies=0", "acquisition.kg.n_fantasies"),
        ("landscape.wild_type=XYZ", "landscape.wild_type"),
        ("landscape.n=6\nlandscape.k=1\nlandscape.wild_type=AAA", "landscape.wild_type"),
        # the NK tables would hold 30 * 2^30 entries: rejected before any allocation
        ("landscape.kind=nk\nlandscape.n=30\nlandscape.k=29\nlandscape.v=2", "landscape.k"),
        ("out=", "out"),
        # the fields of the kind that is not chosen are checked as well
        ("surrogate.kind=conv\nsurrogate.hidden_size=-1", "surrogate.hidden_size"),
        ("surrogate.kind=recurrent\nsurrogate.kernel_size=4", "surrogate.kernel_size"),
        ("surrogate.kind=recurrent\nsurrogate.channels=0", "surrogate.channels"),
        ("surrogate.kind=recurrent\nsurrogate.hidden_dense=0", "surrogate.hidden_dense"),
    ])
    def test_out_of_range_values_name_their_key(self, text, key):
        with pytest.raises(ConfigError, match=f"^{key.replace('.', '[.]')}: "):
            parse_config_text(text + "\n")

    def test_config_hash_ignores_seeds_and_out(self):
        a = parse_config_text("rounds=3\nseeds=0,1\nout=x\n")
        b = parse_config_text("rounds=3\nseeds=7\nout=y\n")
        c = parse_config_text("rounds=4\nseeds=0,1\nout=x\n")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestRunArtifacts:
    def test_single_random_round_measures_batch_plus_wild_type(self, tmp_path):
        cfg = parse_config_text(
            "landscape.kind=nk\nlandscape.n=6\nlandscape.k=0\nlandscape.v=2\n"
            f"method=random\nrounds=1\nbatch=4\nseeds=3\nout={tmp_path}\n")
        records = run_campaign(cfg)
        assert len(records[3]) == 1
        text = (tmp_path / "run_3.csv").read_text().strip().splitlines()
        assert text[0] == "round,query_index,sequence,fitness,cumulative_max"
        assert len(text) == 1 + 1 + 4  # header + seeded wild type + one batch
        assert text[1].startswith("0,0,")

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = parse_config_text(RANDOM_NK_CONFIG + f"out={tmp_path / name}\n")
            run_campaign(cfg)
            outs.append((tmp_path / name / "run_0.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bo_campaign_writes_manifest_with_hash(self, tmp_path):
        cfg = parse_config_text(SMALL_BO_CONFIG + f"out={tmp_path}\n")
        run_campaign(cfg)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "artifact_version=0.5.0"
        assert manifest[1] == f"config_hash={config_hash(cfg)}"

    def test_nk_manifest_keeps_the_0_5_0_bytes(self, tmp_path):
        cfg = parse_config_text(RANDOM_NK_CONFIG + f"out={tmp_path}\n")
        run_campaign(cfg)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        # the hash this config had before lookup tables were hashed by their bytes
        assert manifest[:2] == ["artifact_version=0.5.0", "config_hash=8c3c4e0cf363fd17"]
        assert manifest[2:] == config_lines(cfg)

    def test_lookup_table_is_identified_by_its_bytes(self, tmp_path):
        gen_nk(5, 1, 4, 11, tmp_path / "a" / "land")
        (tmp_path / "b").mkdir()
        shutil.copyfile(tmp_path / "a" / "land.tsv", tmp_path / "b" / "land.tsv")

        def config(table):
            return parse_config_text(f"landscape.kind=lookup\nlandscape.path={table}\n"
                                     f"method=random\nrounds=1\nbatch=2\nseeds=0\n"
                                     f"out={tmp_path / 'runs'}\n")

        same = config_hash(config(tmp_path / "a" / "land.tsv"))
        assert config_hash(config(tmp_path / "b" / "land.tsv")) == same
        cfg = config(tmp_path / "a" / "land.tsv")
        run_campaign(cfg)
        manifest = (tmp_path / "runs" / "manifest.txt").read_text().splitlines()
        digest = hashlib.sha256((tmp_path / "a" / "land.tsv").read_bytes()).hexdigest()
        assert manifest[1:3] == [f"config_hash={same}", f"landscape.sha256={digest}"]
        assert manifest[3:] == config_lines(cfg)
        gen_nk(5, 1, 4, 12, tmp_path / "a" / "land")  # another table at the same path
        assert config_hash(config(tmp_path / "a" / "land.tsv")) != same

    def test_cold_start_rows_equal_the_0_1_0_artifact(self, tmp_path):
        # round 0 (the wild type) and round 1 (the model-free cold start) do not
        # draw candidate pools, so they equal the rows artifact version 0.1.0 wrote
        cfg = CampaignConfig(**{**test_acceptance.TestReproducibility.CONFIG.__dict__,
                                "seeds": (0,), "out": str(tmp_path)})
        run_campaign(cfg)
        lines = (tmp_path / "run_0.csv").read_text().splitlines()
        assert any(line.startswith("2,") for line in lines)
        early = [line for line in lines if line.split(",")[0] in ("round", "0", "1")]
        assert early == (DATA / "kg_cold_start_seed0.csv").read_text().splitlines()

    @pytest.mark.parametrize("method", ["pex_greedy", "random"])
    def test_baseline_rows_equal_the_0_2_0_artifact(self, tmp_path, method):
        cfg = CampaignConfig(**{**test_acceptance.TestReproducibility.CONFIG.__dict__,
                                "method": method, "rounds": 3, "seeds": (0,),
                                "out": str(tmp_path)})
        run_campaign(cfg)
        assert (tmp_path / "run_0.csv").read_bytes() == \
               (DATA / f"{method}_seed0.csv").read_bytes()

    @pytest.mark.parametrize("name", ["kg_lambda", "ei_lambda", "ucb_lambda",
                                      "ucb_recurrent_lookup"])
    def test_model_guided_rows_equal_the_0_5_0_artifact(self, tmp_path, name):
        # every model-guided path, byte for byte: the conv acquisitions at a
        # fixed λ on the reproducibility config, and UCB on the recurrent
        # surrogate over a lookup table with the iqr λ
        fields = {**test_acceptance.TestReproducibility.CONFIG.__dict__,
                  "rounds": 3, "seeds": (0,), "out": str(tmp_path / "out")}
        if name == "ucb_recurrent_lookup":
            gen_nk(5, 1, 4, 11, tmp_path / "land")
            fields.update(landscape_kind="lookup", lookup_path=str(tmp_path / "land.tsv"),
                          surrogate_kind="recurrent", hidden_size=8, acquisition="ucb")
        else:
            fields.update(acquisition=name.split("_")[0], lambda_kind="fixed",
                          lambda_value=0.05)
        run_campaign(CampaignConfig(**fields))
        assert (tmp_path / "out" / "run_0.csv").read_bytes() == \
               (DATA / f"{name}_seed0.csv").read_bytes()

    @pytest.mark.parametrize("method,fits", [("batch_bo", 2), ("pex_greedy", 2), ("random", 0)])
    def test_the_round_that_spends_the_budget_does_not_refit(self, tmp_path, monkeypatch,
                                                             method, fits):
        calls = []
        original = surrogate.Ensemble.fit

        def counting_fit(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setenv("PROXBO_THREADS", "1")  # the counter lives in this process
        monkeypatch.setattr(surrogate.Ensemble, "fit", counting_fit)
        cfg = parse_config_text(SMALL_BO_CONFIG.replace("rounds=2", "rounds=3")
                                .replace("seeds=0", "seeds=0,1")
                                .replace("method=batch_bo", f"method={method}")
                                + f"out={tmp_path}\n")
        records = run_campaign(cfg)
        assert [len(records[s]) for s in (0, 1)] == [3, 3]
        assert len(calls) == 2 * fits  # rounds - 1 fits per model-guided seed

    def test_cumulative_max_column_is_running_maximum(self, tmp_path):
        cfg = parse_config_text(RANDOM_NK_CONFIG + f"out={tmp_path}\n")
        run_campaign(cfg)
        running = -float("inf")
        for line in (tmp_path / "run_0.csv").read_text().splitlines()[1:]:
            cols = line.split(",")
            running = max(running, float(cols[3]))
            assert float(cols[4]) == running


class TestAggregation:
    def _write_run(self, path, cum_by_round):
        lines = ["round,query_index,sequence,fitness,cumulative_max"]
        qi = 0
        for r, c in cum_by_round.items():
            lines.append(f"{r},{qi},AA,{c},{c}")
            qi += 1
        path.write_text("\n".join(lines) + "\n")

    def test_hand_computed_mean_and_population_std(self, tmp_path):
        self._write_run(tmp_path / "run_0.csv", {0: 1.0, 1: 2.0, 2: 3.0})
        self._write_run(tmp_path / "run_1.csv", {0: 3.0, 1: 2.0, 2: 1.0})
        curve = aggregate_runs([tmp_path / "run_0.csv", tmp_path / "run_1.csv"])
        assert curve.mean == [2.0, 2.0, 2.0]
        assert curve.std == [1.0, 0.0, 1.0]
        assert curve.n_seeds == 2
        assert curve.max_fitness == 3.0

    def test_mismatched_round_structure_rejected(self, tmp_path):
        self._write_run(tmp_path / "run_0.csv", {0: 1.0, 1: 2.0})
        self._write_run(tmp_path / "run_1.csv", {0: 1.0})
        with pytest.raises(ValueError, match="round structure"):
            aggregate_runs([tmp_path / "run_0.csv", tmp_path / "run_1.csv"])

    def test_aggregate_dir_writes_csv_and_plot_script(self, tmp_path):
        self._write_run(tmp_path / "run_0.csv", {0: 1.0, 1: 2.0})
        self._write_run(tmp_path / "run_1.csv", {0: 2.0, 1: 4.0})
        curve = aggregate_dir(tmp_path)
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "round,mean_cumulative_max,std_cumulative_max,n_seeds"
        assert agg[1].startswith("0,1.5,")
        assert "plot" in (tmp_path / "plot.gp").read_text()
        assert curve.max_fitness == 4.0

    def test_read_run_csv_takes_final_row_per_round(self, tmp_path):
        p = tmp_path / "run_0.csv"
        p.write_text("round,query_index,sequence,fitness,cumulative_max\n"
                     "0,0,AA,1.0,1.0\n1,1,AC,0.5,1.0\n1,2,CC,2.0,2.0\n")
        assert read_run_csv(p) == {0: 1.0, 1: 2.0}


class TestSeedFailures:
    def test_training_error_propagates_instead_of_flagging_exhaustion(self, monkeypatch):
        calls = []
        original = surrogate.Ensemble.fit

        def failing_fit(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise TrainingError("member 0 diverged (non-finite loss)")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(surrogate.Ensemble, "fit", failing_fit)
        cfg = parse_config_text(SMALL_BO_CONFIG.replace("rounds=2", "rounds=5"))
        with pytest.raises(TrainingError, match="diverged"):
            run_one_seed(cfg, 0)
        assert len(calls) == 3

    def test_exhausted_domain_is_flagged_in_the_csv(self, tmp_path):
        # 8 states: the wild type and 7 single mutations use up the domain
        cfg = parse_config_text(
            "landscape.kind=nk\nlandscape.n=3\nlandscape.k=0\nlandscape.v=2\n"
            f"method=random\nrounds=4\nbatch=4\nseeds=0\nout={tmp_path}\n")
        records, _, _, exhausted = run_one_seed(cfg, 0)
        assert exhausted
        assert sum(len(r.sequences) for r in records) == 7
        run_campaign(cfg)
        lines = (tmp_path / "run_0.csv").read_text().splitlines()
        assert lines[-1] == "# early_stop=domain_exhausted"


def _run_one_seed_failing_on_seed_1(cfg, seed, landscape=None):
    if seed == 1:
        raise TrainingError("member 0 diverged (non-finite loss)")
    return _RUN_ONE_SEED(cfg, seed, landscape)


def _run_one_seed_failing(cfg, seed, landscape=None):
    raise TrainingError(f"seed {seed}: member 0 diverged (non-finite loss)")


_RUN_ONE_SEED = harness.run_one_seed
THREE_SEEDS = RANDOM_NK_CONFIG.replace("seeds=0,1", "seeds=0,1,2")


def _artifacts(out):
    """File name -> bytes of everything in `out`, which is then removed."""
    blobs = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    return blobs


class TestCrashSafety:
    def test_parallel_seeds_write_the_serial_artifacts(self, tmp_path, monkeypatch):
        cfg = parse_config_text(THREE_SEEDS + f"out={tmp_path / 'runs'}\n")
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PROXBO_THREADS", threads)
            assert list(run_campaign(cfg)) == [0, 1, 2]
            outs.append(_artifacts(tmp_path / "runs"))
        assert outs[0] == outs[1]
        assert sorted(outs[0]) == ["manifest.txt", "run_0.csv", "run_1.csv", "run_2.csv"]

    def test_parallel_lookup_seeds_write_the_serial_artifacts(self, tmp_path, monkeypatch):
        # each worker gets the array-backed table pickled with its sorted row keys
        gen_nk(6, 1, 2, 9, tmp_path / "land")
        cfg = parse_config_text(
            SMALL_BO_CONFIG.replace("landscape.kind=nk", "landscape.kind=lookup")
            .replace("seeds=0", "seeds=0,1,2")
            + f"landscape.path={tmp_path / 'land.tsv'}\nout={tmp_path / 'runs'}\n")
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PROXBO_THREADS", threads)
            assert list(run_campaign(cfg)) == [0, 1, 2]
            outs.append(_artifacts(tmp_path / "runs"))
        assert outs[0] == outs[1]
        assert sorted(outs[0]) == ["manifest.txt", "run_0.csv", "run_1.csv", "run_2.csv"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failing_seed_keeps_the_others_and_reraises(self, tmp_path, monkeypatch, threads):
        cfg = parse_config_text(THREE_SEEDS + f"out={tmp_path / 'runs'}\n")
        run_campaign(cfg)
        clean = _artifacts(tmp_path / "runs")
        monkeypatch.setenv("PROXBO_THREADS", threads)
        monkeypatch.setattr(harness, "run_one_seed", _run_one_seed_failing_on_seed_1)
        with pytest.raises(TrainingError, match="member 0 diverged"):
            run_campaign(cfg)
        crashed = _artifacts(tmp_path / "runs")  # no temp file is left over
        assert sorted(crashed) == ["manifest.txt", "run_0.csv", "run_2.csv"]
        assert all(crashed[name] == clean[name] for name in crashed)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_campaign_where_every_seed_fails_leaves_no_output(self, tmp_path, monkeypatch,
                                                              threads):
        monkeypatch.setenv("PROXBO_THREADS", threads)
        monkeypatch.setattr(harness, "run_one_seed", _run_one_seed_failing)
        cfg = parse_config_text(THREE_SEEDS + f"out={tmp_path / 'runs'}\n")
        with pytest.raises(TrainingError, match="seed 0: member 0 diverged"):
            run_campaign(cfg)
        assert not (tmp_path / "runs").exists()
        # a directory that was there before keeps what it held, and no manifest
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / "notes.txt").write_text("kept\n")
        with pytest.raises(TrainingError, match="seed 0: member 0 diverged"):
            run_campaign(cfg)
        assert sorted(_artifacts(tmp_path / "runs")) == ["notes.txt"]

    def test_error_is_raised_unchanged(self, tmp_path, monkeypatch, capsys):
        errors = {}

        def failing(cfg, seed, landscape=None):
            if seed > 0:
                errors[seed] = TrainingError(f"seed {seed} diverged")
                raise errors[seed]
            return _RUN_ONE_SEED(cfg, seed, landscape)

        monkeypatch.setattr(harness, "run_one_seed", failing)
        with pytest.raises(TrainingError) as info:
            run_campaign(parse_config_text(THREE_SEEDS + f"out={tmp_path}\n"))
        assert info.value is errors[1]  # the first failure in seed order
        assert sorted(errors) == [1, 2]  # seed 2 still ran
        assert "seed 2 failed as well" in capsys.readouterr().err


class _InlineExecutor:
    """A stand-in for `ProcessPoolExecutor`: records `max_workers`, runs each task at submit."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestThreadCount:
    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        # run_campaign imports the pool class from here when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: _InlineExecutor(made, max_workers))
        return made

    @pytest.mark.parametrize("threads, seeds, workers", [
        ("8", "0,1", 2), ("2", "0,1,2", 2), ("3", "0,1,2", 3)])
    def test_no_more_workers_than_seeds(self, tmp_path, monkeypatch, made, threads, seeds,
                                        workers):
        cfg = parse_config_text(RANDOM_NK_CONFIG.replace("seeds=0,1", f"seeds={seeds}")
                                + f"out={tmp_path / 'runs'}\n")
        monkeypatch.setenv("PROXBO_THREADS", threads)
        assert list(run_campaign(cfg)) == list(cfg.seeds)
        assert made == [workers]
        assert sorted(_artifacts(tmp_path / "runs")) == \
            ["manifest.txt"] + [f"run_{seed}.csv" for seed in cfg.seeds]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_count_below_one_is_a_config_error(self, tmp_path, monkeypatch, made, threads):
        monkeypatch.setenv("PROXBO_THREADS", threads)
        with pytest.raises(ConfigError, match=f"PROXBO_THREADS: expected at least 1, got {threads}"):
            run_campaign(parse_config_text(RANDOM_NK_CONFIG + f"out={tmp_path / 'runs'}\n"))
        assert not made and not (tmp_path / "runs").exists()

    def test_import_leaves_the_pool_modules_unloaded(self):
        # the pool imports multiprocessing, socket and signal; a serial campaign needs none
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, proxbo; print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert result.stdout == "False\n", result.stderr


class TestSharedLandscape:
    def test_serial_lookup_campaign_loads_the_table_once(self, tmp_path, monkeypatch):
        gen_nk(6, 1, 2, 9, tmp_path / "land")
        cfg = parse_config_text(
            SMALL_BO_CONFIG.replace("landscape.kind=nk", "landscape.kind=lookup")
            .replace("seeds=0", "seeds=0,1,2")
            + f"landscape.path={tmp_path / 'land.tsv'}\nout={tmp_path / 'runs'}\n")
        per_seed = {}
        for seed in cfg.seeds:
            write_run_csv(tmp_path / f"alone_{seed}.csv", *run_one_seed(cfg, seed))
            per_seed[seed] = (tmp_path / f"alone_{seed}.csv").read_bytes()
        calls = []

        def counting_load_lookup(*args, **kwargs):
            calls.append(args)
            return load_lookup(*args, **kwargs)

        monkeypatch.delenv("PROXBO_THREADS", raising=False)
        monkeypatch.setattr(harness, "load_lookup", counting_load_lookup)
        run_campaign(cfg)
        assert len(calls) == 1
        for seed in cfg.seeds:
            assert (tmp_path / "runs" / f"run_{seed}.csv").read_bytes() == per_seed[seed]


def _ascii_table(tmp_path):
    gen_nk(6, 1, 2, 9, tmp_path / "land")
    return tmp_path / "land.tsv"


def _non_ascii_table(tmp_path):
    table = _ascii_table(tmp_path)
    table.write_text(table.read_text().translate(str.maketrans("AC", "αβ")), encoding="utf-8")
    return table


class TestTableReadOnce:
    @staticmethod
    def config(table, out):
        return parse_config_text(f"landscape.kind=lookup\nlandscape.path={table}\n"
                                 f"method=random\nrounds=1\nbatch=2\nseeds=0,1\nout={out}\n")

    @pytest.mark.parametrize("make_table", [_ascii_table, _non_ascii_table])
    def test_a_campaign_opens_its_table_once(self, tmp_path, monkeypatch, make_table):
        table = make_table(tmp_path)
        opened = []

        def counting(open_):
            def counting_open(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and Path(file) == table:
                    opened.append(file)
                return open_(file, *args, **kwargs)
            return counting_open

        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(Path, "open", counting(Path.open))
        monkeypatch.delenv("PROXBO_THREADS", raising=False)
        run_campaign(self.config(table, tmp_path / "runs"))
        assert len(opened) == 1
        assert (tmp_path / "runs" / "run_1.csv").exists()

    def test_the_manifest_names_the_bytes_the_loader_parsed(self, tmp_path, monkeypatch):
        table = _ascii_table(tmp_path)
        parsed = table.read_bytes()
        loaded = []

        def load_then_replace(*args, **kwargs):
            loaded.append(load_lookup(*args, **kwargs))
            gen_nk(6, 1, 2, 10, tmp_path / "land")  # another table at the path, once parsed
            return loaded[-1]

        monkeypatch.setattr(harness, "load_lookup", load_then_replace)
        cfg = self.config(table, tmp_path / "runs")
        run_campaign(cfg)
        assert table.read_bytes() != parsed
        digest = hashlib.sha256(parsed).hexdigest()
        assert loaded[0].sha256 == digest
        manifest = (tmp_path / "runs" / "manifest.txt").read_text().splitlines()
        table.write_bytes(parsed)
        assert manifest[1:3] == [f"config_hash={config_hash(cfg)}", f"landscape.sha256={digest}"]


class TestNKWildType:
    def test_a_campaign_starts_from_the_landscapes_wild_type(self, tmp_path):
        cfg = parse_config_text(RANDOM_NK_CONFIG)
        land = make_nk(8, 1, 2, 3)
        land.wild_type = Sequence((1, 0, 1, 1, 0, 0, 1, 0), land.alphabet)
        write_run_csv(tmp_path / "run_0.csv", *run_one_seed(cfg, 0, land))
        row = (tmp_path / "run_0.csv").read_text().splitlines()[1]
        assert row.split(",")[:4] == ["0", "0", "CACCAACA",
                                      f"{land.fitness(land.wild_type):.17g}"]

    def test_the_config_sets_the_wild_type(self):
        cfg = parse_config_text(RANDOM_NK_CONFIG + "landscape.wild_type=CCAAAAAC\n")
        assert harness._build_landscape(cfg).wild_type.text == "CCAAAAAC"
        default = harness._build_landscape(parse_config_text(RANDOM_NK_CONFIG))
        assert default.wild_type.text == "A" * 8


class TestGenNK:
    def test_reproducible_and_optimum_header_matches_max(self, tmp_path):
        written = gen_nk(6, 1, 2, 9, tmp_path / "land")
        tsv = (tmp_path / "land.tsv").read_text().splitlines()
        opt_line = next(l for l in tsv if l.startswith("# optimum "))
        _, _, opt_seq, opt_score = opt_line.split()
        scores = {l.split("\t")[0]: float(l.split("\t")[1])
                  for l in tsv if not l.startswith("#")}
        assert len(scores) == 64
        assert float(opt_score) == max(scores.values())
        assert scores[opt_seq] == max(scores.values())
        again = gen_nk(6, 1, 2, 9, tmp_path / "land2")
        assert (tmp_path / "land2.tsv").read_text().replace("land2", "land") == \
               (tmp_path / "land.tsv").read_text()

    def test_spec_file_round_trips_through_config(self, tmp_path):
        gen_nk(6, 1, 2, 9, tmp_path / "land")
        cfg = load_config(tmp_path / "land.nk.txt")
        assert (cfg.nk_n, cfg.nk_k, cfg.nk_v, cfg.nk_seed) == (6, 1, 2, 9)

    def test_enumeration_limit_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="2\\*\\*20"):
            gen_nk(30, 2, 2, 0, tmp_path / "big", enumerate_table=True)

    def test_lookup_campaign_on_generated_table(self, tmp_path):
        gen_nk(6, 1, 2, 9, tmp_path / "land")
        cfg = parse_config_text(
            f"landscape.kind=lookup\nlandscape.path={tmp_path / 'land.tsv'}\n"
            f"method=random\nrounds=1\nbatch=4\nseeds=0\nout={tmp_path / 'runs'}\n")
        records = run_campaign(cfg)
        assert len(records[0]) == 1


SRC = Path(__file__).resolve().parents[1] / "src"


# the lookup landscape that `gen_nk(6, 1, 2, 9, <tmp>/land)` writes
LOOKUP = "landscape.kind=lookup\nlandscape.path={tmp}/land.tsv"


def cli(*argv, **env):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "proxbo.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


class TestCLI:
    def test_check_exits_zero(self):
        result = cli("check")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "gradient_check[conv]: ok" in result.stdout
        assert "gradient_check[recurrent]: ok" in result.stdout

    def test_missing_config_exits_one_and_names_path(self):
        result = cli("run", "/no/such/config.txt")
        assert result.returncode == 1
        assert "config.txt" in result.stderr

    def test_unknown_flag_exits_two(self):
        result = cli("aggregate", "--frobnicate", ".")
        assert result.returncode == 2

    def test_gen_nk_then_aggregate_round_trip(self, tmp_path):
        assert cli("gen-nk", "--n", "6", "--k", "1", "--v", "2", "--seed", "9",
                   "--out", str(tmp_path / "land")).returncode == 0
        cfg_path = tmp_path / "campaign.cfg"
        cfg_path.write_text(
            f"landscape.kind=lookup\nlandscape.path={tmp_path / 'land.tsv'}\n"
            f"method=random\nrounds=2\nbatch=4\nseeds=0,1\nout={tmp_path / 'runs'}\n")
        result = cli("run", str(cfg_path))
        assert result.returncode == 0, result.stdout + result.stderr
        result = cli("aggregate", str(tmp_path / "runs"))
        assert result.returncode == 0
        assert (tmp_path / "runs" / "aggregate.csv").exists()

    @pytest.mark.parametrize("run_1, message", [
        ("round,query_index,sequence,fitness,cumulative_max\n0,0,AA,1.0,1.0\n1,1,AC\n",
         r"run_1\.csv:3: expected 5 comma-separated columns, got 3"),
        ("round;query_index;sequence;fitness;cumulative_max\n0,0,AA,1.0,1.0\n",
         r"run_1\.csv:1: unexpected header"),
        ("round,query_index,sequence,fitness,cumulative_max\n0,0,AA,1.0,high\n",
         r"run_1\.csv:2: could not convert string to float: 'high'"),
        ("round,query_index,sequence,fitness,cumulative_max\n0,0,AA,1.0,1.0\n,1,AC,2.0,2.0\n",
         r"run_1\.csv:3: invalid literal for int\(\) with base 10: ''"),
        ("round,query_index,sequence,fitness,cumulative_max\n0,0,AA,1.0,1.0\n",
         r"run_1\.csv: round structure differs from the first run"),
        ], ids=["columns", "header", "number", "empty-round", "rounds"])
    def test_malformed_run_csv_exits_one_with_one_line(self, tmp_path, run_1, message):
        (tmp_path / "run_0.csv").write_text(
            "round,query_index,sequence,fitness,cumulative_max\n0,0,AA,1.0,1.0\n"
            "1,1,AC,2.0,2.0\n")
        (tmp_path / "run_1.csv").write_text(run_1)
        result = cli("aggregate", str(tmp_path))
        assert result.returncode == 1
        assert re.fullmatch(rf"error: \S*{message}.*\n", result.stderr), result.stderr
        assert not (tmp_path / "aggregate.csv").exists()

    def test_run_seed_override(self, tmp_path):
        cfg_path = tmp_path / "campaign.cfg"
        cfg_path.write_text(
            "landscape.kind=nk\nlandscape.n=6\nlandscape.k=0\nlandscape.v=2\n"
            f"method=random\nrounds=1\nbatch=2\nseeds=0\nout={tmp_path / 'runs'}\n")
        result = cli("run", str(cfg_path), "--seed", "5", "--seed", "6")
        assert result.returncode == 0
        assert (tmp_path / "runs" / "run_5.csv").exists()
        assert (tmp_path / "runs" / "run_6.csv").exists()
        assert not (tmp_path / "runs" / "run_0.csv").exists()

    def test_bad_thread_count_exits_one_before_the_manifest(self, tmp_path):
        cfg_path = tmp_path / "campaign.cfg"
        cfg_path.write_text(
            "landscape.kind=nk\nlandscape.n=6\nlandscape.k=0\nlandscape.v=2\n"
            f"method=random\nrounds=1\nbatch=2\nseeds=0\nout={tmp_path / 'runs'}\n")
        result = cli("run", str(cfg_path), PROXBO_THREADS="two")
        assert result.returncode == 1
        assert result.stderr.startswith("error: PROXBO_THREADS"), result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "runs" / "manifest.txt").exists()

    @pytest.mark.parametrize("line, argv, key", [
        ("train.epochs=0", (), "train.epochs"),
        ("", ("--wild-type", "XYZ"), "landscape.wild_type"),
        # a lookup table's wild type is checked when the table is loaded
        pytest.param(f"{LOOKUP}\nlandscape.wild_type=XYZ", (), "wild-type override XYZ",
                     id="lookup-XYZ"),
        pytest.param(f"{LOOKUP}\nlandscape.wild_type=AAA", (), "wild-type override AAA",
                     id="lookup-AAA"),
        pytest.param("landscape.kind=lookup\nlandscape.path={tmp}/missing.tsv", (),
                     "[Errno 2] No such file or directory", id="lookup-missing"),
        ("seeds=-1", (), "seeds"),
        ("", ("--seed", "-1"), "seeds"),
        ("surrogate.kernel_size=-1", (), "surrogate.kernel_size"),
        ("acquisition.beta=inf", (), "acquisition.beta"),
        ("lambda.kind=iqr\nlambda.factor=inf", (), "lambda.factor"),
        ("lambda.kind=fixed\nlambda.value=inf", (), "lambda.value"),
        ("train.learning_rate=inf", (), "train.learning_rate"),
        ("train.learning_rate=nan", (), "train.learning_rate"),
        ("train.warm_epochs=-3", (), "train.warm_epochs"),
        ("landscape.seed=-1", (), "landscape.seed"),
        # the SGD fantasy head's keys fail loudly rather than being ignored
        ("acquisition.kg.update_steps=6", (), "acquisition.kg.update_steps"),
        ("acquisition.kg.update_lr=0.08", (), "acquisition.kg.update_lr"),
        # checked whichever method reads it: the value enters the manifest and config_hash
        ("method=random\nacquisition.kind=entropy", (), "acquisition.kind"),
        ("method=pex_greedy\nacquisition.kind=entropy", (), "acquisition.kind"),
    ])
    def test_bad_config_value_exits_one_before_the_manifest(self, tmp_path, line, argv, key):
        gen_nk(6, 1, 2, 9, tmp_path / "land")
        cfg_path = tmp_path / "campaign.cfg"
        cfg_path.write_text(with_lines(
            "landscape.kind=nk\nlandscape.n=6\nlandscape.k=0\nlandscape.v=2\n"
            f"rounds=1\nbatch=2\nseeds=0\nout={tmp_path / 'runs'}\n",
            line.format(tmp=tmp_path)))
        result = cli("run", str(cfg_path), *argv)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {key}: "), result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv, key", [(("--k", "5"), "landscape.k"),
                                           (("--k", "1", "--v", "1"), "landscape.v")])
    def test_bad_gen_nk_parameter_exits_one(self, tmp_path, argv, key):
        result = cli("gen-nk", "--n", "3", *argv, "--out", str(tmp_path / "land"))
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {key}: "), result.stderr
        assert not list(tmp_path.iterdir())


# the fuzz tests set one key=value line of this 2-round NK6 campaign, small enough to run
FUZZ_CONFIG = """
landscape.kind=nk
landscape.n=6
landscape.k=1
landscape.v=2
method=batch_bo
acquisition.kind=ucb
surrogate.members=2
train.epochs=2
rounds=2
batch=4
pool.size=8
seeds=0
out=runs
"""
HUGE_INT = "12345678901234567890"
EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e400", HUGE_INT, "")
# edge values the parse layer must reject: an empty output path would put the
# run files in the working directory, and FUZZ_CONFIG's conv surrogate must not
# let a bad field of the recurrent kind through
MUST_REJECT = {("out", ""), ("surrogate.hidden_size", "0"), ("surrogate.hidden_size", "-1")}


# the valid alternatives of the kind and boolean keys, fuzzed in pairs with EDGE_VALUES
PAIR_VALUES = {"method": ("random", "pex_greedy"), "acquisition.kind": ("ei", "kg"),
               "surrogate.kind": ("recurrent",), "lambda.kind": ("fixed",),
               "landscape.negate": ("true", "false"), "train.bootstrap": ("true", "false")}


def _parse_fuzzed(*lines):
    """The config FUZZ_CONFIG gives with the (key, value) `lines` set, or None when rejected.

    A rejection must be a ConfigError or DataError whose message starts with
    one of the added keys; any other exception escapes to the calling test.
    """
    try:
        cfg = parse_config_text(with_lines(FUZZ_CONFIG, "".join(f"{k}={v}\n" for k, v in lines)))
        harness._train_configs(cfg)
        harness._kg_config(cfg)
        harness._surrogate_config(cfg)
    except (ConfigError, DataError) as e:
        assert str(e).startswith(tuple(f"{k}: " for k, _ in lines)), (lines, str(e))
        return None
    return cfg


class TestConfigFuzz:
    @pytest.mark.parametrize("key", list(harness._KEYS))
    def test_every_edge_value_parses_or_is_rejected_naming_its_key(self, key):
        for value in EDGE_VALUES:
            cfg = _parse_fuzzed((key, value))
            if (key, value) in MUST_REJECT:
                assert cfg is None, (key, value)

    def test_every_pair_keeps_single_rejections_and_names_one_of_its_keys(self):
        values = {key: EDGE_VALUES + PAIR_VALUES.get(key, ()) for key in harness._KEYS}
        rejected = {(k, v) for k, vs in values.items() for v in vs if _parse_fuzzed((k, v)) is None}
        let_through = []
        for a, b in itertools.combinations(values, 2):
            for pair in itertools.product([(a, v) for v in values[a]], [(b, v) for v in values[b]]):
                if _parse_fuzzed(*pair) is not None and rejected.intersection(pair):
                    let_through.append(pair)
        assert not let_through, (len(let_through), let_through[:4])

    @pytest.mark.parametrize("key", list(harness._KEYS))
    def test_every_accepted_value_runs_or_exits_one_leaving_no_output(self, tmp_path, monkeypatch,
                                                                      capsys, key):
        monkeypatch.setenv("PROXBO_THREADS", "1")
        sized = harness._KEYS[key].type in ("int", "tuple[int, ...]")
        for i, value in enumerate(EDGE_VALUES):
            # a huge size is for the parse layer only: a campaign on it would not end
            if value == HUGE_INT and sized and key not in ("landscape.seed", "seeds"):
                continue
            if _parse_fuzzed((key, value)) is None:
                continue
            work = tmp_path / str(i)
            work.mkdir()
            (work / "campaign.cfg").write_text(with_lines(FUZZ_CONFIG, f"{key}={value}"))
            monkeypatch.chdir(work)
            code = cli_main(["run", "campaign.cfg"])
            err = capsys.readouterr().err
            assert code in (0, 1), (key, value, code, err)
            if code == 1:
                assert err.startswith("error: "), (key, value, err)
                assert [p.name for p in work.iterdir()] == ["campaign.cfg"], (key, value)
