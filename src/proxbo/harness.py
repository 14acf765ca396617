"""Campaign configuration, multi-seed execution, aggregation, CSV output.

Config files are flat `key=value` text with dotted sections; run output is
one CSV per seed plus a manifest sufficient to reproduce byte-identical
results. Floats are printed at 17 significant digits so CSVs round-trip
losslessly.

Each config key is declared once, on its `CampaignConfig` field through
`_key`, and parsed by that field's annotation. `_KEYS` maps every key to its
field; the parser and the manifest echo read it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .acquisition import KGConfig
from .errors import ConfigError, DataError, DomainExhausted, ParseError, decode_utf8
from .explorer import ExplorerState, RoundRecord, random_search_round, run_round
from .landscape import MAX_ENUMERATED_STATES, BudgetedOracle, NKLandscape, check_nk, load_lookup
from .sequences import Alphabet, Sequence, small_alphabet
from .surrogate import (REGRESSORS, ConvRegressorConfig, Dataset, Ensemble,
                        RecurrentRegressorConfig, TrainConfig)

ARTIFACT_VERSION = "0.5.0"

_FLOAT = "{:.17g}".format
_RUN_HEADER = "round,query_index,sequence,fitness,cumulative_max"


def _key(key: str, default):
    """A CampaignConfig field that config text sets, and the manifest echoes, as `key`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class CampaignConfig:
    # landscape
    landscape_kind: str = _key("landscape.kind", "nk")    # nk | lookup
    lookup_path: str = _key("landscape.path", "")
    negate: bool = _key("landscape.negate", False)
    # text override; default: lookup first row / NK all-first-symbol
    wild_type: str = _key("landscape.wild_type", "")
    nk_n: int = _key("landscape.n", 10)
    nk_k: int = _key("landscape.k", 2)
    nk_v: int = _key("landscape.v", 2)
    nk_seed: int = _key("landscape.seed", 0)
    # surrogate
    surrogate_kind: str = _key("surrogate.kind", "conv")  # conv | recurrent
    members: int = _key("surrogate.members", 5)
    channels: tuple[int, ...] = _key("surrogate.channels", (16, 16))
    kernel_size: int = _key("surrogate.kernel_size", 9)
    hidden_dense: int = _key("surrogate.hidden_dense", 32)
    hidden_size: int = _key("surrogate.hidden_size", 64)
    epochs: int = _key("train.epochs", 150)
    warm_epochs: int = _key("train.warm_epochs", 40)     # >0: warm-start refits after round 1
    minibatch: int = _key("train.minibatch", 64)
    learning_rate: float = _key("train.learning_rate", 5e-3)
    bootstrap: bool = _key("train.bootstrap", True)
    # method / acquisition
    method: str = _key("method", "batch_bo")              # batch_bo | random | pex_greedy
    acquisition: str = _key("acquisition.kind", "kg")     # ucb | ei | kg
    beta: float = _key("acquisition.beta", 3.0)
    kg_fantasies: int = _key("acquisition.kg.n_fantasies", 4)
    kg_inner_pool: int = _key("acquisition.kg.inner_pool_size", 128)
    kg_update_steps: int = 6              # no key; ignored: set the SGD fantasy head of 0.2.0
    kg_update_lr: float = 8e-2            # no key; ignored, as kg_update_steps
    kg_inner_eval: int = _key("acquisition.kg.inner_eval_size", 8)
    # campaign
    rounds: int = _key("rounds", 10)
    batch: int = _key("batch", 16)
    pool_size: int = _key("pool.size", 900)
    pool_radius: int = _key("pool.radius", 4)
    lambda_kind: str = _key("lambda.kind", "iqr")         # fixed | iqr
    lambda_value: float = _key("lambda.value", 0.0)
    lambda_factor: float = _key("lambda.factor", 0.1)
    seeds: tuple[int, ...] = _key("seeds", (0,))
    out: str = _key("out", "runs")

    def __post_init__(self):
        for key, value in (("rounds", self.rounds), ("batch", self.batch),
                           ("surrogate.members", self.members),
                           ("pool.size", self.pool_size), ("pool.radius", self.pool_radius)):
            if value < 1:
                raise ConfigError(f"{key}: must be >= 1, got {value}")
        for key, value in (("acquisition.beta", self.beta), ("lambda.value", self.lambda_value),
                           ("lambda.factor", self.lambda_factor)):
            if not (value >= 0 and np.isfinite(value)):
                raise ConfigError(f"{key}: must be finite and >= 0, got {value}")
        if self.warm_epochs < 0:
            raise ConfigError(f"train.warm_epochs: must be >= 0, got {self.warm_epochs}")
        if not self.seeds:
            raise ConfigError("seeds: must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds: must be >= 0, got {min(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds: must be distinct")
        if not self.out:  # Path("") is the working directory
            raise ConfigError("out: must be a non-empty path")
        if self.landscape_kind not in ("nk", "lookup"):
            raise ConfigError(f"landscape.kind: unknown value {self.landscape_kind!r}")
        if self.landscape_kind == "lookup" and not self.lookup_path:
            raise ConfigError("landscape.path: required for lookup landscapes")
        if self.method not in ("batch_bo", "random", "pex_greedy"):
            raise ConfigError(f"method: unknown value {self.method!r}")
        if self.acquisition not in ("ucb", "ei", "kg"):
            raise ConfigError(f"acquisition.kind: unknown value {self.acquisition!r}")
        if self.surrogate_kind not in REGRESSORS:
            raise ConfigError(f"surrogate.kind: unknown value {self.surrogate_kind!r}")
        if self.lambda_kind not in ("fixed", "iqr"):
            raise ConfigError(f"lambda.kind: unknown value {self.lambda_kind!r}")
        _train_configs(self)
        _kg_config(self)
        _surrogate_config(self)
        if self.landscape_kind == "nk":  # checked without drawing the NK tables
            _nk_wild_type(self, _nk_alphabet(self.nk_n, self.nk_k, self.nk_v, self.nk_seed))


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes", "on"):
        return True
    if v.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


# a keyed field's parser, by its annotation (a string under `from __future__ import annotations`)
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "tuple[int, ...]": lambda v: tuple(int(p) for p in v.split(",") if p.strip())}
# config key -> CampaignConfig field
_KEYS = {f.metadata["key"]: f for f in fields(CampaignConfig) if "key" in f.metadata}
for _f in _KEYS.values():
    if _f.type not in _PARSERS:
        raise TypeError(f"CampaignConfig.{_f.name}: no config parser for {_f.type!r}")


def parse_config_text(text: str) -> CampaignConfig:
    """Parse flat `key=value` config text into a CampaignConfig; a key may be set once."""
    kwargs, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("acquisition.kg.update_steps", "acquisition.kg.update_lr"):
            raise ConfigError(f"{key}: removed; KG fantasies are closed-form since 0.3.0 "
                              "and take no update steps or learning rate")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if lines.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        f = _KEYS[key]
        try:
            kwargs[f.name] = _PARSERS[f.type](value)
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from None
    return CampaignConfig(**kwargs)


def load_config(path: str | Path) -> CampaignConfig:
    return parse_config_text(decode_utf8(Path(path).read_bytes(), path))


def config_lines(cfg: CampaignConfig) -> list[str]:
    """Canonical key=value echo, inverse of parse_config_text."""
    lines = []
    for key in sorted(_KEYS):
        v = getattr(cfg, _KEYS[key].name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = _FLOAT(v)
        lines.append(f"{key}={v}")
    return lines


def _table_lines(cfg: CampaignConfig, landscape=None) -> list[str]:
    """The manifest line naming a lookup table by the SHA-256 of its bytes; none for NK.

    The digest is the one `landscape` was loaded with; without it, the file is read.
    """
    if cfg.landscape_kind != "lookup":
        return []
    digest = (landscape.sha256 if landscape is not None
              else hashlib.sha256(Path(cfg.lookup_path).read_bytes()).hexdigest())
    return [f"landscape.sha256={digest}"]


def config_hash(cfg: CampaignConfig, table_lines: list[str] | None = None) -> str:
    """Hash of everything that defines the experiment, excluding seeds/output.

    A lookup table enters by its bytes (`_table_lines`, read unless given), not by its path.
    """
    table_lines = _table_lines(cfg) if table_lines is None else table_lines
    skip = ("seeds=", "out=") + ("landscape.path=",) * bool(table_lines)
    lines = [l for l in config_lines(cfg) if not l.startswith(skip)] + table_lines
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------


def _checked(prefix: str, build):
    """`build()`, with a ValueError raised again as a ConfigError prefixed by `prefix`.

    The config classes start their messages with the failing field, which is
    also the last part of its key, so `prefix` is the key's section.
    """
    try:
        return build()
    except ValueError as e:
        raise ConfigError(f"{prefix}{e}") from None


def _nk_alphabet(n: int, k: int, v: int, seed: int) -> Alphabet:
    """NK(n, k, v, seed)'s alphabet, its parameters checked (a ConfigError names the key)."""
    alphabet = _checked("landscape.v: ", lambda: small_alphabet(v))
    _checked("landscape.", lambda: check_nk(n, k, v, seed))
    return alphabet


def _build_landscape(cfg: CampaignConfig):
    if cfg.landscape_kind == "lookup":
        return load_lookup(cfg.lookup_path, wild_type=cfg.wild_type or None,
                           negate=cfg.negate)
    alphabet = _nk_alphabet(cfg.nk_n, cfg.nk_k, cfg.nk_v, cfg.nk_seed)
    return NKLandscape(cfg.nk_n, cfg.nk_k, alphabet, cfg.nk_seed, _nk_wild_type(cfg, alphabet))


def _nk_wild_type(cfg: CampaignConfig, alphabet: Alphabet) -> Sequence:
    """`landscape.wild_type` over the NK landscape's alphabet, or its all-first-symbol state."""
    if not cfg.wild_type:
        return Sequence((0,) * cfg.nk_n, alphabet)
    wt = _checked("landscape.wild_type: ", lambda: alphabet.encode(cfg.wild_type))
    if len(wt) != cfg.nk_n:
        raise ConfigError(f"landscape.wild_type: length {len(wt)} differs from the "
                          f"landscape's {cfg.nk_n}")
    return wt


def _train_configs(cfg: CampaignConfig) -> tuple[TrainConfig, TrainConfig | None]:
    """The training config and, when `train.warm_epochs` > 0, the warm-start one."""
    train = _checked("train.", lambda: TrainConfig(
        epochs=cfg.epochs, minibatch=cfg.minibatch, learning_rate=cfg.learning_rate,
        bootstrap=cfg.bootstrap))
    return train, replace(train, epochs=cfg.warm_epochs) if cfg.warm_epochs > 0 else None


def _kg_config(cfg: CampaignConfig) -> KGConfig:
    return _checked("acquisition.kg.", lambda: KGConfig(
        n_fantasies=cfg.kg_fantasies, inner_pool_size=cfg.kg_inner_pool,
        inner_eval_size=cfg.kg_inner_eval))


def _surrogate_config(cfg: CampaignConfig):
    """The chosen kind's regressor config. Both kinds' fields are checked: all enter `config_hash`."""
    conv = _checked("surrogate.", lambda: ConvRegressorConfig(
        channels=cfg.channels, kernel_size=cfg.kernel_size, hidden_dense=cfg.hidden_dense))
    recurrent = _checked("surrogate.", lambda: RecurrentRegressorConfig(hidden_size=cfg.hidden_size))
    return conv if cfg.surrogate_kind == "conv" else recurrent


def _lambda_for(cfg: CampaignConfig, data: Dataset) -> float:
    if cfg.lambda_kind == "fixed":
        return cfg.lambda_value
    q75, q25 = np.percentile(data.scores, [75, 25])
    return cfg.lambda_factor * float(q75 - q25)


def run_one_seed(cfg: CampaignConfig, seed: int,
                 landscape=None) -> tuple[list[RoundRecord], Sequence, float, bool]:
    """Execute one campaign; returns (records, wild type, its fitness, exhausted flag).

    `landscape` is the one `cfg` describes, built here when not given; a
    campaign only reads it, so seeds may share one. The campaign starts from
    its wild type.
    """
    if landscape is None:
        landscape = _build_landscape(cfg)
    wt = landscape.wild_type
    wt_fitness = landscape.evaluate_batch(np.array([wt.residues]))[0]  # outside the budget
    oracle = BudgetedOracle(landscape, rounds_total=cfg.rounds, batch_size=cfg.batch)
    state = ExplorerState(wild_type=wt)
    state.data.add(wt, wt_fitness)

    rng = np.random.default_rng([seed, 0xB0])
    train_cfg, warm_cfg = _train_configs(cfg)
    kg_cfg = _kg_config(cfg)
    strategy = "greedy" if cfg.method == "pex_greedy" else cfg.acquisition
    ensemble = None
    if cfg.method != "random":
        ensemble = Ensemble(cfg.surrogate_kind, _surrogate_config(cfg),
                            n_members=cfg.members, seed=seed)

    records: list[RoundRecord] = []
    lam: float | None = None if cfg.method == "batch_bo" else 0.0  # greedy: unregularized
    exhausted = False
    for _ in range(cfg.rounds):
        try:
            if cfg.method == "random":
                state, rec = random_search_round(state, oracle, cfg.batch, rng)
            else:
                if lam is None and len(state.data) > 1:
                    lam = _lambda_for(cfg, state.data)  # set once after the cold-start round
                state, rec = run_round(state, ensemble, oracle,
                                       strategy=strategy, lam=lam or 0.0,
                                       beta=cfg.beta, kg_config=kg_cfg,
                                       pool_size=cfg.pool_size, radius=cfg.pool_radius,
                                       train_cfg=train_cfg, warm_cfg=warm_cfg, rng=rng)
        except DomainExhausted:
            exhausted = True  # domain exhausted before the budget; flagged in the CSV
            break
        records.append(rec)
    return records, wt, wt_fitness, exhausted


def write_run_csv(path: Path, records: list[RoundRecord],
                  wt: Sequence, wt_fitness: float, exhausted: bool) -> None:
    lines = [_RUN_HEADER]
    cum = wt_fitness
    lines.append(f"0,0,{wt.text},{_FLOAT(wt_fitness)},{_FLOAT(cum)}")
    qi = 1
    for rec in records:
        for text, y in zip(map(wt.alphabet.text, rec.codes.tolist()), rec.scores):
            cum = max(cum, y)
            lines.append(f"{rec.round_index},{qi},{text},{_FLOAT(y)},{_FLOAT(cum)}")
            qi += 1
    if exhausted:
        lines.append("# early_stop=domain_exhausted")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_seed(cfg: CampaignConfig, seed: int, landscape, out: Path) -> None:
    """Run `seed` and write its `run_<seed>.csv` whole or not at all: a temp file, then a rename."""
    tmp = out / f".run_{seed}.csv.tmp"
    try:
        write_run_csv(tmp, *run_one_seed(cfg, seed, landscape))
        os.replace(tmp, out / f"run_{seed}.csv")
    finally:
        tmp.unlink(missing_ok=True)


def run_campaign(cfg: CampaignConfig) -> dict[int, Path]:
    """Run every configured seed, writing one run CSV per seed plus a manifest.

    Returns each seed's run CSV path, in seed order. The landscape is built
    first, once, so a bad table or wild type fails before the output
    directory exists; every seed, serial or in a worker process, runs on it.
    The manifest comes next, naming a lookup table by the digest of the bytes
    the landscape was parsed from, so the table is read once. The process
    that runs a seed writes its CSV as soon as the seed finishes. A seed that
    raises does not stop the others; once every seed has run, the first error
    in seed order is raised again, and the tracebacks of any later ones go to
    stderr. When no seed finished, the manifest is deleted first, and so is
    the output directory if this call made it: a campaign with no results
    leaves no output.
    """
    raw_threads = os.environ.get("PROXBO_THREADS", "1")
    try:
        threads = int(raw_threads)
    except ValueError:
        raise ConfigError(f"PROXBO_THREADS: expected an integer, got {raw_threads!r}") from None
    if threads < 1:
        raise ConfigError(f"PROXBO_THREADS: expected at least 1, got {threads}")
    landscape = _build_landscape(cfg)
    out = Path(cfg.out)
    made_out = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    table = _table_lines(cfg, landscape)
    manifest = [f"artifact_version={ARTIFACT_VERSION}",
                f"config_hash={config_hash(cfg, table)}", *table] + config_lines(cfg)
    manifest_path = out / "manifest.txt"
    manifest_path.write_text("\n".join(manifest) + "\n", encoding="utf-8")

    errors: dict[int, BaseException] = {}
    if threads > 1 and len(cfg.seeds) > 1:
        # imported here, as it imports multiprocessing; a fork start forks every
        # worker at the first submit: one per seed at most
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(cfg.seeds))) as pool:
            futures = {seed: pool.submit(_run_seed, cfg, seed, landscape, out)
                       for seed in cfg.seeds}
        errors = {seed: exc for seed, future in futures.items()
                  if (exc := future.exception()) is not None}
        for seed in errors:  # a worker killed between write and rename ran no `finally`
            (out / f".run_{seed}.csv.tmp").unlink(missing_ok=True)
    else:
        for seed in cfg.seeds:
            try:
                _run_seed(cfg, seed, landscape, out)
            except Exception as exc:
                errors[seed] = exc
    if errors:
        if len(errors) == len(cfg.seeds):
            manifest_path.unlink()
            if made_out and not any(out.iterdir()):
                out.rmdir()
        first, *others = errors  # in seed order, as both paths fill it
        for seed in others:
            print(f"seed {seed} failed as well:", file=sys.stderr)
            traceback.print_exception(errors[seed])
        raise errors[first]
    return {seed: out / f"run_{seed}.csv" for seed in cfg.seeds}


# ---------------------------------------------------------------------------


@dataclass
class AggregateCurve:
    rounds: list[int]
    mean: list[float]
    std: list[float]          # population std across seeds
    n_seeds: int
    max_fitness: float        # best measured score across all seeds

    def __post_init__(self):
        if any(s < 0 for s in self.std):
            raise ValueError("std must be non-negative")


def read_run_csv(path: str | Path) -> dict[int, float]:
    """Per-round final cumulative max (round 0 = the wild type); a bad line is a ParseError."""
    per_round: dict[int, float] = {}
    header, *lines = map(str.strip, decode_utf8(Path(path).read_bytes(), path).split("\n"))
    if header != _RUN_HEADER:
        raise ParseError(f"{path}:1: unexpected header {header!r}")
    for lineno, line in enumerate(lines, start=2):
        if line and not line.startswith("#"):
            cols = line.split(",")
            try:
                if len(cols) != 5:
                    raise ValueError(f"expected 5 comma-separated columns, got {len(cols)}")
                per_round[int(cols[0])] = float(cols[4])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
    return per_round


def aggregate_runs(csv_paths: list[str | Path]) -> AggregateCurve:
    """Per-round mean/std of cumulative max across runs (population std)."""
    if not csv_paths:
        raise ValueError("no run CSVs to aggregate")
    curves = [read_run_csv(p) for p in csv_paths]
    rounds = sorted(curves[0])
    for p, c in zip(csv_paths, curves):
        if sorted(c) != rounds:
            raise DataError(f"{p}: round structure differs from the first run")
    mat = np.array([[c[r] for r in rounds] for c in curves])
    return AggregateCurve(rounds=rounds,
                          mean=mat.mean(axis=0).tolist(),
                          std=mat.std(axis=0).tolist(),
                          n_seeds=len(curves),
                          max_fitness=float(mat.max()))


def write_aggregate(out_dir: str | Path, curve: AggregateCurve) -> Path:
    """Write aggregate.csv and a gnuplot script rendering the mean +- std band."""
    out_dir = Path(out_dir)
    lines = ["round,mean_cumulative_max,std_cumulative_max,n_seeds"]
    for r, m, s in zip(curve.rounds, curve.mean, curve.std):
        lines.append(f"{r},{_FLOAT(m)},{_FLOAT(s)},{curve.n_seeds}")
    lines.append(f"# max_fitness={_FLOAT(curve.max_fitness)}")
    agg = out_dir / "aggregate.csv"
    agg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    plot = [
        "set datafile separator ','",
        "set xlabel 'round'",
        "set ylabel 'cumulative max fitness'",
        "set style fill transparent solid 0.3 noborder",
        "plot 'aggregate.csv' using 1:($2-$3):($2+$3) skip 1 with filledcurves title 'mean +- std', \\",
        "     'aggregate.csv' using 1:2 skip 1 with linespoints title 'mean'",
    ]
    (out_dir / "plot.gp").write_text("\n".join(plot) + "\n", encoding="utf-8")
    return agg


def aggregate_dir(run_dir: str | Path) -> AggregateCurve:
    """Aggregate all run_*.csv in a campaign output directory."""
    run_dir = Path(run_dir)
    paths = sorted(run_dir.glob("run_*.csv"))
    if not paths:
        raise DataError(f"no run_*.csv files in {run_dir}")
    curve = aggregate_runs(paths)
    write_aggregate(run_dir, curve)
    return curve


# ---------------------------------------------------------------------------


def gen_nk(n: int, k: int, alphabet_size: int, seed: int, out_prefix: str | Path,
           enumerate_table: bool | None = None) -> list[Path]:
    """Write an NK landscape spec file and (if enumerable) its lookup TSV.

    Enumeration is refused above `MAX_ENUMERATED_STATES` states. The TSV
    records the exact optimum in a header comment; its first data row
    (all-first-symbol) is the wild type by the lookup file convention.
    """
    landscape = NKLandscape(n, k, _nk_alphabet(n, k, alphabet_size, seed), seed)
    states = landscape.num_states()
    if enumerate_table is None:
        enumerate_table = states <= MAX_ENUMERATED_STATES
    elif enumerate_table and states > MAX_ENUMERATED_STATES:
        raise ConfigError(f"{states:,} states exceed the enumeration limit of "
                          f"{MAX_ENUMERATED_STATES:,}")
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    spec_path = out_prefix.with_suffix(".nk.txt")
    spec_path.write_text(
        f"landscape.kind=nk\nlandscape.n={n}\nlandscape.k={k}\n"
        f"landscape.v={alphabet_size}\nlandscape.seed={seed}\n",
        encoding="utf-8")
    written = [spec_path]
    if enumerate_table:
        codes = landscape.states()
        fits = landscape.fitness_rows(codes)
        # each state's text: its symbols, one per column, read as one string
        texts = np.array(list(landscape.alphabet.symbols))[codes].view(f"U{n}").ravel()
        rows = map("{}\t{}".format, texts.tolist(), map(_FLOAT, fits.tolist()))
        tsv_path = out_prefix.with_suffix(".tsv")
        header = (f"# NK landscape N={n} K={k} V={alphabet_size} seed={seed}\n"
                  f"# alphabet {landscape.alphabet.symbols}\n"
                  f"# optimum {texts[fits.argmax()]} {_FLOAT(fits.max())}\n")
        tsv_path.write_text(header + "\n".join(rows) + "\n", encoding="utf-8")
        written.append(tsv_path)
    return written
