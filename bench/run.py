"""Campaign benchmark: whole proxbo campaigns, one seed per `run_campaign` call.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). Seeds run one after another in this process with BLAS pinned to
one thread and PROXBO_THREADS=1. Every run CSV is checked against values the
benchmark computes itself. The last line of standard output is one JSON
object: `correct`, `attempted` and `failed` (campaign seeds) and `metrics`,
which holds the end-to-end metrics with `--trace 0` and the per-layer metrics
of a separate traced run with `--trace 1`. See README.md.
"""

import os

# pin every thread pool before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PROXBO_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
CACHE = BENCH / "_cache"
# set-up is timed in fresh interpreters until both limits are reached
SETUP_MIN_PROBES, SETUP_MIN_SECONDS = 3, 2.0

from checks import (Expected, LookupTable, check_csv, corruptions,  # noqa: E402
                    final_cumulative_max, nk_values)
from workloads import (PROTEIN, WORKLOADS, campaign_seeds, lookup_seed,  # noqa: E402
                       nk_lookup_table)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "proxbo").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class DigestRegistry:
    """CSV digests of every (workload, inputs, code, campaign seed) run in this checkout.

    A rerun of the same key must reproduce the CSV byte for byte.
    """

    def __init__(self, path: Path):
        self.path = path
        self.digests = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> bool:
        known = self.digests.setdefault(key, digest)
        return known == digest

    def save(self) -> None:
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.digests, indent=0, sort_keys=True))
        tmp.replace(self.path)


def _prepare_inputs(workload, bench_seed: int):
    """Campaign config fields, setup-probe arguments and the expected outputs."""
    cfg = dict(workload.config)
    rounds, batch = cfg["rounds"], cfg["batch"]
    if cfg["landscape_kind"] == "lookup":
        seed = lookup_seed(bench_seed)
        path = CACHE / f"lookup-l4v20-{seed}.tsv"
        if not path.exists():
            subprocess.run([sys.executable, str(BENCH / "gen_lookup.py"), str(seed), str(path)],
                           check=True, timeout=120)
        cfg["lookup_path"] = str(path)
        _, fitness = nk_lookup_table(seed)
        table = LookupTable(PROTEIN, 4, fitness)
        expected = Expected(rounds, batch, "AAAA", table, float(fitness.max()))
        return cfg, ["lookup", str(path)], expected, _sha256(path.read_bytes())
    import proxbo

    n, k, v, s = cfg["nk_n"], cfg["nk_k"], cfg["nk_v"], cfg["nk_seed"]
    land = proxbo.make_nk(n, k, v, s)
    values = nk_values(land.neighbor_map.tolist(), land.tables.tolist(), v)
    expected = Expected(rounds, batch, PROTEIN[0] * n, LookupTable(PROTEIN[:v], n, values),
                        max(values))
    return cfg, ["nk", str(n), str(k), str(v), str(s)], expected, "nk"


def _setup_seconds(probe_args) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    while len(out) < SETUP_MIN_PROBES or sum(out) < SETUP_MIN_SECONDS:
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *probe_args],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip()))
    return out


class Campaigns:
    """Runs campaign seeds through `run_campaign` and checks every CSV."""

    def __init__(self, workload, cfg: dict, expected: Expected, input_digest: str):
        self.workload = workload
        self.cfg = cfg
        self.expected = expected
        self.out = CACHE / "runs" / workload.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.registry = DigestRegistry(CACHE / "digests.json")
        self.key_prefix = _sha256("|".join(
            [workload.name, json.dumps(cfg, sort_keys=True, default=list),
             input_digest, _code_digest()]).encode())[:24]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.checker_tested = False

    def run(self, seed: int):
        """(wall seconds, final cumulative max) of one seed, or None if it failed."""
        from proxbo.harness import CampaignConfig, run_campaign

        self.attempted += 1
        csv = self.out / f"run_{seed}.csv"
        csv.unlink(missing_ok=True)
        cfg = CampaignConfig(**self.cfg, seeds=(seed,), out=str(self.out))
        gc.collect()  # the previous seed's garbage is not charged to this one
        t0 = perf_counter()
        try:
            run_campaign(cfg)
        except Exception:
            wall = perf_counter() - t0
            self.failed += 1
            print(f"seed {seed}: raised after {wall:.3f} s", flush=True)
            traceback.print_exc()
            return None
        wall = perf_counter() - t0
        text = csv.read_text(encoding="utf-8")
        problems = check_csv(text, self.expected)
        digest = _sha256(text.encode())
        if not self.registry.check(f"{self.key_prefix}|{seed}", digest):
            problems.append(f"CSV differs from an earlier run of seed {seed}")
        if not problems and not self.checker_tested:
            self.checker_tested = True
            for label, bad in corruptions(text):
                if not check_csv(bad, self.expected):
                    problems.append(f"checks accept a CSV with one corrupted {label}")
        best = final_cumulative_max(text) if not problems else float("nan")
        print(f"seed {seed}: {wall:.3f} s, best {best!r}, sha256 {digest[:16]}"
              + "".join(f"\n  FAIL {p}" for p in problems[:5]), flush=True)
        if problems:
            self.failed += 1
            self.correct = False
            return None
        return wall, best

    def finish(self) -> None:
        self.registry.save()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(campaigns: Campaigns, seconds: float, bench_seed: int, setup: list[float]) -> dict:
    results = []
    seeds = campaign_seeds(bench_seed)
    t_start = perf_counter()
    while len(results) < campaigns.workload.min_seeds or perf_counter() - t_start < seconds:
        results.append(campaigns.run(next(seeds)))
    done = [r for r in results if r is not None]
    firsts = [r[1] for r in results[:campaigns.workload.min_seeds] if r is not None]
    if not firsts:
        raise SystemExit("error: every campaign seed failed; nothing was measured")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "seed_s": _metric(statistics.median(r[0] for r in done), "s"),
        "best_fitness": _metric(statistics.fmean(firsts), "fitness"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }


def per_layer(campaigns: Campaigns, seconds: float, bench_seed: int) -> dict:
    from micro import micro_metrics
    from tracing import Tracer, seed_metrics

    seeds = campaign_seeds(bench_seed)
    first = next(seeds)
    untraced = campaigns.run(first)
    tracer = Tracer()
    per_seed, walls = [], []
    traced = 0
    t_start = perf_counter()
    with tracer.installed():
        while traced < campaigns.workload.min_seeds or perf_counter() - t_start < seconds:
            seed = first if traced == 0 else next(seeds)
            traced += 1
            tracer.take()
            r = campaigns.run(seed)
            totals = tracer.take()
            if traced == 1:
                repeat = r
            if r is not None:
                walls.append(r[0])
                per_seed.append(seed_metrics(totals))
    if untraced is None or repeat is None:
        raise SystemExit("error: campaign seeds failed; no per-layer figures")
    if campaigns.workload.name == "kg-nk10":
        print("conv shapes:", tracer.conv_shapes.most_common(4), flush=True)
    out = {name: _metric(statistics.median(m[name][0] for m in per_seed), unit)
           for name, (_, unit) in per_seed[0].items()}
    phases = ("explorer.propose_pool_s", "acquisition.select_batch_s",
              "surrogate.fit_s", "landscape.query_batch_s")
    out["tracing.seed_s"] = _metric(statistics.median(walls), "s")
    out["tracing.overhead_s"] = _metric(repeat[0] - untraced[0], "s")
    out["tracing.phase_share"] = _metric(statistics.median(
        sum(m[p][0] for p in phases) / w for m, w in zip(per_seed, walls)), "ratio")
    for name, (value, unit) in micro_metrics().items():
        out[name] = _metric(float(value), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "proxbo" / "__init__.py").is_file():
        print(f"error: no proxbo package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    CACHE.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    cfg, probe_args, expected, input_digest = _prepare_inputs(workload, args.seed)
    setup = [] if args.trace else _setup_seconds(probe_args)
    campaigns = Campaigns(workload, cfg, expected, input_digest)
    if args.trace:
        metrics = per_layer(campaigns, args.seconds, args.seed)
    else:
        metrics = end_to_end(campaigns, args.seconds, args.seed, setup)
    campaigns.finish()
    print(json.dumps({"correct": campaigns.correct, "attempted": campaigns.attempted,
                      "failed": campaigns.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
