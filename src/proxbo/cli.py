"""Command-line entry points: run, aggregate, gen-nk, check."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .acquisition import ei
from .errors import ProxboError
from .explorer import frontier_rows
from .harness import aggregate_dir, gen_nk, load_config, run_campaign
from .sequences import Sequence, small_alphabet
from .surrogate import gradient_check


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=tuple(args.seed))
    if args.wild_type is not None:
        cfg = replace(cfg, wild_type=args.wild_type)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    records = run_campaign(cfg)
    for seed in cfg.seeds:
        recs = records[seed]
        final = recs[-1].cumulative_max if recs else float("nan")
        print(f"seed {seed}: {len(recs)} rounds, cumulative max {final:.6g}")
    print(f"wrote {Path(cfg.out).resolve()}")
    return 0


def _cmd_aggregate(args) -> int:
    curve = aggregate_dir(args.dir)
    print(f"aggregated {curve.n_seeds} runs over {len(curve.rounds)} rounds")
    print(f"final mean cumulative max {curve.mean[-1]:.6g} "
          f"(std {curve.std[-1]:.6g}); overall max {curve.max_fitness:.6g}")
    print(f"wrote {Path(args.dir).resolve() / 'aggregate.csv'}")
    return 0


def _cmd_gen_nk(args) -> int:
    written = gen_nk(args.n, args.k, args.v, args.seed, args.out,
                     enumerate_table=True if args.enumerate else None)
    for path in written:
        print(f"wrote {path}")
    return 0


def _check_ei() -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    for _ in range(5):
        mean = float(rng.normal(0, 2))
        std = float(rng.uniform(0.1, 2))
        best = float(rng.normal(0, 2))
        n = 200_000
        samples = np.maximum(rng.normal(mean, std, size=n) - best, 0.0)
        mc, se = samples.mean(), samples.std(ddof=1) / np.sqrt(n)
        closed = float(ei(mean, std, best))
        if abs(closed - mc) > 3 * se:
            return False, f"EI closed form {closed} vs MC {mc} +- {se}"
    return True, "EI matches Monte Carlo oracle"


def _check_frontier() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    pts = [(int(rng.integers(0, 10)), float(rng.uniform())) for _ in range(100)]
    dist, fit = np.array(pts).T
    codes = (np.arange(10) < dist[:, None]).astype(np.uint8)  # d leading ones: distance d
    front = frontier_rows(codes, fit, Sequence((0,) * 10, small_alphabet(2)))
    brute = [p for p in pts
             if not any((q[0] <= p[0] and q[1] >= p[1] and (q[0] < p[0] or q[1] > p[1]))
                        for q in pts)]
    ok = {pts[i] for i in front} == set(brute)
    return ok, "frontier matches pairwise-domination brute force" if ok \
        else "frontier disagrees with brute force"


def _cmd_check(args) -> int:
    failures = 0
    for kind in ("conv", "recurrent"):
        report = gradient_check(kind)
        status = "ok" if report.passed else "FAIL"
        print(f"gradient_check[{kind}]: {status} "
              f"(max rel error {report.max_rel_error:.3g} at {report.worst_param})")
        failures += not report.passed
    for name, (ok, msg) in (("ei_oracle", _check_ei()), ("frontier_oracle", _check_frontier())):
        print(f"{name}: {'ok' if ok else 'FAIL'} ({msg})")
        failures += not ok
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxbo",
        description="Batch Bayesian optimization campaigns on sequence fitness landscapes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign from a config file")
    p_run.add_argument("config", help="flat key=value config file")
    p_run.add_argument("--seed", type=int, action="append",
                       help="override run seeds (repeatable)")
    p_run.add_argument("--wild-type", dest="wild_type", help="override the wild-type sequence")
    p_run.add_argument("--out", help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_agg = sub.add_parser("aggregate", help="aggregate run CSVs in a directory")
    p_agg.add_argument("dir", help="campaign output directory")
    p_agg.set_defaults(func=_cmd_aggregate)

    p_gen = sub.add_parser("gen-nk", help="generate a synthetic NK landscape")
    p_gen.add_argument("--n", type=int, required=True, help="number of sites")
    p_gen.add_argument("--k", type=int, required=True, help="epistasis order")
    p_gen.add_argument("--v", type=int, default=2, help="alphabet size")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.add_argument("--enumerate", action="store_true",
                       help="require the enumerated lookup TSV")
    p_gen.set_defaults(func=_cmd_gen_nk)

    p_check = sub.add_parser("check", help="run gradient/EI/frontier self-tests")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProxboError, OSError) as e:  # a missing file, a directory, a file in the way
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
