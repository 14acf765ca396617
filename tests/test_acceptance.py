"""Acceptance suite: every release criterion, one test (and one line) each.

Run with `pytest tests/test_acceptance.py -v`. The end-to-end and ablation
tests execute 20-seed campaigns and together take on the order of ten
minutes on a single desk-class core; everything else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from proxbo.acquisition import KGConfig, ei, kg_oneshot
from proxbo.explorer import FrontierPoint, update_frontier
from proxbo.harness import CampaignConfig, config_lines, run_campaign, run_one_seed
from proxbo.landscape import make_nk
from proxbo.sequences import Sequence, hamming_distance, residue_array, small_alphabet
from proxbo.surrogate import (
    ConvRegressorConfig,
    Dataset,
    Ensemble,
    TrainConfig,
    gradient_check,
)

from linear_model import two_feature_problem

AB2 = small_alphabet(2)

# the 1024-state benchmark: N=10, K=2, binary, landscape seed 7
BENCH_N, BENCH_K, BENCH_V, BENCH_SEED = 10, 2, 2, 7
N_SEEDS = 20

CAMPAIGN_COMMON = dict(
    landscape_kind="nk", nk_n=BENCH_N, nk_k=BENCH_K, nk_v=BENCH_V,
    nk_seed=BENCH_SEED, rounds=10, batch=16,
    lambda_kind="fixed", lambda_value=0.0,
)

BO_COMMON = dict(
    CAMPAIGN_COMMON,
    method="batch_bo", surrogate_kind="conv", members=5,
    channels=(16, 16), kernel_size=9, hidden_dense=32,
    epochs=150, warm_epochs=40, minibatch=64, learning_rate=5e-3,
    pool_size=900, pool_radius=4, beta=3.0,
)

KG_CONFIG = CampaignConfig(
    **BO_COMMON, acquisition="kg",
    kg_fantasies=4, kg_inner_pool=128, kg_inner_eval=8,
)


def _final_cumulative_max(cfg: CampaignConfig, seed: int) -> tuple[float, bool]:
    records, _, wt_fitness, _ = run_one_seed(cfg, seed)
    best = max([wt_fitness] + [r.cumulative_max for r in records])
    return best, len(records) == cfg.rounds


@pytest.fixture(scope="module")
def bench_optimum():
    _, best = make_nk(BENCH_N, BENCH_K, BENCH_V, BENCH_SEED).enumerate_optimum()
    return best


@pytest.fixture(scope="module")
def kg_results():
    """Final cumulative max per seed for the KG campaign, plus wall time."""
    t0 = time.perf_counter()
    finals = [_final_cumulative_max(KG_CONFIG, seed)[0] for seed in range(N_SEEDS)]
    return finals, time.perf_counter() - t0


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


class TestGradientCorrectness:
    def test_gradient_check_both_architectures_under_30s(self):
        t0 = time.perf_counter()
        conv = gradient_check("conv")
        rec = gradient_check("recurrent")
        elapsed = time.perf_counter() - t0
        ok = conv.passed and rec.passed and elapsed < 30
        report("gradient_correctness", ok,
               f"conv {conv.max_rel_error:.2e}, recurrent {rec.max_rel_error:.2e}, "
               f"tolerance 1e-4, {elapsed:.1f}s")


class TestEICorrectness:
    def test_closed_form_matches_million_sample_oracle_under_10s(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(20):
            mean = float(rng.normal(0, 2))
            std = float(rng.uniform(0.1, 3))
            best = float(rng.normal(0, 2))
            imp = np.maximum(rng.normal(mean, std, size=1_000_000) - best, 0.0)
            # the 1e-7 floor covers triples so deep in the tail that no
            # sample improves, making the estimated standard error zero
            se = imp.std(ddof=1) / 1000.0
            dev = abs(float(ei(mean, std, best)) - imp.mean()) / (3 * se + 1e-7)
            worst = max(worst, dev)
            if dev > 1.0:
                break
        elapsed = time.perf_counter() - t0
        ok = worst <= 1.0 and elapsed < 10
        report("ei_correctness", ok,
               f"20 triples vs 1e6-sample MC, worst deviation "
               f"{worst:.2f} of the 3-SE budget, {elapsed:.1f}s")


class TestKGSanity:
    def test_zero_variance_gives_negligible_kg(self):
        model, pool, _ = two_feature_problem()
        measured = pool[:1]  # already observed with ~zero noise: zero variance
        cfg = KGConfig(n_fantasies=64)
        value = kg_oneshot(model, measured, pool, Dataset(), cfg,
                           np.random.default_rng(0))
        report("kg_zero_variance", abs(value) <= 1e-3, f"|KG| = {abs(value):.2e}")

    def test_conjugate_linear_matches_gauss_hermite_within_5pct(self):
        model, pool, phi = two_feature_problem()
        candidate = pool[1:2]
        stats = model.predict_batch(pool)
        a = np.array([m for m, _ in stats])
        _, var_c = model.predict_batch(candidate)[0]
        phi_p = np.stack([phi(s) for s in pool])
        cov_pc = phi_p @ model.cov @ phi(candidate[0])
        b = cov_pc / math.sqrt(var_c + model.noise_var)
        nodes, weights = np.polynomial.hermite.hermgauss(41)
        post_max = np.array([np.max(a + b * math.sqrt(2.0) * t) for t in nodes])
        reference = float(weights @ post_max / math.sqrt(math.pi)) - a.max()
        value = kg_oneshot(model, candidate, pool, Dataset(),
                           KGConfig(n_fantasies=20_000), np.random.default_rng(1))
        rel = abs(value - reference) / abs(reference)
        report("kg_gauss_hermite", rel <= 0.05,
               f"MC {value:.5f} vs quadrature {reference:.5f}, rel err {rel:.3f}")


class TestSurrogateFit:
    def test_additive_heldout_r2_at_least_0p9_under_60s(self):
        t0 = time.perf_counter()
        land = make_nk(8, 0, 2, 11)
        rng = np.random.default_rng(0)
        def draw(n):
            return [Sequence(tuple(rng.integers(0, 2, 8)), AB2) for _ in range(n)]
        data = Dataset()
        for s in draw(512):          # with replacement; the domain has 256 states
            if s not in data:
                data.add(s, land.fitness(s))
        held_out = draw(256)
        ens = Ensemble("conv",
                       ConvRegressorConfig(channels=(16, 16), kernel_size=9,
                                           hidden_dense=32),
                       n_members=3, seed=1)
        ens.fit(data, TrainConfig(epochs=200, minibatch=64, learning_rate=5e-3),
                np.random.default_rng(2))
        y = np.array([land.fitness(s) for s in held_out])
        mu = np.array([m for m, _ in ens.predict_batch(residue_array(held_out))])
        r2 = 1.0 - np.sum((y - mu) ** 2) / np.sum((y - y.mean()) ** 2)
        elapsed = time.perf_counter() - t0
        report("surrogate_fit", r2 >= 0.9 and elapsed < 60,
               f"held-out R^2 = {r2:.4f}, {elapsed:.1f}s")


class TestProximalProperties:
    def test_lambda_argmax_monotone_on_1000_random_sets(self):
        rng = np.random.default_rng(3)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            dists = rng.integers(0, 12, n)
            fits = rng.random(n)
            prev_d = None
            for lam in np.sort(rng.random(5) * 2):
                scores = fits - lam * dists
                best = np.lexsort((dists, -scores))[0]
                if prev_d is not None and dists[best] > prev_d:
                    violations += 1
                prev_d = dists[best]
        report("lambda_argmax_monotonicity", violations == 0,
               f"{violations} violations in 1000 random candidate sets")

    def test_frontier_matches_quadratic_domination_oracle_on_200_point_sets(self):
        rng = np.random.default_rng(4)
        mismatched = 0
        for _ in range(10):
            points = []
            for _ in range(200):
                s = Sequence(tuple(rng.integers(0, 2, 10)), AB2)
                points.append(FrontierPoint(
                    s, hamming_distance(s, Sequence((0,) * 10, AB2)),
                    float(rng.random())))
            got = {(p.distance, p.fitness) for p in update_frontier([], points)}
            brute = {(p.distance, p.fitness) for p in points
                     if not any(q.distance <= p.distance and q.fitness >= p.fitness
                                and (q.distance < p.distance or q.fitness > p.fitness)
                                for q in points)}
            mismatched += got != brute
        report("frontier_oracle", mismatched == 0,
               f"{mismatched} mismatches across 10 sets of 200 points")


class TestEndToEnd:
    def test_kg_reaches_optimum_and_beats_random_under_10min(
            self, kg_results, bench_optimum):
        kg_finals, kg_time = kg_results
        t0 = time.perf_counter()
        random_cfg = CampaignConfig(**CAMPAIGN_COMMON, method="random")
        random_finals = [_final_cumulative_max(random_cfg, seed)[0]
                         for seed in range(N_SEEDS)]
        elapsed = kg_time + (time.perf_counter() - t0)
        hits = sum(abs(f - bench_optimum) < 1e-12 for f in kg_finals)
        kg_mean = float(np.mean(kg_finals))
        rand_mean = float(np.mean(random_finals))
        ok = (hits >= 0.8 * N_SEEDS) and (kg_mean > rand_mean) and elapsed < 600
        report("end_to_end", ok,
               f"{hits}/{N_SEEDS} seeds reach optimum {bench_optimum:.6f}; "
               f"KG mean {kg_mean:.6f} vs random {rand_mean:.6f}; {elapsed:.0f}s")


class TestAblation:
    def test_kg_direction_against_ei_and_ucb(self, kg_results):
        kg_finals, _ = kg_results
        finals = {"kg": kg_finals}
        for acq in ("ei", "ucb"):
            cfg = CampaignConfig(**BO_COMMON, acquisition=acq)
            finals[acq] = [_final_cumulative_max(cfg, seed)[0]
                           for seed in range(N_SEEDS)]
        means = {k: float(np.mean(v)) for k, v in finals.items()}
        pooled_std = float(np.sqrt(np.mean(
            [np.var(v) for v in finals.values()])))
        strictly_worst = means["kg"] < means["ei"] and means["kg"] < means["ucb"]
        deficit = max(means["ei"], means["ucb"]) - means["kg"]
        hard_fail = strictly_worst and deficit > pooled_std
        detail = (f"means kg {means['kg']:.6f}, ei {means['ei']:.6f}, "
                  f"ucb {means['ucb']:.6f}; pooled std {pooled_std:.6f}")
        if strictly_worst and not hard_fail:
            detail += "; KG worst but within one pooled std (report-only)"
        report("ablation_direction", not hard_fail, detail)


class TestReproducibility:
    CONFIG = CampaignConfig(
        landscape_kind="nk", nk_n=8, nk_k=1, nk_v=2, nk_seed=3,
        method="batch_bo", acquisition="kg", surrogate_kind="conv",
        members=2, channels=(4, 4), kernel_size=3, hidden_dense=8,
        epochs=15, rounds=2, batch=4, pool_size=48,
        kg_fantasies=2, kg_inner_pool=16, kg_inner_eval=3,
        lambda_kind="iqr", seeds=(0, 1),
    )

    def test_identical_config_and_seed_give_byte_identical_csvs(self, tmp_path):
        blobs = []
        for name in ("first", "second"):
            cfg = CampaignConfig(**{**self.CONFIG.__dict__,
                                    "out": str(tmp_path / name)})
            run_campaign(cfg)
            blobs.append([(tmp_path / name / f"run_{s}.csv").read_bytes()
                          for s in cfg.seeds])
        report("reproducibility", blobs[0] == blobs[1],
               "two invocations, byte-identical run CSVs for every seed")

    def test_budget_accounting_exact(self, tmp_path):
        cfg = CampaignConfig(**{**self.CONFIG.__dict__, "out": str(tmp_path)})
        run_campaign(cfg)
        ok = True
        for seed in cfg.seeds:
            rows = [l for l in (tmp_path / f"run_{seed}.csv").read_text().splitlines()
                    if l and not l.startswith(("round,", "#"))]
            # seeded wild-type row + exactly rounds x batch budgeted queries
            ok = ok and len(rows) == 1 + cfg.rounds * cfg.batch
        report("budget_accounting", ok,
               f"each run CSV has 1 + {cfg.rounds}x{cfg.batch} measurement rows")
