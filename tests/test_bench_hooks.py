"""The benchmark tracer (bench/tracing.py) against the package it hooks.

The tracer wraps proxbo functions and methods by name from outside the
package, so renaming a hooked name breaks traced benchmark runs without
failing anything else. Here the tracer is installed over a two-round KG
campaign with λ > 0: the cold-start round fits, the second round selects
through the λ-shifted model, fantasises and refits.
"""

import sys
from dataclasses import replace
from pathlib import Path

from proxbo.harness import run_campaign
from proxbo.surrogate import Ensemble

import test_acceptance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402


def test_tracer_hooks_and_counts_a_kg_campaign(tmp_path, monkeypatch):
    passed = []
    predict_batch = Ensemble.predict_batch

    def counting_predict_batch(self, batch):
        passed.append(len(batch))
        return predict_batch(self, batch)

    monkeypatch.setattr(Ensemble, "predict_batch", counting_predict_batch)
    cfg = replace(test_acceptance.TestReproducibility.CONFIG, lambda_kind="fixed",
                  lambda_value=0.05, seeds=(0,), out=str(tmp_path))
    tracer = Tracer()
    with tracer.installed():  # a hooked name that no longer exists fails here
        patched = list(tracer._patches)
        for owner, name, original in patched:
            assert getattr(owner, name).__wrapped__ is original, name
        run_campaign(cfg)
    assert {"predict_batch", "fantasy_inner_means_multi", "fit", "step"} <= {
        name for _, name, _ in patched}
    for owner, name, original in patched:
        assert getattr(owner, name) is original, name

    totals = tracer.take()
    assert totals["surrogate.predict_items"] == sum(passed) > 0
    assert totals["surrogate.predict_calls"] == len(passed)
    # KG slots index the pool posterior of their round: one prediction per selection
    assert totals["surrogate.predict_calls"] == totals["acquisition.select_batch_calls"]
    for name in ("surrogate.fit_calls", "surrogate.fantasy_calls",
                 "surrogate.fantasy_head_copies", "nn.adam_step_calls"):
        assert totals[name] > 0, name
