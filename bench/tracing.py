"""Per-layer tracing by wrapping proxbo's public functions from outside the package.

`Tracer.installed()` replaces each traced function or method with a timing
wrapper wherever a proxbo module holds it (modules import names from each
other, so a function can be bound in several namespaces) and restores the
originals on exit. Nothing in `src/` is changed. Spans nest: each span's time
is added to its parent's child time, so a layer's self time is its span time
minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.conv_shapes: Counter = Counter()
        self._children: list[float] = []   # child time of each open span
        self._drawn: set | None = None     # mutants drawn inside the open propose_pool
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, float]:
        """Return the totals since the last call and start new ones."""
        out, self.totals = dict(self.totals), defaultdict(float)
        return out

    def _span(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += dur
                tracer.totals[name + "_s"] += dur
                tracer.totals[name + "_self_s"] += dur - child
                tracer.totals[name + "_calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_iter(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.totals["landscape.iter_domain_states"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, module, name: str, wrapper) -> None:
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "proxbo" and getattr(mod, name, None) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _patch_method(self, cls, name: str, wrapper) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    # -- counters recorded at the layer boundaries --------------------------

    def _on_query(self, args, kwargs, result):
        self.totals["landscape.queries"] += len(result)

    def _pool_open(self, args, kwargs):
        self._drawn = set()

    def _pool_close(self, args, kwargs, proposal):
        kept = sum(1 for s in proposal.sequences if s in self._drawn)
        self.totals["explorer.pool_kept"] += kept
        self.totals["explorer.short_pools"] += bool(proposal.short)
        self._drawn = None

    def _on_mutants(self, args, kwargs, result):
        if self._drawn is not None:
            self._drawn.update(result)
            self.totals["explorer.mutants_drawn"] += len(result)

    def _on_fantasy(self, args, kwargs, result):
        ensemble, batches, ys = args[0], args[1], args[2]
        self.totals["surrogate.fantasy_head_copies"] += (
            len(batches) * ys.shape[1] * ensemble.n_members)

    def _on_predict(self, args, kwargs, result):
        self.totals["surrogate.predict_items"] += len(result)

    def _on_conv_forward(self, args, kwargs, result):
        x, w = args[0], args[1]
        bsz, length, _ = x.shape
        k, cin, cout = w.shape
        self.totals["nn.conv1d_flop"] += 2.0 * bsz * length * k * cin * cout
        self.conv_shapes[(x.shape, w.shape)] += 1

    def _on_conv_backward(self, args, kwargs, result):
        col, w, _ = args[0]
        k, cin, cout = w.shape
        # dw = col^T @ dout and dcol = dout @ w^T, each 2 * rows * k*cin * cout
        self.totals["nn.conv1d_flop"] += 4.0 * col.shape[0] * k * cin * cout

    @contextmanager
    def installed(self):
        import proxbo.acquisition as acquisition
        import proxbo.explorer as explorer
        import proxbo.harness as harness
        import proxbo.landscape as landscape
        import proxbo.nn as nn
        import proxbo.sequences as sequences
        import proxbo.surrogate as surrogate

        fn = self._patch_function
        fn(harness, "write_run_csv",
           self._span("harness.write_run_csv", harness.write_run_csv))
        fn(landscape, "load_lookup",
           self._span("landscape.load_lookup", landscape.load_lookup))
        fn(explorer, "run_round", self._span("explorer.run_round", explorer.run_round))
        fn(explorer, "propose_pool",
           self._span("explorer.propose_pool", explorer.propose_pool,
                      self._pool_open, self._pool_close))
        fn(sequences, "sample_mutants",
           self._span("sequences.sample_mutants", sequences.sample_mutants,
                      after=self._on_mutants))
        fn(sequences, "encode_batch",
           self._span("sequences.encode_batch", sequences.encode_batch))
        fn(acquisition, "select_batch",
           self._span("acquisition.select_batch", acquisition.select_batch))
        fn(nn, "conv1d_forward",
           self._span("nn.conv1d_forward", nn.conv1d_forward, after=self._on_conv_forward))
        fn(nn, "conv1d_backward",
           self._span("nn.conv1d_backward", nn.conv1d_backward,
                      after=self._on_conv_backward))

        m = self._patch_method
        m(landscape.BudgetedOracle, "query_batch",
          self._span("landscape.query_batch", landscape.BudgetedOracle.query_batch,
                     after=self._on_query))
        for cls in (landscape.NKLandscape, landscape.LookupLandscape):
            m(cls, "iter_domain", self._counting_iter(cls.iter_domain))
        ens = surrogate.Ensemble
        m(ens, "fit", self._span("surrogate.fit", ens.fit))
        m(ens, "predict_batch",
          self._span("surrogate.predict", ens.predict_batch, after=self._on_predict))
        m(ens, "fantasy_inner_means_multi",
          self._span("surrogate.fantasy", ens.fantasy_inner_means_multi,
                     after=self._on_fantasy))
        m(nn.Adam, "step", self._span("nn.adam_step", nn.Adam.step))
        try:
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()


# per-layer metrics read straight from one traced seed's totals
_TOTALS = (
    "harness.write_run_csv_s", "landscape.load_lookup_s", "landscape.load_lookup_calls",
    "landscape.query_batch_s", "landscape.queries", "landscape.iter_domain_states",
    "explorer.run_round_s", "explorer.propose_pool_s", "explorer.propose_pool_calls",
    "explorer.short_pools", "sequences.sample_mutants_s", "sequences.sample_mutants_calls",
    "sequences.encode_batch_s", "acquisition.select_batch_s", "surrogate.fantasy_s",
    "surrogate.fantasy_calls", "surrogate.fantasy_head_copies", "surrogate.fit_s",
    "surrogate.fit_calls", "surrogate.predict_s", "surrogate.predict_calls",
    "surrogate.predict_items", "nn.conv1d_forward_s", "nn.conv1d_forward_calls",
    "nn.conv1d_backward_s", "nn.conv1d_backward_calls", "nn.adam_step_s",
    "nn.adam_step_calls",
)


def seed_metrics(totals: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced seed, with units."""
    out = {name: (float(totals.get(name, 0.0)), "s" if name.endswith("_s") else "count")
           for name in _TOTALS}
    out["acquisition.select_self_s"] = (totals.get("acquisition.select_batch_self_s", 0.0), "s")
    drawn = totals.get("explorer.mutants_drawn", 0.0)
    out["explorer.pool_accept_ratio"] = (
        totals.get("explorer.pool_kept", 0.0) / drawn if drawn else 0.0, "ratio")
    out["nn.conv1d_gflop"] = (totals.get("nn.conv1d_flop", 0.0) / 1e9, "GFLOP")
    return out
