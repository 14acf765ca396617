"""Slow reference paths for the KG fantasy head: the oracles its fast path is tested against.

- `tiled_fantasy_inner_means_multi` is the body `Ensemble.fantasy_inner_means_multi`
  had before it trained one candidate block at a time: it tiles the features
  and the head parameters into one (candidate x fantasy x member) stack and
  allocates a fresh array for every operation of every step.
- `fantasy_update` is the per-fantasy update the ensemble once exposed: a
  few Adam steps on a copy of the stacked head, returning a model whose
  `predict_batch` reads the updated head.
- `per_candidate_slot_scores` is the KG slot scoring that predicted
  `chosen + [c]` once per candidate `c`.

The two fantasy paths step their heads with the allocating textbook Adam of
`sequential_fit.Adam`, not with the in-place `proxbo.nn.Adam`.
"""

import copy

import numpy as np

from proxbo import nn
from proxbo.errors import TrainingError

from sequential_fit import Adam


def per_candidate_slot_scores(model, pool, chosen, subset, inner, data, cfg, rng, penalty):
    """`acquisition._kg_slot_scores`, predicting each candidate's batch on its own."""
    z = rng.standard_normal((cfg.n_fantasies, len(chosen) + 1))
    batches, ys = [], []
    for c in subset:
        rows = chosen + [c]
        batch = [pool[i] for i in rows]
        means, variances = model.predict_batch(batch).T
        means = means - penalty[rows]
        stds = np.sqrt(np.maximum(variances, 0.0))
        batches.append(batch)
        ys.append(means[None, :] + stds[None, :] * z + penalty[rows][None, :])
    inner_means = model.fantasy_inner_means_multi(batches, np.stack(ys),
                                                  [pool[i] for i in inner], data,
                                                  steps=cfg.update_steps, lr=cfg.update_lr)
    return (inner_means - penalty[inner]).max(axis=2).mean(axis=1)


def tiled_fantasy_inner_means_multi(ens, batches, ys, inner_pool, data, steps=20, lr=1e-3):
    """(len(batches), n_fantasies, len(inner_pool)) fantasy means, all head copies tiled."""
    if not ens.trained:
        raise TrainingError("ensemble has not been fitted")
    ys = np.asarray(ys, dtype=np.float64)
    if not batches or ys.ndim != 3 or ys.shape[0] != len(batches):
        raise ValueError(
            f"ys must have shape ({len(batches) or 1}, n_fantasies, batch size), got {ys.shape}")
    width = len(batches[0])
    if ys.shape[2] != width or any(len(b) != width for b in batches):
        raise ValueError("all batches must share one size matching ys")
    n_c, n_f, n_m = len(batches), ys.shape[1], ens.n_members
    y_obs = (data.scores - ens.y_mean) / ens.y_std
    y_fan = (ys - ens.y_mean) / ens.y_std
    targets = np.concatenate(
        [np.broadcast_to(y_obs, (n_c, n_f, y_obs.size)), y_fan], axis=2)
    # batch-major, then fantasy-major within each batch
    y_p = np.repeat(targets.reshape(n_c * n_f, -1), n_m, axis=0)
    feats_p = np.concatenate(
        [np.tile(ens.features_batch(data.sequences + list(batch)), (n_f, 1, 1))
         for batch in batches])

    params = {}
    for name in ens.net.head_param_names:
        stacked = ens.net.params[name]
        params[name] = np.tile(stacked, (n_c * n_f,) + (1,) * (stacked.ndim - 1))
    has_hidden = "dense_w" in params

    def head(x):
        pre = None
        if has_hidden:
            pre = x @ params["dense_w"] + params["dense_b"][:, None, :]
            x = np.maximum(pre, 0.0)
        out = (x @ params["out_w"])[:, :, 0] + params["out_b"][:, None, 0]
        return out, x, pre

    n = y_p.shape[1]
    opt = Adam(params, lr=lr)
    for _ in range(steps):
        pred, hid, pre = head(feats_p)
        diff = pred - y_p
        if not np.all(np.isfinite(diff)):
            raise TrainingError("fantasy update diverged")
        dout = ((2.0 / n) * diff)[:, :, None]
        grads = {"out_w": hid.transpose(0, 2, 1) @ dout,
                 "out_b": dout.sum(axis=1)}
        if has_hidden:
            dhid = (dout @ params["out_w"].transpose(0, 2, 1)) * (pre > 0)
            grads["dense_w"] = feats_p.transpose(0, 2, 1) @ dhid
            grads["dense_b"] = dhid.sum(axis=1)
        opt.step(params, grads)

    inner_p = np.tile(ens.features_batch(inner_pool), (n_c * n_f, 1, 1))
    preds, _, _ = head(inner_p)
    preds = preds * ens.y_std + ens.y_mean
    return preds.reshape(n_c, n_f, n_m, -1).mean(axis=2)


class FantasyEnsemble:
    """Ensemble posterior after a head-only fantasy update; features stay the base's."""

    def __init__(self, base, net):
        self._base = base
        self._net = net

    def predict_batch(self, batch):
        preds = self._net.head_forward(self._base.features_batch(batch))[0]
        preds = preds * self._base.y_std + self._base.y_mean
        return np.stack([preds.mean(axis=0), preds.var(axis=0)], axis=1)


def fantasy_update(ens, batch, ys, data, steps=20, lr=1e-3):
    """Posterior after hypothetically measuring `ys` at `batch`: a few head-only steps per member."""
    if not ens.trained:
        raise TrainingError("ensemble has not been fitted")
    seqs = data.sequences + list(batch)
    y_raw = np.concatenate([data.scores, np.asarray(ys, dtype=np.float64)])
    y = (y_raw - ens.y_mean) / ens.y_std
    feats = ens.features_batch(seqs)
    net = copy.copy(ens.net)
    net.params = dict(ens.net.params)
    for name in net.head_param_names:
        net.params[name] = ens.net.params[name].copy()
    head = {name: net.params[name] for name in net.head_param_names}
    opt = Adam(head, lr=lr)
    for _ in range(steps):
        pred, cache = net.head_forward(feats)
        loss, diff = nn.mse_forward(pred, y)
        finite = np.isfinite(loss)
        if not finite.all():
            raise TrainingError(
                f"fantasy update diverged on member {int(np.argmin(finite))}")
        grads = {name: np.empty_like(arr) for name, arr in head.items()}
        net.head_backward(cache, nn.mse_backward(diff), grads)
        opt.step(head, grads)
    return FantasyEnsemble(ens, net)
