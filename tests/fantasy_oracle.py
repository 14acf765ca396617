"""Slow reference paths for the KG fantasies: the oracles their fast paths are tested against.

- `looped_fantasy_inner_means_multi` computes the closed-form fantasy means
  of `Ensemble.fantasy_inner_means_multi` one (candidate, fantasy, member)
  at a time, with explicit inverses, rebuilding each member's design matrix
  and posterior covariance from the network's parameters.
- `tiled_fantasy_inner_means_multi` computes the same closed form on a
  tiled stack: the member posteriors are copied once per candidate into one
  (candidate x member) stack, with each candidate's design rows cut out of
  one design call. Every matrix operation then runs on a 2-D slice of the
  same shape as in the fast path, so the two agree bit for bit. It checks
  the fast path's broadcasting and reshapes, not the posterior they share.
- `sequential_fantasy_inner_means` conditions each member's output layer on
  the batch one row at a time (rank-one Kalman updates), which must agree
  with conditioning on the whole batch at once.
- `log_evidence` is the log marginal likelihood that
  `surrogate.evidence_posterior` maximises, for brute-force grid searches.
- `per_candidate_slot_scores` is the KG slot scoring that predicted
  `chosen + [c]` once per candidate `c`, where `_kg_slot_scores` indexes the
  posterior of the whole pool.

Like the fast path, the fantasy oracles take row indices into the rows of
the ensemble's last `predict_batch` call and read those rows' features.
"""

import numpy as np

from proxbo.errors import TrainingError
from proxbo.surrogate import evidence_posterior


def per_candidate_slot_scores(pool):
    """`acquisition._kg_slot_scores` on the (P, L) `pool`, predicting each candidate's batch alone.

    The returned function takes `_kg_slot_scores`'s arguments and ignores
    the pool posterior `mean` and `std`. Its per-batch predictions replace
    the model's predicted rows, so it predicts `pool` again before the
    fantasies, which index it.
    """
    def slot_scores(model, mean, std, chosen, subset, inner, data, cfg, rng, penalty):
        z = rng.standard_normal((cfg.n_fantasies, len(chosen) + 1))
        batches, ys = [], []
        for c in subset:
            rows = chosen + [c]
            means, variances = model.predict_batch(pool[rows]).T
            means = means - penalty[rows]
            stds = np.sqrt(np.maximum(variances, 0.0))
            batches.append(rows)
            ys.append(means[None, :] + stds[None, :] * z + penalty[rows][None, :])
        model.predict_batch(pool)
        inner_means = model.fantasy_inner_means_multi(np.array(batches), np.stack(ys), inner,
                                                      data)
        return (inner_means - penalty[inner]).max(axis=2).mean(axis=1)

    return slot_scores


def member_design(ens, m, feats):
    """Member m's (B, h + 1) design matrix of (M, B, d) features: its output layer's input, 1s."""
    params = {name: arr[m] for name, arr in ens.net.params.items()}
    hid = feats[m]
    if ens.kind == "conv":
        hid = np.maximum(hid @ params["dense_w"] + params["dense_b"], 0.0)
    return np.hstack([hid, np.ones((len(hid), 1))])


def member_posterior(ens, m, data):
    """(w0, S, noise variance) of member m's output layer, with S from an explicit inverse."""
    phi = member_design(ens, m, ens._features(data.codes))
    t = (data.scores - ens.y_mean) / ens.y_std
    alpha, beta, _ = evidence_posterior(phi, t)
    cov = np.linalg.inv(alpha * np.eye(phi.shape[1]) + beta * phi.T @ phi)
    w0 = np.append(ens.net.params["out_w"][m, :, 0], ens.net.params["out_b"][m])
    return w0, cov, 1.0 / beta


def looped_fantasy_inner_means_multi(ens, batches, ys, inner_pool, data):
    """(len(batches), n_fantasies, len(inner_pool)) closed-form fantasy means, one copy at a time."""
    if not ens.trained:
        raise TrainingError("ensemble has not been fitted")
    ys = np.asarray(ys, dtype=np.float64)
    if batches.ndim != 2 or not len(batches) or ys.ndim != 3 or ys.shape[::2] != batches.shape:
        raise ValueError(f"ys must have shape (C, n_fantasies, w) for (C, w) batches "
                         f"{batches.shape}, got {ys.shape}")
    width = batches.shape[1]
    n_m = ens.n_members
    posts = [member_posterior(ens, m, data) for m in range(n_m)]
    feats = ens._predicted_features
    phi_p = [member_design(ens, m, np.take(feats, inner_pool, axis=1)) for m in range(n_m)]
    # the batches' rows come from one design call, as in the fast path: the
    # float32 hidden layer can round a row differently in a product of
    # another height, which no float64 step downstream would undo
    phi_all = [member_design(ens, m, np.take(feats, batches.ravel(), axis=1))
               for m in range(n_m)]
    out = np.empty((len(batches), ys.shape[1], len(inner_pool)))
    for c in range(len(batches)):
        phi_b = [phi[c * width:(c + 1) * width] for phi in phi_all]
        for f in range(ys.shape[1]):
            y = (ys[c, f] - ens.y_mean) / ens.y_std
            total = np.zeros(len(inner_pool))
            for m in range(n_m):
                w0, cov, noise = posts[m]
                gram_inv = np.linalg.inv(phi_b[m] @ cov @ phi_b[m].T + noise * np.eye(width))
                total += (phi_p[m] @ w0
                          + phi_p[m] @ cov @ phi_b[m].T @ gram_inv @ (y - phi_b[m] @ w0))
            out[c, f] = total / n_m * ens.y_std + ens.y_mean
    return out


def tiled_fantasy_inner_means_multi(ens, batches, ys, inner_pool, data):
    """(len(batches), n_fantasies, len(inner_pool)) closed-form fantasy means, posteriors tiled."""
    if not ens.trained:
        raise TrainingError("ensemble has not been fitted")
    ys = np.asarray(ys, dtype=np.float64)
    if batches.ndim != 2 or not len(batches) or ys.ndim != 3 or ys.shape[::2] != batches.shape:
        raise ValueError(f"ys must have shape (C, n_fantasies, w) for (C, w) batches "
                         f"{batches.shape}, got {ys.shape}")
    (n_c, width), n_m = batches.shape, ens.n_members
    w0, cov, noise = ens._head_posterior(data)
    # candidate-major, then member-major within each candidate; one design call
    # over every batch's rows, since a (1, d) row times a matrix is a
    # matrix-vector product whose last bits differ from the matrix-matrix one
    feats = ens._predicted_features
    phi_all = ens._design(np.take(feats, batches.ravel(), axis=1))    # (M, C*w, D)
    phi_b = np.concatenate([phi_all[:, c * width:(c + 1) * width] for c in range(n_c)])
    w0_t = np.tile(w0, (n_c, 1))
    cov_t = np.tile(cov, (n_c, 1, 1))
    noise_t = np.tile(noise, n_c)
    phi_p = np.tile(ens._design(np.take(feats, inner_pool, axis=1)), (n_c, 1, 1))
    y = np.repeat((ys - ens.y_mean) / ens.y_std, n_m, axis=0)               # (C*M, F, w)
    g = phi_b @ cov_t
    gram = g @ phi_b.transpose(0, 2, 1) + noise_t[:, None, None] * np.eye(width)
    resid = y - (phi_b @ w0_t[:, :, None]).transpose(0, 2, 1)
    gain = np.linalg.solve(gram, resid.transpose(0, 2, 1))                  # (C*M, w, F)
    w_post = w0_t[:, :, None] + g.transpose(0, 2, 1) @ gain                 # (C*M, D, F)
    means = (phi_p @ w_post).reshape(n_c, n_m, len(inner_pool), -1).mean(axis=1)
    return means.transpose(0, 2, 1) * ens.y_std + ens.y_mean


def sequential_fantasy_inner_means(ens, batch, ys, inner_pool, data):
    """(n_fantasies, len(inner_pool)) means after conditioning on the `batch` rows one by one."""
    out = np.zeros((len(ys), len(inner_pool)))
    for m in range(ens.n_members):
        w0, cov0, noise = member_posterior(ens, m, data)
        phi_b = member_design(ens, m, np.take(ens._predicted_features, batch, axis=1))
        phi_p = member_design(ens, m, np.take(ens._predicted_features, inner_pool, axis=1))
        for f, y_raw in enumerate(ys):
            w, cov = w0.copy(), cov0.copy()
            for phi, y in zip(phi_b, (np.asarray(y_raw) - ens.y_mean) / ens.y_std):
                gain = cov @ phi / (phi @ cov @ phi + noise)
                w = w + gain * (y - phi @ w)
                cov = cov - np.outer(gain, phi @ cov)
            out[f] += phi_p @ w
    return out / ens.n_members * ens.y_std + ens.y_mean


def log_evidence(phi, t, alpha, beta):
    """log p(t | α, β) of Bayesian linear regression t ~ N(Φw, β⁻¹I), w ~ N(0, α⁻¹I)."""
    n, d = phi.shape
    cov = np.eye(n) / beta + phi @ phi.T / alpha
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (n * np.log(2.0 * np.pi) + logdet + t @ np.linalg.solve(cov, t))
