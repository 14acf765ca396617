"""Member-by-member ensemble training: the oracle for the lockstep `Ensemble.fit`.

This is the training loop `Ensemble.fit` used before its members were
stacked: each member is a separate network with its own Adam optimizer,
trained to completion before the next one starts. The dense and recurrent
layers are kept here in their single-network form, so the lockstep code is
checked against code it does not share. The conv layers are `proxbo.nn`'s
position-major kernels, run on one member's arrays alone, without a member
axis: `tests/conv_oracle.py` checks those kernels, and this loop checks the
stacking, the gathered first-layer columns and the pool. It trains in the
ensemble's dtype, `NET_DTYPE`: the weights are drawn in float64 and cast, and
the one-hot inputs and standardized targets are cast as `Ensemble.fit` casts
them.
"""

import numpy as np

from proxbo import nn
from proxbo.sequences import encode_batch
from proxbo.surrogate import NET_DTYPE


def dense_forward(x, w, b):
    return x @ w + b, (x, w)


def dense_backward(cache, dout):
    x, w = cache
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


def mse_forward(pred, target):
    diff = pred - target
    return float(np.mean(diff * diff)), diff


def mse_backward(diff):
    return 2.0 * diff / diff.size


class Adam:
    """The allocating textbook Adam: the oracle for the in-place `proxbo.nn.Adam`."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            params[k] -= self.lr * (self.m[k] / bias1) / (np.sqrt(self.v[k] / bias2) + self.eps)


class ConvMember:
    def __init__(self, cfg, vocab, rng):
        self.cfg = cfg
        self.params = {}
        cin, k = vocab, cfg.kernel_size
        for i, cout in enumerate(cfg.channels):
            self.params[f"conv{i}_w"] = nn.he_uniform((k, cin, cout), k * cin, rng)
            self.params[f"conv{i}_b"] = np.zeros(cout)
            cin = cout
        self.params["dense_w"] = nn.he_uniform((cin, cfg.hidden_dense), cin, rng)
        self.params["dense_b"] = np.zeros(cfg.hidden_dense)
        self.params["out_w"] = nn.he_uniform((cfg.hidden_dense, 1), cfg.hidden_dense, rng)
        self.params["out_b"] = np.zeros(1)
        self.params = {k: v.astype(NET_DTYPE) for k, v in self.params.items()}

    def forward(self, x):
        caches, h = [], nn.conv1d_columns(x, self.cfg.kernel_size)  # (L, B, k*V)
        for i in range(len(self.cfg.channels)):
            h, c_conv = nn.stacked_conv1d_forward(h, self.params[f"conv{i}_w"],
                                                  self.params[f"conv{i}_b"])
            caches.append((c_conv, h > 0.0))
            h = np.maximum(h, 0.0)
        pooled = h.mean(axis=0)
        hid, c_dense = dense_forward(pooled, self.params["dense_w"], self.params["dense_b"])
        mask = hid > 0.0
        out, c_out = dense_forward(np.maximum(hid, 0.0), self.params["out_w"], self.params["out_b"])
        return out[:, 0], (caches, h.shape, c_dense, mask, c_out)

    def backward(self, cache, dpred):
        caches, pool_shape, c_dense, mask, c_out = cache
        grads = {}
        d, grads["out_w"], grads["out_b"] = dense_backward(c_out, dpred[:, None])
        d, grads["dense_w"], grads["dense_b"] = dense_backward(c_dense, d * mask)
        l, b, c = pool_shape
        d = np.broadcast_to(d[None, :, :] / l, (l, b, c)).copy()
        for i in reversed(range(len(self.cfg.channels))):
            c_conv, relu_mask = caches[i]
            d, grads[f"conv{i}_w"], grads[f"conv{i}_b"] = nn.stacked_conv1d_backward(
                c_conv, d * relu_mask, need_dx=i > 0)
        return grads


class RecurrentMember:
    def __init__(self, cfg, vocab, rng):
        h = cfg.hidden_size
        self.cfg = cfg
        params = {
            "wx": nn.he_uniform((vocab, h), vocab, rng),
            "wh": nn.he_uniform((h, h), h, rng),
            "bh": np.zeros(h),
            "out_w": nn.he_uniform((h, 1), h, rng),
            "out_b": np.zeros(1),
        }
        self.params = {k: v.astype(NET_DTYPE) for k, v in params.items()}

    def forward(self, x):
        b, l, _ = x.shape
        wx, wh, bh = self.params["wx"], self.params["wh"], self.params["bh"]
        hs = [np.zeros((b, self.cfg.hidden_size), x.dtype)]
        for t in range(l):
            hs.append(np.tanh(x[:, t, :] @ wx + hs[-1] @ wh + bh))
        out, c_out = dense_forward(hs[-1], self.params["out_w"], self.params["out_b"])
        return out[:, 0], (x, hs, c_out)

    def backward(self, cache, dpred):
        x, hs, c_out = cache
        wh = self.params["wh"]
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        dh, grads["out_w"], grads["out_b"] = dense_backward(c_out, dpred[:, None])
        for t in reversed(range(x.shape[1])):
            da = dh * (1.0 - hs[t + 1] ** 2)
            grads["wx"] += x[:, t, :].T @ da
            grads["wh"] += hs[t].T @ da
            grads["bh"] += da.sum(axis=0)
            dh = da @ wh.T
        return grads


class SequentialEnsemble:
    """Same seeds, standardization and warm starts as `Ensemble`, trained member by member."""

    def __init__(self, kind, config, n_members, seed):
        self.kind, self.config = kind, config
        self.member_seeds = [int(s) for s in
                             np.random.SeedSequence(seed).generate_state(n_members)]
        self.members = []
        self.y_mean, self.y_std = 0.0, 1.0

    def fit(self, data, cfg, rng, warm_start=False):
        self.vocab = data.alphabet.size
        x_all = encode_batch(data.codes, self.vocab).astype(NET_DTYPE)
        y_raw = data.scores
        warm = warm_start and self.members
        if not warm:
            self.y_mean = float(y_raw.mean())
            std = float(y_raw.std())
            self.y_std = std if std > 1e-12 else 1.0
            member_cls = ConvMember if self.kind == "conv" else RecurrentMember
            self.members = [member_cls(self.config, self.vocab, np.random.default_rng(s))
                            for s in self.member_seeds]
        y_all = ((y_raw - self.y_mean) / self.y_std).astype(NET_DTYPE)
        losses = []
        n = len(data)
        for member in self.members:
            idx = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
            x, y = x_all[idx], y_all[idx]
            opt = Adam(member.params, lr=cfg.learning_rate)
            for _ in range(cfg.epochs):
                order = rng.permutation(len(x))
                for start in range(0, len(x), cfg.minibatch):
                    sel = order[start:start + cfg.minibatch]
                    pred, cache = member.forward(x[sel])
                    _, diff = mse_forward(pred, y[sel])
                    opt.step(member.params, member.backward(cache, mse_backward(diff)))
            pred, _ = member.forward(x)
            losses.append(mse_forward(pred, y)[0])
        return losses

    def predict(self, codes):
        """(B, 2) mean and variance of the member predictions on a (B, L) residue array, one by one.

        Each member's output layer is evaluated in float64 on its last hidden
        layer with a ones column appended, as `Ensemble.predict_batch` does.
        """
        x = encode_batch(codes, self.vocab).astype(NET_DTYPE)
        preds = []
        for member in self.members:
            hid = member.forward(x)[1][-1][0].astype(np.float64)  # the output layer's input
            w0 = np.append(member.params["out_w"][:, 0], member.params["out_b"])
            design = np.hstack([hid, np.ones((len(codes), 1))])
            preds.append((design @ w0.astype(np.float64)[:, None])[:, 0])
        preds = np.stack(preds) * self.y_std + self.y_mean
        return np.stack([preds.mean(axis=0), preds.var(axis=0)], axis=1)
