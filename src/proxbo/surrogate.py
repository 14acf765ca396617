"""Deep-ensemble regressors over one-hot sequences with hand-rolled gradients.

The ensemble's member disagreement (random init + bootstrap resampling)
provides the predictive variance used by the acquisition functions.

The networks train and run in float32 (`NET_DTYPE`): parameters, gradients,
optimizer state, one-hot inputs, standardized targets and activations.
Outside training, everything after the last hidden layer is float64: the
output layer, de-standardization, the member mean and variance, and the
output-layer posterior behind the KG fantasies.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DataError, TrainingError, check_positive
from .sequences import Sequence, encode_batch

NET_DTYPE = np.float32  # the dtype of every network an Ensemble trains and runs


@dataclass(frozen=True)
class ConvRegressorConfig:
    channels: tuple[int, ...] = (32, 32)
    kernel_size: int = 5
    hidden_dense: int = 64

    def __post_init__(self):
        check_positive(self, "kernel_size")
        if self.kernel_size % 2 != 1:
            raise ValueError(f"kernel_size: must be odd, got {self.kernel_size}")
        if not self.channels or min(self.channels) < 1:
            raise ValueError(f"channels: needs widths >= 1 for one layer or more, "
                             f"got {self.channels}")
        check_positive(self, "hidden_dense")


@dataclass(frozen=True)
class RecurrentRegressorConfig:
    hidden_size: int = 64

    def __post_init__(self):
        check_positive(self, "hidden_size")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    minibatch: int = 64
    learning_rate: float = 1e-3
    bootstrap: bool = True

    def __post_init__(self):
        check_positive(self, "epochs", "minibatch", "learning_rate")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate: must be finite, got {self.learning_rate!r}")


class Dataset:
    """Append-only collection of (sequence, measured fitness) pairs, in insertion order."""

    def __init__(self):
        self._scores: dict[Sequence, float] = {}

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, s: Sequence) -> bool:
        return s in self._scores

    @property
    def sequences(self) -> list[Sequence]:
        return list(self._scores)

    @property
    def scores(self) -> np.ndarray:
        return np.fromiter(self._scores.values(), dtype=np.float64, count=len(self._scores))

    def add(self, s: Sequence, y: float) -> None:
        if s in self._scores:
            if self._scores[s] != y:
                raise DataError(f"conflicting scores for {s.text}: {self._scores[s]} vs {y}")
            return
        self._scores[s] = float(y)

    def extend(self, pairs) -> None:
        for s, y in pairs:
            self.add(s, y)

    def max_score(self) -> float:
        if not self._scores:
            raise ValueError("dataset is empty")
        return max(self._scores.values())


NOISE_VAR_FLOOR = 1e-4  # the least noise variance the evidence may fit, in standardized units
_PRECISION_RANGE = (1e-8, 1e8)  # keeps α, β finite on constant targets or an exact fit


def evidence_posterior(phi: np.ndarray, t: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(α, β, S) of Bayesian linear regression t ~ N(Φw, β⁻¹I), w ~ N(0, α⁻¹I).

    α and β maximise the evidence p(t | α, β) by MacKay's fixed point
    α = γ / mᵀm, β = (n − γ) / |t − Φm|² (γ: effective number of parameters,
    m: posterior mean), iterated from α = β = 1 until both move by less than
    a relative 1e-10. β is capped at 1 / NOISE_VAR_FLOOR, and both stay in
    `_PRECISION_RANGE`. S = (αI + βΦᵀΦ)⁻¹ is the posterior covariance.
    """
    lo, hi = _PRECISION_RANGE
    eig, vec = np.linalg.eigh(phi.T @ phi)
    eig = np.maximum(eig, 0.0)
    proj = vec.T @ (phi.T @ t)  # Φᵀt in the eigenbasis
    phi_vec = phi @ vec
    alpha, beta = 1.0, 1.0
    for _ in range(200):
        mean = beta * proj / (alpha + beta * eig)  # m in the eigenbasis
        gamma = np.sum(beta * eig / (alpha + beta * eig))
        resid = t - phi_vec @ mean
        with np.errstate(divide="ignore"):  # an exact fit or no signal: clipped below
            new_alpha = float(np.clip(gamma / (mean @ mean), lo, hi))
            new_beta = float(np.clip((t.size - gamma) / (resid @ resid), lo,
                                     1.0 / NOISE_VAR_FLOOR))
        done = (abs(new_alpha - alpha) <= 1e-10 * alpha
                and abs(new_beta - beta) <= 1e-10 * beta)
        alpha, beta = new_alpha, new_beta
        if done:
            break
    return alpha, beta, (vec / (alpha + beta * eig)) @ vec.T


class _StackedNet:
    """What both stacked regressors share: the stacked parameters, forward = head after features.

    `rngs` holds one generator per member; each draws its member's weights
    layer by layer in float64, and the members' parameters are stacked on a
    leading axis and cast to `dtype`. `params` is an `nn.Arena`: every stacked
    parameter is a view into one flat buffer, so one Adam step updates them
    all with a single pass.
    """

    def __init__(self, cfg, length: int, vocab: int, rngs: list[np.random.Generator],
                 dtype=NET_DTYPE):
        self.cfg = cfg
        self.length = length
        self.vocab = vocab
        members = [self._init_member(rng) for rng in rngs]
        self.params = nn.Arena({name: (len(members),) + arr.shape
                                for name, arr in members[0].items()}, dtype)
        for name in self.params:
            self.params[name] = np.stack([p[name] for p in members])

    def inputs(self, x: np.ndarray) -> np.ndarray:
        """The network's input for one-hot x (..., B, L, V): x itself."""
        return x

    def take(self, inputs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Each member's input for the sequences at `rows` (M, b) of `inputs`."""
        return inputs[rows]

    def features(self, x: np.ndarray) -> np.ndarray:
        """(M, B, d) features of the input x (see `inputs`), per member or shared by all."""
        return self._features(x)[0]

    def forward(self, x: np.ndarray):
        feats, c_feats = self._features(x)
        pred, c_head = self.head_forward(feats)
        return pred, (c_feats, c_head)

    def member(self, m: int):
        """Member m alone, as a one-member stack sharing this stack's arrays."""
        one = copy.copy(self)
        one.params = {name: arr[m:m + 1] for name, arr in self.params.items()}
        return one


class ConvRegressor(_StackedNet):
    """M conv networks stacked: 1D convs -> mean pool over positions -> dense -> scalar.

    Every parameter carries a leading member axis, and the forward and
    backward passes run all members at once. The conv stack runs
    position-major (see `nn`): its input is the first layer's im2col
    columns (L, B, k*V) of the one-hot sequences, or (M, L, B, k*V) per member.
    """

    kind = "conv"

    def _init_member(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        cfg = self.cfg
        k = cfg.kernel_size
        params = {}
        cin = self.vocab
        for i, cout in enumerate(cfg.channels):
            params[f"conv{i}_w"] = nn.he_uniform((k, cin, cout), k * cin, rng)
            params[f"conv{i}_b"] = np.zeros(cout)
            cin = cout
        params["dense_w"] = nn.he_uniform((cin, cfg.hidden_dense), cin, rng)
        params["dense_b"] = np.zeros(cfg.hidden_dense)
        params["out_w"] = nn.he_uniform((cfg.hidden_dense, 1), cfg.hidden_dense, rng)
        params["out_b"] = np.zeros(1)
        return params

    def inputs(self, x: np.ndarray) -> np.ndarray:
        """The first layer's columns (..., L, B, k*V) of one-hot x (..., B, L, V)."""
        return nn.conv1d_columns(x, self.cfg.kernel_size)

    def take(self, inputs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(M, L, b, k*V) columns of the sequences at `rows` (M, b), gathered at once."""
        l, n = inputs.shape[:2]
        return np.take(inputs.reshape(l * n, -1), np.arange(l)[:, None] * n + rows[..., None, :],
                       axis=0)

    def _features(self, x: np.ndarray):
        caches = []
        h = x
        for i in range(len(self.cfg.channels)):
            h, c_conv = nn.stacked_conv1d_forward(h, self.params[f"conv{i}_w"],
                                                  self.params[f"conv{i}_b"])
            h, c_relu = nn.relu_forward(h)
            caches.append((c_conv, c_relu))
        # the mean pool: L contiguous (B, C) blocks summed, then divided as `mean` divides
        feats = np.add.reduce(h, axis=-3)
        feats /= h.shape[-3]
        return feats, (caches, h.shape[-3])

    # feature map (conv stack + pooling) vs head (dense layers): the split
    # lets predictions and KG fantasies reuse cached features

    def last_hidden(self, feats: np.ndarray) -> np.ndarray:
        """(M, B, h) input of each member's output layer on its own (M, B, d) features."""
        return np.maximum(feats @ self.params["dense_w"] + self.params["dense_b"][:, None, :], 0.0)

    def head_forward(self, feats: np.ndarray):
        """(M, B) outputs of each member's head on its own (M, B, d) features."""
        hid, c_dense = nn.dense_forward(feats, self.params["dense_w"], self.params["dense_b"])
        hid, c_hrelu = nn.relu_forward(hid)
        out, c_out = nn.dense_forward(hid, self.params["out_w"], self.params["out_b"])
        return out[..., 0], (c_dense, c_hrelu, c_out)

    def backward(self, cache, dpred: np.ndarray, grads: nn.Arena | None = None) -> nn.Arena:
        """Gradients of every parameter, written into `grads` (a new arena when None)."""
        grads = nn.Arena.like(self.params) if grads is None else grads
        (caches, length), (c_dense, c_hrelu, c_out) = cache
        d, _, _ = nn.dense_backward(c_out, dpred[..., None], grads["out_w"], grads["out_b"])
        d = nn.relu_backward(c_hrelu, d)
        d, _, _ = nn.dense_backward(c_dense, d, grads["dense_w"], grads["dense_b"])
        d = d[..., None, :, :] / length  # mean pool; the mask below broadcasts it over L
        for i in reversed(range(len(self.cfg.channels))):
            c_conv, c_relu = caches[i]
            d = nn.relu_backward(c_relu, d)
            # nothing reads the gradient w.r.t. the one-hot input
            d, _, _ = nn.stacked_conv1d_backward(c_conv, d, need_dx=i > 0,
                                                 dw=grads[f"conv{i}_w"], db=grads[f"conv{i}_b"])
        return grads


class RecurrentRegressor(_StackedNet):
    """M plain tanh recurrences over positions, stacked; final hidden state -> scalar."""

    kind = "recurrent"

    def _init_member(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        h, v = self.cfg.hidden_size, self.vocab
        return {
            "wx": nn.he_uniform((v, h), v, rng),
            "wh": nn.he_uniform((h, h), h, rng),
            "bh": np.zeros(h),
            "out_w": nn.he_uniform((h, 1), h, rng),
            "out_b": np.zeros(1),
        }

    def _features(self, x: np.ndarray):
        wx, wh, bh = self.params["wx"], self.params["wh"], self.params["bh"]
        hs = [np.zeros((len(wx), x.shape[-3], self.cfg.hidden_size), np.result_type(x, wx))]
        for t in range(x.shape[-2]):
            a = x[..., t, :] @ wx
            if t:  # the initial state is zero: no product with it
                a += hs[-1] @ wh
            hs.append(np.tanh(a + bh[:, None, :]))
        return hs[-1], (x, hs)

    def last_hidden(self, feats: np.ndarray) -> np.ndarray:
        """The output layer's input: the final hidden states themselves."""
        return feats

    def head_forward(self, feats: np.ndarray):
        out, c_out = nn.dense_forward(feats, self.params["out_w"], self.params["out_b"])
        return out[..., 0], (c_out,)

    def backward(self, cache, dpred: np.ndarray, grads: nn.Arena | None = None) -> nn.Arena:
        """Gradients of every parameter, written into `grads` (a new arena when None)."""
        grads = nn.Arena.like(self.params) if grads is None else grads
        (x, hs), (c_out,) = cache
        wh = self.params["wh"]
        grads.flat.fill(0.0)  # the recurrent gradients accumulate over positions
        dh, _, _ = nn.dense_backward(c_out, dpred[..., None], grads["out_w"], grads["out_b"])
        gwx, gwh, gbh = grads["wx"], grads["wh"], grads["bh"]
        for t in reversed(range(x.shape[-2])):
            da = dh * (1.0 - hs[t + 1] ** 2)  # through tanh
            gwx += np.swapaxes(x[..., t, :], -1, -2) @ da
            gbh += da.sum(axis=-2)
            if t:  # the initial state is a zero constant: no product with it
                gwh += np.swapaxes(hs[t], -1, -2) @ da
                dh = da @ np.swapaxes(wh, -1, -2)
        return grads


# regressor kind -> (config class, stacked network class)
REGRESSORS = {"conv": (ConvRegressorConfig, ConvRegressor),
              "recurrent": (RecurrentRegressorConfig, RecurrentRegressor)}


def _check_finite(loss: np.ndarray) -> None:
    """Raise `TrainingError` naming the first member whose loss is not finite."""
    finite = np.isfinite(loss)
    if not finite.all():
        raise TrainingError(f"member {int(np.argmin(finite))} diverged (non-finite loss)")


class Ensemble:
    """Independently seeded regressors; spread across members is the uncertainty.

    The members live in one stacked network (`net`) with a leading member
    axis on every parameter; `members` gives each one as a one-member stack
    whose `params` are views into it. Assigning an entry of such a `params`
    dict rebinds it; write `net.params[name][m]` to change member m.
    """

    def __init__(self, kind: str = "conv", config=None, n_members: int = 5, seed: int = 0):
        if kind not in REGRESSORS:
            raise ValueError(f"unknown regressor kind {kind!r}")
        if n_members < 1:
            raise ValueError(f"need at least one member, got {n_members}")
        if config is None:
            config = REGRESSORS[kind][0]()
        self.kind = kind
        self.config = config
        self.n_members = n_members
        self.seed = seed
        self.member_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(n_members)]
        self.net: ConvRegressor | RecurrentRegressor | None = None
        self.y_mean = 0.0
        self.y_std = 1.0
        self.length: int | None = None
        self.vocab: int | None = None
        self._feature_cache: dict[Sequence, np.ndarray] = {}
        self._head_post: tuple | None = None  # see _head_posterior

    @property
    def trained(self) -> bool:
        return self.net is not None

    @property
    def members(self) -> list[ConvRegressor | RecurrentRegressor]:
        return [self.net.member(m) for m in range(self.n_members)] if self.trained else []

    def _init_net(self):
        rngs = [np.random.default_rng(s) for s in self.member_seeds]
        return REGRESSORS[self.kind][1](self.config, self.length, self.vocab, rngs)

    def fit(self, data: Dataset, cfg: TrainConfig | None = None,
            rng: np.random.Generator | None = None, warm_start: bool = False) -> list[float]:
        """Train every member; returns per-member final losses.

        Targets are standardized to zero mean / unit variance with statistics
        stored on the ensemble; predictions are de-standardized on the way
        out. With `warm_start`, existing parameters and standardization
        constants are kept and training continues on the new data (cheap
        round-to-round refits); otherwise members are re-initialized from
        their seeds. Deterministic for a fixed `rng` seed and ensemble seed.

        The members train in lockstep: one forward/backward pass of the
        stacked network and one Adam step per minibatch update every member.
        Each member still sees its own bootstrap resample (of size n) in its
        own order. Before training, `rng` draws member by member: the
        bootstrap indices (when `cfg.bootstrap`), then one permutation per
        epoch. That is the order in which training one member after another
        would draw, so the parameters, the losses and the state `rng` is left
        in are those of member-by-member training, bit for bit.
        """
        if len(data) == 0:
            raise ValueError("cannot fit on an empty dataset")
        cfg = cfg or TrainConfig()
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        seqs = data.sequences
        self.length = len(seqs[0])
        self.vocab = seqs[0].alphabet.size
        x_all = encode_batch(seqs).astype(NET_DTYPE)
        y_raw = data.scores
        if not (warm_start and self.trained):
            self.y_mean = float(y_raw.mean())
            std = float(y_raw.std())
            self.y_std = std if std > 1e-12 else 1.0
            self.net = self._init_net()
        net = self.net
        x_all = net.inputs(x_all)  # built once per fit
        y_all = ((y_raw - self.y_mean) / self.y_std).astype(NET_DTYPE)
        self._feature_cache.clear()
        self._head_post = None

        n = len(seqs)
        # rows[m, e]: dataset rows member m visits in epoch e, in order
        idx = np.empty((self.n_members, n), dtype=np.int64)
        rows = np.empty((self.n_members, cfg.epochs, n), dtype=np.int64)
        for m in range(self.n_members):
            idx[m] = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
            for e in range(cfg.epochs):
                rows[m, e] = idx[m, rng.permutation(n)]

        grads = nn.Arena.like(net.params)
        opt = nn.Adam(net.params, lr=cfg.learning_rate)
        # a diverging member overflows before its loss turns non-finite: the
        # loss check reports it, so NumPy's warnings would say nothing more
        with np.errstate(over="ignore", invalid="ignore"):
            for e in range(cfg.epochs):
                for start in range(0, n, cfg.minibatch):
                    sel = rows[:, e, start:start + cfg.minibatch]
                    pred, cache = net.forward(net.take(x_all, sel))
                    loss, diff = nn.mse_forward(pred, y_all[sel])
                    _check_finite(loss)
                    opt.step(net.params, net.backward(cache, nn.mse_backward(diff), grads))
            pred, _ = net.forward(net.take(x_all, idx))
            loss = nn.mse_forward(pred, y_all[idx])[0]
        _check_finite(loss)
        return loss.tolist()

    def features_batch(self, batch: list[Sequence]) -> np.ndarray:
        """(n_members, B, d) float32 feature-map outputs, cached per sequence."""
        if not self.trained:
            raise TrainingError("ensemble has not been fitted")
        missing = [s for s in batch if s not in self._feature_cache]
        if missing:
            x = self.net.inputs(encode_batch(missing).astype(NET_DTYPE))
            # member by member: a whole pool's activations for every member at
            # once would multiply the peak memory by the member count
            feats = np.concatenate([self.net.member(m).features(x)
                                    for m in range(self.n_members)])  # (M, B, d)
            for i, s in enumerate(missing):
                self._feature_cache[s] = feats[:, i, :]
        return np.stack([self._feature_cache[s] for s in batch], axis=1)

    def predict_batch(self, batch: list[Sequence]) -> np.ndarray:
        """(B, 2) array: per-sequence mean and population variance of the member predictions.

        Each member's output layer runs in float64 on its float32 last hidden
        layer, as in the fantasies: a fantasy whose outcomes are the
        predictions leaves the means where they are.
        """
        preds = (self._design(batch) @ self._head_weights()[..., None])[..., 0]
        preds = preds * self.y_std + self.y_mean
        return np.stack([preds.mean(axis=0), preds.var(axis=0)], axis=1)

    def _design(self, seqs: list[Sequence]) -> np.ndarray:
        """(M, B, h + 1) float64 design matrices: each member's output-layer input, then ones."""
        hid = self.net.last_hidden(self.features_batch(seqs)).astype(np.float64)
        return np.concatenate([hid, np.ones(hid.shape[:-1] + (1,))], axis=-1)

    def _head_weights(self) -> np.ndarray:
        """(M, h + 1) float64 output-layer weights of every member, bias last."""
        params = self.net.params
        return np.concatenate([params["out_w"][..., 0], params["out_b"]], -1).astype(np.float64)

    def _head_posterior(self, data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per member: w0 (trained output layer, bias last), S and 1/β of `evidence_posterior`."""
        post = self._head_post
        if post is None or post[0] is not data or post[1] != len(data):
            phi = self._design(data.sequences)
            t = (data.scores - self.y_mean) / self.y_std
            _, beta, cov = zip(*(evidence_posterior(phi[m], t) for m in range(self.n_members)))
            self._head_post = post = (data, len(data),
                                      (self._head_weights(), np.stack(cov), 1.0 / np.array(beta)))
        return post[2]

    def fantasy_inner_means_multi(self, batches: list[list[Sequence]], ys: np.ndarray,
                                  inner_pool: list[Sequence], data: Dataset,
                                  steps: int | None = None, lr: float | None = None) -> np.ndarray:
        """Posterior means over `inner_pool` under each fantasy outcome of each batch.

        `ys` has shape (len(batches), n_fantasies, batch size): one
        hypothetical outcome vector per (batch, fantasy). Returns an array of
        shape (len(batches), n_fantasies, len(inner_pool)) of de-standardized
        ensemble means.

        Each member's output layer is a Bayesian linear regression on its
        last hidden layer Φ (neural-linear, as in DNGO), with weights
        N(w0, S) from `_head_posterior`. Conditioning on a batch's
        standardized outcomes y moves the inner means to
        Φ_p w0 + Φ_p S Φ_bᵀ (Φ_b S Φ_bᵀ + β⁻¹I)⁻¹ (y − Φ_b w0), computed for every
        (member, candidate, fantasy) at once and averaged over the members.
        `steps` and `lr` are ignored; they set the SGD head this replaced.
        """
        if not self.trained:
            raise TrainingError("ensemble has not been fitted")
        ys = np.asarray(ys, dtype=np.float64)
        if not batches or ys.ndim != 3 or ys.shape[0] != len(batches):
            raise ValueError(
                f"ys must have shape ({len(batches) or 1}, n_fantasies, batch size), got {ys.shape}")
        width = len(batches[0])
        if ys.shape[2] != width or any(len(b) != width for b in batches):
            raise ValueError("all batches must share one size matching ys")
        w0, cov, noise = self._head_posterior(data)
        n_m, n_c = self.n_members, len(batches)
        phi_b = self._design([s for batch in batches for s in batch]).reshape(
            n_m, n_c, width, -1)
        phi_p = self._design(inner_pool)[:, None]                  # (M, 1, P, D)
        y = (ys - self.y_mean) / self.y_std                        # (C, F, w)
        g = phi_b @ cov[:, None]                                   # Φ_b S: (M, C, w, D)
        gram = g @ np.swapaxes(phi_b, -1, -2)                      # (M, C, w, w)
        gram += noise[:, None, None, None] * np.eye(width)
        resid = y - np.swapaxes(phi_b @ w0[:, None, :, None], -1, -2)  # y − Φ_b w0: (M, C, F, w)
        gain = np.linalg.solve(gram, np.swapaxes(resid, -1, -2))   # (M, C, w, F)
        w_post = w0[:, None, :, None] + np.swapaxes(g, -1, -2) @ gain  # (M, C, D, F)
        means = (phi_p @ w_post).mean(axis=0)                      # (C, P, F)
        result = np.swapaxes(means, -1, -2) * self.y_std + self.y_mean
        if not np.isfinite(result).all():
            raise TrainingError("non-finite fantasy posterior means")
        return result


@dataclass
class GradientCheckReport:
    passed: bool
    max_rel_error: float
    worst_param: str
    tolerance: float


def gradient_check(kind: str = "conv", config=None, tolerance: float = 1e-4,
                   length: int = 8, vocab: int = 4, batch: int = 8,
                   seed: int = 0) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Uses a small random stacked network of two members, each with its own
    random inputs, so the check covers the member axis the ensemble trains
    through. It is built in float64, whatever `NET_DTYPE` is, so the finite
    differences resolve the tolerance. The loss is the sum of the members'
    MSEs; every parameter entry is perturbed by +-1e-4 and the relative error
    of the analytic gradient is recorded. Failure is a report outcome, not an
    exception.
    """
    if kind not in REGRESSORS:
        raise ValueError(f"unknown regressor kind {kind!r}")
    rng = np.random.default_rng(seed)
    if config is None:
        config = (ConvRegressorConfig(channels=(4, 4), kernel_size=3, hidden_dense=6)
                  if kind == "conv" else RecurrentRegressorConfig(hidden_size=6))
    members = 2
    net = REGRESSORS[kind][1](config, length, vocab, [rng] * members, np.float64)
    x = net.inputs(rng.standard_normal((members, batch, length, vocab)))
    y = rng.standard_normal((members, batch))

    def loss() -> float:
        return float(nn.mse_forward(net.forward(x)[0], y)[0].sum())

    pred, cache = net.forward(x)
    _, diff = nn.mse_forward(pred, y)
    grads = net.backward(cache, nn.mse_backward(diff))

    step = 1e-4
    worst_err, worst_name = 0.0, ""
    for name, arr in net.params.items():
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lo_hi = loss()
            flat[j] = orig - step
            lo_lo = loss()
            flat[j] = orig
            fd = (lo_hi - lo_lo) / (2.0 * step)
            rel = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1e-8)
            if rel > worst_err:
                worst_err, worst_name = rel, f"{name}[{j}]"
    return GradientCheckReport(passed=worst_err <= tolerance, max_rel_error=worst_err,
                               worst_param=worst_name, tolerance=tolerance)
