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
from .sequences import Alphabet, Sequence, encode_batch, residue_array

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
    """Append-only measured rows and their fitness, each row once, in insertion order."""

    def __init__(self):
        self.alphabet: Alphabet | None = None
        # read-only (N, L) ordinals over `alphabet` in its smallest unsigned dtype, (N,) fitness
        self.codes, self.scores = np.zeros((0, 0), dtype=np.uint8), np.zeros(0)
        self._rows: dict[tuple[int, ...], int] = {}  # each row's residues -> its index

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, s: Sequence | tuple[int, ...]) -> bool:
        return (s.residues if isinstance(s, Sequence) else s) in self._rows

    def add(self, s: Sequence, y: float) -> None:
        self.add_rows(np.array([s.residues]), [y], s.alphabet)

    def add_rows(self, codes: np.ndarray, scores, alphabet: Alphabet) -> None:
        """Append a (B, L) ordinal array over `alphabet` and its scores, checked whole first.

        Its alphabet and length must be the dataset's. A row measured before, or
        earlier in the batch, must repeat its score, else a DataError; it is kept once.
        """
        codes, scores = np.asarray(codes), np.asarray(scores, dtype=np.float64)
        if codes.size and not (codes.min() >= 0 and codes.max() < alphabet.size):
            raise DataError(f"residue ordinals out of range for alphabet {alphabet.symbols!r}")
        fits, length = self.alphabet or alphabet, self.codes.shape[1] or codes.shape[1]
        if (alphabet, codes.shape[1]) != (fits, length):
            raise DataError(f"{alphabet.text(codes[0])} (alphabet {alphabet.symbols!r}) does not "
                            f"fit a dataset of length-{length} sequences over {fits.symbols!r}")
        batch: dict[tuple[int, ...], int] = {}  # each new row's residues -> its batch index
        for i, (key, y) in enumerate(zip(map(tuple, codes.tolist()), scores.tolist())):
            held = self._rows.get(key)
            known = scores[batch.setdefault(key, i)] if held is None else self.scores[held]
            if known != y:
                raise DataError(f"conflicting scores for {alphabet.text(key)}: {known} vs {y}")
        self.alphabet, new = fits, list(batch.values())
        self._rows.update(zip(batch, range(len(self), len(self) + len(new))))
        self.codes = np.concatenate([self.codes.reshape(-1, length), codes[new]]).astype(
            np.min_scalar_type(fits.size - 1))
        self.scores = np.concatenate([self.scores, scores[new]])
        self.codes.flags.writeable = self.scores.flags.writeable = False

    def max_score(self) -> float:
        if not len(self):
            raise ValueError("dataset is empty")
        return float(self.scores.max())


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
    """What both stacked regressors share: the stacked parameters, the input and the output layer.

    Each regressor implements `_init_member`, `_body(x) -> (last hidden layer,
    cache)` and `_body_backward(cache, dhid, grads)`: `forward` runs `_body`, then
    the output layer, and `backward` the reverse, on position-major `inputs`.

    `rngs` holds one generator per member; each draws its member's weights
    layer by layer in float64, and the members' parameters are stacked on a
    leading axis and cast to `dtype`. `params` is an `nn.Arena`: every stacked
    parameter is a view into one flat buffer, so one Adam step updates them
    all with a single pass.
    """

    def __init__(self, cfg, vocab: int, rngs: list[np.random.Generator], dtype=NET_DTYPE):
        self.cfg = cfg
        self.vocab = vocab
        members = [self._init_member(rng) for rng in rngs]
        self.params = nn.Arena({name: (len(members),) + arr.shape
                                for name, arr in members[0].items()}, dtype)
        for name in self.params:
            self.params[name] = np.stack([p[name] for p in members])

    def inputs(self, x: np.ndarray) -> np.ndarray:
        """The network's input (..., L, B, V) for one-hot x (..., B, L, V): a position-major copy."""
        return np.ascontiguousarray(np.swapaxes(x, -2, -3))

    def take(self, inputs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(M, L, b, W) inputs of the sequences at `rows` (M, b) of (L, n, W) `inputs`, at once."""
        l, n = inputs.shape[:2]
        return np.take(inputs.reshape(l * n, -1), np.arange(l)[:, None] * n + rows[..., None, :],
                       axis=0)

    def last_hidden(self, x: np.ndarray) -> np.ndarray:
        """(M, B, h) input of each member's output layer, from the input x (see `inputs`)."""
        return self._body(x)[0]

    def forward(self, x: np.ndarray):
        hid, c_body = self._body(x)
        out, c_out = nn.dense_forward(hid, self.params["out_w"], self.params["out_b"])
        return out[..., 0], (c_body, c_out)

    def backward(self, cache, dpred: np.ndarray, grads: nn.Arena | None = None) -> nn.Arena:
        """Gradients of every parameter, written into `grads` (a new arena when None)."""
        grads = nn.Arena.like(self.params) if grads is None else grads
        c_body, c_out = cache
        dhid, _, _ = nn.dense_backward(c_out, dpred[..., None], grads["out_w"], grads["out_b"])
        self._body_backward(c_body, dhid, grads)
        return grads

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

    def _body(self, x: np.ndarray):
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
        hid, c_dense = nn.dense_forward(feats, self.params["dense_w"], self.params["dense_b"])
        hid, c_relu = nn.relu_forward(hid)
        return hid, (caches, h.shape[-3], c_dense, c_relu)

    def _body_backward(self, cache, dhid: np.ndarray, grads: nn.Arena) -> None:
        """Write the gradients of every parameter before the output layer into `grads`."""
        caches, length, c_dense, c_relu = cache
        d = nn.relu_backward(c_relu, dhid)
        d, _, _ = nn.dense_backward(c_dense, d, grads["dense_w"], grads["dense_b"])
        d = d[..., None, :, :] / length  # mean pool; the mask below broadcasts it over L
        for i in reversed(range(len(self.cfg.channels))):
            c_conv, c_relu = caches[i]
            d = nn.relu_backward(c_relu, d)
            # nothing reads the gradient w.r.t. the one-hot input
            d, _, _ = nn.stacked_conv1d_backward(c_conv, d, need_dx=i > 0,
                                                 dw=grads[f"conv{i}_w"], db=grads[f"conv{i}_b"])


class RecurrentRegressor(_StackedNet):
    """M plain tanh recurrences over positions, stacked; final hidden state -> scalar.

    Each position's rows are one contiguous (B, V) block of the input (`inputs`).
    """

    def _init_member(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        h, v = self.cfg.hidden_size, self.vocab
        return {
            "wx": nn.he_uniform((v, h), v, rng),
            "wh": nn.he_uniform((h, h), h, rng),
            "bh": np.zeros(h),
            "out_w": nn.he_uniform((h, 1), h, rng),
            "out_b": np.zeros(1),
        }

    def _body(self, x: np.ndarray):
        wx, wh, bh = self.params["wx"], self.params["wh"], self.params["bh"]
        hs = []  # the state after each position
        for t in range(x.shape[-3]):
            a = x[..., t, :, :] @ wx
            if t:  # the initial state is zero: no product with it
                a += hs[-1] @ wh
            hs.append(np.tanh(a + bh[:, None, :]))
        return hs[-1], (x, hs)

    def _body_backward(self, cache, dh: np.ndarray, grads: nn.Arena) -> None:
        """Write the gradients of the recurrence into `grads`, summed over positions."""
        x, hs = cache
        wh = self.params["wh"]
        gwx, gwh, gbh = grads["wx"], grads["wh"], grads["bh"]
        for g in (gwx, gwh, gbh):
            g.fill(0.0)  # accumulated below; the output layer's are already written
        for t in reversed(range(x.shape[-3])):
            da = dh * (1.0 - hs[t] ** 2)  # through tanh
            gwx += np.swapaxes(x[..., t, :, :], -1, -2) @ da
            gbh += da.sum(axis=-2)
            if t:  # the initial state is a zero constant: no product with it
                gwh += np.swapaxes(hs[t - 1], -1, -2) @ da
                dh = da @ np.swapaxes(wh, -1, -2)


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
        self._predicted_design: np.ndarray | None = None  # see predict_batch
        self._head_post: tuple | None = None  # see _head_posterior

    @property
    def trained(self) -> bool:
        return self.net is not None

    @property
    def members(self) -> list[ConvRegressor | RecurrentRegressor]:
        return [self.net.member(m) for m in range(self.n_members)] if self.trained else []

    def _init_net(self, vocab: int):
        rngs = [np.random.default_rng(s) for s in self.member_seeds]
        return REGRESSORS[self.kind][1](self.config, vocab, rngs)

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
        epoch (one `permuted` call, which draws as a `permutation` per epoch
        would). That is the order in which training one member after another
        would draw, so the parameters, the losses and the state `rng` is left
        in are those of member-by-member training, bit for bit.
        """
        if len(data) == 0:
            raise ValueError("cannot fit on an empty dataset")
        cfg = cfg or TrainConfig()
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        x_all = encode_batch(data.codes, data.alphabet.size).astype(NET_DTYPE)
        y_raw = data.scores
        if not (warm_start and self.trained):
            self.y_mean = float(y_raw.mean())
            std = float(y_raw.std())
            self.y_std = std if std > 1e-12 else 1.0
            self.net = self._init_net(data.alphabet.size)
        net = self.net
        x_all = net.inputs(x_all)  # built once per fit
        y_all = ((y_raw - self.y_mean) / self.y_std).astype(NET_DTYPE)
        self._predicted_design = None
        self._head_post = None

        n = len(data)
        # rows[m, e]: dataset rows member m visits in epoch e, in order
        idx = np.empty((self.n_members, n), dtype=np.int64)
        rows = np.empty((self.n_members, cfg.epochs, n), dtype=np.int64)
        for m in range(self.n_members):
            idx[m] = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
            rows[m] = idx[m, rng.permuted(np.tile(np.arange(n), (cfg.epochs, 1)), axis=1)]

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

    def _design(self, codes: np.ndarray) -> np.ndarray:
        """(M, B, h + 1) float64 Φ of (B, L) residue rows: each member's last hidden layer, 1s."""
        if not self.trained:
            raise TrainingError("ensemble has not been fitted")
        x = self.net.inputs(encode_batch(codes, self.net.vocab).astype(NET_DTYPE))
        # member by member: a whole pool's activations for every member at
        # once would multiply the peak memory by the member count
        hid = np.concatenate([self.net.member(m).last_hidden(x) for m in range(self.n_members)])
        return np.concatenate([hid, np.ones(hid.shape[:-1] + (1,))], axis=-1)  # cast to float64

    def predict_batch(self, codes: np.ndarray) -> np.ndarray:
        """(B, 2) array: per-row mean and population variance of the member predictions.

        `codes` is a (B, L) residue array. Only this method keeps the rows' Φ
        (`fit` drops it); `fantasy_inner_means_multi` indexes the last call's.
        Each member's output layer runs in float64 on the float32 last hidden
        layer, and the fantasies read the same Φ: a fantasy whose outcomes
        are the predictions leaves the means in place.
        """
        phi = self._predicted_design = self._design(codes)
        preds = (phi @ self._head_weights()[..., None])[..., 0]
        preds = preds * self.y_std + self.y_mean
        return np.stack([preds.mean(axis=0), preds.var(axis=0)], axis=1)

    def _head_weights(self) -> np.ndarray:
        """(M, h + 1) float64 output-layer weights of every member, bias last."""
        params = self.net.params
        return np.concatenate([params["out_w"][..., 0], params["out_b"]], -1).astype(np.float64)

    def _head_posterior(self, data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per member: w0 (trained output layer, bias last), S and 1/β of `evidence_posterior`."""
        post = self._head_post
        if post is None or post[0] is not data or post[1] != len(data):
            phi = self._design(data.codes)
            t = (data.scores - self.y_mean) / self.y_std
            _, beta, cov = zip(*(evidence_posterior(phi[m], t) for m in range(self.n_members)))
            self._head_post = post = (data, len(data),
                                      (self._head_weights(), np.stack(cov), 1.0 / np.array(beta)))
        return post[2]

    def fantasy_inner_means_multi(self, batches: np.ndarray, ys: np.ndarray,
                                  inner_pool: np.ndarray, data: Dataset,
                                  steps: int | None = None, lr: float | None = None) -> np.ndarray:
        """Posterior means over `inner_pool` under each fantasy outcome of each batch.

        `batches` (C, w) and `inner_pool` (P,) are row indices into the rows
        of the last `predict_batch` call, whose Φ they index (no network layer
        runs). `ys` has shape (C, n_fantasies, w): one hypothetical outcome
        vector per (batch, fantasy). Returns an
        array of shape (C, n_fantasies, P) of de-standardized ensemble means.

        Each member's output layer is a Bayesian linear regression on its
        last hidden layer Φ (neural-linear, as in DNGO), with weights
        N(w0, S) from `_head_posterior`. Conditioning on a batch's
        standardized outcomes y moves the inner means to
        Φ_p w0 + Φ_p S Φ_bᵀ (Φ_b S Φ_bᵀ + β⁻¹I)⁻¹ (y − Φ_b w0), computed for every
        (member, candidate, fantasy) at once and averaged over the members.
        `steps` and `lr` are ignored; they set the SGD head this replaced.
        """
        if not isinstance(batches, np.ndarray):
            # lists of Sequences, as bench/micro.py passes them, are predicted
            # here: kept for bench/ until it passes rows (ROADMAP item 2)
            flat = [s for batch in batches for s in batch]
            self.predict_batch(residue_array(flat + list(inner_pool)))
            batches, inner_pool = (np.arange(len(flat)).reshape(len(batches), -1),
                                   np.arange(len(flat), len(flat) + len(inner_pool)))
        phi = self._predicted_design
        if phi is None:
            raise TrainingError("no rows predicted since the last fit")
        ys = np.asarray(ys, dtype=np.float64)
        if batches.ndim != 2 or not len(batches) or ys.ndim != 3 or ys.shape[::2] != batches.shape:
            raise ValueError(f"ys must have shape (C, n_fantasies, w) for (C, w) batches "
                             f"{batches.shape}, got {ys.shape}")
        w0, cov, noise = self._head_posterior(data)
        (n_c, width), n_m = batches.shape, self.n_members
        phi_b = np.take(phi, batches.ravel(), axis=1).reshape(n_m, n_c, width, -1)
        phi_p = np.take(phi, inner_pool, axis=1)[:, None]         # (M, 1, P, D)
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
    net = REGRESSORS[kind][1](config, vocab, [rng] * members, np.float64)
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
