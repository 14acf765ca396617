"""Deep-ensemble regressors over one-hot sequences with hand-rolled gradients.

The ensemble's member disagreement (random init + bootstrap resampling)
provides the predictive variance used by the acquisition functions.
"""

from __future__ import annotations

import copy
import json
from collections.abc import MutableMapping
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .errors import DataError, TrainingError, check_positive
from .sequences import Sequence, encode_batch


@dataclass(frozen=True)
class ConvRegressorConfig:
    channels: tuple[int, ...] = (32, 32)
    kernel_size: int = 5
    hidden_dense: int = 64

    def __post_init__(self):
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


class _StackedNet:
    """What both stacked regressors share: the stacked parameters, forward = head after features.

    `rngs` holds one generator per member; each draws its member's weights
    layer by layer, and the members' parameters are stacked on a leading axis.
    `params` is an `nn.Arena`: every stacked parameter is a view into one
    flat buffer, so one Adam step updates them all with a single pass.
    """

    def __init__(self, cfg, length: int, vocab: int, rngs: list[np.random.Generator]):
        self.cfg = cfg
        self.length = length
        self.vocab = vocab
        members = [self._init_member(rng) for rng in rngs]
        self.params = nn.Arena({name: (len(members),) + arr.shape
                                for name, arr in members[0].items()})
        for name in self.params:
            self.params[name] = np.stack([p[name] for p in members])

    def features(self, x: np.ndarray) -> np.ndarray:
        """(M, B, d) features of x: (M, B, L, V), or (B, L, V) shared by all members."""
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
    backward passes run all members at once.
    """

    kind = "conv"
    head_param_names = ("dense_w", "dense_b", "out_w", "out_b")

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

    def _features(self, x: np.ndarray):
        caches = []
        h = x
        for i in range(len(self.cfg.channels)):
            h, c_conv = nn.stacked_conv1d_forward(h, self.params[f"conv{i}_w"],
                                                  self.params[f"conv{i}_b"])
            h, c_relu = nn.relu_forward(h)
            caches.append((c_conv, c_relu))
        feats, c_pool = nn.mean_pool_forward(h)
        return feats, (caches, c_pool)

    # feature map (conv stack + pooling) vs head (dense layers): the split
    # lets fantasy updates retrain the head only, on cached features

    def head_forward(self, feats: np.ndarray):
        """(M, B) outputs of each member's head on its own (M, B, d) features."""
        hid, c_dense = nn.dense_forward(feats, self.params["dense_w"], self.params["dense_b"])
        hid, c_hrelu = nn.relu_forward(hid)
        out, c_out = nn.dense_forward(hid, self.params["out_w"], self.params["out_b"])
        return out[..., 0], (c_dense, c_hrelu, c_out)

    def head_backward(self, cache, dpred: np.ndarray, grads) -> np.ndarray:
        """Write the head's gradients into `grads`; return the gradient w.r.t. the features."""
        c_dense, c_hrelu, c_out = cache
        d, _, _ = nn.dense_backward(c_out, dpred[..., None], grads["out_w"], grads["out_b"])
        d = nn.relu_backward(c_hrelu, d)
        d, _, _ = nn.dense_backward(c_dense, d, grads["dense_w"], grads["dense_b"])
        return d

    def backward(self, cache, dpred: np.ndarray, grads: nn.Arena | None = None) -> nn.Arena:
        """Gradients of every parameter, written into `grads` (a new arena when None)."""
        grads = nn.Arena.like(self.params) if grads is None else grads
        (caches, c_pool), c_head = cache
        d = self.head_backward(c_head, dpred, grads)
        d = nn.mean_pool_backward(c_pool, d)
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
    head_param_names = ("out_w", "out_b")

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
        hs = [np.zeros((len(wx), x.shape[-3], self.cfg.hidden_size))]
        for t in range(x.shape[-2]):
            hs.append(np.tanh(x[..., t, :] @ wx + hs[-1] @ wh + bh[:, None, :]))
        return hs[-1], (x, hs)

    def head_forward(self, feats: np.ndarray):
        out, c_out = nn.dense_forward(feats, self.params["out_w"], self.params["out_b"])
        return out[..., 0], (c_out,)

    def head_backward(self, cache, dpred: np.ndarray, grads) -> np.ndarray:
        d, _, _ = nn.dense_backward(cache[0], dpred[..., None], grads["out_w"], grads["out_b"])
        return d

    def backward(self, cache, dpred: np.ndarray, grads: nn.Arena | None = None) -> nn.Arena:
        """Gradients of every parameter, written into `grads` (a new arena when None)."""
        grads = nn.Arena.like(self.params) if grads is None else grads
        (x, hs), c_head = cache
        wh = self.params["wh"]
        grads.flat.fill(0.0)  # the recurrent gradients accumulate over positions
        dh = self.head_backward(c_head, dpred, grads)
        gwx, gwh, gbh = grads["wx"], grads["wh"], grads["bh"]
        for t in reversed(range(x.shape[-2])):
            da = dh * (1.0 - hs[t + 1] ** 2)  # through tanh
            gwx += np.swapaxes(x[..., t, :], -1, -2) @ da
            gwh += np.swapaxes(hs[t], -1, -2) @ da
            gbh += da.sum(axis=-2)
            if t:  # the initial state is a constant
                dh = da @ np.swapaxes(wh, -1, -2)
        return grads


# regressor kind -> (config class, stacked network class)
REGRESSORS = {"conv": (ConvRegressorConfig, ConvRegressor),
              "recurrent": (RecurrentRegressorConfig, RecurrentRegressor)}


class _MemberParams(MutableMapping):
    """Row `m` of a stacked parameter dict; assigning an entry writes that row."""

    def __init__(self, stacked: dict[str, np.ndarray], m: int):
        self._stacked = stacked
        self._m = m

    def __getitem__(self, name: str) -> np.ndarray:
        return self._stacked[name][self._m]

    def __setitem__(self, name: str, value) -> None:
        self._stacked[name][self._m] = value

    def __delitem__(self, name: str) -> None:
        raise TypeError("member parameters cannot be deleted")

    def __iter__(self):
        return iter(self._stacked)

    def __len__(self) -> int:
        return len(self._stacked)


class Member:
    """One member of a stacked network; `params` reads and writes its rows."""

    def __init__(self, stacked: dict[str, np.ndarray], m: int):
        self.params = _MemberParams(stacked, m)


class Ensemble:
    """Independently seeded regressors; spread across members is the uncertainty.

    The members live in one stacked network (`net`) with a leading member
    axis on every parameter; `members` gives per-member views of it.
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

    @property
    def trained(self) -> bool:
        return self.net is not None

    @property
    def members(self) -> list[Member]:
        if self.net is None:
            return []
        return [Member(self.net.params, m) for m in range(self.n_members)]

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
        x_all = encode_batch(seqs)
        y_raw = data.scores
        if not (warm_start and self.trained):
            self.y_mean = float(y_raw.mean())
            std = float(y_raw.std())
            self.y_std = std if std > 1e-12 else 1.0
            self.net = self._init_net()
        y_all = (y_raw - self.y_mean) / self.y_std
        self._feature_cache.clear()

        n = len(seqs)
        # rows[m, e]: dataset rows member m visits in epoch e, in order
        idx = np.empty((self.n_members, n), dtype=np.int64)
        rows = np.empty((self.n_members, cfg.epochs, n), dtype=np.int64)
        for m in range(self.n_members):
            idx[m] = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
            for e in range(cfg.epochs):
                rows[m, e] = idx[m, rng.permutation(n)]

        net = self.net
        grads = nn.Arena.like(net.params)
        opt = nn.Adam(net.params, lr=cfg.learning_rate)
        for e in range(cfg.epochs):
            for start in range(0, n, cfg.minibatch):
                sel = rows[:, e, start:start + cfg.minibatch]
                pred, cache = net.forward(x_all[sel])
                loss, diff = nn.mse_forward(pred, y_all[sel])
                finite = np.isfinite(loss)
                if not finite.all():
                    raise TrainingError(
                        f"member {int(np.argmin(finite))} diverged (non-finite loss)")
                opt.step(net.params, net.backward(cache, nn.mse_backward(diff), grads))
        pred, _ = net.forward(x_all[idx])
        return nn.mse_forward(pred, y_all[idx])[0].tolist()

    def features_batch(self, batch: list[Sequence]) -> np.ndarray:
        """(n_members, B, d) feature-map outputs, cached per sequence."""
        if not self.trained:
            raise TrainingError("ensemble has not been fitted")
        missing = [s for s in batch if s not in self._feature_cache]
        if missing:
            x = encode_batch(missing)
            # member by member: a whole pool's activations for every member at
            # once would multiply the peak memory by the member count
            feats = np.concatenate([self.net.member(m).features(x)
                                    for m in range(self.n_members)])  # (M, B, d)
            for i, s in enumerate(missing):
                self._feature_cache[s] = feats[:, i, :]
        return np.stack([self._feature_cache[s] for s in batch], axis=1)

    def predict_batch(self, batch: list[Sequence]) -> np.ndarray:
        """(B, 2) array: per-sequence mean and population variance of the member predictions."""
        preds = self.net.head_forward(self.features_batch(batch))[0] * self.y_std + self.y_mean
        return np.stack([preds.mean(axis=0), preds.var(axis=0)], axis=1)

    def fantasy_inner_means_multi(self, batches: list[list[Sequence]], ys: np.ndarray,
                                  inner_pool: list[Sequence], data: Dataset,
                                  steps: int = 20, lr: float = 1e-3) -> np.ndarray:
        """Posterior means over `inner_pool` under each fantasy outcome of each batch.

        `ys` has shape (len(batches), n_fantasies, batch size): one
        hypothetical outcome vector per (batch, fantasy). Returns an array of
        shape (len(batches), n_fantasies, len(inner_pool)) of de-standardized
        ensemble means, each from a few Adam steps of every member's head on
        the frozen cached features of the observed rows plus that batch.

        The candidate batches train one after another, each as one block of
        (fantasy, member) head copies: the head parameters carry a leading
        fantasy axis, (F, M, ...), and the candidate's (M, n, d) features
        broadcast against them, so no features are tiled. The features of the
        observed rows and of every batch come from one cache lookup per call;
        the activation, mask and gradient arrays are allocated once per call
        and rewritten in place at every step of every candidate. The head
        copies and their gradients are two `nn.Arena`s, so each Adam step is
        one pass over a flat buffer, and each candidate starts from one copy
        of the base head broadcast over the fantasies. Each head
        copy goes through the same matrix products and reductions as when all
        (candidate, fantasy, member) copies were tiled into one stack, so the
        result equals that stack's bit for bit; tests/fantasy_oracle.py keeps
        the tiled version as the oracle.
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
        n_f, n_m = ys.shape[1], self.n_members
        y_obs = (data.scores - self.y_mean) / self.y_std
        y_fan = (ys - self.y_mean) / self.y_std
        n_obs = y_obs.size
        n = n_obs + width
        # (M, n_obs + n_c * width, d): the observed rows, then every batch's rows
        rows = self.features_batch(data.sequences + [s for batch in batches for s in batch])
        # one candidate's augmented dataset: the observed rows, then its batch
        feats = rows[:, :n].copy()
        targets = np.empty((n_f, 1, n))
        targets[..., :n_obs] = y_obs
        inner_feats = self.features_batch(inner_pool)

        # the (F, M, ...) head copies, their gradients and their starting
        # values (the base head broadcast over the fantasies), each one arena
        shapes = {name: (n_f,) + self.net.params[name].shape
                  for name in self.net.head_param_names}
        params, grads, start = nn.Arena(shapes), nn.Arena(shapes), nn.Arena(shapes)
        for name in start:
            start[name][...] = self.net.params[name]
        out_w, out_b = params["out_w"], params["out_b"]
        g_out_w, g_out_b = grads["out_w"], grads["out_b"]
        has_hidden = "dense_w" in params
        out = np.empty((n_f, n_m, n, 1))
        inner_out = np.empty((n_f, n_m, len(inner_pool), 1))
        act = mask = inner_act = None
        if has_hidden:
            dense_w, dense_b = params["dense_w"], params["dense_b"]
            g_dense_w, g_dense_b = grads["dense_w"], grads["dense_b"]
            out_w_t = np.swapaxes(out_w, -1, -2)
            act = np.empty((n_f, n_m, n, dense_w.shape[-1]))
            mask = np.empty(act.shape, dtype=bool)
            inner_act = np.empty((n_f, n_m, len(inner_pool), dense_w.shape[-1]))
        feats_t = np.swapaxes(feats, -1, -2)

        def head(x, act, out, mask=None):
            """(F, M, rows) outputs on x: (M, rows, d), written into `out`; and the output layer's input."""
            if has_hidden:
                np.matmul(x, dense_w, out=act)
                act += dense_b[..., None, :]
                if mask is not None:
                    np.greater(act, 0.0, out=mask)
                x = np.maximum(act, 0.0, out=act)
            np.matmul(x, out_w, out=out)
            pred = out[..., 0]
            pred += out_b
            return pred, x

        result = np.empty((len(batches), n_f, len(inner_pool)))
        for c in range(len(batches)):
            feats[:, n_obs:] = rows[:, n_obs + c * width:n_obs + (c + 1) * width]
            targets[..., n_obs:] = y_fan[c][:, None, :]
            np.copyto(params.flat, start.flat)
            opt = nn.Adam(params, lr=lr)
            for _ in range(steps):
                diff, hid = head(feats, act, out, mask)
                diff -= targets
                if not np.all(np.isfinite(diff)):
                    raise TrainingError("fantasy update diverged")
                diff *= 2.0 / n  # `out` now holds the output gradient
                np.matmul(np.swapaxes(hid, -1, -2), out, out=g_out_w)
                np.sum(out, axis=-2, out=g_out_b)
                if has_hidden:
                    # the hidden activations are spent, so `act` takes their
                    # gradient. The K=1 matmul `out @ out_w^T` differs from this
                    # product only by turning -0.0 into +0.0, which no update
                    # can see; the mask multiplies, as np.where would also
                    # change the signs of zeros
                    dhid = np.multiply(out, out_w_t, out=act)
                    dhid *= mask
                    np.matmul(feats_t, dhid, out=g_dense_w)
                    np.sum(dhid, axis=-2, out=g_dense_b)
                opt.step(params, grads)
            preds, _ = head(inner_feats, inner_act, inner_out)
            preds *= self.y_std
            preds += self.y_mean
            result[c] = preds.mean(axis=1)
        return result

    # -- checkpointing ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a single self-describing .npz checkpoint."""
        meta = {
            "kind": self.kind,
            "config": asdict(self.config),
            "n_members": self.n_members,
            "seed": self.seed,
            "member_seeds": self.member_seeds,
            "y_mean": self.y_mean,
            "y_std": self.y_std,
            "length": self.length,
            "vocab": self.vocab,
        }
        arrays = {}
        for i, member in enumerate(self.members):
            for name, arr in member.params.items():
                arrays[f"member{i}/{name}"] = arr
        np.savez(path, __meta__=np.bytes_(json.dumps(meta, default=list)), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "Ensemble":
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode())
            cfg_kwargs = dict(meta["config"])
            if "channels" in cfg_kwargs:
                cfg_kwargs["channels"] = tuple(cfg_kwargs["channels"])
            ens = cls(kind=meta["kind"], config=REGRESSORS[meta["kind"]][0](**cfg_kwargs),
                      n_members=meta["n_members"], seed=meta["seed"])
            ens.member_seeds = [int(s) for s in meta["member_seeds"]]
            ens.y_mean = meta["y_mean"]
            ens.y_std = meta["y_std"]
            ens.length = meta["length"]
            ens.vocab = meta["vocab"]
            ens.net = ens._init_net()
            # assigning an arena entry copies into its view, so the stacked
            # parameters stay views into one buffer
            for name in ens.net.params:
                ens.net.params[name] = np.stack(
                    [archive[f"member{i}/{name}"] for i in range(ens.n_members)])
        return ens


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
    through. The loss is the sum of the members' MSEs; every parameter entry
    is perturbed by +-1e-4 and the relative error of the analytic gradient is
    recorded. Failure is a report outcome, not an exception.
    """
    if kind not in REGRESSORS:
        raise ValueError(f"unknown regressor kind {kind!r}")
    rng = np.random.default_rng(seed)
    if config is None:
        config = (ConvRegressorConfig(channels=(4, 4), kernel_size=3, hidden_dense=6)
                  if kind == "conv" else RecurrentRegressorConfig(hidden_size=6))
    members = 2
    net = REGRESSORS[kind][1](config, length, vocab, [rng] * members)
    x = rng.standard_normal((members, batch, length, vocab))
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
