"""Exact conjugate Bayesian linear regression used as an analytic test double.

Implements the same duck-typed model interface as the ensemble
(`predict_batch`, `fantasy_inner_means_multi`) but with exact
posterior conditioning, so acquisition values can be checked against
closed forms and quadrature.
"""

import numpy as np

from proxbo.sequences import Sequence, small_alphabet


class LinearGaussianModel:
    def __init__(self, feature_fn, dim, prior_var=1.0, noise_var=1e-8,
                 xs=None, ys=None):
        self.feature_fn = feature_fn
        self.dim = dim
        self.prior_var = prior_var
        self.noise_var = noise_var
        precision = np.eye(dim) / prior_var
        rhs = np.zeros(dim)
        if xs is not None and len(xs):
            phi = np.stack([feature_fn(s) for s in xs])
            precision = precision + phi.T @ phi / noise_var
            rhs = phi.T @ np.asarray(ys, dtype=np.float64) / noise_var
        self.cov = np.linalg.inv(precision)
        self.mean_w = self.cov @ rhs

    def _phi(self, batch):
        return np.stack([self.feature_fn(s) for s in batch])

    def predict_batch(self, batch):
        phi = self._phi(batch)
        mean = phi @ self.mean_w
        var = np.einsum("bi,ij,bj->b", phi, self.cov, phi)
        return np.stack([mean, var], axis=1)

    def fantasy_inner_means_multi(self, batches, ys, inner_pool, data):
        ys = np.asarray(ys, dtype=np.float64)          # (C, F, B)
        phi_p = self._phi(inner_pool)                  # (P, d)
        prior_p = phi_p @ self.mean_w
        out = np.empty((len(batches), ys.shape[1], len(inner_pool)))
        for c, batch in enumerate(batches):
            phi_b = self._phi(batch)                   # (B, d)
            gram = phi_b @ self.cov @ phi_b.T + self.noise_var * np.eye(len(batch))
            gain = phi_p @ self.cov @ phi_b.T @ np.linalg.inv(gram)   # (P, B)
            out[c] = prior_p[None, :] + (ys[c] - (phi_b @ self.mean_w)[None, :]) @ gain.T
        return out


def two_feature_problem():
    """Tiny conjugate setup: 2-D (+-1) features over length-2 binary sequences."""
    ab2 = small_alphabet(2)

    def phi(s):
        return np.array([1.0 if s.residues[0] else -1.0,
                         1.0 if s.residues[1] else -1.0])

    pool = [Sequence((a, b), ab2) for a in (0, 1) for b in (0, 1)]
    xs = [pool[0], pool[3]]
    ys = [0.3, 0.9]
    model = LinearGaussianModel(phi, 2, prior_var=1.0, noise_var=1e-8, xs=xs, ys=ys)
    return model, pool, phi
