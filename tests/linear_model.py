"""Exact conjugate Bayesian linear regression used as an analytic test double.

Implements the same duck-typed model interface as the ensemble, with exact
posterior conditioning, so acquisition values can be checked against
closed forms and quadrature: `predict_batch(codes)` gives the posterior of
the rows of a (B, L) residue array and keeps their features, and
`fantasy_inner_means_multi(batches, ys, inner_pool, data)` takes (C, w)
batches and (I,) inner-pool row indices into those rows.
"""

import numpy as np

from proxbo.sequences import residue_array, small_alphabet


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
            phi = self._phi(xs)
            precision = precision + phi.T @ phi / noise_var
            rhs = phi.T @ np.asarray(ys, dtype=np.float64) / noise_var
        self.cov = np.linalg.inv(precision)
        self.mean_w = self.cov @ rhs
        self._rows_phi = None  # features of the last predict_batch's rows

    def _phi(self, codes):
        return np.stack([self.feature_fn(row) for row in codes])

    def predict_batch(self, codes):
        phi = self._rows_phi = self._phi(codes)
        mean = phi @ self.mean_w
        var = np.einsum("bi,ij,bj->b", phi, self.cov, phi)
        return np.stack([mean, var], axis=1)

    def fantasy_inner_means_multi(self, batches, ys, inner_pool, data):
        ys = np.asarray(ys, dtype=np.float64)          # (C, F, w)
        phi_p = self._rows_phi[inner_pool]             # (P, d)
        prior_p = phi_p @ self.mean_w
        out = np.empty((len(batches), ys.shape[1], len(inner_pool)))
        for c, batch in enumerate(batches):
            phi_b = self._rows_phi[batch]              # (w, d)
            gram = phi_b @ self.cov @ phi_b.T + self.noise_var * np.eye(len(batch))
            gain = phi_p @ self.cov @ phi_b.T @ np.linalg.inv(gram)   # (P, w)
            out[c] = prior_p[None, :] + (ys[c] - (phi_b @ self.mean_w)[None, :]) @ gain.T
        return out


def two_feature_problem():
    """Tiny conjugate setup: 2-D (+-1) features over length-2 binary sequences.

    Returns the model, the four sequences' (4, 2) residue array and the
    feature map of one residue row.
    """
    ab2 = small_alphabet(2)

    def phi(row):
        return np.array([1.0 if row[0] else -1.0, 1.0 if row[1] else -1.0])

    pool = residue_array([ab2.encode(t) for t in ("AA", "AC", "CA", "CC")])
    model = LinearGaussianModel(phi, 2, prior_var=1.0, noise_var=1e-8,
                                xs=pool[[0, 3]], ys=[0.3, 0.9])
    return model, pool, phi
