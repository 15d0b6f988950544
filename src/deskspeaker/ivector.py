"""Total-variability (i-vector) modelling on top of a diagonal-covariance UBM.

An utterance's GMM-mean supervector is modelled as m + T w with a standard
normal prior on w; the i-vector is the posterior mean of w given the
utterance's sufficient statistics:

    phi = (I + T' S^-1 N T)^-1  T' S^-1 F

with N the (block-diagonal) zeroth-order and F the centered first-order
statistics. Per-frame weights w_t scale each frame's contribution by L * w_t,
so uniform weights (1/L) reproduce the unweighted statistics exactly and the
extraction equation is unchanged.

The linear systems are solved through a Cholesky factorization of the SPD
posterior precision; no explicit inverse is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DegenerateWeightsError, NumericsError
from .fileio import read_tvm, write_tvm
from .ubm import DiagGmm, gmm_posteriors

_WEIGHT_SUM_TOL = 1e-6


@dataclass
class SufficientStats:
    """Zeroth/first-order Baum-Welch statistics (first order centered on the UBM)."""

    n: np.ndarray            # (C,)
    first: np.ndarray        # (C, D)


@dataclass
class TotalVariabilityModel:
    mean: np.ndarray     # (C*D,) UBM mean supervector
    t_matrix: np.ndarray  # (C*D, R)
    sigma: np.ndarray    # (C*D,) UBM variance supervector
    em_objective: np.ndarray | None = field(default=None, compare=False)

    @property
    def rank(self) -> int:
        return self.t_matrix.shape[1]

    def save(self, path):
        write_tvm(path, self.mean, self.t_matrix, self.sigma)

    @classmethod
    def load(cls, path) -> "TotalVariabilityModel":
        return cls(*read_tvm(path))


def accumulate_stats(frames, gmm: DiagGmm, weights: np.ndarray | None = None) -> SufficientStats:
    """Sufficient statistics of an utterance, optionally frame-weighted.

    weights, when given, must be a length-L simplex vector; each frame's
    posterior contribution is scaled by L * weights[t]. None means uniform.
    """
    frames = np.asarray(getattr(frames, "frames", frames), dtype=np.float64)
    return weighted_stats(frames, gmm_posteriors(frames, gmm), gmm, weights)


def weighted_stats(frames: np.ndarray, post: np.ndarray, gmm: DiagGmm,
                   weights: np.ndarray | None = None) -> SufficientStats:
    """Sufficient statistics from an utterance's (L, C) component posteriors
    under gmm; weights as for accumulate_stats. post is not modified, so one
    posterior pass can serve several weightings.
    """
    length = frames.shape[0]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (length,):
            raise DegenerateWeightsError(
                f"{weights.shape} weights for {length} frames")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise DegenerateWeightsError("frame weights must be a simplex vector")
        post = post * (length * weights)[:, None]
    n = post.sum(axis=0)
    first = post.T @ frames - n[:, None] * gmm.means
    return SufficientStats(n, first)


def _posterior(stats: SufficientStats, tvm: TotalVariabilityModel):
    """Cholesky factor of the posterior precision and the projected stats."""
    n_rep = np.repeat(stats.n, tvm.sigma.size // stats.n.size)
    scaled = tvm.t_matrix * (n_rep / tvm.sigma)[:, None]
    precision = np.eye(tvm.rank) + tvm.t_matrix.T @ scaled
    precision = 0.5 * (precision + precision.T)
    b = tvm.t_matrix.T @ (stats.first.ravel() / tvm.sigma)
    try:
        factor = cho_factor(precision)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise NumericsError(f"posterior precision not SPD: {exc}") from exc
    return factor, b


def extract_ivector(stats: SufficientStats, tvm: TotalVariabilityModel) -> np.ndarray:
    """Posterior mean of the total-variability factor for one utterance."""
    if stats.first.size != tvm.sigma.size:
        raise NumericsError(
            f"stats dim {stats.first.size} does not match model dim {tvm.sigma.size}")
    factor, b = _posterior(stats, tvm)
    return cho_solve(factor, b)


def train_tvm(stats_list, gmm: DiagGmm, rank: int, n_iters: int = 10,
              seed: int = 0) -> TotalVariabilityModel:
    """EM estimation of T; the UBM supplies the fixed mean and variance.

    Records the per-iteration marginal log-likelihood of the statistics
    (up to T-independent constants) in ``em_objective``.
    """
    mean = gmm.means.ravel().copy()
    sigma = gmm.variances.ravel().copy()
    cd = mean.size
    dim = gmm.dim
    rng = np.random.default_rng(seed)
    t_matrix = rng.standard_normal((cd, rank)) * np.sqrt(sigma)[:, None]
    tvm = TotalVariabilityModel(mean, t_matrix, sigma)

    history = []
    n_comp = gmm.n_components
    for _ in range(n_iters):
        objective = 0.0
        acc_a = np.zeros((n_comp, rank, rank))
        acc_c = np.zeros((cd, rank))
        for stats in stats_list:
            factor, b = _posterior(stats, tvm)
            phi = cho_solve(factor, b)
            cov = cho_solve(factor, np.eye(rank))
            second_moment = cov + np.outer(phi, phi)
            # -0.5 log|precision| + 0.5 b' precision^-1 b, via the Cholesky diag
            objective += -np.log(np.diag(factor[0])).sum() + 0.5 * float(b @ phi)
            acc_a += stats.n[:, None, None] * second_moment[None, :, :]
            acc_c += np.outer(stats.first.ravel(), phi)
        history.append(objective)
        new_t = np.empty_like(tvm.t_matrix)
        for c in range(n_comp):
            a_c = acc_a[c]
            reg = 1e-10 * (1.0 + np.trace(a_c) / rank)
            a_c = a_c + reg * np.eye(rank)
            block = acc_c[c * dim:(c + 1) * dim]
            new_t[c * dim:(c + 1) * dim] = np.linalg.solve(a_c, block.T).T
        tvm = TotalVariabilityModel(mean, new_t, sigma)
    tvm.em_objective = np.asarray(history)
    return tvm
