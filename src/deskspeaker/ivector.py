"""Total-variability (i-vector) modelling on top of a diagonal-covariance UBM.

An utterance's GMM-mean supervector is modelled as m + T w with a standard
normal prior on w; the i-vector is the posterior mean of w given the
utterance's sufficient statistics:

    phi = (I + T' S^-1 N T)^-1  T' S^-1 F

with N the (block-diagonal) zeroth-order and F the centered first-order
statistics. Per-frame weights w_t scale each frame's contribution by L * w_t,
so uniform weights (1/L) reproduce the unweighted statistics exactly and the
extraction equation is unchanged.

All utterances' posteriors are computed in one stacked pass: the batched
Cholesky factor L of the precision gives its log-determinant, and the
inverse of L gives the posterior mean and covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightsError, EmptyInputError, NumericsError
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
    frames = np.asarray(frames, dtype=np.float64)
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
        # a NaN weight fails the first test
        if not np.all(weights >= 0) or abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise DegenerateWeightsError("frame weights must be a simplex vector")
        post = post * (length * weights)[:, None]
    n = post.sum(axis=0)
    first = post.T @ frames - n[:, None] * gmm.means
    return SufficientStats(n, first)


def _posteriors(counts: np.ndarray, first: np.ndarray, tvm: TotalVariabilityModel):
    """Posteriors of U utterances from their (U, C) counts and (U, C*D) centered
    first-order statistics: the Cholesky factors of the precisions
    I + sum_c n_uc T_c' S_c^-1 T_c (from a (C, R, R) table), the projected
    statistics b = T' S^-1 F, the posterior means and the covariances."""
    n_comp, rank = counts.shape[1], tvm.rank
    scaled = tvm.t_matrix / tvm.sigma[:, None]
    table = (tvm.t_matrix.reshape(n_comp, -1, rank).transpose(0, 2, 1)
             @ scaled.reshape(n_comp, -1, rank))
    precision = np.eye(rank) + (counts @ table.reshape(n_comp, -1)).reshape(-1, rank, rank)
    try:
        chol = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise NumericsError(f"posterior precision not SPD: {exc}") from exc
    b = first @ scaled
    inv_chol = np.linalg.inv(chol)
    cov = inv_chol.transpose(0, 2, 1) @ inv_chol
    return chol, b, (cov @ b[:, :, None])[:, :, 0], cov


def extract_ivector(stats: SufficientStats | list[SufficientStats],
                    tvm: TotalVariabilityModel) -> np.ndarray:
    """Posterior mean of the total-variability factor for one utterance's
    statistics; a list of k statistics gives the (k, R) means of one stacked
    posterior solve."""
    group = [stats] if isinstance(stats, SufficientStats) else stats
    bad = [s.first.size for s in group if s.first.size != tvm.sigma.size]
    if bad:
        raise NumericsError(
            f"stats dim {bad[0]} does not match model dim {tvm.sigma.size}")
    phi = _posteriors(np.array([s.n for s in group]),
                      np.array([s.first.ravel() for s in group]), tvm)[2]
    return phi[0] if isinstance(stats, SufficientStats) else phi


def train_tvm(stats_list, gmm: DiagGmm, rank: int, n_iters: int,
              seed: int = 0) -> TotalVariabilityModel:
    """EM estimation of T; the UBM supplies the fixed mean and variance.

    Records the per-iteration marginal log-likelihood of the statistics
    (up to T-independent constants) in ``em_objective``.
    """
    if not stats_list:
        raise EmptyInputError("train_tvm needs the statistics of at least one utterance")
    mean = gmm.means.ravel().copy()
    sigma = gmm.variances.ravel().copy()
    n_comp, dim = gmm.n_components, gmm.dim
    rng = np.random.default_rng(seed)
    t_matrix = rng.standard_normal((mean.size, rank)) * np.sqrt(sigma)[:, None]
    tvm = TotalVariabilityModel(mean, t_matrix, sigma)
    counts = np.array([stats.n for stats in stats_list])
    first = np.array([stats.first.ravel() for stats in stats_list])

    history = []
    for _ in range(n_iters):
        chol, b, phi, cov = _posteriors(counts, first, tvm)
        # -0.5 log|precision| + 0.5 b' precision^-1 b, via the Cholesky diagonal
        history.append(float(-np.log(np.diagonal(chol, axis1=1, axis2=2)).sum()
                             + 0.5 * (b * phi).sum()))
        second_moment = cov + phi[:, :, None] * phi[:, None, :]
        acc_a = (counts.T @ second_moment.reshape(len(counts), -1)).reshape(n_comp, rank, rank)
        reg = 1e-10 * (1.0 + np.trace(acc_a, axis1=1, axis2=2) / rank)
        acc_a += reg[:, None, None] * np.eye(rank)
        acc_c = (first.T @ phi).reshape(n_comp, dim, rank)
        new_t = np.linalg.solve(acc_a, acc_c.transpose(0, 2, 1)).transpose(0, 2, 1)
        tvm = TotalVariabilityModel(mean, new_t.reshape(-1, rank), sigma)
    tvm.em_objective = np.asarray(history)
    return tvm
