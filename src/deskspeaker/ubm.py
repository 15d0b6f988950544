"""Diagonal-covariance GMM background model trained with EM.

Initialization is k-means++ followed by a few Lloyd iterations; EM then runs
with per-dimension variance flooring at a small fraction of the global data
variance. The per-iteration total log-likelihood is recorded on the returned
model so monotonicity is checkable. Every training pass runs over fixed blocks
of BLOCK_FRAMES frames in order, so no (frames x components) array is built;
each block is worked component-major, as (components x block) arrays, so the
reductions over the components are passes over contiguous rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError
from .fileio import read_gmm, write_gmm

VAR_FLOOR_FRAC = 1e-6
BLOCK_FRAMES = 4096
LLOYD_ITERS = 5  # Lloyd updates between the k-means++ seeds and EM
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class DiagGmm:
    weights: np.ndarray    # (C,)
    means: np.ndarray      # (C, D)
    variances: np.ndarray  # (C, D)
    em_loglik: np.ndarray | None = field(default=None, compare=False)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def save(self, path):
        write_gmm(path, self.weights, self.means, self.variances)

    @classmethod
    def load(cls, path) -> "DiagGmm":
        return cls(*read_gmm(path))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) in SciPy's form: the row maxima (all of them,
    when tied) are split out and the other terms enter through log1p."""
    top = a.max(axis=1, keepdims=True)
    tied = a == top
    count = tied.sum(axis=1, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(tied, -np.inf, a) - top).sum(axis=1, keepdims=True)
    return (np.log1p(rest / count) + np.log(count) + top)[:, 0]


def _density_terms(gmm: DiagGmm):
    """The per-model terms of log w_c N(x; mu_c, diag(var_c)) =
    quad_c . x**2 + lin_c . x + const_c + log w_c."""
    inv = 1.0 / gmm.variances
    const = -0.5 * (gmm.dim * _LOG_2PI + np.log(gmm.variances).sum(axis=1)
                    + (gmm.means ** 2 * inv).sum(axis=1))
    return -0.5 * inv, gmm.means * inv, const, np.log(gmm.weights)


def _log_joint(frames: np.ndarray, gmm: DiagGmm) -> np.ndarray:
    """Per-frame, per-component log w_c N(x; mu_c, diag(var_c)). Shape (N, C)."""
    quad, lin, const, log_w = _density_terms(gmm)
    return frames ** 2 @ quad.T + frames @ lin.T + const + log_w


def gmm_posteriors(frames: np.ndarray, gmm: DiagGmm) -> np.ndarray:
    """Component posteriors p(c | x_t). Accepts one frame (D,) or a batch (N, D)."""
    frames = np.asarray(frames, dtype=np.float64)
    single = frames.ndim == 1
    lj = _log_joint(np.atleast_2d(frames), gmm)
    post = np.exp(lj - _logsumexp(lj)[:, None])
    return post[0] if single else post


def gmm_loglik(frames: np.ndarray, gmm: DiagGmm) -> float:
    """Total log-likelihood of a frame batch under the mixture."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    return float(_logsumexp(_log_joint(frames, gmm)).sum())


def _blocks(n: int) -> list[slice]:
    return [slice(i, min(i + BLOCK_FRAMES, n)) for i in range(0, n, BLOCK_FRAMES)]


def _direct_nearest(frames: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """argmin over the centers of ((f - c) ** 2).sum(), the first one on ties."""
    return np.stack([((frames - c) ** 2).sum(axis=1) for c in centers],
                    axis=1).argmin(axis=1)


def _nearest(frames: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each frame's nearest center, the first one on ties: the same
    index as _direct_nearest, found with one GEMM per block."""
    dim = frames.shape[1]
    sq_norms = (centers ** 2).sum(axis=1)
    max_norm = np.sqrt(sq_norms.max())
    assign = np.empty(frames.shape[0], dtype=np.intp)
    for s in _blocks(frames.shape[0]):
        block = frames[s]
        # ||f - c||^2 - ||f||^2 for every (center, frame), component-major.
        dist = sq_norms[:, None] - 2.0 * (centers @ block.T)
        best = dist.min(axis=0)
        # With unit roundoff u = eps / 2, the direct form is off from
        # ||f - c||^2 by at most (D + 2) u ||f - c||^2 (difference, square,
        # D-term sum) and this form by at most (D + 1) u (||c||^2 + 2 ||c|| ||f||)
        # (the dot products and norms, then the subtraction); both are under
        # (D + 2) u (||f|| + ||c||)^2. A frame whose second-best value trails
        # its best by more than twice their sum, (4 D + 8) u (||f|| + max ||c||)^2,
        # has the same unique argmin in both forms. The slack is over twice
        # that; the frames within it are recomputed in the direct form.
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        slack = 4 * (dim + 3) * np.finfo(np.float64).eps * (norms + max_norm) ** 2
        assign[s] = dist.argmin(axis=0)
        close = np.flatnonzero((dist <= best + slack).sum(axis=0) > 1)
        if close.size:
            assign[s][close] = _direct_nearest(block[close], centers)
    return assign


def _kmeans_pp(frames: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = frames.shape[0]
    centers = [frames[rng.integers(n)]]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        for s in _blocks(n):
            np.minimum(d2[s], ((frames[s] - centers[-1]) ** 2).sum(axis=1), out=d2[s])
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers.append(frames[rng.choice(n, p=probs)])
    return np.array(centers)


def train_gmm(frames: np.ndarray, n_components: int, n_iters: int,
              seed: int = 0) -> DiagGmm:
    """EM training from a k-means++ start. Returns the model with its
    per-iteration total log-likelihood in ``em_loglik``."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < n_components:
        raise EmptyInputError(
            f"need at least {n_components} frames, got {frames.shape}")
    rng = np.random.default_rng(seed)
    n, dim = frames.shape
    global_var = frames.var(axis=0)
    floor = np.maximum(VAR_FLOOR_FRAC * global_var, 1e-12)

    centers = _kmeans_pp(frames, n_components, rng)
    for _ in range(LLOYD_ITERS):
        assign = _nearest(frames, centers)
        for c in range(n_components):
            sel = assign == c
            if sel.any():
                centers[c] = frames[sel].mean(axis=0)

    weights = np.zeros(n_components)
    means = centers.copy()
    variances = np.empty((n_components, dim))
    assign = _nearest(frames, centers)
    for c in range(n_components):
        sel = assign == c
        weights[c] = max(sel.sum(), 1.0)
        variances[c] = np.maximum(frames[sel].var(axis=0) if sel.any()
                                  else global_var, floor)
    weights /= weights.sum()
    gmm = DiagGmm(weights, means, variances)

    history = []
    for _ in range(n_iters):
        loglik, counts = 0.0, np.zeros(n_components)
        first, second = np.zeros((2, n_components, dim))
        quad, lin, const, log_w = _density_terms(gmm)
        offset = (const + log_w)[:, None]
        for s in _blocks(n):  # E-step sums, in a fixed block order
            block = frames[s]
            squares = block ** 2
            # (C, block) log-joint, turned into the posteriors in place
            post = quad @ squares.T + lin @ block.T + offset
            top = post.max(axis=0)
            post -= top
            np.exp(post, out=post)
            total = post.sum(axis=0)
            loglik += (np.log(total) + top).sum()
            post /= total
            counts += post.sum(axis=1)
            first += post @ block
            second += post @ squares
        history.append(float(loglik))
        occupied = counts > 1e-10
        new_means = gmm.means.copy()
        new_vars = gmm.variances.copy()
        new_means[occupied] = first[occupied] / counts[occupied, None]
        new_vars[occupied] = np.maximum(
            second[occupied] / counts[occupied, None] - new_means[occupied] ** 2,
            floor)
        new_weights = np.maximum(counts / n, 1e-12)  # keep dead components loggable
        gmm = DiagGmm(new_weights / new_weights.sum(), new_means, new_vars)
    gmm.em_loglik = np.asarray(history)
    return gmm
