"""Frame-weighting and pooling primitives.

The attention path scores each frame of a hidden sequence h (L x D_h):

    e_t = v' f(W h_t + b) + k        f = ReLU then running-stats norm
    alpha = softmax(e)               (max-subtracted, overflow-safe)

and the pooled segment statistics are the alpha-weighted mean and standard
deviation. Uniform alpha recovers plain mean/std pooling through the same
code path, so the two agree exactly rather than to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateWeightsError, NumericsError

# Variance offset inside the normalization layers. Deliberately large-ish:
# it bounds the gain on nearly-silent ReLU units (var ~ 0), which running
# statistics would otherwise turn into huge multipliers between updates.
BN_EPS = 1e-3
_NEG_RADICAND_TOL = 1e-9
_WEIGHT_SUM_TOL = 1e-6


@dataclass
class BatchNorm:
    """Per-feature running-statistics normalization (affine w.r.t. its input)."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> "BatchNorm":
        return cls(np.ones(dim), np.zeros(dim), np.zeros(dim), np.ones(dim))

    def scale(self) -> np.ndarray:
        return 1.0 / np.sqrt(self.running_var + BN_EPS)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return (r - self.running_mean) * (self.gamma * self.scale()) + self.beta


@dataclass
class AttentionParams:
    weight: np.ndarray  # (d_a, D_h)
    bias: np.ndarray    # (d_a,)
    v: np.ndarray       # (d_a,)
    k: float
    norm: BatchNorm     # over the d_a hidden units


@dataclass
class PooledStats:
    """Weighted first/second-order segment statistics."""

    mean: np.ndarray
    std: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.mean, self.std], axis=-1)


def _block_forward(x: np.ndarray, layer, norm: BatchNorm):
    """One Linear -> ReLU -> norm block over the rows of x.

    layer has .weight (out, in) and .bias; returns the pre-ReLU, post-ReLU
    and normalized arrays, each (rows, out).
    """
    z = x @ layer.weight.T + layer.bias
    r = np.maximum(z, 0.0)
    return z, r, norm.apply(r)


def attention_scores(h: np.ndarray, params: AttentionParams,
                     cache: dict | None = None) -> np.ndarray:
    """Scalar relevance score per frame.

    cache, when given, receives the head's intermediates for the backward
    pass: za (pre-ReLU), ra (post-ReLU) and ua (normalized).
    """
    za, ra, ua = _block_forward(np.asarray(h, dtype=np.float64), params, params.norm)
    if cache is not None:
        cache.update(za=za, ra=ra, ua=ua)
    return ua @ params.v + params.k


def attention_weights(scores: np.ndarray) -> np.ndarray:
    """Softmax over frames, stabilized by max subtraction."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size < 1:
        raise DegenerateWeightsError("scores must be a non-empty 1-D array")
    ex = np.exp(scores - scores.max())
    return ex / ex.sum()


def _check_weights(h: np.ndarray, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim not in (1, 2) or weights.shape[-1] != h.shape[0]:
        raise DegenerateWeightsError(
            f"got {weights.shape[0] if weights.ndim == 1 else weights.shape} weights "
            f"for {h.shape[0]} frames")
    if not np.all(weights >= 0):  # NaN fails too
        raise DegenerateWeightsError("frame weights must be non-negative")
    sums = weights.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if np.any(off > _WEIGHT_SUM_TOL):
        raise DegenerateWeightsError(
            f"frame weights sum to {sums.flat[np.argmax(off)]!r}, not 1")
    return weights


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a vector a, or for each row of a matrix a through one
    matrix-vector product per row. BLAS rounds the rows of a matrix product
    differently from a lone row's, so this keeps stacked rows equal to
    one-row calls bit for bit."""
    return a @ b if a.ndim == 1 else np.matmul(a[:, None, :], b)[:, 0]


def pool_weighted_stats(h: np.ndarray, weights: np.ndarray,
                        cache: dict | None = None) -> PooledStats:
    """Weighted mean and weighted standard deviation over frames.

    std_j = sqrt(sum_t w_t h_tj^2 - mean_j^2); tiny negative radicands from
    rounding are clamped to zero, anything worse is an internal error.
    weights is one (L,) vector, or a (k, L) matrix of k weight rows pooled
    from one h*h, which gives (k, D) statistics equal to k one-row calls.
    cache, when given, receives the radicand for the backward pass.
    """
    h = np.asarray(h, dtype=np.float64)
    weights = _check_weights(h, weights)
    mean = _row_products(weights, h)
    second = _row_products(weights, h * h)
    radicand = second - mean * mean
    worst = radicand.min() if radicand.size else 0.0
    if worst < -_NEG_RADICAND_TOL:
        raise NumericsError(f"variance radicand {worst:.3e} is negative beyond rounding")
    if cache is not None:
        cache["radicand"] = radicand
    return PooledStats(mean, np.sqrt(np.maximum(radicand, 0.0)))


def pool_stats(h: np.ndarray) -> PooledStats:
    """Unweighted mean/std pooling (uniform weights through the shared kernel)."""
    h = np.asarray(h, dtype=np.float64)
    length = h.shape[0]
    if length < 1:
        raise DegenerateWeightsError("cannot pool an empty sequence")
    return pool_weighted_stats(h, np.full(length, 1.0 / length))


def combine_weights(alpha: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Fuse attention weights with voice posteriors: renormalized alpha * q."""
    alpha = np.asarray(alpha, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if alpha.shape != q.shape:
        raise DegenerateWeightsError(
            f"weight/posterior length mismatch: {alpha.shape} vs {q.shape}")
    prod = alpha * q
    total = prod.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeightsError("alpha * q has zero total mass")
    return prod / total
