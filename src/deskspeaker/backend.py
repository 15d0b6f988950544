"""Scoring backend: ZCA whitening + length normalization, then a simplified
PLDA (single Gaussian, low-rank speaker subspace, full within-class
covariance) scored as a two-sided log-likelihood ratio.

Model for a preprocessed vector v of speaker s:

    v = mu + V y_s + eps,   y_s ~ N(0, I_S),  eps ~ N(0, Lambda)

llr(e, t) = log p(e, t | same speaker) - log p(e, t | different speakers),
which is symmetric in its arguments by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, NumericsError
from .fileio import (read_plda, read_preprocessor, write_plda,
                     write_preprocessor)

EIG_FLOOR_FRAC = 1e-8
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class Preprocessor:
    mean: np.ndarray      # (E,)
    whitener: np.ndarray  # (E, E), symmetric ZCA transform

    def save(self, path):
        write_preprocessor(path, self.mean, self.whitener)

    @classmethod
    def load(cls, path) -> "Preprocessor":
        return cls(*read_preprocessor(path))


def fit_preprocessor(vectors: np.ndarray) -> Preprocessor:
    """Mean + symmetric (ZCA) whitener from training vectors.

    Eigenvalues of the sample covariance are floored at a small fraction of
    trace/E so rank-deficient training sets stay invertible.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise EmptyInputError("need at least two vectors to fit a preprocessor")
    mean = vectors.mean(axis=0)
    centered = vectors - mean
    cov = centered.T @ centered / vectors.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    floor = EIG_FLOOR_FRAC * np.trace(cov) / cov.shape[0]
    evals = np.maximum(evals, max(floor, 1e-300))
    whitener = (evecs * (1.0 / np.sqrt(evals))) @ evecs.T
    return Preprocessor(mean, whitener)


def apply_preprocess(vectors: np.ndarray, prep: Preprocessor) -> np.ndarray:
    """Whiten and project to the unit sphere. Accepts (E,) or (N, E)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    single = vectors.ndim == 1
    x = (np.atleast_2d(vectors) - prep.mean) @ prep.whitener.T
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms < 1e-12):
        raise NumericsError("cannot length-normalize a zero vector")
    x = x / norms[:, None]
    return x[0] if single else x


@dataclass
class PldaModel:
    mean: np.ndarray             # (E,)
    speaker_subspace: np.ndarray  # (E, S)
    within_cov: np.ndarray       # (E, E)
    em_loglik: np.ndarray | None = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def save(self, path):
        write_plda(path, self.mean, self.speaker_subspace, self.within_cov)

    @classmethod
    def load(cls, path) -> "PldaModel":
        return cls(*read_plda(path))


def _speaker_groups(labels):
    groups: dict = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())


def train_plda(vectors: np.ndarray, labels, subspace_dim: int,
               n_iters: int, seed: int = 0) -> PldaModel:
    """EM for the speaker subspace and within-class covariance.

    Initialization is deterministic (between-class scatter eigenvectors);
    the seed only matters if the scatter is rank-deficient, where tiny seeded
    jitter breaks ties. ``em_loglik[k]`` is the marginal log-likelihood of
    the training vectors under the model after k iterations.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n_total, dim = vectors.shape
    if subspace_dim > dim:
        raise ValueError(f"speaker subspace {subspace_dim} exceeds vector dim {dim}")
    mean = vectors.mean(axis=0)
    centered = vectors - mean
    groups = _speaker_groups(labels)

    sums = np.array([centered[idx].sum(axis=0) for idx in groups])
    counts = np.array([len(idx) for idx in groups], dtype=np.float64)
    total_scatter = centered.T @ centered

    class_means = sums / counts[:, None]
    between = (class_means.T * counts) @ class_means / n_total
    within = (total_scatter - (class_means.T * counts) @ class_means) / n_total
    within += np.eye(dim) * (1e-6 * np.trace(within) / dim + 1e-12)

    evals, evecs = np.linalg.eigh(between)
    order = np.argsort(evals)[::-1][:subspace_dim]
    init_scale = np.sqrt(np.maximum(evals[order], 1e-8))
    subspace = evecs[:, order] * init_scale
    if subspace_dim and np.allclose(subspace, 0):
        subspace = np.random.default_rng(seed).standard_normal((dim, subspace_dim)) * 1e-3

    history = []
    for _ in range(n_iters):
        # y_s | vectors ~ N(P_s^-1 g_s, P_s^-1), P_s = I + n_s V' Lambda^-1 V,
        # g_s = V' Lambda^-1 (sum of speaker s's centered vectors)
        within_inv = np.linalg.inv(within)
        _, logdet_w = np.linalg.slogdet(within)
        quad_total = float((centered @ within_inv * centered).sum())
        proj_v = within_inv @ subspace
        precision = np.eye(subspace_dim) + counts[:, None, None] * (subspace.T @ proj_v)
        post_cov = np.linalg.inv(precision)
        g = sums @ proj_v
        ey = (post_cov @ g[:, :, None])[:, :, 0]
        _, logdet_p = np.linalg.slogdet(precision)
        history.append(float(-0.5 * (n_total * (dim * _LOG_2PI + logdet_w) + quad_total)
                             - 0.5 * logdet_p.sum() + 0.5 * (g * ey).sum()))
        if subspace_dim == 0:
            within = total_scatter / n_total
            continue
        r_yy = np.tensordot(counts, post_cov + ey[:, :, None] * ey[:, None, :], axes=1)
        r_vy = sums.T @ ey
        subspace = np.linalg.solve(r_yy.T, r_vy.T).T
        within = (total_scatter - subspace @ r_vy.T - r_vy @ subspace.T
                  + subspace @ r_yy @ subspace.T) / n_total
        within = 0.5 * (within + within.T)
        within += np.eye(dim) * 1e-12

    model = PldaModel(mean, subspace, within)
    model.em_loglik = np.asarray(history)
    return model


def _scoring_terms(plda: PldaModel):
    dim = plda.dim
    between = plda.speaker_subspace @ plda.speaker_subspace.T
    total = between + plda.within_cov
    joint_same = np.block([[total, between], [between, total]])
    joint_diff = np.block([[total, np.zeros_like(total)],
                           [np.zeros_like(total), total]])
    same_inv = np.linalg.inv(joint_same)
    total_inv = np.linalg.inv(total)
    quad = same_inv[:dim, :dim] - total_inv
    cross = same_inv[:dim, dim:]
    _, logdet_same = np.linalg.slogdet(joint_same)
    _, logdet_total = np.linalg.slogdet(total)
    const = -0.5 * (logdet_same - 2.0 * logdet_total)
    return quad, cross, const


def plda_score_matrix(enroll: np.ndarray, test: np.ndarray, plda: PldaModel) -> np.ndarray:
    """Log-likelihood-ratio scores for every enroll x test pair."""
    enroll = np.atleast_2d(np.asarray(enroll, dtype=np.float64)) - plda.mean
    test = np.atleast_2d(np.asarray(test, dtype=np.float64)) - plda.mean
    quad, cross, const = _scoring_terms(plda)
    qe = (enroll @ quad * enroll).sum(axis=1)
    qt = (test @ quad * test).sum(axis=1)
    return -0.5 * qe[:, None] - 0.5 * qt[None, :] - enroll @ cross @ test.T + const


def plda_score(enroll_vec: np.ndarray, test_vec: np.ndarray, plda: PldaModel) -> float:
    """Symmetric two-sided LLR for one trial."""
    return float(plda_score_matrix(enroll_vec, test_vec, plda)[0, 0])
