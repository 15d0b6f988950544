"""Frame-level front end: deltas, sliding CMN, energy VAD, and logistic
soft-VAD posteriors, applied to acoustic frame sequences.

Conventions
-----------
* Frames are rows; one column (0 by default, configurable via
  ``energy_col``) carries the log frame energy that the VADs threshold.
* The VAD threshold is corpus-relative: mean log-energy of the utterance
  plus a configured offset. An absolute override exists for testing and for
  external calibration.
* Soft-VAD posteriors are a logistic squashing of the same log-energy,
  smoothed with a small moving average; they stand in for an external
  posterior stream, which can be supplied instead via VPS1 files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllSilenceError, EmptyInputError
from .fileio import AcousticFrameSequence


@dataclass
class VadConfig:
    energy_col: int = 0
    offset: float = 0.0  # threshold = mean(log-energy) + offset
    threshold: float | None = None  # absolute override


@dataclass
class SoftVadConfig:
    energy_col: int = 0
    slope: float = 2.0
    offset: float = 0.0
    threshold: float | None = None
    smooth_radius: int = 2


def append_deltas(seq: AcousticFrameSequence, radius: int = 2) -> AcousticFrameSequence:
    """Append delta and delta-delta blocks (output dim = 3 * input dim).

    Standard regression deltas with edge replication:
        d_t = sum_n n * (x[t+n] - x[t-n]) / (2 * sum_n n^2).
    """
    x = seq.frames
    length = x.shape[0]
    denom = 2.0 * sum(n * n for n in range(1, radius + 1))

    def _regress(block):
        out = np.zeros_like(block)
        for n in range(1, radius + 1):
            fwd = np.clip(np.arange(length) + n, 0, length - 1)
            back = np.clip(np.arange(length) - n, 0, length - 1)
            out += n * (block[fwd] - block[back])
        return out / denom

    d = _regress(x)
    dd = _regress(d)
    return AcousticFrameSequence(np.hstack([x, d, dd]), seq.frame_period)


def sliding_cmn(seq: AcousticFrameSequence, window_s: float = 3.0) -> AcousticFrameSequence:
    """Sliding cepstral mean normalization.

    Each frame gets the mean of a centered window subtracted. Near the edges
    the window slides inward so every frame is normalized over min(W, L)
    frames; with window >= utterance length this is exactly global mean
    subtraction (and therefore idempotent).
    """
    x = seq.frames
    length = x.shape[0]
    w = max(1, int(round(window_s / seq.frame_period)))
    if w >= length:
        return AcousticFrameSequence(x - x.mean(axis=0, keepdims=True),
                                     seq.frame_period)
    starts = np.clip(np.arange(length) - w // 2, 0, length - w)
    csum = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    means = (csum[starts + w] - csum[starts]) / w
    return AcousticFrameSequence(x - means, seq.frame_period)


def _log_energy_column(seq: AcousticFrameSequence, col: int) -> np.ndarray:
    if not 0 <= col < seq.dim:
        raise EmptyInputError(f"energy column {col} out of range for dim {seq.dim}")
    return seq.frames[:, col]


def energy_vad(seq: AcousticFrameSequence, cfg: VadConfig | None = None) -> np.ndarray:
    """Boolean voice mask: keep frames whose log energy exceeds the threshold.

    Threshold is mean log-energy + cfg.offset unless cfg.threshold overrides
    it. Raises AllSilenceError if nothing survives.
    """
    cfg = cfg or VadConfig()
    energy = _log_energy_column(seq, cfg.energy_col)
    threshold = cfg.threshold if cfg.threshold is not None else energy.mean() + cfg.offset
    mask = energy > threshold
    if not mask.any():
        raise AllSilenceError(
            f"energy VAD kept 0 of {len(seq)} frames (threshold {threshold:.3f})")
    return mask


def _moving_average(x: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0:
        return x
    length = x.size
    csum = np.concatenate([[0.0], np.cumsum(x)])
    lo = np.clip(np.arange(length) - radius, 0, length)
    hi = np.clip(np.arange(length) + radius + 1, 0, length)
    return (csum[hi] - csum[lo]) / (hi - lo)


def soft_vad_posteriors(seq: AcousticFrameSequence, cfg: SoftVadConfig | None = None) -> np.ndarray:
    """Per-frame voice posteriors from a logistic on log energy.

    q_t = logistic(slope * (log_energy_t - threshold)), then smoothed with a
    truncated moving average of the configured radius. A stand-in for a
    trained posterior stream; external posteriors can replace it via VPS1.
    """
    cfg = cfg or SoftVadConfig()
    energy = _log_energy_column(seq, cfg.energy_col)
    threshold = cfg.threshold if cfg.threshold is not None else energy.mean() + cfg.offset
    z = cfg.slope * (energy - threshold)
    q = np.empty_like(z)
    pos = z >= 0
    q[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    q[~pos] = expz / (1.0 + expz)
    return _moving_average(q, cfg.smooth_radius)
