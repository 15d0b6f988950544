"""Frame-level front end: logistic soft-VAD posteriors over acoustic frame
matrices.

Conventions
-----------
* Frames are rows; column 0 carries the log frame energy.
* The threshold is corpus-relative: mean log-energy of the utterance plus a
  fixed offset.
* Soft-VAD posteriors are a logistic squashing of that log-energy, smoothed
  with a small moving average; they stand in for an external posterior
  stream, which can be supplied instead via VPS1 files.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError


def _moving_average(x: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0:
        return x
    length = x.size
    csum = np.concatenate([[0.0], np.cumsum(x)])
    lo = np.clip(np.arange(length) - radius, 0, length)
    hi = np.clip(np.arange(length) + radius + 1, 0, length)
    return (csum[hi] - csum[lo]) / (hi - lo)


def soft_vad_posteriors(frames: np.ndarray, slope: float = 2.0, offset: float = -0.5,
                        smooth_radius: int = 2) -> np.ndarray:
    """Per-frame voice posteriors from a logistic on log energy.

    q_t = logistic(slope * (log_energy_t - mean(log_energy) - offset)), then
    smoothed with a truncated moving average of radius ``smooth_radius``. A
    stand-in for a trained posterior stream; external posteriors can replace
    it via VPS1.
    """
    if frames.ndim != 2 or frames.shape[1] < 1:
        raise EmptyInputError("frames carry no log-energy column")
    energy = frames[:, 0]
    z = slope * (energy - (energy.mean() + offset))
    q = np.empty_like(z)
    pos = z >= 0
    q[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    q[~pos] = expz / (1.0 + expz)
    return _moving_average(q, smooth_radius)
