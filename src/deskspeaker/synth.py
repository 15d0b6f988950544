"""Synthetic corpus generator with ground-truth voice/noise flags.

Each speaker is a small Gaussian mixture in feature space: a speaker mean
drawn from an isotropic prior scaled by ``speaker_spread``, per-speaker
unit-variance component offsets, a per-utterance channel offset, and
per-frame residual noise. Column 0 acts as log-energy and is generated
separately so voice and noise frames are energy-separable: noise frames come
from one shared low-energy distribution (no speaker information) and are
injected in bursts covering an exact, per-utterance count of frames.

Everything is deterministic in the master seed; each utterance draws from its
own spawned child stream, so generation order is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_COMPONENTS = 4
RESIDUAL_STD = 0.7
NOISE_FEATURE_STD = 0.3
VOICE_ENERGY_MEAN = 1.0
VOICE_ENERGY_STD = 0.6
NOISE_ENERGY_MEAN = -3.0
NOISE_ENERGY_STD = 0.3


@dataclass
class SynthCorpusConfig:
    n_speakers: int = 50
    utts_per_speaker: int = 10
    frames_per_utt: int = 300
    feature_dim: int = 12
    speaker_spread: float = 3.0
    channel_spread: float = 1.0
    noise_frame_fraction: float = 0.30
    noise_fraction_jitter: float = 0.0
    train_speaker_fraction: float = 0.7
    enroll_utts_per_speaker: int = 3

    def __post_init__(self):
        if not 0.0 <= self.noise_frame_fraction < 1.0:
            raise ValueError("noise_frame_fraction must lie in [0, 1)")
        if self.noise_fraction_jitter < 0:
            raise ValueError("noise_fraction_jitter must be non-negative")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be at least 2 (energy + features)")
        if self.n_speakers < 2:
            raise ValueError("need at least two speakers")
        if not 0.0 < self.train_speaker_fraction < 1.0:
            raise ValueError("train_speaker_fraction must lie in (0, 1)")
        if self.frames_per_utt < 1:
            raise ValueError("frames_per_utt must be at least 1")
        if self.enroll_utts_per_speaker < 1:
            raise ValueError("enroll_utts_per_speaker must be at least 1: "
                             "the enroll partition would be empty")
        if self.utts_per_speaker <= self.enroll_utts_per_speaker:
            raise ValueError("evaluation speakers need utterances left over for test")


@dataclass
class SynthCorpus:
    utt_ids: list[str]
    speakers: list[str]
    features: list[np.ndarray]  # (frames_per_utt, feature_dim) float64
    voice: list[np.ndarray]   # bool per frame, True = voice
    partition: list[str]      # "train" | "enroll" | "test"

    def indices(self, part: str) -> list[int]:
        return [i for i, p in enumerate(self.partition) if p == part]

    def __len__(self) -> int:
        return len(self.utt_ids)


def _noise_mask(length: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Bursty boolean mask with exactly ``count`` True entries."""
    mask = np.zeros(length, dtype=bool)
    remaining = count
    attempts = 0
    while remaining > 0 and attempts < 200:
        seg = int(min(remaining, rng.integers(8, 24)))
        start = int(rng.integers(0, length - seg + 1))
        if not mask[start:start + seg].any():
            mask[start:start + seg] = True
            remaining -= seg
        attempts += 1
    if remaining > 0:  # fall back to first free slots, keeping the count exact
        free = np.flatnonzero(~mask)
        mask[free[:remaining]] = True
    return mask


def generate_corpus(cfg: SynthCorpusConfig, seed: int) -> SynthCorpus:
    root = np.random.SeedSequence(seed)
    master = np.random.default_rng(root.spawn(1)[0])
    dim = cfg.feature_dim
    fdim = dim - 1  # non-energy feature dims

    speaker_means = master.standard_normal((cfg.n_speakers, fdim)) * cfg.speaker_spread
    component_offsets = master.standard_normal((cfg.n_speakers, N_COMPONENTS, fdim))

    n_train_speakers = int(round(cfg.train_speaker_fraction * cfg.n_speakers))
    n_train_speakers = min(max(n_train_speakers, 1), cfg.n_speakers - 1)

    n_utts = cfg.n_speakers * cfg.utts_per_speaker
    child_seeds = root.spawn(n_utts)
    length = cfg.frames_per_utt

    utt_ids, speakers, features, voice, partition = [], [], [], [], []
    u = 0
    for s in range(cfg.n_speakers):
        spk = f"spk{s:03d}"
        # A speaker's utterances are views of one block, so dropping the
        # corpus returns its memory rather than leaving thousands of freed
        # utterance-sized holes in the heap behind it. One block per speaker,
        # not per corpus: freeing a multi-MB block would raise glibc's mmap
        # and trim thresholds, and later stages' freed memory would stay.
        block = np.empty((cfg.utts_per_speaker, length, dim))
        for j in range(cfg.utts_per_speaker):
            rng = np.random.default_rng(child_seeds[u])
            frames = block[j]
            u += 1
            fraction = cfg.noise_frame_fraction
            if cfg.noise_fraction_jitter > 0:
                fraction = float(np.clip(
                    fraction + rng.uniform(-cfg.noise_fraction_jitter,
                                           cfg.noise_fraction_jitter),
                    0.0, 0.9))
            n_noise = int(round(fraction * length))
            noise = _noise_mask(length, n_noise, rng)

            channel = rng.standard_normal(fdim) * cfg.channel_spread
            comps = rng.integers(0, N_COMPONENTS, size=length)
            identity = speaker_means[s] + component_offsets[s][comps]
            body = (identity + channel
                    + rng.standard_normal((length, fdim)) * RESIDUAL_STD)
            frames[:, 1:] = body
            frames[:, 0] = (VOICE_ENERGY_MEAN
                            + rng.standard_normal(length) * VOICE_ENERGY_STD)
            if n_noise:
                frames[noise, 1:] = rng.standard_normal(
                    (n_noise, fdim)) * NOISE_FEATURE_STD
                frames[noise, 0] = (NOISE_ENERGY_MEAN
                                    + rng.standard_normal(n_noise) * NOISE_ENERGY_STD)

            utt_id = f"{spk}_u{j:02d}"
            utt_ids.append(utt_id)
            speakers.append(spk)
            features.append(frames)
            voice.append(~noise)
            if s < n_train_speakers:
                partition.append("train")
            elif j < cfg.enroll_utts_per_speaker:
                partition.append("enroll")
            else:
                partition.append("test")

    return SynthCorpus(utt_ids, speakers, features, voice, partition)
