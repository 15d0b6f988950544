"""Synthetic corpus tests: determinism, ground truth, partition structure."""

import numpy as np
import pytest

from deskspeaker.synth import SynthCorpus, SynthCorpusConfig, generate_corpus


def _small_cfg(**over):
    base = dict(n_speakers=6, utts_per_speaker=5, frames_per_utt=80,
                feature_dim=6)
    base.update(over)
    return SynthCorpusConfig(**base)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_corpus(_small_cfg(), seed=3)
        b = generate_corpus(_small_cfg(), seed=3)
        assert a.utt_ids == b.utt_ids
        assert a.partition == b.partition
        for fa, fb in zip(a.features, b.features):
            np.testing.assert_array_equal(fa, fb)
        for va, vb in zip(a.voice, b.voice):
            np.testing.assert_array_equal(va, vb)

    def test_different_seed_differs(self):
        a = generate_corpus(_small_cfg(), seed=3)
        b = generate_corpus(_small_cfg(), seed=4)
        assert not np.array_equal(a.features[0], b.features[0])


class TestGroundTruth:
    def test_exact_noise_count_without_jitter(self):
        cfg = _small_cfg(noise_frame_fraction=0.30)
        corpus = generate_corpus(cfg, seed=3)
        expected = round(0.30 * cfg.frames_per_utt)
        for flags in corpus.voice:
            assert int((~flags).sum()) == expected

    def test_zero_fraction_means_all_voice(self):
        corpus = generate_corpus(_small_cfg(noise_frame_fraction=0.0), seed=3)
        for flags in corpus.voice:
            assert flags.all()

    def test_jitter_varies_noise_counts(self):
        corpus = generate_corpus(_small_cfg(noise_frame_fraction=0.3,
                                            noise_fraction_jitter=0.2), seed=3)
        counts = {int((~flags).sum()) for flags in corpus.voice}
        assert len(counts) > 3

    def test_higher_fraction_flags_more_frames(self):
        lo = generate_corpus(_small_cfg(noise_frame_fraction=0.1), seed=3)
        hi = generate_corpus(_small_cfg(noise_frame_fraction=0.4), seed=3)
        lo_count = sum(int((~f).sum()) for f in lo.voice)
        hi_count = sum(int((~f).sum()) for f in hi.voice)
        assert hi_count > lo_count

    def test_energy_separates_voice_from_noise(self):
        corpus = generate_corpus(_small_cfg(noise_frame_fraction=0.3), seed=3)
        voice_e = np.concatenate([f[v, 0]
                                  for f, v in zip(corpus.features, corpus.voice)])
        noise_e = np.concatenate([f[~v, 0]
                                  for f, v in zip(corpus.features, corpus.voice)])
        assert voice_e.mean() - noise_e.mean() > 3.0
        # a fixed midpoint threshold recovers the flags almost everywhere
        errors = 0
        for feats, flags in zip(corpus.features, corpus.voice):
            errors += int(((feats[:, 0] > -1.0) != flags).sum())
        assert errors / sum(len(f) for f in corpus.voice) < 0.01

    def test_noise_frames_carry_no_speaker_offset(self):
        # pool noise frames from every speaker; their non-energy features
        # follow one shared small-spread distribution
        corpus = generate_corpus(_small_cfg(noise_frame_fraction=0.4,
                                            speaker_spread=6.0), seed=3)
        noise_rows = np.concatenate([f[~v, 1:]
                                     for f, v in zip(corpus.features, corpus.voice)])
        assert np.abs(noise_rows.mean(axis=0)).max() < 0.1
        assert noise_rows.std() < 0.5

    def test_noise_bursts_are_contiguous_runs(self):
        corpus = generate_corpus(_small_cfg(frames_per_utt=200,
                                            noise_frame_fraction=0.25), seed=3)
        run_lengths = []
        for flags in corpus.voice:
            noise = ~flags
            edges = np.flatnonzero(np.diff(noise.astype(int)))
            starts = [0] + (edges + 1).tolist()
            ends = (edges + 1).tolist() + [noise.size]
            run_lengths.extend(e - s for s, e in zip(starts, ends)
                               if noise[s])
        assert np.mean(run_lengths) > 4.0


class TestPartition:
    def test_speaker_disjoint(self):
        corpus = generate_corpus(_small_cfg(), seed=3)
        train_spk = {corpus.speakers[i] for i in corpus.indices("train")}
        eval_spk = {corpus.speakers[i]
                    for i in corpus.indices("enroll") + corpus.indices("test")}
        assert train_spk and eval_spk
        assert not train_spk & eval_spk

    def test_every_eval_speaker_has_enrollment(self):
        corpus = generate_corpus(_small_cfg(), seed=3)
        enroll_spk = {corpus.speakers[i] for i in corpus.indices("enroll")}
        test_spk = {corpus.speakers[i] for i in corpus.indices("test")}
        assert test_spk == enroll_spk

    def test_enroll_count_per_speaker(self):
        cfg = _small_cfg(enroll_utts_per_speaker=2)
        corpus = generate_corpus(cfg, seed=3)
        enroll = corpus.indices("enroll")
        per = {}
        for i in enroll:
            per[corpus.speakers[i]] = per.get(corpus.speakers[i], 0) + 1
        assert set(per.values()) == {2}

    def test_train_fraction_rounding(self):
        corpus = generate_corpus(_small_cfg(train_speaker_fraction=0.7), seed=3)
        train_spk = {corpus.speakers[i] for i in corpus.indices("train")}
        assert len(train_spk) == round(0.7 * 6)

    def test_ids_unique_and_lengths_consistent(self):
        cfg = _small_cfg()
        corpus = generate_corpus(cfg, seed=3)
        assert len(set(corpus.utt_ids)) == len(corpus) == 30
        for feats, flags in zip(corpus.features, corpus.voice):
            assert feats.shape == (cfg.frames_per_utt, cfg.feature_dim)
            assert feats.dtype == np.float64
            assert flags.shape == (cfg.frames_per_utt,)


class TestSeparability:
    def test_nearest_class_mean_on_utterance_means(self):
        cfg = SynthCorpusConfig(n_speakers=20, utts_per_speaker=6,
                                frames_per_utt=120, feature_dim=8,
                                speaker_spread=5.0, channel_spread=0.5,
                                noise_frame_fraction=0.0)
        corpus = generate_corpus(cfg, seed=11)
        means = np.array([f[:, 1:].mean(axis=0) for f in corpus.features])
        labels = np.array(corpus.speakers)
        spks = sorted(set(labels))
        centroids = np.array([means[labels == s].mean(axis=0) for s in spks])
        d2 = ((means[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        predicted = np.array(spks)[d2.argmin(axis=1)]
        assert (predicted == labels).mean() >= 0.95


class TestValidation:
    def test_bad_noise_fraction(self):
        with pytest.raises(ValueError):
            _small_cfg(noise_frame_fraction=1.0)
        with pytest.raises(ValueError):
            _small_cfg(noise_frame_fraction=-0.1)

    def test_bad_jitter(self):
        with pytest.raises(ValueError):
            _small_cfg(noise_fraction_jitter=-0.2)

    def test_feature_dim_needs_energy_column(self):
        with pytest.raises(ValueError):
            _small_cfg(feature_dim=1)

    def test_needs_two_speakers(self):
        with pytest.raises(ValueError):
            _small_cfg(n_speakers=1)

    def test_train_fraction_range(self):
        with pytest.raises(ValueError):
            _small_cfg(train_speaker_fraction=1.0)

    def test_enroll_must_leave_test_utterances(self):
        with pytest.raises(ValueError):
            _small_cfg(utts_per_speaker=3, enroll_utts_per_speaker=3)
        # and must leave the enroll partition non-empty
        for enroll in (0, -1):
            with pytest.raises(ValueError, match="enroll_utts_per_speaker"):
                _small_cfg(enroll_utts_per_speaker=enroll)

    def test_frames_per_utt_must_be_positive(self):
        for frames in (0, -1):
            with pytest.raises(ValueError, match="frames_per_utt"):
                _small_cfg(frames_per_utt=frames)
