"""Front-end tests: deltas, sliding CMN, energy VAD, soft-VAD posteriors."""

import numpy as np
import pytest

from deskspeaker.errors import AllSilenceError, EmptyInputError
from deskspeaker.features import (SoftVadConfig, VadConfig, append_deltas,
                                  energy_vad, sliding_cmn,
                                  soft_vad_posteriors)
from deskspeaker.fileio import AcousticFrameSequence


def _seq(values, period=0.01):
    return AcousticFrameSequence(np.asarray(values, dtype=np.float64), period)


class TestDeltas:
    def test_ramp_interior_slope(self):
        """On x_t = u * t the interior delta equals u and delta-delta is 0."""
        u = 0.7
        x = (u * np.arange(12, dtype=np.float64))[:, None]
        out = append_deltas(_seq(x))
        assert out.dim == 3
        np.testing.assert_allclose(out.frames[2:-2, 1], u, atol=1e-12)
        np.testing.assert_allclose(out.frames[4:-4, 2], 0.0, atol=1e-12)

    def test_output_width_triples(self):
        rng = np.random.default_rng(12)
        out = append_deltas(_seq(rng.standard_normal((9, 4))))
        assert out.frames.shape == (9, 12)
        np.testing.assert_array_equal(out.frames[:, :4],
                                      _seq(out.frames[:, :4]).frames)

    def test_edges_use_replication(self):
        x = np.arange(6, dtype=np.float64)[:, None]
        out = append_deltas(_seq(x))
        # first frame: x[-1] and x[-2] clamp to x[0]
        d0 = (1 * (x[1] - x[0]) + 2 * (x[2] - x[0])) / 10.0
        assert out.frames[0, 1] == pytest.approx(d0[0], abs=1e-12)


class TestSlidingCmn:
    def test_three_frame_window(self):
        """Window of 3 frames on [0,1,2,3,4]: the window slides inward at the
        edges, so the means subtracted are [1,1,2,3,3]."""
        seq = _seq(np.arange(5.0)[:, None], period=0.01)
        out = sliding_cmn(seq, window_s=0.03)
        np.testing.assert_allclose(out.frames[:, 0], [-1.0, 0.0, 0.0, 0.0, 1.0],
                                   atol=1e-12)

    def test_long_window_is_global(self):
        rng = np.random.default_rng(13)
        seq = _seq(rng.standard_normal((20, 3)))
        out = sliding_cmn(seq, window_s=10.0)
        np.testing.assert_allclose(out.frames,
                                   seq.frames - seq.frames.mean(0), atol=1e-12)
        np.testing.assert_allclose(out.frames.mean(0), 0.0, atol=1e-12)

    def test_global_idempotent(self):
        rng = np.random.default_rng(14)
        seq = _seq(rng.standard_normal((15, 2)))
        once = sliding_cmn(seq, window_s=5.0)
        twice = sliding_cmn(once, window_s=5.0)
        np.testing.assert_allclose(twice.frames, once.frames, atol=1e-12)

    def test_matches_windowed_mean_oracle(self):
        rng = np.random.default_rng(15)
        seq = _seq(rng.standard_normal((30, 2)))
        out = sliding_cmn(seq, window_s=0.07)  # 7-frame window
        w = 7
        for t in range(30):
            start = min(max(t - w // 2, 0), 30 - w)
            mean = seq.frames[start:start + w].mean(0)
            np.testing.assert_allclose(out.frames[t], seq.frames[t] - mean,
                                       atol=1e-12)


class TestEnergyVad:
    def test_threshold_relative_to_mean(self):
        energies = np.array([0.0, 10.0, 0.0, 10.0])  # mean 5
        frames = np.column_stack([energies, np.ones(4)])
        mask = energy_vad(_seq(frames), VadConfig(offset=-0.5))
        np.testing.assert_array_equal(mask, [False, True, False, True])

    def test_absolute_threshold_override(self):
        frames = np.column_stack([np.array([1.0, 2.0, 3.0]), np.zeros(3)])
        mask = energy_vad(_seq(frames), VadConfig(threshold=1.5))
        np.testing.assert_array_equal(mask, [False, True, True])

    def test_all_silence_raises(self):
        frames = np.column_stack([np.zeros(5), np.ones(5)])
        with pytest.raises(AllSilenceError):
            energy_vad(_seq(frames), VadConfig(offset=1.0))


class TestSoftVad:
    def test_logistic_values_unsmoothed(self):
        energies = np.array([-2.0, 0.0, 2.0])
        frames = np.column_stack([energies, np.zeros(3)])
        q = soft_vad_posteriors(_seq(frames),
                                SoftVadConfig(slope=1.0, offset=0.0,
                                              smooth_radius=0))
        expected = 1.0 / (1.0 + np.exp(-(energies - energies.mean())))
        np.testing.assert_allclose(q, expected, atol=1e-12)

    def test_extreme_energies_stay_finite(self):
        frames = np.column_stack([np.array([-1e4, 0.0, 1e4]), np.zeros(3)])
        q = soft_vad_posteriors(_seq(frames),
                                SoftVadConfig(slope=5.0, smooth_radius=0))
        assert np.isfinite(q).all()
        assert q[0] == pytest.approx(0.0, abs=1e-12)
        assert q[2] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_energy(self):
        rng = np.random.default_rng(16)
        energies = np.sort(rng.standard_normal(50))
        frames = np.column_stack([energies, np.zeros(50)])
        q = soft_vad_posteriors(_seq(frames),
                                SoftVadConfig(slope=2.0, smooth_radius=0))
        assert np.all(np.diff(q) >= -1e-12)

    def test_smoothing_averages_neighbors(self):
        energies = np.array([0.0, 0.0, 100.0, 0.0, 0.0])
        frames = np.column_stack([energies, np.zeros(5)])
        q0 = soft_vad_posteriors(_seq(frames),
                                 SoftVadConfig(slope=1.0, smooth_radius=0))
        q1 = soft_vad_posteriors(_seq(frames),
                                 SoftVadConfig(slope=1.0, smooth_radius=1))
        np.testing.assert_allclose(q1[1], (q0[0] + q0[1] + q0[2]) / 3.0,
                                   atol=1e-12)
        # truncated at the boundary: first entry averages two values only
        np.testing.assert_allclose(q1[0], (q0[0] + q0[1]) / 2.0, atol=1e-12)
