"""Front-end tests: soft-VAD posteriors."""

import numpy as np
import pytest

from deskspeaker.features import soft_vad_posteriors


class TestSoftVad:
    def test_logistic_values_unsmoothed(self):
        energies = np.array([-2.0, 0.0, 2.0])
        frames = np.column_stack([energies, np.zeros(3)])
        q = soft_vad_posteriors(frames, slope=1.0, offset=0.0,
                                smooth_radius=0)
        expected = 1.0 / (1.0 + np.exp(-(energies - energies.mean())))
        np.testing.assert_allclose(q, expected, atol=1e-12)

    def test_extreme_energies_stay_finite(self):
        frames = np.column_stack([np.array([-1e4, 0.0, 1e4]), np.zeros(3)])
        q = soft_vad_posteriors(frames, slope=5.0, offset=0.0,
                                smooth_radius=0)
        assert np.isfinite(q).all()
        assert q[0] == pytest.approx(0.0, abs=1e-12)
        assert q[2] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_energy(self):
        rng = np.random.default_rng(16)
        energies = np.sort(rng.standard_normal(50))
        frames = np.column_stack([energies, np.zeros(50)])
        q = soft_vad_posteriors(frames, slope=2.0, offset=0.0,
                                smooth_radius=0)
        assert np.all(np.diff(q) >= -1e-12)

    def test_smoothing_averages_neighbors(self):
        energies = np.array([0.0, 0.0, 100.0, 0.0, 0.0])
        frames = np.column_stack([energies, np.zeros(5)])
        q0 = soft_vad_posteriors(frames, slope=1.0, offset=0.0,
                                 smooth_radius=0)
        q1 = soft_vad_posteriors(frames, slope=1.0, offset=0.0,
                                 smooth_radius=1)
        np.testing.assert_allclose(q1[1], (q0[0] + q0[1] + q0[2]) / 3.0,
                                   atol=1e-12)
        # truncated at the boundary: first entry averages two values only
        np.testing.assert_allclose(q1[0], (q0[0] + q0[1]) / 2.0, atol=1e-12)
