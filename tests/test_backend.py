"""Backend tests: whitening oracles, PLDA EM, LLR scoring vs joint-Gaussian
log-density oracles."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from deskspeaker.backend import (PldaModel, Preprocessor, apply_preprocess,
                                 fit_preprocessor, plda_score_matrix,
                                 train_plda)
from deskspeaker.errors import EmptyInputError, NumericsError


def _correlated_sample(rng, n, dim=4):
    a = rng.standard_normal((dim, dim))
    return rng.standard_normal((n, dim)) @ a.T + rng.standard_normal(dim) * 3.0


class TestPreprocessor:
    def test_whitened_sample_covariance_is_identity(self):
        rng = np.random.default_rng(100)
        x = _correlated_sample(rng, 500)
        prep = fit_preprocessor(x)
        y = (x - prep.mean) @ prep.whitener.T
        cov = y.T @ y / y.shape[0]
        np.testing.assert_allclose(cov, np.eye(4), atol=1e-8)

    def test_whitener_matches_inverse_square_root_oracle(self):
        from scipy.linalg import fractional_matrix_power
        rng = np.random.default_rng(101)
        x = _correlated_sample(rng, 2000)
        prep = fit_preprocessor(x)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / x.shape[0]
        oracle = fractional_matrix_power(cov, -0.5).real
        np.testing.assert_allclose(prep.whitener, oracle, rtol=1e-8, atol=1e-10)

    def test_output_is_unit_length(self):
        rng = np.random.default_rng(102)
        x = _correlated_sample(rng, 100)
        out = apply_preprocess(x, fit_preprocessor(x))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_vector_rejected(self):
        rng = np.random.default_rng(104)
        x = _correlated_sample(rng, 50)
        prep = fit_preprocessor(x)
        with pytest.raises(NumericsError):
            apply_preprocess(prep.mean[None], prep)

    def test_degenerate_training_set_stays_finite(self):
        # all mass in one direction: flooring keeps the whitener usable
        rng = np.random.default_rng(105)
        x = np.outer(rng.standard_normal(100), np.array([1.0, 2.0, -1.0]))
        prep = fit_preprocessor(x)
        assert np.isfinite(prep.whitener).all()

    def test_too_few_vectors(self):
        with pytest.raises(EmptyInputError):
            fit_preprocessor(np.zeros((1, 3)))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(106)
        prep = fit_preprocessor(_correlated_sample(rng, 80))
        prep.save(tmp_path / "prep.pre1")
        loaded = Preprocessor.load(tmp_path / "prep.pre1")
        np.testing.assert_array_equal(loaded.mean, prep.mean)
        np.testing.assert_array_equal(loaded.whitener, prep.whitener)


def _plda_sample(rng, n_speakers=25, per=8, dim=5, s_dim=2,
                 speaker_scale=2.0, noise_scale=0.6):
    v = rng.standard_normal((dim, s_dim)) * speaker_scale
    mu = rng.standard_normal(dim)
    vectors, labels = [], []
    for s in range(n_speakers):
        y = rng.standard_normal(s_dim)
        for _ in range(per):
            vectors.append(mu + v @ y + rng.standard_normal(dim) * noise_scale)
            labels.append(f"spk{s}")
    return np.array(vectors), labels, v, mu


class TestPldaTraining:
    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(110)
        vectors, labels, _, _ = _plda_sample(rng)
        model = train_plda(vectors, labels, subspace_dim=2, n_iters=10)
        assert model.em_loglik.shape == (10,)
        assert np.diff(model.em_loglik).min() >= -1e-6

    def test_recovers_speaker_subspace(self):
        rng = np.random.default_rng(111)
        vectors, labels, v, mu = _plda_sample(rng, n_speakers=60, per=10)
        model = train_plda(vectors, labels, subspace_dim=2, n_iters=15)
        np.testing.assert_allclose(model.mean, vectors.mean(axis=0), atol=1e-12)
        # compare column spans via principal angles
        qa = np.linalg.qr(model.speaker_subspace)[0]
        qb = np.linalg.qr(v)[0]
        angles = np.linalg.svd(qa.T @ qb, compute_uv=False)
        assert angles.min() > 0.98

    @pytest.mark.parametrize("subspace_dim", [0, 2])
    def test_loglik_is_joint_density_of_each_speaker(self, subspace_dim):
        # em_loglik[k] scores the model that k iterations leave behind
        rng = np.random.default_rng(116)
        vectors, labels, _, _ = _plda_sample(rng, n_speakers=6, per=3, dim=4)
        n_iters = 4
        history = train_plda(vectors, labels, subspace_dim, n_iters).em_loglik
        speakers = np.array(labels)
        for k in range(n_iters):
            model = train_plda(vectors, labels, subspace_dim, k)
            between = model.speaker_subspace @ model.speaker_subspace.T
            total = 0.0
            for spk in np.unique(speakers):
                x = vectors[speakers == spk]
                n = x.shape[0]
                cov = np.kron(np.ones((n, n)), between) + np.kron(np.eye(n), model.within_cov)
                total += multivariate_normal(np.tile(model.mean, n), cov).logpdf(x.ravel())
            assert history[k] == pytest.approx(total, rel=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(112)
        vectors, labels, _, _ = _plda_sample(rng, n_speakers=10, per=4)
        a = train_plda(vectors, labels, subspace_dim=2, n_iters=5)
        b = train_plda(vectors, labels, subspace_dim=2, n_iters=5)
        np.testing.assert_array_equal(a.speaker_subspace, b.speaker_subspace)
        np.testing.assert_array_equal(a.within_cov, b.within_cov)

    def test_subspace_dim_zero_trains(self):
        rng = np.random.default_rng(113)
        vectors, labels, _, _ = _plda_sample(rng, n_speakers=8, per=4)
        model = train_plda(vectors, labels, subspace_dim=0, n_iters=5)
        assert model.speaker_subspace.shape == (5, 0)
        assert np.isfinite(model.em_loglik).all()

    def test_subspace_dim_exceeding_vector_dim_rejected(self):
        rng = np.random.default_rng(114)
        vectors, labels, _, _ = _plda_sample(rng, n_speakers=6, per=3)
        with pytest.raises(ValueError):
            train_plda(vectors, labels, subspace_dim=6, n_iters=10)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(115)
        vectors, labels, _, _ = _plda_sample(rng, n_speakers=8, per=4)
        model = train_plda(vectors, labels, subspace_dim=2, n_iters=3)
        model.save(tmp_path / "b.pld1")
        loaded = PldaModel.load(tmp_path / "b.pld1")
        np.testing.assert_array_equal(loaded.mean, model.mean)
        np.testing.assert_array_equal(loaded.speaker_subspace,
                                      model.speaker_subspace)
        np.testing.assert_array_equal(loaded.within_cov, model.within_cov)


def _score(enroll_vec, test_vec, model):
    """One trial's score, through a one-row score matrix."""
    return plda_score_matrix(enroll_vec[None], test_vec[None], model)[0, 0]


class TestPldaScoring:
    def _random_model(self, rng, dim=4, s_dim=2):
        v = rng.standard_normal((dim, s_dim))
        a = rng.standard_normal((dim, dim)) * 0.4
        within = a @ a.T + np.eye(dim) * 0.5
        return PldaModel(rng.standard_normal(dim), v, within)

    def test_matches_joint_gaussian_oracle(self):
        rng = np.random.default_rng(120)
        for trial in range(25):
            model = self._random_model(rng, dim=int(rng.integers(2, 6)),
                                       s_dim=int(rng.integers(0, 3)))
            dim = model.dim
            between = model.speaker_subspace @ model.speaker_subspace.T
            total = between + model.within_cov
            joint_same = np.block([[total, between], [between, total]])
            e = rng.standard_normal(dim) + model.mean
            t = rng.standard_normal(dim) + model.mean
            pair = np.concatenate([e - model.mean, t - model.mean])
            expected = (multivariate_normal(np.zeros(2 * dim), joint_same).logpdf(pair)
                        - multivariate_normal(np.zeros(dim), total).logpdf(pair[:dim])
                        - multivariate_normal(np.zeros(dim), total).logpdf(pair[dim:]))
            assert _score(e, t, model) == pytest.approx(expected, abs=1e-9)

    def test_score_matrix_matches_pairwise_calls(self):
        rng = np.random.default_rng(121)
        model = self._random_model(rng)
        enroll = rng.standard_normal((3, 4))
        test = rng.standard_normal((5, 4))
        mat = plda_score_matrix(enroll, test, model)
        assert mat.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert mat[i, j] == pytest.approx(
                    _score(enroll[i], test[j], model), abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(122)
        model = self._random_model(rng)
        e, t = rng.standard_normal(4), rng.standard_normal(4)
        assert _score(e, t, model) == pytest.approx(
            _score(t, e, model), abs=1e-10)

    def test_zero_subspace_scores_identically_zero(self):
        # no speaker variability means the same/different hypotheses coincide
        rng = np.random.default_rng(123)
        model = self._random_model(rng, s_dim=0)
        for _ in range(5):
            e, t = rng.standard_normal(4), rng.standard_normal(4)
            assert _score(e, t, model) == pytest.approx(0.0, abs=1e-10)

    def test_separates_same_from_different_speakers(self):
        rng = np.random.default_rng(124)
        vectors, labels, _, _ = _plda_sample(rng, n_speakers=30, per=6)
        model = train_plda(vectors, labels, subspace_dim=2, n_iters=10)
        same, diff = [], []
        for i in range(0, 150, 7):
            for j in range(i + 1, 150, 13):
                sc = _score(vectors[i], vectors[j], model)
                (same if labels[i] == labels[j] else diff).append(sc)
        assert np.mean(same) > np.mean(diff) + 1.0
