"""i-vector tests: statistics oracles, dense posterior oracle, EM behavior."""

import numpy as np
import pytest

from deskspeaker.errors import (DegenerateWeightsError, EmptyInputError,
                                NumericsError)
from deskspeaker.ivector import (SufficientStats, TotalVariabilityModel,
                                 accumulate_stats, extract_ivector, train_tvm)
from deskspeaker.ubm import DiagGmm, gmm_posteriors


def _random_gmm(rng, n_components=2, dim=3):
    w = rng.random(n_components) + 0.2
    return DiagGmm(w / w.sum(),
                   rng.standard_normal((n_components, dim)) * 1.5,
                   rng.random((n_components, dim)) + 0.4)


def _random_tvm(rng, gmm, rank):
    return TotalVariabilityModel(gmm.means.ravel().copy(),
                                 rng.standard_normal((gmm.means.size, rank)),
                                 gmm.variances.ravel().copy())


def _stats_oracle(frames, gmm, weights=None):
    """Frame-by-frame accumulation loops."""
    length = frames.shape[0]
    n = np.zeros(gmm.n_components)
    first = np.zeros((gmm.n_components, gmm.dim))
    for t in range(length):
        post = gmm_posteriors(frames[t], gmm)
        if weights is not None:
            post = post * (length * weights[t])
        for c in range(gmm.n_components):
            n[c] += post[c]
            first[c] += post[c] * (frames[t] - gmm.means[c])
    return n, first


def _tvm_loop_oracle(stats_list, gmm, rank, n_iters, seed):
    """EM for T one utterance and one component at a time, through SciPy's
    Cholesky solves."""
    from scipy.linalg import cho_factor, cho_solve
    sigma, dim = gmm.variances.ravel(), gmm.dim
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((sigma.size, rank)) * np.sqrt(sigma)[:, None]
    history = []
    for _ in range(n_iters):
        objective = 0.0
        acc_a = np.zeros((gmm.n_components, rank, rank))
        acc_c = np.zeros((sigma.size, rank))
        for stats in stats_list:
            scaled = t * (np.repeat(stats.n, dim) / sigma)[:, None]
            factor = cho_factor(np.eye(rank) + t.T @ scaled)
            b = t.T @ (stats.first.ravel() / sigma)
            phi = cho_solve(factor, b)
            objective += -np.log(np.diag(factor[0])).sum() + 0.5 * b @ phi
            second_moment = cho_solve(factor, np.eye(rank)) + np.outer(phi, phi)
            acc_a += stats.n[:, None, None] * second_moment
            acc_c += np.outer(stats.first.ravel(), phi)
        history.append(objective)
        for c in range(gmm.n_components):
            a_c = acc_a[c] + 1e-10 * (1.0 + np.trace(acc_a[c]) / rank) * np.eye(rank)
            rows = slice(c * dim, (c + 1) * dim)
            t[rows] = np.linalg.solve(a_c, acc_c[rows].T).T
    return t, np.asarray(history)


class TestStatistics:
    def test_match_per_frame_oracle(self):
        rng = np.random.default_rng(80)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((30, 3))
        stats = accumulate_stats(frames, gmm)
        n, first = _stats_oracle(frames, gmm)
        np.testing.assert_allclose(stats.n, n, atol=1e-10)
        np.testing.assert_allclose(stats.first, first, atol=1e-10)

    def test_weighted_match_per_frame_oracle(self):
        rng = np.random.default_rng(81)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((20, 3))
        w = rng.random(20)
        w = w / w.sum()
        stats = accumulate_stats(frames, gmm, w)
        n, first = _stats_oracle(frames, gmm, w)
        np.testing.assert_allclose(stats.n, n, atol=1e-10)
        np.testing.assert_allclose(stats.first, first, atol=1e-10)

    def test_uniform_weights_equal_unweighted_exactly(self):
        rng = np.random.default_rng(82)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((16, 3))
        plain = accumulate_stats(frames, gmm)
        uniform = accumulate_stats(frames, gmm, np.full(16, 1.0 / 16))
        assert np.abs(plain.n - uniform.n).max() < 1e-12
        assert np.abs(plain.first - uniform.first).max() < 1e-12

    def test_zero_weight_frames_drop_out(self):
        rng = np.random.default_rng(83)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((10, 3))
        w = np.zeros(10)
        w[:4] = 0.25
        stats = accumulate_stats(frames, gmm, w)
        # equivalent to statistics of the first four frames, rescaled
        kept = accumulate_stats(frames[:4], gmm, np.full(4, 0.25))
        scale = 10.0 / 4.0
        np.testing.assert_allclose(stats.n, kept.n * scale, atol=1e-10)
        np.testing.assert_allclose(stats.first, kept.first * scale, atol=1e-10)

    def test_counts_sum_to_weight_mass(self):
        rng = np.random.default_rng(84)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((25, 3))
        assert accumulate_stats(frames, gmm).n.sum() == pytest.approx(25.0)
        w = rng.random(25)
        w = w / w.sum()
        assert accumulate_stats(frames, gmm, w).n.sum() == pytest.approx(25.0)

    def test_bad_weights_rejected(self):
        rng = np.random.default_rng(85)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((8, 3))
        with pytest.raises(DegenerateWeightsError):
            accumulate_stats(frames, gmm, np.full(7, 1.0 / 7))
        with pytest.raises(DegenerateWeightsError):
            accumulate_stats(frames, gmm, np.full(8, 0.25))
        bad = np.full(8, 1.0 / 8)
        bad[0] = -bad[0]
        with pytest.raises(DegenerateWeightsError):
            accumulate_stats(frames, gmm, bad + (1.0 - bad.sum()) / 8)
        with pytest.raises(DegenerateWeightsError):  # NaN compares false both ways
            accumulate_stats(frames, gmm, np.r_[np.nan, np.full(7, 1.0 / 7)])


class TestExtraction:
    def _dense_oracle(self, stats, tvm):
        """Assemble the full posterior precision with explicit matrices."""
        cd, rank = tvm.t_matrix.shape
        dim = cd // stats.n.size
        big_n = np.diag(np.repeat(stats.n, dim))
        inv_sigma = np.diag(1.0 / tvm.sigma)
        precision = np.eye(rank) + tvm.t_matrix.T @ inv_sigma @ big_n @ tvm.t_matrix
        rhs = tvm.t_matrix.T @ inv_sigma @ stats.first.ravel()
        return np.linalg.solve(precision, rhs)

    def test_matches_dense_oracle_sweep(self):
        rng = np.random.default_rng(86)
        for trial in range(40):
            n_comp = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 4))
            rank = int(rng.integers(1, 5))
            gmm = _random_gmm(rng, n_comp, dim)
            tvm = _random_tvm(rng, gmm, rank)
            frames = rng.standard_normal((12, dim)) * 1.5
            stats = accumulate_stats(frames, gmm)
            phi = extract_ivector(stats, tvm)
            np.testing.assert_allclose(phi, self._dense_oracle(stats, tvm),
                                       atol=1e-10)

    def test_zero_stats_give_zero_ivector(self):
        rng = np.random.default_rng(87)
        gmm = _random_gmm(rng)
        tvm = _random_tvm(rng, gmm, 2)
        stats = SufficientStats(np.zeros(2), np.zeros((2, 3)))
        np.testing.assert_array_equal(extract_ivector(stats, tvm), np.zeros(2))

    def test_more_frames_shrink_less(self):
        # the prior pulls phi toward zero; strong statistics dominate it
        rng = np.random.default_rng(88)
        gmm = _random_gmm(rng, 1, 2)
        tvm = _random_tvm(rng, gmm, 1)
        direction = tvm.t_matrix[:, 0]
        offset = gmm.means.ravel() + 2.0 * direction
        few = SufficientStats(np.array([5.0]), (5.0 * 2.0 * direction).reshape(1, 2))
        many = SufficientStats(np.array([500.0]), (500.0 * 2.0 * direction).reshape(1, 2))
        phi_few = extract_ivector(few, tvm)[0]
        phi_many = extract_ivector(many, tvm)[0]
        assert abs(phi_many - 2.0) < abs(phi_few - 2.0)
        assert phi_many == pytest.approx(2.0, abs=0.05)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(89)
        gmm = _random_gmm(rng)
        tvm = _random_tvm(rng, gmm, 2)
        with pytest.raises(NumericsError):
            extract_ivector(SufficientStats(np.zeros(3), np.zeros((3, 3))), tvm)

    def test_stacked_statistics_match_one_by_one(self):
        # one utterance's variants: unweighted and three weightings
        rng = np.random.default_rng(90)
        gmm = _random_gmm(rng, 3, 2)
        tvm = _random_tvm(rng, gmm, 4)
        frames = rng.standard_normal((15, 2)) * 1.5
        group = [accumulate_stats(frames, gmm)]
        group += [accumulate_stats(frames, gmm, rng.dirichlet(np.ones(15)))
                  for _ in range(3)]
        phi = extract_ivector(group, tvm)
        assert phi.shape == (4, 4)
        for stats, row in zip(group, phi):
            np.testing.assert_allclose(row, extract_ivector(stats, tvm),
                                       rtol=1e-12, atol=1e-14)
        with pytest.raises(NumericsError, match="stats dim 9"):
            extract_ivector([group[0], SufficientStats(np.zeros(3), np.zeros((3, 3)))], tvm)


class TestTvmTraining:
    def _corpus_stats(self, rng, gmm, n_utts=40, frames_per=30):
        out = []
        for _ in range(n_utts):
            frames = rng.standard_normal((frames_per, gmm.dim)) * 1.2
            frames += rng.standard_normal(gmm.dim) * 0.8
            out.append(accumulate_stats(frames, gmm))
        return out

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(90)
        gmm = _random_gmm(rng, 2, 3)
        stats = self._corpus_stats(rng, gmm)
        tvm = train_tvm(stats, gmm, rank=3, n_iters=10, seed=4)
        assert tvm.em_objective.shape == (10,)
        assert np.diff(tvm.em_objective).min() >= -1e-6

    def test_matches_per_utterance_loop(self):
        rng = np.random.default_rng(95)
        gmm = _random_gmm(rng, 3, 2)
        stats = self._corpus_stats(rng, gmm, n_utts=25)
        stats.append(SufficientStats(np.zeros(3), np.zeros((3, 2))))
        tvm = train_tvm(stats, gmm, rank=3, n_iters=6, seed=2)
        t_matrix, objective = _tvm_loop_oracle(stats, gmm, 3, 6, seed=2)
        np.testing.assert_allclose(tvm.t_matrix, t_matrix, rtol=1e-10)
        np.testing.assert_allclose(tvm.em_objective, objective, rtol=1e-10)

    def test_no_statistics_rejected(self):
        gmm = _random_gmm(np.random.default_rng(96))
        with pytest.raises(EmptyInputError):
            train_tvm([], gmm, rank=2, n_iters=10)

    def test_determinism(self):
        rng = np.random.default_rng(91)
        gmm = _random_gmm(rng, 2, 2)
        stats = self._corpus_stats(rng, gmm, n_utts=15)
        a = train_tvm(stats, gmm, rank=2, n_iters=4, seed=7)
        b = train_tvm(stats, gmm, rank=2, n_iters=4, seed=7)
        np.testing.assert_array_equal(a.t_matrix, b.t_matrix)
        np.testing.assert_array_equal(a.em_objective, b.em_objective)

    def test_learns_dominant_direction(self):
        # utterance offsets live along one supervector direction; a rank-1
        # model should align with it
        rng = np.random.default_rng(92)
        gmm = DiagGmm(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        direction = np.array([1.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        stats = []
        for _ in range(60):
            shift = rng.standard_normal() * 2.0 * direction
            frames = shift + rng.standard_normal((40, 3)) * 0.3
            stats.append(accumulate_stats(frames, gmm))
        tvm = train_tvm(stats, gmm, rank=1, n_iters=15, seed=3)
        t = tvm.t_matrix[:, 0]
        cos = abs(t @ direction) / np.linalg.norm(t)
        assert cos > 0.99

    def test_upper_edge_rank_runs(self):
        rng = np.random.default_rng(93)
        gmm = _random_gmm(rng, 2, 2)
        stats = self._corpus_stats(rng, gmm, n_utts=20, frames_per=15)
        tvm = train_tvm(stats, gmm, rank=3, n_iters=5, seed=8)
        assert np.isfinite(tvm.t_matrix).all()
        assert np.isfinite(tvm.em_objective).all()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(94)
        gmm = _random_gmm(rng, 2, 2)
        tvm = train_tvm(self._corpus_stats(rng, gmm, n_utts=10), gmm,
                        rank=2, n_iters=3, seed=1)
        tvm.save(tmp_path / "t.tvm1")
        loaded = TotalVariabilityModel.load(tmp_path / "t.tvm1")
        np.testing.assert_array_equal(loaded.mean, tvm.mean)
        np.testing.assert_array_equal(loaded.t_matrix, tvm.t_matrix)
        np.testing.assert_array_equal(loaded.sigma, tvm.sigma)
