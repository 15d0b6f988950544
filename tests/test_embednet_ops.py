"""Pooling and attention primitives: hand-loop oracles and invariant sweeps."""

import numpy as np
import pytest

from deskspeaker.embednet import (AttentionParams, BatchNorm,
                                  attention_scores, attention_weights,
                                  combine_weights, pool_stats,
                                  pool_weighted_stats)
from deskspeaker.errors import DegenerateWeightsError, NumericsError


def _random_simplex(rng, n):
    w = rng.dirichlet(np.ones(n))
    return w / w.sum()


class TestAttentionWeights:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            e = rng.standard_normal(rng.integers(1, 40)) * rng.uniform(0.1, 30)
            w = attention_weights(e)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            e = rng.standard_normal(12)
            c = rng.uniform(-100, 100)
            np.testing.assert_allclose(attention_weights(e + c),
                                       attention_weights(e), atol=1e-12)

    def test_huge_scores_do_not_overflow(self):
        w = attention_weights(np.array([1e4, 1e4 - 5.0, 0.0]))
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[2] == pytest.approx(0.0, abs=1e-12)

    def test_scores_match_hand_formula(self):
        rng = np.random.default_rng(22)
        d_h, d_a, length = 5, 3, 8
        att = AttentionParams(rng.standard_normal((d_a, d_h)),
                              rng.standard_normal(d_a),
                              rng.standard_normal(d_a),
                              np.array(0.4), BatchNorm.identity(d_a))
        h = rng.standard_normal((length, d_h))
        e = attention_scores(h, att)
        for t in range(length):
            hidden = np.maximum(att.weight @ h[t] + att.bias, 0.0)
            hidden = att.norm.apply(hidden)
            assert e[t] == pytest.approx(float(att.v @ hidden + att.k),
                                         abs=1e-12)


class TestPooledStats:
    def test_two_frame_example(self):
        """h = [1, 3] with uniform weights: mean 2, std 1."""
        stats = pool_stats(np.array([[1.0], [3.0]]))
        assert stats.mean[0] == pytest.approx(2.0, abs=1e-15)
        assert stats.std[0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(stats.concat(), [2.0, 1.0], atol=1e-15)

    def test_matches_hand_loops(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            length = int(rng.integers(2, 30))
            dim = int(rng.integers(1, 6))
            h = rng.standard_normal((length, dim)) * rng.uniform(0.5, 4.0)
            w = _random_simplex(rng, length)
            stats = pool_weighted_stats(h, w)
            for j in range(dim):
                mean = sum(w[t] * h[t, j] for t in range(length))
                second = sum(w[t] * h[t, j] ** 2 for t in range(length))
                var = max(second - mean * mean, 0.0)
                assert stats.mean[j] == pytest.approx(mean, abs=1e-12)
                assert stats.std[j] == pytest.approx(np.sqrt(var), abs=1e-10)

    def test_uniform_weights_equal_plain_pooling(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            h = rng.standard_normal((int(rng.integers(1, 25)), 4))
            uniform = np.full(h.shape[0], 1.0 / h.shape[0])
            plain = pool_stats(h)
            weighted = pool_weighted_stats(h, uniform)
            np.testing.assert_array_equal(plain.mean, weighted.mean)
            np.testing.assert_array_equal(plain.std, weighted.std)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(25)
        h = rng.standard_normal((15, 3))
        w = _random_simplex(rng, 15)
        perm = rng.permutation(15)
        a = pool_weighted_stats(h, w)
        b = pool_weighted_stats(h[perm], w[perm])
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.std, b.std, atol=1e-12)

    def test_variance_nonnegative_under_simplex_weights(self):
        """Weighted second moment dominates squared mean for unit-sum weights,
        so the radicand never goes meaningfully negative."""
        rng = np.random.default_rng(26)
        for _ in range(300):
            length = int(rng.integers(1, 40))
            h = rng.standard_normal((length, 3)) * rng.uniform(0.1, 50.0)
            w = _random_simplex(rng, length)
            stats = pool_weighted_stats(h, w)  # must not raise
            assert np.all(stats.std >= 0.0)

    def test_constant_sequence_has_zero_std(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            length = int(rng.integers(1, 20))
            c = rng.uniform(-5, 5)
            h = np.full((length, 2), c)
            w = _random_simplex(rng, length)
            stats = pool_weighted_stats(h, w)
            np.testing.assert_allclose(stats.mean, c, atol=1e-12)
            # cancellation may leave a tiny negative radicand; it clamps to 0
            np.testing.assert_allclose(stats.std, 0.0, atol=1e-7)

    def test_concentrated_weight_picks_one_frame(self):
        h = np.array([[1.0, -2.0], [5.0, 0.5], [-3.0, 9.0]])
        w = np.array([0.0, 1.0, 0.0])
        stats = pool_weighted_stats(h, w)
        np.testing.assert_allclose(stats.mean, h[1], atol=1e-12)
        np.testing.assert_allclose(stats.std, 0.0, atol=1e-7)

    def test_cache_receives_the_radicand(self):
        rng = np.random.default_rng(15)
        h = rng.standard_normal((9, 4))
        w = rng.dirichlet(np.ones(9))
        cache = {}
        stats = pool_weighted_stats(h, w, cache)
        mean = w @ h
        np.testing.assert_array_equal(cache["radicand"], w @ (h * h) - mean * mean)
        np.testing.assert_array_equal(stats.std, np.sqrt(cache["radicand"]))

    def test_rejects_bad_weights(self):
        h = np.ones((4, 2))
        with pytest.raises(DegenerateWeightsError):
            pool_weighted_stats(h, np.array([0.5, 0.5, 0.25, -0.25]))
        with pytest.raises(DegenerateWeightsError):
            pool_weighted_stats(h, np.full(4, 0.3))  # sums to 1.2
        with pytest.raises(DegenerateWeightsError):
            pool_weighted_stats(h, np.full(3, 1.0 / 3.0))  # length mismatch

    def test_rejects_nan_weights(self):
        # NaN < 0 is False, so a sign test alone would let NaN through
        h = np.ones((3, 2))
        with pytest.raises(DegenerateWeightsError, match="non-negative"):
            pool_weighted_stats(h, np.array([np.nan, 0.5, 0.5]))

    def test_stacked_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(29)
        h = rng.standard_normal((37, 5)) * 3.0
        rows = np.array([_random_simplex(rng, 37) for _ in range(4)])
        rows[2] = np.full(37, 1.0 / 37)
        cache = {}
        stats = pool_weighted_stats(h, rows, cache)
        assert stats.mean.shape == stats.std.shape == cache["radicand"].shape == (4, 5)
        assert stats.concat().shape == (4, 10)
        for i, row in enumerate(rows):
            one_cache = {}
            one = pool_weighted_stats(h, row, one_cache)
            np.testing.assert_array_equal(stats.mean[i], one.mean)
            np.testing.assert_array_equal(stats.std[i], one.std)
            np.testing.assert_array_equal(cache["radicand"][i], one_cache["radicand"])
            np.testing.assert_array_equal(stats.concat()[i], one.concat())

    def test_stacked_rows_are_each_checked(self):
        h = np.ones((4, 2))
        good = np.full(4, 0.25)
        for bad, message in ((np.array([0.5, 0.5, 0.25, -0.25]), "non-negative"),
                             (np.full(4, 0.3), r"sum to \S*1\.2")):
            with pytest.raises(DegenerateWeightsError, match=message):
                pool_weighted_stats(h, np.array([good, bad, good]))
        nan_row = np.array([np.nan, 0.5, 0.25, 0.25])
        with pytest.raises(DegenerateWeightsError, match="non-negative"):
            pool_weighted_stats(h, np.array([good, nan_row, good]))
        for wrong in (np.full((2, 3), 1.0 / 3.0), np.full((2, 2, 4), 0.25)):
            with pytest.raises(DegenerateWeightsError, match="for 4 frames"):
                pool_weighted_stats(h, wrong)

    def test_negative_radicand_raises(self):
        # weights summing to 1 + 9e-7 pass the sum check, and a constant
        # sequence of 1000s then has variance 1e6 * (s - s^2) < 0
        h = np.full((4, 2), 1000.0)
        w = np.full(4, (1.0 + 9e-7) / 4)
        for weights in (w, np.array([np.full(4, 0.25), w])):
            with pytest.raises(NumericsError, match="negative beyond rounding"):
                pool_weighted_stats(h, weights)


class TestCombineWeights:
    def test_hand_example(self):
        """alpha [0.5, 0.3, 0.2] x q [1, 0.5, 0] -> [10/13, 3/13, 0]."""
        out = combine_weights(np.array([0.5, 0.3, 0.2]),
                              np.array([1.0, 0.5, 0.0]))
        np.testing.assert_allclose(out, [10.0 / 13.0, 3.0 / 13.0, 0.0],
                                   atol=1e-12)

    def test_unit_posteriors_change_nothing(self):
        rng = np.random.default_rng(28)
        alpha = _random_simplex(rng, 9)
        np.testing.assert_allclose(combine_weights(alpha, np.ones(9)), alpha,
                                   atol=1e-12)

    def test_output_is_simplex(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            alpha = _random_simplex(rng, n)
            q = rng.random(n)
            q[0] = max(q[0], 1e-3)  # keep some mass
            out = combine_weights(alpha, q)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(out >= 0)

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            combine_weights(np.array([0.5, 0.5]), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            combine_weights(np.array([1.0]), np.array([0.5, 0.5]))


class TestBatchNorm:
    def test_identity_buffers_are_near_passthrough(self):
        bn = BatchNorm.identity(4)
        r = np.array([[1.0, -2.0, 0.5, 3.0]])
        out = bn.apply(r)
        np.testing.assert_allclose(out, r, rtol=1e-3)

    def test_matches_formula(self):
        rng = np.random.default_rng(30)
        gamma = rng.random(5) + 0.5
        beta = rng.standard_normal(5)
        mean = rng.standard_normal(5)
        var = rng.random(5) + 0.2
        bn = BatchNorm(gamma, beta, mean, var)
        r = rng.standard_normal((7, 5))
        from deskspeaker.embednet.ops import BN_EPS
        expected = (r - mean) / np.sqrt(var + BN_EPS) * gamma + beta
        np.testing.assert_allclose(bn.apply(r), expected, atol=1e-12)

    def test_normalizes_matching_statistics(self):
        rng = np.random.default_rng(31)
        r = rng.standard_normal((500, 3)) * np.array([4.0, 0.5, 9.0]) + 2.0
        bn = BatchNorm(np.ones(3), np.zeros(3), r.mean(0), r.var(0))
        out = bn.apply(r)
        np.testing.assert_allclose(out.mean(0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(0), 1.0, atol=2e-3)
