"""Background-model tests against explicit per-frame density oracles."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from deskspeaker import ubm
from deskspeaker.errors import EmptyInputError
from deskspeaker.ubm import DiagGmm, gmm_loglik, gmm_posteriors, train_gmm


def _random_gmm(rng, n_components=3, dim=4):
    weights = rng.random(n_components) + 0.1
    return DiagGmm(weights / weights.sum(),
                   rng.standard_normal((n_components, dim)) * 2.0,
                   rng.random((n_components, dim)) + 0.3)


def _log_density_oracle(x, gmm):
    """One frame, one component at a time, term by term."""
    out = np.empty(gmm.n_components)
    for c in range(gmm.n_components):
        acc = 0.0
        for d in range(gmm.dim):
            var = gmm.variances[c, d]
            acc += -0.5 * np.log(2.0 * np.pi * var)
            acc += -0.5 * (x[d] - gmm.means[c, d]) ** 2 / var
        out[c] = acc
    return out


class TestLogSumExp:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(66)
        blocks = [rng.standard_normal((4096, 16)) * scale for scale in (0.1, 3.0, 300.0)]
        blocks.append(np.array([[0.0, 0.0, -1.0], [2.5, 2.5, 2.5], [-4.0, 1.0, 1.0]]))
        blocks.append(rng.standard_normal((40, 1)) * 10.0)
        for a in blocks:
            assert ubm._logsumexp(a).tobytes() == logsumexp(a, axis=1).tobytes()


class TestPosteriors:
    def test_match_per_frame_oracle(self):
        rng = np.random.default_rng(60)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((25, 4)) * 1.5
        post = gmm_posteriors(frames, gmm)
        for t in range(frames.shape[0]):
            joint = np.exp(_log_density_oracle(frames[t], gmm)) * gmm.weights
            np.testing.assert_allclose(post[t], joint / joint.sum(),
                                       rtol=1e-10, atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(61)
        for trial in range(30):
            gmm = _random_gmm(rng, n_components=int(rng.integers(1, 6)),
                              dim=int(rng.integers(2, 5)))
            post = gmm_posteriors(rng.standard_normal((40, gmm.dim)) * 3, gmm)
            assert (post >= 0).all()
            np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_single_frame_matches_batch(self):
        rng = np.random.default_rng(62)
        gmm = _random_gmm(rng)
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(gmm_posteriors(x, gmm),
                                      gmm_posteriors(x[None, :], gmm)[0])
        assert gmm_posteriors(x, gmm).shape == (3,)

    def test_extreme_frames_stay_finite(self):
        rng = np.random.default_rng(63)
        gmm = _random_gmm(rng)
        post = gmm_posteriors(np.full((2, 4), 1e4), gmm)
        assert np.isfinite(post).all()
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_far_frame_assigns_to_nearest_component(self):
        gmm = DiagGmm(np.array([0.5, 0.5]),
                      np.array([[-5.0, 0.0], [5.0, 0.0]]),
                      np.ones((2, 2)))
        post = gmm_posteriors(np.array([4.8, 0.1]), gmm)
        assert post[1] > 0.999


class TestLoglik:
    def test_matches_oracle_sum(self):
        rng = np.random.default_rng(64)
        gmm = _random_gmm(rng)
        frames = rng.standard_normal((15, 4))
        expected = 0.0
        for t in range(15):
            joint = np.exp(_log_density_oracle(frames[t], gmm)) * gmm.weights
            expected += np.log(joint.sum())
        assert gmm_loglik(frames, gmm) == pytest.approx(expected, rel=1e-12)

    def test_single_component_is_gaussian_logpdf(self):
        from scipy.stats import multivariate_normal
        rng = np.random.default_rng(65)
        mean = rng.standard_normal(3)
        var = rng.random(3) + 0.5
        gmm = DiagGmm(np.array([1.0]), mean[None, :], var[None, :])
        frames = rng.standard_normal((10, 3))
        expected = multivariate_normal(mean, np.diag(var)).logpdf(frames).sum()
        assert gmm_loglik(frames, gmm) == pytest.approx(expected, rel=1e-12)


class TestTraining:
    def _clustered(self, rng, centers, per=200, std=0.4):
        frames = np.concatenate([c + rng.standard_normal((per, len(c))) * std
                                 for c in centers])
        rng.shuffle(frames)
        return frames

    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(66)
        frames = self._clustered(rng, [(-3, 0), (3, 0), (0, 4)])
        gmm = train_gmm(frames, 3, n_iters=20, seed=5)
        assert gmm.em_loglik.shape == (20,)
        diffs = np.diff(gmm.em_loglik)
        assert diffs.min() >= -1e-9

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(67)
        centers = np.array([[-6.0, 0.0], [6.0, 0.0], [0.0, 8.0]])
        frames = self._clustered(rng, centers, per=300, std=0.5)
        gmm = train_gmm(frames, 3, n_iters=25, seed=1)
        # each true center should be close to exactly one learned mean
        matched = set()
        for c in centers:
            j = int(((gmm.means - c) ** 2).sum(axis=1).argmin())
            assert np.linalg.norm(gmm.means[j] - c) < 0.2
            matched.add(j)
        assert len(matched) == 3
        np.testing.assert_allclose(gmm.weights, 1 / 3, atol=0.05)

    def test_determinism(self):
        rng = np.random.default_rng(68)
        frames = self._clustered(rng, [(-2, 1), (2, -1)])
        a = train_gmm(frames, 4, n_iters=8, seed=9)
        b = train_gmm(frames, 4, n_iters=8, seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.em_loglik, b.em_loglik)

    def test_too_few_frames_rejected(self):
        with pytest.raises(EmptyInputError):
            train_gmm(np.zeros((3, 2)), 4, n_iters=20)

    def test_survives_duplicate_frames(self):
        # a degenerate cluster of identical points must not produce NaN
        frames = np.concatenate([np.zeros((50, 2)),
                                 np.ones((50, 2)) * 3.0,
                                 np.random.default_rng(69).standard_normal((100, 2))])
        gmm = train_gmm(frames, 3, n_iters=10, seed=2)
        assert np.isfinite(gmm.em_loglik).all()
        assert (gmm.variances > 0).all()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        frames = self._clustered(rng, [(-2, 0), (2, 0)])
        gmm = train_gmm(frames, 2, n_iters=5, seed=3)
        gmm.save(tmp_path / "ubm.gmm1")
        loaded = DiagGmm.load(tmp_path / "ubm.gmm1")
        np.testing.assert_array_equal(loaded.weights, gmm.weights)
        np.testing.assert_array_equal(loaded.means, gmm.means)
        np.testing.assert_array_equal(loaded.variances, gmm.variances)
        assert loaded.em_loglik is None


def _em_oracle(frames, gmm, n_iters):
    """Unblocked EM: the full (N, C) log-joint and posteriors per iteration."""
    floor = np.maximum(ubm.VAR_FLOOR_FRAC * frames.var(axis=0), 1e-12)
    history = []
    for _ in range(n_iters):
        inv = 1.0 / gmm.variances
        const = -0.5 * (gmm.dim * np.log(2.0 * np.pi)
                        + np.log(gmm.variances).sum(axis=1)
                        + (gmm.means ** 2 * inv).sum(axis=1))
        lj = (frames ** 2) @ (-0.5 * inv).T + frames @ (gmm.means * inv).T + const \
            + np.log(gmm.weights)
        per_frame = logsumexp(lj, axis=1)
        history.append(float(per_frame.sum()))
        post = np.exp(lj - per_frame[:, None])
        counts = post.sum(axis=0)
        occupied = counts > 1e-10
        first = post.T @ frames
        second = post.T @ (frames ** 2)
        means = gmm.means.copy()
        variances = gmm.variances.copy()
        means[occupied] = first[occupied] / counts[occupied, None]
        variances[occupied] = np.maximum(
            second[occupied] / counts[occupied, None] - means[occupied] ** 2, floor)
        weights = np.maximum(counts / frames.shape[0], 1e-12)
        gmm = DiagGmm(weights / weights.sum(), means, variances)
    gmm.em_loglik = np.asarray(history)
    return gmm


def _kmeans_pp_oracle(frames, k, rng):
    """k-means++ over the whole frame matrix at once."""
    n = frames.shape[0]
    centers = [frames[rng.integers(n)]]
    d2 = ((frames - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers.append(frames[rng.choice(n, p=probs)])
        d2 = np.minimum(d2, ((frames - centers[-1]) ** 2).sum(axis=1))
    return np.array(centers)


def _init_oracle(frames, k, rng, lloyd_iters):
    """k-means++, Lloyd steps and the initial model, each assignment taken
    from the full (N, C, D) distance array."""
    def nearest(centers):
        return ((frames[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

    centers = _kmeans_pp_oracle(frames, k, rng)
    for _ in range(lloyd_iters):
        assign = nearest(centers)
        for c in range(k):
            if (assign == c).any():
                centers[c] = frames[assign == c].mean(axis=0)
    global_var = frames.var(axis=0)
    floor = np.maximum(ubm.VAR_FLOOR_FRAC * global_var, 1e-12)
    assign = nearest(centers)
    weights = np.array([max((assign == c).sum(), 1.0) for c in range(k)])
    variances = np.array([np.maximum(frames[assign == c].var(axis=0)
                                     if (assign == c).any() else global_var, floor)
                          for c in range(k)])
    return DiagGmm(weights / weights.sum(), centers, variances)


def _bisector_frames(rng, a, b, n):
    """Frames on the perpendicular bisector of centers a and b, close to
    their midpoint, each coordinate then moved by one ulp up or down."""
    normal = (b - a) / np.linalg.norm(b - a)
    offsets = rng.standard_normal((n, a.shape[0])) * 0.3
    offsets -= np.outer(offsets @ normal, normal)
    frames = (a + b) / 2 + offsets
    return np.nextafter(frames, np.where(rng.random(frames.shape) < 0.5, -np.inf, np.inf))


def _count_direct_rows(monkeypatch):
    """Count the frames _nearest hands to its direct-form fallback."""
    rows = [0]
    direct = ubm._direct_nearest

    def counting(frames, centers):
        rows[0] += frames.shape[0]
        return direct(frames, centers)

    monkeypatch.setattr(ubm, "_direct_nearest", counting)
    return rows


def _frames(n, seed, dim=5):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, dim)) * 3.0
    return centers[rng.integers(4, size=n)] + rng.standard_normal((n, dim))


class TestBlockwiseTraining:
    """Training passes run over BLOCK_FRAMES-frame blocks; these pin them to
    the same computations over the whole frame matrix."""

    @pytest.mark.parametrize("blocks", [None, 1.0, 2.5], ids=["block-1", "block", "2.5-blocks"])
    def test_em_matches_unblocked_oracle(self, blocks):
        n = ubm.BLOCK_FRAMES - 1 if blocks is None else int(blocks * ubm.BLOCK_FRAMES)
        frames = _frames(n, seed=72)
        init = train_gmm(frames, 6, n_iters=0, seed=4)
        got = train_gmm(frames, 6, n_iters=5, seed=4)
        want = _em_oracle(frames, init, 5)
        # The training E-step is component-major; its sums run in another
        # order than the oracle's, so even one block agrees only to rounding.
        for name in ("weights", "means", "variances", "em_loglik"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=1e-10, atol=0)

    @pytest.mark.parametrize("kind", ["real", "ties", "near-ties"])
    def test_nearest_equals_full_argmin(self, kind, monkeypatch):
        rng = np.random.default_rng(73)
        n = int(2.5 * ubm.BLOCK_FRAMES)
        if kind == "ties":  # small integer grids: many exact ties, and a duplicate center
            frames = rng.integers(-2, 3, size=(n, 3)).astype(float)
            centers = rng.integers(-2, 3, size=(6, 3)).astype(float)
            centers[4] = centers[1]
        else:
            frames = rng.standard_normal((n, 3))
            centers = rng.standard_normal((6, 3))
        if kind == "near-ties":
            frames = _bisector_frames(rng, centers[0], centers[1], n)
        rows = _count_direct_rows(monkeypatch)
        full = ((frames[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(ubm._nearest(frames, centers), full.argmin(axis=1))
        if kind == "ties":
            assert ((full == full.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        if kind == "near-ties":  # the direct-form fallback ran
            assert rows[0] > 0

    @pytest.mark.parametrize("kind", ["real", "near-ties", "ties"])
    def test_initialization_matches_direct_oracle(self, kind, monkeypatch):
        rng = np.random.default_rng(76)
        n, k = int(2.5 * ubm.BLOCK_FRAMES), 6
        if kind == "real":
            frames = _frames(n, seed=76)
        elif kind == "near-ties":  # a decimal grid: ties that rounding breaks
            frames = rng.integers(-2, 3, size=(n, 3)) * 0.1
        else:
            frames = rng.integers(-2, 3, size=(n, 3)).astype(float)
        rows = _count_direct_rows(monkeypatch)
        got = train_gmm(frames, k, n_iters=0, seed=4)
        want = _init_oracle(frames, k, np.random.default_rng(4), lloyd_iters=5)
        for name in ("weights", "means", "variances"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        if kind != "real":  # the grids reach the direct-form fallback
            assert rows[0] > 0

    def test_kmeans_pp_matches_unblocked_oracle(self):
        frames = _frames(int(2.5 * ubm.BLOCK_FRAMES), seed=74)
        np.testing.assert_array_equal(
            ubm._kmeans_pp(frames, 8, np.random.default_rng(5)),
            _kmeans_pp_oracle(frames, 8, np.random.default_rng(5)))

    def test_peak_memory_is_frames_plus_blocks(self):
        frames = np.random.default_rng(75).standard_normal((60_000, 12))
        tracemalloc.start()
        try:
            train_gmm(frames, 16, n_iters=3, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * frames.nbytes + 4 * 2 ** 20, \
            f"traced peak {peak / 2 ** 20:.1f} MiB for {frames.nbytes / 2 ** 20:.1f} MiB of frames"
