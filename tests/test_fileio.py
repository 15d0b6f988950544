"""Round-trip and validation tests for the binary/text artifact formats."""

import struct
import tracemalloc

import numpy as np
import pytest

from deskspeaker import fileio
from deskspeaker.embednet import (EmbedNetConfig, init_embed_net,
                                  load_embed_net, save_embed_net)
from deskspeaker.errors import EmptyInputError, FormatError


class TestFrameSequences:
    def test_features_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((7, 3))
        path = tmp_path / "u.afs"
        fileio.write_features(path, frames)
        back = fileio.read_features(path)
        assert back.shape == (7, 3)
        # the header's period is the fixed 10 ms, as a little-endian f32
        assert path.read_bytes()[12:16] == struct.pack("<f", 0.01)
        # storage is float32, so round-tripping equals the cast, not the original
        np.testing.assert_array_equal(back, frames.astype(np.float32).astype(np.float64))

    def test_single_frame_ok(self, tmp_path):
        fileio.write_features(tmp_path / "one.afs", np.array([[1.0, 2.0]]))
        assert fileio.read_features(tmp_path / "one.afs").shape == (1, 2)
        # a frame period of NaN is refused, as a non-positive one is
        path = tmp_path / "nan-period.afs"
        path.write_bytes(struct.pack("<4sIIf2f", b"AFS1", 1, 2, float("nan"), 1.0, 2.0))
        with pytest.raises(FormatError, match="frame period"):
            fileio.read_features(path)

    def test_empty_frames_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            fileio.write_features(tmp_path / "none.afs", np.empty((0, 4)))
        path = tmp_path / "zero-rows.afs"
        path.write_bytes(struct.pack("<4sIIf", b"AFS1", 0, 4, 0.01))
        with pytest.raises(EmptyInputError, match="zero-rows.afs"):
            fileio.read_features(path)

    def test_non_2d_rejected(self, tmp_path):
        # written as is, a 1-D input would become one column
        with pytest.raises(EmptyInputError):
            fileio.write_features(tmp_path / "flat.afs", np.zeros(5))
        assert not (tmp_path / "flat.afs").exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.afs"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            fileio.read_features(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "cut.afs"
        fileio.write_features(path, rng.standard_normal((7, 3)))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            fileio.read_features(path)


class TestPosteriorsAndWeights:
    def test_posteriors_round_trip_and_clip(self, tmp_path):
        q = np.array([-0.25, 0.0, 0.5, 1.0, 1.75])
        path = tmp_path / "u.vps"
        fileio.write_posteriors(path, q)
        back = fileio.read_posteriors(path)
        np.testing.assert_allclose(back, [0.0, 0.0, 0.5, 1.0, 1.0], atol=0)
        assert back.ndim == 1
        # a NaN is outside [0, 1] too, although clipping would keep it
        path = tmp_path / "nan.vps"
        path.write_bytes(struct.pack("<4sIIf3f", b"VPS1", 3, 1, 0.01, 0.5, float("nan"), 0.25))
        with pytest.raises(FormatError, match="outside"):
            fileio.read_posteriors(path)

    def test_weights_renormalized_on_read(self, tmp_path):
        rng = np.random.default_rng(2)
        w = rng.random(11)
        w /= w.sum()
        path = tmp_path / "u.fwt"
        fileio.write_frame_weights(path, w)
        back = fileio.read_frame_weights(path)
        # float32 storage perturbs the sum; the reader restores exact unit mass
        assert back.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(back, w, atol=1e-6)

    def test_negative_weights_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            fileio.write_frame_weights(tmp_path / "bad.fwt",
                                       np.array([0.5, -0.1, 0.6]))
        # the reader refuses them too, although the total mass is positive
        path = tmp_path / "negative.fwt"
        path.write_bytes(struct.pack("<4sIIf3f", b"FWT1", 3, 1, 0.01, 0.5, -0.1, 0.6))
        with pytest.raises(FormatError, match="non-negative"):
            fileio.read_frame_weights(path)


class TestModelFiles:
    def test_gmm_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        weights = rng.dirichlet(np.ones(5))
        means = rng.standard_normal((5, 3))
        variances = rng.random((5, 3)) + 0.1
        path = tmp_path / "m.gmm1"
        fileio.write_gmm(path, weights, means, variances)
        w, m, v = fileio.read_gmm(path)
        np.testing.assert_array_equal(w, weights)
        np.testing.assert_array_equal(m, means)
        np.testing.assert_array_equal(v, variances)

    def test_tvm_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        mean = rng.standard_normal(12)
        t = rng.standard_normal((12, 2))
        sigma = rng.random(12) + 0.01
        path = tmp_path / "t.tvm1"
        fileio.write_tvm(path, mean, t, sigma)
        m2, t2, s2 = fileio.read_tvm(path)
        np.testing.assert_array_equal(m2, mean)
        np.testing.assert_array_equal(t2, t)
        np.testing.assert_array_equal(s2, sigma)

    def test_plda_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        mean = rng.standard_normal(6)
        v = rng.standard_normal((6, 2))
        lam = rng.standard_normal((6, 6))
        lam = lam @ lam.T + 6 * np.eye(6)
        path = tmp_path / "p.pld1"
        fileio.write_plda(path, mean, v, lam)
        m2, v2, l2 = fileio.read_plda(path)
        np.testing.assert_array_equal(m2, mean)
        np.testing.assert_array_equal(v2, v)
        np.testing.assert_array_equal(l2, lam)

    def test_plda_zero_rank_subspace(self, tmp_path):
        path = tmp_path / "p0.pld1"
        fileio.write_plda(path, np.zeros(3), np.zeros((3, 0)), np.eye(3))
        _, v2, _ = fileio.read_plda(path)
        assert v2.shape == (3, 0)

    def test_preprocessor_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        mean = rng.standard_normal(5)
        wh = rng.standard_normal((5, 5))
        path = tmp_path / "w.pre1"
        fileio.write_preprocessor(path, mean, wh)
        m2, w2 = fileio.read_preprocessor(path)
        np.testing.assert_array_equal(m2, mean)
        np.testing.assert_array_equal(w2, wh)


class TestNamedTensors:
    def test_round_trip_with_negative_meta(self, tmp_path):
        rng = np.random.default_rng(9)
        meta = {"n": 3, "offset": -2, "flag": 1}
        tensors = {
            "a.w": rng.standard_normal((3, 4)),
            "b": rng.standard_normal(5),
            "k": np.array(0.75),
        }
        path = tmp_path / "t.emb1"
        fileio.write_named_tensors(path, b"EMB1", meta, tensors)
        meta2, tensors2 = fileio.read_named_tensors(path, b"EMB1")
        assert meta2 == meta
        assert set(tensors2) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(
                tensors2[name], tensors[name].astype(np.float32).astype(np.float64))
        assert tensors2["k"].shape == ()

    def test_version_guard(self, tmp_path):
        path = tmp_path / "v9.emb1"
        path.write_bytes(struct.pack("<4sI", b"EMB1", 9) + struct.pack("<I", 0))
        with pytest.raises(FormatError):
            fileio.read_named_tensors(path, b"EMB1")


def _model_files():
    rng = np.random.default_rng(10)
    yield ("GMM1", lambda p: fileio.write_gmm(
        p, rng.dirichlet(np.ones(3)), rng.standard_normal((3, 2)),
        rng.random((3, 2)) + 0.1), fileio.read_gmm)
    yield ("TVM1", lambda p: fileio.write_tvm(
        p, rng.standard_normal(4), rng.standard_normal((4, 2)),
        rng.random(4) + 0.1), fileio.read_tvm)
    yield ("PLD1", lambda p: fileio.write_plda(
        p, rng.standard_normal(3), rng.standard_normal((3, 1)), np.eye(3)),
        fileio.read_plda)
    yield ("PRE1", lambda p: fileio.write_preprocessor(
        p, rng.standard_normal(3), rng.standard_normal((3, 3))),
        fileio.read_preprocessor)
    yield ("EMB1", lambda p: fileio.write_named_tensors(
        p, b"EMB1", {"n": 3, "offset": -2},
        {"w": rng.standard_normal((2, 3)), "k": np.array(0.5)}),
        lambda p: fileio.read_named_tensors(p, b"EMB1"))


@pytest.mark.parametrize("write, read", [
    pytest.param(write, read, id=kind) for kind, write, read in _model_files()])
def test_truncated_model_file_raises_format_error(tmp_path, write, read):
    whole = tmp_path / "whole"
    write(whole)
    data = whole.read_bytes()
    read(whole)
    cut = tmp_path / "cut"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(FormatError):
            read(cut)


@pytest.mark.parametrize("write, read", [
    pytest.param(write, read, id=kind) for kind, write, read in _model_files()])
def test_model_file_with_trailing_bytes_raises_format_error(tmp_path, write, read):
    path = tmp_path / "model"
    write(path)
    read(path)
    path.write_bytes(path.read_bytes() + struct.pack("<d", 0.0))
    with pytest.raises(FormatError, match="trailing"):
        read(path)


def _frame_files():
    frames = np.arange(6.0).reshape(3, 2)
    yield ("AFS1", lambda p: fileio.write_features(p, frames),
           fileio.read_features, "")
    yield ("VPS1", lambda p: fileio.write_posteriors(p, np.array([0.1, 0.5, 0.9])),
           fileio.read_posteriors, "")
    yield ("FWT1", lambda p: fileio.write_frame_weights(p, np.array([1.0, 2.0, 3.0])),
           fileio.read_frame_weights, "")
    yield ("vector-set", lambda p: fileio.write_vector_set(p, ["a", "b", "c"], frames),
           fileio.read_vector_set, ".afs")


@pytest.mark.parametrize("write, read, suffix", [
    pytest.param(write, read, suffix, id=kind)
    for kind, write, read, suffix in _frame_files()])
def test_frame_file_with_trailing_bytes_raises_format_error(tmp_path, write, read, suffix):
    path = tmp_path / "frames"
    write(path)
    read(path)
    matrix = tmp_path / f"frames{suffix}"
    matrix.write_bytes(matrix.read_bytes() + struct.pack("<f", 0.0))
    with pytest.raises(FormatError, match="trailing"):
        read(path)


def _net_files():
    # an attentive net with two TDNN layers: 1,884 bytes
    cfg = EmbedNetConfig(input_dim=3, n_speakers=3, hidden_dim=4, pool_dim=5,
                         embed_dim=4, attention_dim=3,
                         tdnn_offsets=((-1, 0, 1), (0,)))
    yield ("net", lambda p: save_embed_net(p, init_embed_net(cfg, np.random.default_rng(11))),
           load_embed_net, "")


@pytest.mark.parametrize("write, read, suffix", [
    pytest.param(write, read, suffix, id=kind) for kind, write, read, suffix in (
        *((kind, write, read, "") for kind, write, read in _model_files()),
        *_frame_files(), *_net_files())])
def test_byte_flip_loads_or_raises_format_error(tmp_path, write, read, suffix):
    # bit 0 and bit 7 of every byte: each flipped file either loads or
    # raises FormatError, and no header value makes the reader's traced
    # peak reach 1 MB
    path = tmp_path / "artifact"
    write(path)
    target = tmp_path / f"artifact{suffix}"
    data = target.read_bytes()
    for i in range(len(data)):
        for bit in (0, 7):
            flipped = bytearray(data)
            flipped[i] ^= 1 << bit
            target.write_bytes(flipped)
            tracemalloc.start()
            try:
                with np.errstate(all="ignore"):
                    read(path)
            except FormatError:
                pass
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert peak < 1 << 20, f"byte {i}, bit {bit}: peak {peak} bytes"


def _f64(*arrays) -> bytes:
    values = [float(v) for arr in arrays for v in np.ravel(arr)]
    return struct.pack(f"<{len(values)}d", *values)


def _float64_models():
    w, mean2 = np.array([0.25, 0.75]), np.array([-1.5, 2.0])
    m23 = np.arange(6.0).reshape(2, 3) / 8
    v23 = np.arange(1.0, 7.0).reshape(2, 3)
    m21, m22 = np.array([[0.5], [-0.25]]), np.array([[2.0, 0.5], [0.5, 3.0]])
    yield ("GMM1", lambda p: fileio.write_gmm(p, w, m23, v23), fileio.read_gmm,
           struct.pack("<4sII", b"GMM1", 2, 3) + _f64(w, m23, v23), (w, m23, v23))
    yield ("TVM1", lambda p: fileio.write_tvm(p, mean2, m21, w), fileio.read_tvm,
           struct.pack("<4sII", b"TVM1", 2, 1) + _f64(mean2, m21, w), (mean2, m21, w))
    yield ("PLD1", lambda p: fileio.write_plda(p, mean2, m21, m22), fileio.read_plda,
           struct.pack("<4sII", b"PLD1", 2, 1) + _f64(mean2, m21, m22),
           (mean2, m21, m22))
    yield ("PRE1", lambda p: fileio.write_preprocessor(p, mean2, m22),
           fileio.read_preprocessor,
           struct.pack("<4sI", b"PRE1", 2) + _f64(mean2, m22), (mean2, m22))


@pytest.mark.parametrize("write, read, expected, arrays", [
    pytest.param(*case, id=kind) for kind, *case in _float64_models()])
def test_float64_model_bytes_on_disk(tmp_path, write, read, expected, arrays):
    # magic, u32 dimensions, then each array as little-endian float64
    path = tmp_path / "model"
    write(path)
    assert path.read_bytes() == expected
    back = read(path)
    assert len(back) == len(arrays)
    for got, want in zip(back, arrays):
        np.testing.assert_array_equal(got, want)
        assert got.shape == want.shape


class TestTextSidecars:
    def test_vector_set_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        ids = ["spk000_u00", "spk000_u01", "spk003_u02"]
        vecs = rng.standard_normal((3, 6))
        fileio.write_vector_set(tmp_path / "enroll", ids, vecs)
        ids2, vecs2 = fileio.read_vector_set(tmp_path / "enroll")
        assert ids2 == ids
        np.testing.assert_array_equal(
            vecs2, vecs.astype(np.float32).astype(np.float64))

    def test_vector_set_id_mismatch(self, tmp_path):
        with pytest.raises(FormatError):
            fileio.write_vector_set(tmp_path / "bad", ["a"], np.zeros((2, 3)))
        # a sidecar that is not UTF-8 is refused, naming the file
        fileio.write_vector_set(tmp_path / "latin", ["a", "b"], np.zeros((2, 3)))
        (tmp_path / "latin.ids").write_bytes(b"a\n\xffb\n")
        with pytest.raises(FormatError, match="latin.ids"):
            fileio.read_vector_set(tmp_path / "latin")

    def test_trial_list_round_trip(self, tmp_path):
        trials = [("e1", "t1", True), ("e1", "t2", False), ("e2", "t1", False)]
        path = tmp_path / "trials.txt"
        fileio.write_trial_list(path, trials)
        assert fileio.read_trial_list(path) == trials

    def test_trial_list_bad_label(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("e1 t1 maybe\n")
        with pytest.raises(FormatError):
            fileio.read_trial_list(path)
        path.write_bytes(b"e1 t1 target\ne1 t\xff2 nontarget\n")
        with pytest.raises(FormatError, match="bad.txt"):
            fileio.read_trial_list(path)

    @pytest.mark.parametrize("line", [b"e1 t2 high\n", b"e1 t2\n", b"e1 t\xff2 0.5\n"],
                             ids=["bad-score", "two-fields", "not-utf8"])
    def test_scores_bad_line(self, tmp_path, line):
        path = tmp_path / "scores.txt"
        path.write_bytes(b"e1 t1 1.5\n" + line)
        with pytest.raises(FormatError, match="scores.txt"):
            fileio.read_scores(path)

    def test_scores_round_trip(self, tmp_path):
        scored = [("e1", "t1", 1.25), ("e2", "t9", -3.5)]
        path = tmp_path / "scores.txt"
        fileio.write_scores(path, scored)
        back = fileio.read_scores(path)
        assert [(e, t) for e, t, _ in back] == [(e, t) for e, t, _ in scored]
        np.testing.assert_allclose([s for _, _, s in back],
                                   [s for _, _, s in scored], rtol=1e-12)
