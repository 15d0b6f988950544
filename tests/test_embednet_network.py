"""Network tests: splice/TDNN oracles, embedding routes, gradients, I/O."""

import copy
import dataclasses

import numpy as np
import pytest

from deskspeaker import fileio
from deskspeaker.embednet import network
from deskspeaker.embednet import train as train_module

from deskspeaker.embednet import (DEFAULT_TDNN_OFFSETS, EmbedNetConfig,
                                  attention_scores, attention_weights,
                                  chunk_loss, chunk_loss_and_grads,
                                  embed_hidden, export_attention_weights,
                                  extract_embedding, fold_tdnn,
                                  forward_logits, init_embed_net, kink_margin,
                                  load_embed_net, pool_weighted_stats,
                                  save_embed_net, tdnn_forward,
                                  train_embed_network)
from deskspeaker.errors import (FormatError, MissingAttentionError,
                                NumericsError, TooShortUtteranceError)


def _toy_config(attentive=True, n_speakers=3):
    return EmbedNetConfig(input_dim=3, n_speakers=n_speakers, hidden_dim=4,
                          pool_dim=5, embed_dim=4, attention_dim=3,
                          attentive=attentive,
                          tdnn_offsets=((-1, 0, 1), (-1, 1), (0,)))


def _toy_params(rng, attentive=True, n_speakers=3):
    params = init_embed_net(_toy_config(attentive, n_speakers), rng)
    # randomize the normalization buffers so oracles exercise them too
    for norm in _norms(params):
        norm.running_mean = rng.standard_normal(norm.running_mean.shape) * 0.2
        norm.running_var = rng.random(norm.running_var.shape) + 0.5
    return params


def _norms(params):
    out = [layer.norm for layer in params.tdnn]
    if params.attention is not None:
        out.append(params.attention.norm)
    out.extend([params.norm1, params.norm2])
    return out


def _tdnn_oracle(x, params):
    """Per-frame loops over every layer: splice, affine, ReLU, normalize."""
    y = x
    for layer in params.tdnn:
        lo, hi = min(layer.offsets), max(layer.offsets)
        rows = []
        for t in range(-lo, y.shape[0] - hi):
            spliced = np.concatenate([y[t + o] for o in layer.offsets])
            z = layer.linear.weight @ spliced + layer.linear.bias
            rows.append(layer.norm.apply(np.maximum(z, 0.0)))
        y = np.array(rows)
    return y


def _ref_block_backward(dy, x, z, r, layer, norm, grads, acts, layer_name, site):
    """Backward of one Linear -> ReLU -> norm block: stores its gradients and
    r, and returns the gradient of its input x."""
    inv = norm.scale()
    grads[f"{site}.gamma"] = (dy * (r - norm.running_mean) * inv).sum(axis=0)
    grads[f"{site}.beta"] = dy.sum(axis=0)
    dz = dy * norm.gamma * inv * (z > 0)
    grads[f"{layer_name}.w"] = np.dot(dz.T, x)
    grads[f"{layer_name}.b"] = dz.sum(axis=0)
    acts[site] = r
    return dz @ layer.weight


def _unfolded_step(params, x, label, mode):
    """One training step through the unfolded TDNN stack: per layer splice,
    affine, ReLU and norm forward, and the gradient of every layer's input,
    the frames included. The folded step is pinned to it."""
    cache = []
    y = x
    for layer in params.tdnn:
        spliced = network._splice(y, layer.offsets)
        z = spliced @ layer.linear.weight.T + layer.linear.bias
        r = np.maximum(z, 0.0)
        y = layer.norm.apply(r)
        cache.append((spliced, z, r))
    h, c, grads, acts = y, {}, {}, {}
    _, logits = network._pool_forward(params, h, mode, c)
    loss, dlogits = network.softmax_cross_entropy(logits, label)
    grads.update({"out.w": np.outer(dlogits, c["y2"]), "out.b": dlogits})
    dy = dlogits[None, :] @ params.out.weight
    dy = _ref_block_backward(dy, c["y1"], c["z2"], c["r2"], params.seg2,
                             params.norm2, grads, acts, "seg2", "norm2")
    ds = _ref_block_backward(dy, c["s"], c["emb"], c["r1"], params.seg1,
                             params.norm1, grads, acts, "seg1", "norm1")[0]
    dim = h.shape[1]
    mean, sigma = c["s"][0, :dim], c["s"][0, dim:]
    pos = c["radicand"] > 1e-12
    dradicand = np.where(pos, ds[dim:] * 0.5 / np.where(pos, sigma, 1.0), 0.0)
    dmean = ds[:dim] - 2.0 * mean * dradicand
    alpha = c["alpha"]
    dh = alpha[:, None] * (dmean[None, :] + 2.0 * h * dradicand[None, :])
    if "ua" in c:
        dalpha = h @ dmean + (h * h) @ dradicand
        de = alpha * (dalpha - alpha @ dalpha)
        att = params.attention
        grads["att.v"] = c["ua"].T @ de
        grads["att.k"] = np.asarray(de.sum())
        dh = dh + _ref_block_backward(np.outer(de, att.v), h, c["za"], c["ra"],
                                      att, att.norm, grads, acts, "att", "att")
    dy = dh
    for i in reversed(range(len(params.tdnn))):
        layer = params.tdnn[i]
        spliced, z, r = cache[i]
        dspliced = _ref_block_backward(dy, spliced, z, r, layer.linear, layer.norm,
                                       grads, acts, f"tdnn{i}", f"tdnn{i}")
        offsets, n_out = layer.offsets, dy.shape[0]
        in_dim = dspliced.shape[1] // len(offsets)
        dy = np.zeros((n_out + offsets[-1] - offsets[0], in_dim))
        for j, o in enumerate(offsets):
            shift = o - offsets[0]
            dy[shift:shift + n_out] += dspliced[:, j * in_dim:(j + 1) * in_dim]
    return loss, grads, acts


def _random_default_net(rng, attentive):
    """A net at the default offsets with non-identity running statistics,
    gammas and nonzero betas and biases in every layer."""
    params = init_embed_net(EmbedNetConfig(
        input_dim=6, n_speakers=3, hidden_dim=16, pool_dim=24, embed_dim=5,
        attention_dim=4, attentive=attentive), rng)
    for layer in params.tdnn:
        norm = layer.norm
        norm.running_mean = rng.standard_normal(norm.running_mean.shape)
        norm.running_var = rng.random(norm.running_var.shape) + 0.2
        norm.gamma = rng.uniform(0.5, 1.5, norm.gamma.shape)
        norm.beta = rng.standard_normal(norm.beta.shape)
        layer.linear.bias = rng.standard_normal(layer.linear.bias.shape)
    return params


class TestTdnnForward:
    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(40)
        params = _toy_params(rng)
        x = rng.standard_normal((12, 3))
        np.testing.assert_allclose(tdnn_forward(x, params),
                                   _tdnn_oracle(x, params), atol=1e-12)

    def test_context_and_length(self):
        rng = np.random.default_rng(41)
        params = _toy_params(rng)
        assert params.left_context == 2
        assert params.right_context == 2
        assert tdnn_forward(rng.standard_normal((9, 3)), params).shape[0] == 5

    def test_default_offsets_span_fifteen_frames(self):
        rng = np.random.default_rng(42)
        cfg = EmbedNetConfig(input_dim=3, n_speakers=2, hidden_dim=4,
                             pool_dim=4, embed_dim=3, attention_dim=2)
        params = init_embed_net(cfg, rng)
        assert params.left_context == 7
        assert params.right_context == 7
        assert tdnn_forward(rng.standard_normal((20, 3)), params).shape[0] == 6
        assert DEFAULT_TDNN_OFFSETS[0] == (-2, -1, 0, 1, 2)

    def test_too_short_utterance(self):
        rng = np.random.default_rng(43)
        params = _toy_params(rng)
        with pytest.raises(TooShortUtteranceError):
            tdnn_forward(rng.standard_normal((4, 3)), params)
        # the default offsets span 15 frames; the check names the whole
        # context up front, not the layer where the frames run out
        deep = init_embed_net(dataclasses.replace(
            _toy_config(), tdnn_offsets=DEFAULT_TDNN_OFFSETS), rng)
        with pytest.raises(TooShortUtteranceError, match=r"\b14 frames.*\b15 frames"):
            tdnn_forward(rng.standard_normal((14, 3)), deep)
        assert tdnn_forward(rng.standard_normal((15, 3)), deep).shape == (1, 5)

    def test_wrong_dim_rejected(self):
        rng = np.random.default_rng(44)
        params = _toy_params(rng)
        with pytest.raises(FormatError):
            tdnn_forward(rng.standard_normal((10, 5)), params)

    @pytest.mark.parametrize("attentive", [True, False])
    def test_folded_forward_matches_training_forward(self, attentive):
        rng = np.random.default_rng(48)
        params = _random_default_net(rng, attentive)
        x = rng.standard_normal((60, 6))
        want = _tdnn_oracle(x, params)
        folded = fold_tdnn(params)
        for got in (tdnn_forward(x, params), tdnn_forward(x, folded)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        # the fold holds copies: a training step's in-place updates of the
        # net leave it as it was
        for layer in params.tdnn:
            for arr in (layer.linear.weight, layer.linear.bias, layer.norm.gamma,
                        layer.norm.beta, layer.norm.running_mean, layer.norm.running_var):
                arr += 0.5
        np.testing.assert_array_equal(tdnn_forward(x, folded), got)
        # the same checks as the training forward
        with pytest.raises(FormatError):
            tdnn_forward(x[:, :5], folded)
        with pytest.raises(TooShortUtteranceError, match=r"\b14 frames"):
            tdnn_forward(x[:14], folded)


class TestEmbeddingRoutes:
    def test_uniform_embedding_matches_oracle(self):
        rng = np.random.default_rng(45)
        params = _toy_params(rng)
        x = rng.standard_normal((14, 3))
        h = _tdnn_oracle(x, params)
        stats = pool_weighted_stats(h, np.full(h.shape[0], 1.0 / h.shape[0]))
        expected = params.seg1.weight @ stats.concat() + params.seg1.bias
        np.testing.assert_allclose(extract_embedding(x, params, "uniform"),
                                   expected, atol=1e-12)

    def test_internal_equals_explicit_alpha(self):
        rng = np.random.default_rng(46)
        params = _toy_params(rng)
        x = rng.standard_normal((13, 3))
        alpha = export_attention_weights(x, params)
        np.testing.assert_allclose(extract_embedding(x, params, "internal"),
                                   extract_embedding(x, params, alpha),
                                   atol=1e-14)

    def test_exported_weights_are_softmax_of_scores(self):
        rng = np.random.default_rng(47)
        params = _toy_params(rng)
        x = rng.standard_normal((11, 3))
        alpha = export_attention_weights(x, params)
        assert alpha.shape == (7,)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        h = tdnn_forward(x, params)
        np.testing.assert_allclose(
            alpha, attention_weights(attention_scores(h, params.attention)),
            atol=1e-14)

    def test_stacked_weights_equal_one_row_calls(self):
        rng = np.random.default_rng(49)
        params = _toy_params(rng)
        h = tdnn_forward(rng.standard_normal((14, 3)), params)
        rows = np.array([rng.dirichlet(np.ones(h.shape[0])) for _ in range(3)])
        stacked = embed_hidden(h, params, rows)
        assert stacked.shape == (3, params.seg1.weight.shape[0])
        for row, got in zip(rows, stacked):
            np.testing.assert_array_equal(got, embed_hidden(h, params, row))

    def test_embedding_runs_no_layer_after_the_first_segment_layer(self):
        # seg2 and the output layer feed only the training loss
        rng = np.random.default_rng(50)
        params = _toy_params(rng)
        x = rng.standard_normal((14, 3))
        want = extract_embedding(x, params, "internal")
        params.seg2.weight[:] = np.nan
        params.out.weight[:] = np.nan
        np.testing.assert_array_equal(extract_embedding(x, params, "internal"), want)
        # NaN weights only reach logits that are thrown away; without the
        # layers at all, a pass through them would fail
        cut = dataclasses.replace(params, seg2=None, norm2=None, out=None)
        h = tdnn_forward(x, cut)
        for weights in ("uniform", "internal", np.full(h.shape[0], 1.0 / h.shape[0])):
            emb = embed_hidden(h, cut, weights)
            assert emb.shape == (4,) and np.isfinite(emb).all()
        np.testing.assert_array_equal(embed_hidden(h, cut, "internal"), want)

    def test_plain_network_has_no_weights_to_export(self):
        rng = np.random.default_rng(48)
        params = _toy_params(rng, attentive=False)
        with pytest.raises(MissingAttentionError):
            export_attention_weights(np.zeros((10, 3)), params)

    def test_internal_mode_needs_attention(self):
        rng = np.random.default_rng(49)
        params = _toy_params(rng, attentive=False)
        with pytest.raises(MissingAttentionError):
            extract_embedding(np.zeros((10, 3)), params, "internal")

    def test_forward_logits_shape_and_default_mode(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((12, 3))
        att = _toy_params(rng, n_speakers=4)
        logits = forward_logits(x, att)
        assert logits.shape == (4,)
        # attentive network defaults to its own attention
        np.testing.assert_allclose(logits, forward_logits(x, att, "internal"),
                                   atol=1e-14)


class TestGradients:
    @pytest.mark.parametrize("attentive,mode", [(True, "internal"),
                                                (True, "uniform"),
                                                (False, "uniform")])
    def test_analytic_matches_central_differences(self, attentive, mode):
        rng = np.random.default_rng(51)
        # redraw instances that sit within the probe step of a ReLU kink
        # or of the sqrt branch point, where central differences lie
        for _ in range(50):
            params = _toy_params(rng, attentive=attentive)
            x = rng.standard_normal((9, 3))
            margin, radicand = kink_margin(params, x, mode)
            if margin > 1e-3 and radicand > 1e-3:
                break
        else:
            pytest.fail("no well-conditioned instance found")
        label = 1
        _, grads, _ = chunk_loss_and_grads(params, x, label, mode)
        h = 1e-5
        worst = 0.0
        for name, arr in network._param_items(params):
            # parameters off the active route have zero gradient
            g = np.ravel(grads.get(name, np.zeros(arr.shape)))
            fd = np.zeros(arr.size)
            for j in range(arr.size):
                p0 = arr.flat[j]
                arr.flat[j] = p0 + h
                up = chunk_loss(params, x, label, mode)
                arr.flat[j] = p0 - h
                fd[j] = (up - chunk_loss(params, x, label, mode)) / (2 * h)
                arr.flat[j] = p0
            # denominator floor 1e-5 sits above the FD roundoff floor
            # (ulp(loss)/2h), so zero-gradient components compare at 1e-9 abs
            rel = np.abs(g - fd) / np.maximum(1e-5, np.maximum(np.abs(g),
                                                               np.abs(fd)))
            worst = max(worst, rel.max())
        assert worst < 1e-4

    @pytest.mark.parametrize("attentive,mode", [(True, "internal"),
                                                (True, "uniform"),
                                                (False, "uniform")])
    def test_gradient_names_match_parameter_names(self, attentive, mode):
        # the SGD step adds each gradient into its parameter by name, so a
        # missing or misnamed entry would silently freeze that parameter
        rng = np.random.default_rng(60)
        params = _toy_params(rng, attentive=attentive)
        _, grads, _ = chunk_loss_and_grads(params, rng.standard_normal((9, 3)), 0, mode)
        want = {name: arr.shape for name, arr in network._param_items(params)
                if not (attentive and mode == "uniform" and name.startswith("att."))}
        assert {name: np.shape(g) for name, g in grads.items()} == want

    @pytest.mark.parametrize("attentive", [True, False])
    def test_training_functions_reject_unknown_modes(self, attentive):
        rng = np.random.default_rng(57)
        params = _toy_params(rng, attentive=attentive)
        x = rng.standard_normal((9, 3))
        for mode in ("attentive", "Uniform", ""):
            with pytest.raises(FormatError):
                chunk_loss(params, x, 0, mode)
            with pytest.raises(FormatError):
                network.relu_inputs(params, x, mode)
            with pytest.raises(FormatError):
                chunk_loss_and_grads(params, x, 0, mode)

    def test_internal_mode_on_plain_network_raises(self):
        rng = np.random.default_rng(58)
        params = _toy_params(rng, attentive=False)
        x = rng.standard_normal((9, 3))
        with pytest.raises(MissingAttentionError):
            chunk_loss_and_grads(params, x, 0, "internal")
        with pytest.raises(MissingAttentionError):
            chunk_loss(params, x, 0, "internal")
        with pytest.raises(MissingAttentionError):
            network.relu_inputs(params, x, "internal")

    @pytest.mark.parametrize("mode", ["internal", "uniform"])
    def test_training_forward_equals_inference_forward(self, mode):
        # one pooling forward serves training, the kink check and forward_logits
        rng = np.random.default_rng(59)
        params = _toy_params(rng)
        x = rng.standard_normal((11, 3))
        loss, _, _ = chunk_loss_and_grads(params, x, 2, mode)
        want, _ = network.softmax_cross_entropy(forward_logits(x, params, mode), 2)
        assert loss == want == chunk_loss(params, x, 2, mode)
        _, radicand = kink_margin(params, x, mode)
        h = tdnn_forward(x, params)
        alpha = (export_attention_weights(x, params) if mode == "internal"
                 else np.full(h.shape[0], 1.0 / h.shape[0]))
        stats = pool_weighted_stats(h, alpha)
        assert radicand == pytest.approx(float((stats.std ** 2).min()), abs=1e-12)

    @pytest.mark.parametrize("attentive,mode", [(True, "internal"), (False, "uniform")])
    def test_folded_step_matches_unfolded_reference(self, attentive, mode):
        rng = np.random.default_rng(61)
        params = _random_default_net(rng, attentive)
        x = rng.standard_normal((40, 6))
        # Every TDNN unit clips 30% of this chunk's frames: no unit is dead,
        # which would leave a pooled variance of rounding noise under a sqrt
        y = x
        for layer in params.tdnn:
            z = network._splice(y, layer.offsets) @ layer.linear.weight.T + layer.linear.bias
            cut = np.quantile(z, 0.3, axis=0)
            layer.linear.bias -= cut
            y = layer.norm.apply(np.maximum(z - cut, 0.0))
        if attentive:
            params.attention.v[:] = rng.standard_normal(params.attention.v.shape) * 0.3
        margin, radicand = kink_margin(params, x, mode)
        assert margin > 1e-6 and radicand > 1e-3
        loss, grads, acts = chunk_loss_and_grads(params, x, 1, mode)
        want_loss, want, want_acts = _unfolded_step(params, x, 1, mode)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert set(grads) == set(want)
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            # att.k and att.beta are zero up to rounding (softmax shift
            # invariance), so they compare against the step's gradient scale
            bound = scale if name in ("att.k", "att.beta") else np.abs(g).max()
            assert np.abs(grads[name] - g).max() <= 1e-12 * bound, name
        assert set(acts) == set(want_acts)
        for site, r in want_acts.items():
            np.testing.assert_allclose(acts[site], r, rtol=0,
                                       atol=1e-12 * np.abs(r).max(), err_msg=site)

    @pytest.mark.parametrize("attentive,mode", [(True, "internal"), (False, "uniform")])
    def test_float32_step_matches_float64_step(self, attentive, mode):
        # a training step runs the TDNN stack in float32 under float64
        # parameters; everything above the stack stays float64
        rng = np.random.default_rng(62)
        params = _random_default_net(rng, attentive)
        x = rng.standard_normal((100, 6)).astype(np.float32)
        if attentive:
            params.attention.v[:] = rng.standard_normal(params.attention.v.shape) * 0.3
        loss, grads, acts = chunk_loss_and_grads(params, x, 1, mode, fold_tdnn(params, np.float32))
        want_loss, want, _ = chunk_loss_and_grads(params, x, 1, mode, fold_tdnn(params))
        assert acts["tdnn0"].dtype == np.float32
        assert loss == pytest.approx(want_loss, rel=1e-5)
        assert set(grads) == set(want)
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            # att.k and att.beta are zero up to rounding (see above)
            bound = scale if name in ("att.k", "att.beta") else np.abs(g).max()
            assert np.abs(grads[name] - g).max() <= 1e-5 * bound, name

    def test_loss_is_positive_and_finite(self):
        rng = np.random.default_rng(52)
        params = _toy_params(rng)
        loss, grads, acts = chunk_loss_and_grads(
            params, rng.standard_normal((10, 3)), 0, "internal")
        assert np.isfinite(loss) and loss > 0
        assert all(np.isfinite(v).all() for v in grads.values())
        assert set(acts) >= {"tdnn0", "att", "norm1", "norm2"}


class TestSaveLoad:
    def test_round_trip_casts_to_float32(self, tmp_path):
        rng = np.random.default_rng(53)
        params = _toy_params(rng)
        path = tmp_path / "net.emb1"
        save_embed_net(path, params)
        loaded = load_embed_net(path)
        want = dict(network._param_items(params))
        got = dict(network._param_items(loaded))
        assert list(got) == list(want)
        for name, arr in want.items():
            np.testing.assert_array_equal(
                got[name], arr.astype(np.float32).astype(np.float64), err_msg=name)
        assert loaded.attention is not None
        assert [l.offsets for l in loaded.tdnn] == [l.offsets for l in params.tdnn]

    def test_round_trip_preserves_buffers_and_outputs(self, tmp_path):
        rng = np.random.default_rng(54)
        params = _toy_params(rng)
        x = rng.standard_normal((12, 3))
        before = extract_embedding(x, params, "internal")
        save_embed_net(tmp_path / "net.emb1", params)
        loaded = load_embed_net(tmp_path / "net.emb1")
        after = extract_embedding(x, loaded, "internal")
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-5)

    def test_plain_network_round_trip(self, tmp_path):
        rng = np.random.default_rng(55)
        params = _toy_params(rng, attentive=False)
        save_embed_net(tmp_path / "plain.emb1", params)
        assert load_embed_net(tmp_path / "plain.emb1").attention is None

    @pytest.mark.parametrize("damage, message", [
        (lambda meta, tensors: meta.pop("tdnn1.offset0"), "tdnn1.offset0"),
        (lambda meta, tensors: meta.update({"tdnn0.offset0": 1}), "offsets"),
        (lambda meta, tensors: meta.update({"input_dim": 2 ** 40}), "dimension"),
        (lambda meta, tensors: tensors.pop("norm2.var"), "norm2.var"),
        (lambda meta, tensors: tensors.update({"seg3.w": np.eye(2)}), "seg3.w"),
        (lambda meta, tensors: tensors.update(
            {"seg2.w": tensors["seg2.w"][:, 1:]}), "seg2.w"),
        # the widths come from these gammas' sizes, checked before any
        # allocation: a zero one is a format error, not a config error
        *((lambda meta, tensors, name=name: tensors.update({name: np.zeros(0)}), "zero")
          for name in ("tdnn0.gamma", "tdnn2.gamma", "att.gamma", "norm2.gamma")),
        (lambda meta, tensors: meta.update({"input_dim": 0}), "zero"),
    ], ids=["missing-meta-key", "unsorted-offsets", "absurd-input-dim",
            "missing-tensor", "extra-tensor", "misshaped-tensor",
            "zero-hidden-dim", "zero-pool-dim", "zero-attention-dim",
            "zero-embed-dim", "zero-input-dim"])
    def test_malformed_net_raises_format_error(self, tmp_path, damage, message):
        path = tmp_path / "net.emb1"
        save_embed_net(path, _toy_params(np.random.default_rng(57)))
        meta, tensors = fileio.read_named_tensors(path, b"EMB1")
        damage(meta, tensors)
        fileio.write_named_tensors(path, b"EMB1", meta, tensors)
        with pytest.raises(FormatError, match=message):
            load_embed_net(path)


class TestTrainingDeterminism:
    def _tiny_corpus(self):
        rng = np.random.default_rng(56)
        means = rng.standard_normal((3, 3)) * 2.0
        utts, labels = [], []
        for spk in range(3):
            for _ in range(4):
                utts.append(means[spk] + rng.standard_normal((20, 3)) * 0.5)
                labels.append(spk)
        return utts, labels

    def test_same_seed_identical_parameters(self):
        utts, labels = self._tiny_corpus()
        cfg = EmbedNetConfig(input_dim=3, n_speakers=3, hidden_dim=4,
                             pool_dim=5, embed_dim=4, attention_dim=3,
                             tdnn_offsets=((-1, 0, 1), (0,)), epochs=2,
                             chunk_len=12, batch_size=4, seed=77)
        a = train_embed_network(utts, labels, cfg)
        b = train_embed_network(utts, labels, cfg)
        for (name, arr_a), (_, arr_b) in zip(network._param_items(a),
                                             network._param_items(b), strict=True):
            np.testing.assert_array_equal(arr_a, arr_b, err_msg=name)
        np.testing.assert_array_equal(a.train_loss, b.train_loss)

    def test_different_seed_differs(self):
        utts, labels = self._tiny_corpus()
        kw = dict(input_dim=3, n_speakers=3, hidden_dim=4, pool_dim=5,
                  embed_dim=4, attention_dim=3,
                  tdnn_offsets=((-1, 0, 1), (0,)), epochs=1, chunk_len=12,
                  batch_size=4)
        a = train_embed_network(utts, labels, EmbedNetConfig(seed=1, **kw))
        b = train_embed_network(utts, labels, EmbedNetConfig(seed=2, **kw))
        assert not all(np.array_equal(arr_a, arr_b) for (_, arr_a), (_, arr_b)
                       in zip(network._param_items(a), network._param_items(b),
                              strict=True))

    def test_plain_and_attentive_share_init_and_chunks(self, monkeypatch):
        # one seed for both kinds: every draw except the attention head's is
        # shared, so the two nets differ only by what attention changes
        utts, labels = self._tiny_corpus()
        starts, chunks = [], []
        real_init = train_module.init_embed_net
        real_sample = train_module._sample_chunk

        def spy_init(*args):
            params = real_init(*args)
            starts.append(copy.deepcopy(params))
            return params

        def spy_sample(frames, chunk_len, rng):
            chunk = real_sample(frames, chunk_len, rng)
            chunks[-1].append(chunk)
            return chunk

        monkeypatch.setattr(train_module, "init_embed_net", spy_init)
        monkeypatch.setattr(train_module, "_sample_chunk", spy_sample)
        kw = dict(input_dim=3, n_speakers=3, hidden_dim=4, pool_dim=5,
                  embed_dim=4, attention_dim=3,
                  tdnn_offsets=((-1, 0, 1), (0,)), epochs=2, chunk_len=12,
                  batch_size=4, seed=5)
        for attentive in (False, True):
            chunks.append([])
            train_embed_network(utts, labels,
                                EmbedNetConfig(attentive=attentive, **kw))
        plain, att = starts
        assert plain.attention is None and att.attention is not None

        def shared(params):
            linears = [layer.linear for layer in params.tdnn]
            linears += [params.seg1, params.seg2, params.out]
            return [arr for lin in linears for arr in (lin.weight, lin.bias)]

        for a, b in zip(shared(plain), shared(att), strict=True):
            np.testing.assert_array_equal(a, b)
        assert len(chunks[0]) == len(chunks[1]) > 0
        for a, b in zip(*chunks):
            np.testing.assert_array_equal(a, b)

    def test_attentive_net_starts_as_plain_net(self):
        # after the warm start and before any SGD step the attention head
        # is silent: uniform pooling, and every shared layer and norm buffer
        # equal to the plain net's
        utts, labels = self._tiny_corpus()
        kw = dict(input_dim=3, n_speakers=3, hidden_dim=4, pool_dim=5,
                  embed_dim=4, attention_dim=3,
                  tdnn_offsets=((-1, 0, 1), (0,)), epochs=0, chunk_len=12,
                  batch_size=4, seed=5)
        plain = train_embed_network(utts, labels,
                                    EmbedNetConfig(attentive=False, **kw))
        att = train_embed_network(utts, labels,
                                  EmbedNetConfig(attentive=True, **kw))
        np.testing.assert_array_equal(att.attention.v, 0.0)
        alpha = export_attention_weights(utts[0], att)
        np.testing.assert_array_equal(alpha, np.full(alpha.size, 1.0 / alpha.size))

        def shared(params):
            layers = [(layer.linear, layer.norm) for layer in params.tdnn]
            layers += [(params.seg1, params.norm1), (params.seg2, params.norm2)]
            arrays = [params.out.weight, params.out.bias]
            for lin, norm in layers:
                arrays += [lin.weight, lin.bias, norm.running_mean,
                           norm.running_var]
            return arrays

        for a, b in zip(shared(plain), shared(att), strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(forward_logits(utts[0], plain),
                                      forward_logits(utts[0], att))

    @pytest.mark.parametrize("attentive", [True, False])
    def test_warm_start_keeps_every_relu_input_off_the_kink(self, monkeypatch, attentive):
        # each unit's smallest warm-sample input sits WARM_MARGIN of its
        # range above zero, so rounding cannot decide whether it is active
        utts, labels = self._tiny_corpus()
        chunks = []
        real_sample = train_module._sample_chunk

        def spy_sample(frames, chunk_len, rng):
            chunks.append(real_sample(frames, chunk_len, rng))
            return chunks[-1]

        monkeypatch.setattr(train_module, "_sample_chunk", spy_sample)
        cfg = EmbedNetConfig(input_dim=3, n_speakers=3, hidden_dim=4,
                             pool_dim=5, embed_dim=4, attention_dim=3,
                             tdnn_offsets=((-1, 0, 1), (0,)), epochs=0,
                             chunk_len=12, batch_size=2, attentive=attentive, seed=9)
        params = train_embed_network(utts, labels, cfg)
        assert len(chunks) == 8  # the warm sample: 4 batches' worth
        mode = "internal" if attentive else "uniform"
        inputs = [network.relu_inputs(params, chunk, mode)[0] for chunk in chunks]
        assert set(inputs[0]) == {site for site, _, _ in network.relu_sites(params)}
        for site in inputs[0]:
            z = np.vstack([chunk_inputs[site] for chunk_inputs in inputs])
            low, high = z.min(axis=0), z.max(axis=0)
            assert np.all(high > low), site
            assert np.all(low >= train_module.WARM_MARGIN * (high - low) * (1 - 1e-9)), site

    def test_one_fold_per_sgd_step(self, monkeypatch):
        utts, labels = self._tiny_corpus()  # 12 utterances: 3 batches of 4
        cfg = EmbedNetConfig(input_dim=3, n_speakers=3, hidden_dim=4,
                             pool_dim=5, embed_dim=4, attention_dim=3,
                             tdnn_offsets=((-1, 0, 1), (0,)), epochs=2,
                             chunk_len=12, batch_size=4, seed=7)
        folds, step_nets = [], []
        real_fold = train_module.fold_tdnn
        real_step = train_module.chunk_loss_and_grads

        def spy_fold(params, *dtype):
            folds.append(real_fold(params, *dtype))
            return folds[-1]

        def spy_step(params, x, label, mode, net=None):
            step_nets.append(net)
            return real_step(params, x, label, mode, net)

        def no_fold(params):  # a step or warm-start forward given a fold folds again
            raise AssertionError("folded again")

        monkeypatch.setattr(train_module, "fold_tdnn", spy_fold)
        monkeypatch.setattr(train_module, "chunk_loss_and_grads", spy_step)
        monkeypatch.setattr(network, "fold_tdnn", no_fold)
        params = train_embed_network(utts, labels, cfg)
        n_steps = cfg.epochs * 3
        n_sites = len(list(network.relu_sites(params)))
        assert n_steps < len(folds) <= n_steps + n_sites
        # every chunk of a step runs the fold made for that step
        assert len(step_nets) == cfg.epochs * len(utts)
        assert all(step_nets[k] is step_nets[k - k % 4] for k in range(len(step_nets)))
        assert len({id(net) for net in step_nets}) == n_steps
        assert all(any(net is f for f in folds) for net in step_nets)

    def test_running_statistics_from_sums_equal_two_pass(self):
        rng = np.random.default_rng(63)
        params = _toy_params(rng)
        chunks = [np.maximum(rng.standard_normal((n, 4)) * 3.0 + 5.0, 0.0)
                  for n in (30, 1, 17, 30)]
        sums = {}
        for r in chunks:
            train_module._add_moments(sums, "tdnn0", r)
        assert sums["tdnn0"][0] == 78
        train_module._update_norms(params, sums, momentum=1.0)
        stacked = np.vstack(chunks)
        norm = params.tdnn[0].norm
        np.testing.assert_allclose(norm.running_mean, stacked.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(norm.running_var, stacked.var(axis=0), rtol=1e-12)
        # a momentum step moves the buffers by that share of the difference
        before_mean, before_var = norm.running_mean.copy(), norm.running_var.copy()
        train_module._update_norms(params, {"tdnn0": [1, np.zeros(4), np.zeros(4)]}, 0.25)
        np.testing.assert_allclose(norm.running_mean, 0.75 * before_mean, rtol=1e-15)
        np.testing.assert_allclose(norm.running_var, 0.75 * before_var, rtol=1e-15)

    def test_label_validation(self):
        utts, labels = self._tiny_corpus()
        cfg = EmbedNetConfig(input_dim=3, n_speakers=2, hidden_dim=4,
                             pool_dim=5, embed_dim=4, attention_dim=3,
                             tdnn_offsets=((-1, 0, 1), (0,)), epochs=1)
        with pytest.raises(ValueError):
            train_embed_network(utts, labels, cfg)
        # one label per utterance, checked before training starts
        cfg = dataclasses.replace(cfg, n_speakers=3)
        for bad in (labels + [0], labels[:-1]):
            with pytest.raises(ValueError, match="labels for"):
                train_embed_network(utts, bad, cfg)

    def test_divergence_raises_instead_of_returning_nan(self):
        # an absurd learning rate overflows the parameters within an epoch
        # or two; the loop must fail loudly, not hand back NaN weights
        utts, labels = self._tiny_corpus()
        cfg = EmbedNetConfig(input_dim=3, n_speakers=3, hidden_dim=4,
                             pool_dim=5, embed_dim=4, attention_dim=3,
                             tdnn_offsets=((-1, 0, 1), (0,)), epochs=10,
                             chunk_len=12, batch_size=4, lr=1e12, seed=3)
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="diverged"):
            train_embed_network(utts, labels, cfg)
