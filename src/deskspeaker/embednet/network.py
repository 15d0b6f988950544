"""TDNN embedding network: parameters, forward pass, analytic backward pass.

Parameters and extraction are float64 numpy. A training step runs the TDNN
stack, forward and backward, in the dtype of its fold (float32 chunks under
float64 parameters in train_embed_network) and everything above the stack
in float64. Normalization layers read their running buffers during the
differentiated computation (the buffers are updated between steps, never
inside them), so the analytic gradients are exact for the loss actually
evaluated and can be checked against central finite differences.

The TDNN stack runs folded (fold_tdnn), in training and extraction alike:
each norm is an affine map with fixed constants, so it moves into the next
layer's weights and bias. Training folds once per SGD step; the backward
still returns the gradients of the unfolded parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (FormatError, MissingAttentionError, NumericsError,
                      TooShortUtteranceError)
from ..fileio import read_named_tensors, write_named_tensors
from .ops import (AttentionParams, BatchNorm, _block_forward, _row_products,
                  attention_scores, attention_weights, pool_weighted_stats)

DEFAULT_TDNN_OFFSETS = ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,))


@dataclass
class Linear:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)


@dataclass
class TdnnLayer:
    linear: Linear
    offsets: tuple[int, ...]
    norm: BatchNorm


@dataclass
class EmbedStageConfig:
    """The `embednet` config section: one architecture and training recipe,
    shared by the plain and the attentive net."""

    hidden_dim: int = 64
    pool_dim: int = 128
    embed_dim: int = 32
    attention_dim: int = 16
    epochs: int = 25
    lr: float = 0.01
    chunk_len: int = 100
    batch_size: int = 16

    def __post_init__(self):
        for name in ("hidden_dim", "pool_dim", "embed_dim", "attention_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


@dataclass(kw_only=True)
class EmbedNetConfig(EmbedStageConfig):
    """The section plus what the data and the run decide, for one net."""

    input_dim: int
    n_speakers: int
    attentive: bool = True
    tdnn_offsets: tuple = DEFAULT_TDNN_OFFSETS
    seed: int = 0


@dataclass
class EmbedNetParams:
    input_dim: int
    n_speakers: int
    tdnn: list[TdnnLayer]
    attention: AttentionParams | None
    seg1: Linear
    norm1: BatchNorm
    seg2: Linear
    norm2: BatchNorm
    out: Linear
    train_loss: np.ndarray | None = field(default=None, compare=False)

    @property
    def left_context(self) -> int:
        return -sum(min(layer.offsets) for layer in self.tdnn)

    @property
    def right_context(self) -> int:
        return sum(max(layer.offsets) for layer in self.tdnn)


@dataclass(frozen=True)
class FoldedTdnn:
    """The TDNN stack of a net, folded by fold_tdnn.

    layers holds (offsets, taps, bias) per layer, with one (in, out) tap per
    offset. norms holds (inv, scale, shift) per layer: its norm outputs
    y = scale * r + shift, with inv = 1 / sqrt(running_var + eps). Every norm
    but the last is folded into the layer after it, and the last one is
    applied to the stack's output. weights holds each layer's unfolded
    weight in the fold's dtype, for the training backward: a cast copy, or
    the net's own array in float64. Every other array is a copy in that
    dtype, so training the source net afterwards leaves it stale: fold again.
    """

    input_dim: int
    left_context: int
    right_context: int
    layers: tuple
    norms: tuple
    weights: tuple


def init_embed_net(cfg: EmbedNetConfig, rng: np.random.Generator,
                   head_rng: np.random.Generator | None = None) -> EmbedNetParams:
    """Fresh parameters: the shared layers (TDNN, segment, output) draw from
    ``rng`` and the attention head from ``head_rng`` (default: ``rng``). With
    a separate ``head_rng``, a plain and an attentive network built from the
    same ``rng`` state start from identical shared layers."""
    def dense(n_out, n_in, gain=2.0, gen=rng):
        w = gen.standard_normal((n_out, n_in)) * np.sqrt(gain / n_in)
        return Linear(w, np.zeros(n_out))

    layers = []
    in_dim = cfg.input_dim
    n_layers = len(cfg.tdnn_offsets)
    for i, offsets in enumerate(cfg.tdnn_offsets):
        out_dim = cfg.pool_dim if i == n_layers - 1 else cfg.hidden_dim
        layers.append(TdnnLayer(dense(out_dim, len(offsets) * in_dim),
                                tuple(offsets), BatchNorm.identity(out_dim)))
        in_dim = out_dim
    attention = None
    if cfg.attentive:
        head_rng = rng if head_rng is None else head_rng
        att_lin = dense(cfg.attention_dim, in_dim, gen=head_rng)
        v = head_rng.standard_normal(cfg.attention_dim) * np.sqrt(1.0 / cfg.attention_dim)
        attention = AttentionParams(att_lin.weight, att_lin.bias, v,
                                    np.array(0.0), BatchNorm.identity(cfg.attention_dim))
    seg1 = dense(cfg.embed_dim, 2 * in_dim)
    seg2 = dense(cfg.embed_dim, cfg.embed_dim)
    out = dense(cfg.n_speakers, cfg.embed_dim, gain=1.0)
    return EmbedNetParams(cfg.input_dim, cfg.n_speakers, layers, attention,
                          seg1, BatchNorm.identity(cfg.embed_dim),
                          seg2, BatchNorm.identity(cfg.embed_dim), out)


def _splice(x: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    n_out = x.shape[0] - (offsets[-1] - offsets[0])
    return np.hstack([x[(o - offsets[0]):(o - offsets[0]) + n_out] for o in offsets])


def _check_context(params: EmbedNetParams | FoldedTdnn, n_frames: int, utt_id=None):
    """Raise TooShortUtteranceError unless n_frames cover the whole context."""
    needed = params.left_context + params.right_context + 1
    if n_frames < needed:
        name = "" if utt_id is None else f"utterance {utt_id}: "
        raise TooShortUtteranceError(
            f"{name}{n_frames} frames cannot cover the network's context of {needed} frames")


def fold_tdnn(params: EmbedNetParams, dtype=np.float64) -> FoldedTdnn:
    """Fold every norm of the TDNN stack into the layer after it.

    A norm outputs y = a * r + c, with a = gamma / sqrt(var + eps) and
    c = beta - mean * a. The next layer reads y through its spliced weight
    W and bias b, so it may read r instead through W * tile(a) and
    b + W @ tile(c). The fold is computed in float64 and stored in dtype.
    """
    layers, norms = [], []
    for layer in params.tdnn:
        weight, bias = layer.linear.weight, layer.linear.bias.copy()
        n_taps = len(layer.offsets)
        if norms:
            _, scale, shift = norms[-1]
            bias += weight @ np.tile(shift, n_taps)
            weight = weight * np.tile(scale, n_taps)
        width = weight.shape[1] // n_taps
        taps = tuple(np.array(weight[:, j * width:(j + 1) * width].T, dtype, order="C")
                     for j in range(n_taps))
        layers.append((layer.offsets, taps, bias.astype(dtype)))
        inv = layer.norm.scale()
        scale = layer.norm.gamma * inv
        norms.append((inv, scale, layer.norm.beta - layer.norm.running_mean * scale))
    return FoldedTdnn(params.input_dim, params.left_context, params.right_context,
                      tuple(layers), tuple(tuple(a.astype(dtype) for a in n) for n in norms),
                      tuple(np.asarray(layer.linear.weight, dtype) for layer in params.tdnn))


def _folded_forward(net: FoldedTdnn, x: np.ndarray, post: list | None = None,
                    pre: list | None = None) -> np.ndarray:
    """The TDNN stack through its folded layers: per layer one GEMM per
    offset into one sum, the bias and the ReLU; the last norm once.

    post and pre, when given, receive each layer's post-ReLU and pre-ReLU
    arrays; without them the ReLU and the last norm run in place.
    """
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise FormatError(f"expected (L, {net.input_dim}) input, got {x.shape}")
    _check_context(net, x.shape[0])
    r = x
    for offsets, taps, bias in net.layers:
        n_out = r.shape[0] - (offsets[-1] - offsets[0])
        z = r[:n_out] @ taps[0]
        for o, tap in zip(offsets[1:], taps[1:]):
            start = o - offsets[0]
            z += r[start:start + n_out] @ tap
        z += bias
        if pre is not None:
            pre.append(z)
        r = np.maximum(z, 0.0, out=None if pre is not None else z)
        if post is not None:
            post.append(r)
    _, scale, shift = net.norms[-1]
    h = np.multiply(r, scale, out=None if post is not None else r)
    h += shift
    return h


def _attend(h: np.ndarray, params: EmbedNetParams, cache: dict | None = None):
    if params.attention is None:
        raise MissingAttentionError("network has no attention layer")
    return attention_weights(attention_scores(h, params.attention, cache))


def _pool_weights(params: EmbedNetParams, h: np.ndarray, weights, cache: dict | None = None):
    """Resolve a weight source: "uniform", "internal" (the network's own
    attention) or explicit weights over the rows of h, passed through."""
    if not isinstance(weights, str):
        return weights
    if weights == "uniform":
        return np.full(h.shape[0], 1.0 / h.shape[0])
    if weights == "internal":
        return _attend(h, params, cache)
    raise FormatError(f"unknown weight source {weights!r}")


def _pool_forward(params: EmbedNetParams, h: np.ndarray, weights, cache: dict | None = None):
    """Everything above the TDNN stack: pool the hidden sequence h, then run
    the segment layers. Returns (embedding, logits).

    weights: as for _pool_weights, one vector. cache, when given, receives
    the pooling weights (alpha), the attention head's and the pooling's
    intermediates, and each segment layer's arrays as one-row matrices:
    s (pooled statistics), emb/r1/y1 and z2/r2/y2.
    """
    weights = _pool_weights(params, h, weights, cache)
    s = pool_weighted_stats(h, weights, cache).concat()[None, :]
    emb, r1, y1 = _block_forward(s, params.seg1, params.norm1)
    z2, r2, y2 = _block_forward(y1, params.seg2, params.norm2)
    logits = y2 @ params.out.weight.T + params.out.bias
    if cache is not None:
        cache.update(alpha=weights, s=s, emb=emb, r1=r1, y1=y1, z2=z2, r2=r2, y2=y2)
    return emb[0], logits[0]


def tdnn_forward(frames, params: EmbedNetParams | FoldedTdnn) -> np.ndarray:
    """Hidden frame sequence h (valid frames only: L_out = L - total context).

    params: an EmbedNetParams, folded on each call, or a FoldedTdnn from
    fold_tdnn, to fold a net once for many utterances.
    """
    net = params if isinstance(params, FoldedTdnn) else fold_tdnn(params)
    return _folded_forward(net, np.asarray(frames, dtype=np.float64))


def hidden_attention_weights(h: np.ndarray, params: EmbedNetParams) -> np.ndarray:
    """The network's attention weights over a hidden sequence from tdnn_forward."""
    return _attend(h, params)


def embed_hidden(h: np.ndarray, params: EmbedNetParams, weights="uniform") -> np.ndarray:
    """Segment embedding of a hidden sequence from tdnn_forward: pool it with
    the requested weights, then apply the first segment layer (and no layer
    after it).

    weights: "uniform", "internal" (the network's own attention), or an
    explicit per-frame weight vector over the valid frames; a (k, L) matrix
    of k weight rows gives the (k, embed_dim) embeddings of one pooling call,
    each equal to its one-row call.
    """
    s = pool_weighted_stats(h, _pool_weights(params, h, weights)).concat()
    return _row_products(s, params.seg1.weight.T) + params.seg1.bias


def extract_embedding(frames, params: EmbedNetParams, weights="uniform") -> np.ndarray:
    """Segment embedding of an utterance; weights as for embed_hidden."""
    return embed_hidden(tdnn_forward(frames, params), params, weights)


def export_attention_weights(frames, params: EmbedNetParams) -> np.ndarray:
    """The network's attention weights over the valid frames of an utterance."""
    return hidden_attention_weights(tdnn_forward(frames, params), params)


def forward_logits(frames, params: EmbedNetParams, weights=None) -> np.ndarray:
    """Inference-mode logits, through the training forward, so they equal the
    loss's logits exactly; defaults to the network's natural pooling."""
    if weights is None:
        weights = "internal" if params.attention is not None else "uniform"
    return _pool_forward(params, tdnn_forward(frames, params), weights)[1]


# ---------------------------------------------------------------------------
# named parameters (_param_items: fixed order; norm buffers are not parameters)

def _param_items(params: EmbedNetParams):
    for i, layer in enumerate(params.tdnn):
        yield f"tdnn{i}.w", layer.linear.weight
        yield f"tdnn{i}.b", layer.linear.bias
        yield f"tdnn{i}.gamma", layer.norm.gamma
        yield f"tdnn{i}.beta", layer.norm.beta
    if params.attention is not None:
        att = params.attention
        yield "att.w", att.weight
        yield "att.b", att.bias
        yield "att.v", att.v
        yield "att.k", att.k
        yield "att.gamma", att.norm.gamma
        yield "att.beta", att.norm.beta
    yield "seg1.w", params.seg1.weight
    yield "seg1.b", params.seg1.bias
    yield "norm1.gamma", params.norm1.gamma
    yield "norm1.beta", params.norm1.beta
    yield "seg2.w", params.seg2.weight
    yield "seg2.b", params.seg2.bias
    yield "norm2.gamma", params.norm2.gamma
    yield "norm2.beta", params.norm2.beta
    yield "out.w", params.out.weight
    yield "out.b", params.out.bias


# ---------------------------------------------------------------------------
# loss + analytic backward

def softmax_cross_entropy(logits: np.ndarray, label: int):
    shifted = logits - logits.max()
    logz = np.log(np.exp(shifted).sum())
    prob = np.exp(shifted - logz)
    loss = logz - shifted[label]
    dlogits = prob.copy()
    dlogits[label] -= 1.0
    return loss, dlogits


def chunk_loss(params: EmbedNetParams, x: np.ndarray, label: int, mode: str) -> float:
    """Training-objective forward only (used by finite-difference checks)."""
    _, logits = _pool_forward(params, tdnn_forward(x, params), mode)
    return softmax_cross_entropy(logits, label)[0]


def relu_sites(params: EmbedNetParams):
    """(site, layer, norm) for every ReLU, in forward order: the layer whose
    bias feeds the ReLU and the normalization after it. Site names key
    relu_inputs and the activations of chunk_loss_and_grads."""
    for i, layer in enumerate(params.tdnn):
        yield f"tdnn{i}", layer.linear, layer.norm
    if params.attention is not None:
        yield "att", params.attention, params.attention.norm
    yield "norm1", params.seg1, params.norm1
    yield "norm2", params.seg2, params.norm2


def relu_inputs(params: EmbedNetParams, x: np.ndarray, mode: str,
                net: FoldedTdnn | None = None):
    """Pre-activations of every ReLU in the training forward pass.

    net: the fold of params to run (default: fold_tdnn(params)). Returns
    (inputs, radicand): inputs maps each site of relu_sites to the
    (rows, units) array its ReLU received; radicand is the pooled variance
    before the sqrt.
    """
    pre: list = []
    cache: dict = {}
    h = _folded_forward(fold_tdnn(params) if net is None else net, x, pre=pre)
    _pool_forward(params, h, mode, cache)
    inputs = {f"tdnn{i}": z for i, z in enumerate(pre)}
    if "za" in cache:  # the attention head ran
        inputs["att"] = cache["za"]
    inputs["norm1"] = cache["emb"]
    inputs["norm2"] = cache["z2"]
    return inputs, cache["radicand"]


def kink_margin(params: EmbedNetParams, x: np.ndarray, mode: str):
    """Distance of the training forward pass from its non-smooth points.

    Returns (smallest |pre-activation| over every ReLU input, smallest
    standard-deviation radicand). Finite-difference gradient checks are
    only trustworthy when both are comfortably larger than the probe
    step, so callers redraw instances that land too close to a kink.
    """
    inputs, radicand = relu_inputs(params, x, mode)
    return min(float(np.abs(z).min()) for z in inputs.values()), float(radicand.min())


def _block_backward(dy, x, r, layer, norm, grads: dict, acts: dict,
                    layer_name: str, site: str, factors=None, offsets=(0,)) -> np.ndarray:
    """Backward of one Linear -> ReLU -> norm block (see ops._block_forward)
    over rows. dy is the loss gradient of the block's output, overwritten;
    x and r are the block's input and post-ReLU arrays (r > 0 exactly where
    the ReLU's input is). factors: the norm's (inv, scale) from a fold,
    inv = 1 / sqrt(var + eps) and scale = gamma * inv; computed from norm
    when not given. offsets: the layer's splice, whose weight gradient is
    one product per tap with the shifted rows of x. Stores the gradients of
    `layer_name`.w/.b and `site`.gamma/.beta in grads and r as acts[site],
    and returns the gradient of the block's pre-ReLU input."""
    if factors is None:
        inv = norm.scale()
        factors = inv, norm.gamma * inv
    inv, scale = factors
    dbeta = grads[f"{site}.beta"] = dy.sum(axis=0)
    grads[f"{site}.gamma"] = inv * (np.einsum("ij,ij->j", dy, r) - norm.running_mean * dbeta)
    dz = np.multiply(dy, scale, out=dy)
    dz *= r > 0
    # np.dot, not @: on one-row blocks matmul takes a slow non-BLAS path
    n = dz.shape[0]
    taps = [np.dot(dz.T, x[o - offsets[0]:o - offsets[0] + n]) for o in offsets]
    grads[f"{layer_name}.w"] = taps[0] if len(taps) == 1 else np.hstack(taps)
    grads[f"{layer_name}.b"] = dz.sum(axis=0)
    acts[site] = r
    return dz


def chunk_loss_and_grads(params: EmbedNetParams, x: np.ndarray, label: int, mode: str,
                         net: FoldedTdnn | None = None):
    """Forward + analytic backward for one chunk.

    net: the fold of params to run (default: fold_tdnn(params)); a training
    step folds once for all of its chunks. The TDNN stack runs forward and
    backward in the fold's dtype, and a non-finite hidden frame raises
    NumericsError; the hidden frames are float64 from there.
    Returns (loss, grads, activations): grads keyed like _param_items;
    activations holds the pre-norm (post-ReLU) arrays each norm layer saw,
    for the running-statistics update done outside the gradient path.
    """
    net = fold_tdnn(params) if net is None else net
    post: list = []
    h = _folded_forward(net, x, post)
    if not np.isfinite(h).all():
        raise NumericsError("the TDNN stack's output is not finite")
    h = h.astype(np.float64, copy=False)
    c: dict = {}
    _, logits = _pool_forward(params, h, mode, c)
    loss, dlogits = softmax_cross_entropy(logits, label)

    # segment layers, as one-row matrices
    grads = {"out.w": np.outer(dlogits, c["y2"]), "out.b": dlogits}
    acts: dict = {}
    dy = dlogits[None, :] @ params.out.weight
    dy = _block_backward(dy, c["y1"], c["r2"], params.seg2, params.norm2,
                         grads, acts, "seg2", "norm2") @ params.seg2.weight
    ds = (_block_backward(dy, c["s"], c["r1"], params.seg1, params.norm1,
                          grads, acts, "seg1", "norm1") @ params.seg1.weight)[0]

    # pooling
    dim = h.shape[1]
    mean, sigma = c["s"][0, :dim], c["s"][0, dim:]
    dmean = ds[:dim].copy()
    dsigma = ds[dim:]
    pos = c["radicand"] > 1e-12
    dradicand = np.where(pos, dsigma * 0.5 / np.where(pos, sigma, 1.0), 0.0)
    dmean -= 2.0 * mean * dradicand
    alpha = c["alpha"]
    dh = alpha[:, None] * (dmean[None, :] + 2.0 * h * dradicand[None, :])
    if "ua" in c:  # the attention head ran
        dalpha = h @ dmean + (h * h) @ dradicand
        de = alpha * (dalpha - alpha @ dalpha)
        att = params.attention
        grads["att.v"] = c["ua"].T @ de
        grads["att.k"] = np.asarray(de.sum())
        dza = _block_backward(np.outer(de, att.v), h, c["ra"], att, att.norm,
                              grads, acts, "att", "att")
        dh = dh + dza @ att.weight

    # TDNN stack, in the fold's dtype. Layer i reads r of layer i - 1 through
    # the folded weight W * tile(a) and bias b + W @ tile(c), so with dy the
    # gradient of the unfolded norm output y = a * r + c, dL/dr = a * dy, and
    # W's gradient is (dz' splice(r)) * tile(a) + outer(sum dz, tile(c)).
    dy = dh.astype(post[-1].dtype, copy=False)
    for i in reversed(range(len(params.tdnn))):
        layer, offsets = params.tdnn[i], params.tdnn[i].offsets
        x_in = x if i == 0 else post[i - 1]
        dz = _block_backward(dy, x_in, post[i], layer.linear, layer.norm, grads, acts,
                             f"tdnn{i}", f"tdnn{i}", net.norms[i][:2], offsets)
        if i == 0:
            break  # the input frames need no gradient
        _, prev_scale, prev_shift = net.norms[i - 1]
        dw = grads[f"tdnn{i}.w"].reshape(dz.shape[1], len(offsets), -1)  # (out, tap, in)
        dw *= prev_scale
        dw += np.outer(grads[f"tdnn{i}.b"], prev_shift)[:, None, :]
        n_out, width = dz.shape[0], x_in.shape[1]
        dy = np.zeros_like(x_in)
        for j, o in enumerate(offsets):
            shift = o - offsets[0]
            dy[shift:shift + n_out] += dz @ net.weights[i][:, j * width:(j + 1) * width]

    return loss, grads, acts


# ---------------------------------------------------------------------------
# serialization (EMB1)

class _ZeroDraws:  # init_embed_net's generator when every value is overwritten
    standard_normal = staticmethod(np.zeros)  # numpy.random (2 MB resident) stays unloaded


def _tensor_items(params: EmbedNetParams):
    """Every array an EMB1 file holds, by name: the parameters, then each
    norm's running statistics. A norm is named after its site when the site
    is the norm (norm1, norm2), else as the site's norm (tdnn0.norm)."""
    yield from _param_items(params)
    for site, _, norm in relu_sites(params):
        name = site if site.startswith("norm") else f"{site}.norm"
        yield f"{name}.mean", norm.running_mean
        yield f"{name}.var", norm.running_var


def save_embed_net(path, params: EmbedNetParams):
    meta = {
        "input_dim": params.input_dim,
        "n_speakers": params.n_speakers,
        "n_tdnn": len(params.tdnn),
        "has_attention": int(params.attention is not None),
    }
    for i, layer in enumerate(params.tdnn):
        meta[f"tdnn{i}.n_offsets"] = len(layer.offsets)
        for j, o in enumerate(layer.offsets):
            meta[f"tdnn{i}.offset{j}"] = o
    write_named_tensors(path, b"EMB1", meta, dict(_tensor_items(params)))


def load_embed_net(path) -> EmbedNetParams:
    """Read an EMB1 net: init_embed_net builds the layout its meta gives, at
    the widths of its norms' gammas, and every array of _tensor_items is
    filled from the file. A missing meta key, bad offsets, a size the file
    cannot hold, or a missing, extra or misshaped tensor raises FormatError."""
    meta, tensors = read_named_tensors(path, b"EMB1")
    try:
        offsets = tuple(tuple(meta[f"tdnn{i}.offset{j}"]
                              for j in range(meta[f"tdnn{i}.n_offsets"]))
                        for i in range(meta["n_tdnn"]))
        dims = {"input_dim": meta["input_dim"], "n_speakers": meta["n_speakers"]}
        attentive = bool(meta["has_attention"])
    except KeyError as exc:
        raise FormatError(f"{path}: missing meta key {exc}") from None
    if not offsets or not all(o and list(o) == sorted(set(o)) for o in offsets):
        raise FormatError(f"{path}: bad TDNN offsets {offsets}")
    # each width is the size of the gamma of the norm after that layer
    sites = {"hidden_dim": "tdnn0", "pool_dim": f"tdnn{len(offsets) - 1}",
             "embed_dim": "norm2", **({"attention_dim": "att"} if attentive else {})}
    for key, site in sites.items():
        dims[key] = tensors.get(f"{site}.gamma", np.empty(0)).size
    n_values = sum(t.size for t in tensors.values())
    if not all(1 <= n <= n_values for n in dims.values()):
        raise FormatError(f"{path}: a dimension is zero or larger than the file")
    params = init_embed_net(EmbedNetConfig(attentive=attentive, tdnn_offsets=offsets,
                                           **dims), _ZeroDraws)
    for name, arr in _tensor_items(params):
        value = tensors.pop(name, None)
        if value is None or value.shape != arr.shape:
            raise FormatError(f"{path}: tensor {name} is missing or not {arr.shape}")
        arr[...] = value
    if tensors:
        raise FormatError(f"{path}: unexpected tensors {sorted(tensors)}")
    return params
